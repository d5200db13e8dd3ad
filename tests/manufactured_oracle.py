"""Reference manufactured Stokes solution, derived symbolically with sympy.

``fields.trig_manufactured`` writes the velocity, force, traction and
pressure out in closed form.  This is the derivation it replaced: sympy
differentiates the stream function and substitutes into the momentum
balance, and ``lambdify`` turns the results into numpy functions.  It is
kept as the oracle for the closed form.
"""

from typing import NamedTuple

import numpy as np
import sympy as sp

X, Y = sp.symbols("x y", real=True)


class SymbolicVectorField:
    """Vector field defined by two sympy expressions in x, y.

    ``magnitude`` and ``gradient_magnitude`` give, per component, the sum of
    the absolute values of the expression's terms once products and
    multiple angles are expanded: the scale of its rounding error.
    """

    def __init__(self, fx: sp.Expr, fy: sp.Expr):
        grads = [[sp.diff(e, v) for v in (X, Y)] for e in (fx, fy)]
        self._val = [_numeric(e) for e in (fx, fy)]
        self._grad = [[_numeric(e) for e in row] for row in grads]
        self._scale = [_numeric(_term_magnitude(e)) for e in (fx, fy)]
        self._grad_scale = [[_numeric(_term_magnitude(e)) for e in row] for row in grads]

    def evaluate(self, points):
        return _stack(self._val, points)

    def gradient(self, points):
        return np.stack([_stack(row, points) for row in self._grad], axis=-2)

    def magnitude(self, points):
        return _stack(self._scale, points)

    def gradient_magnitude(self, points):
        return np.stack([_stack(row, points) for row in self._grad_scale], axis=-2)


def _numeric(expr: sp.Expr):
    return sp.lambdify((X, Y), expr, modules="numpy")


def _term_magnitude(expr: sp.Expr) -> sp.Expr:
    return sp.Add(*(sp.Abs(t) for t in sp.Add.make_args(sp.expand(expr, trig=True))))


def _stack(functions, points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    return np.stack([np.broadcast_to(f(x, y), x.shape).astype(float) for f in functions], axis=-1)


class ManufacturedOracle(NamedTuple):
    velocity: SymbolicVectorField
    force: SymbolicVectorField
    traction: SymbolicVectorField
    pressure: SymbolicVectorField  # (lambda, 0)


def trig_manufactured() -> ManufacturedOracle:
    """The problem of ``fields.trig_manufactured``, derived by substitution.

    The velocity is the curl of psi = sin^2(pi x) sin^2(pi y), the pressure
    is sin(pi x) cos(pi y), the force is -Lap(u) + grad(lambda) and the
    traction is du/dx - lambda e1, the Neumann datum on the right edge.
    """
    psi = sp.sin(sp.pi * X) ** 2 * sp.sin(sp.pi * Y) ** 2
    u1 = sp.diff(psi, Y)
    u2 = -sp.diff(psi, X)
    lam = sp.sin(sp.pi * X) * sp.cos(sp.pi * Y)
    f1 = -(sp.diff(u1, X, 2) + sp.diff(u1, Y, 2)) + sp.diff(lam, X)
    f2 = -(sp.diff(u2, X, 2) + sp.diff(u2, Y, 2)) + sp.diff(lam, Y)
    g1 = sp.diff(u1, X) - lam
    g2 = sp.diff(u2, X)
    return ManufacturedOracle(
        velocity=SymbolicVectorField(sp.simplify(u1), sp.simplify(u2)),
        force=SymbolicVectorField(sp.simplify(f1), sp.simplify(f2)),
        traction=SymbolicVectorField(sp.simplify(g1), sp.simplify(g2)),
        pressure=SymbolicVectorField(lam, sp.Integer(0)),
    )
