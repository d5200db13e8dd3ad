"""Analytic body-force and traction fields for the viscous-flow solver.

Forces must be globally defined with exact gradients: re-assembly on a
deformed mesh evaluates them at new coordinates, and the first-order
energy kernels consume grad(f) directly.  Batch convention matches
``flow``: points (..., 2) -> values (..., 2), gradients (..., 2, 2) with
``gradient(p)[..., i, j] = d f_i / d x_j``.

``trig_manufactured`` builds a full manufactured problem (velocity,
pressure, force, traction) symbolically and differentiates it with sympy,
so the convergence study compares against genuinely independent exact
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

__all__ = [
    "ForceField",
    "ConstantForce",
    "RotationalForce",
    "TrigForce",
    "SymbolicVectorField",
    "LeftEdgeTraction",
    "ManufacturedStokes",
    "trig_manufactured",
]


class ForceField:
    """Interface: ``evaluate(points)`` and, for forces, ``gradient(points)``."""

    def evaluate(self, points) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantForce(ForceField):
    value: tuple[float, float] = (1.0, 0.0)

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        return np.broadcast_to(np.asarray(self.value, dtype=float), p.shape).copy()

    def gradient(self, points):
        p = np.asarray(points, dtype=float)
        return np.zeros(p.shape[:-1] + (2, 2))


@dataclass(frozen=True)
class RotationalForce(ForceField):
    """f(x) = c * (-x2, x1): equivariant under rotations about the origin."""

    c: float = 1.0

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        return self.c * np.stack([-p[..., 1], p[..., 0]], axis=-1)

    def gradient(self, points):
        p = np.asarray(points, dtype=float)
        g = np.zeros(p.shape[:-1] + (2, 2))
        g[..., 0, 1] = -self.c
        g[..., 1, 0] = self.c
        return g


@dataclass(frozen=True)
class TrigForce(ForceField):
    """Smooth non-gradient forcing
    f = c * (sin(pi x1 + 0.3) cos(pi x2), cos(pi x1) sin(pi x2 + 0.1))."""

    c: float = 1.0

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        pi = np.pi
        return self.c * np.stack(
            [np.sin(pi * x + 0.3) * np.cos(pi * y), np.cos(pi * x) * np.sin(pi * y + 0.1)],
            axis=-1,
        )

    def gradient(self, points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        pi = np.pi
        g = np.empty(p.shape[:-1] + (2, 2))
        g[..., 0, 0] = pi * np.cos(pi * x + 0.3) * np.cos(pi * y)
        g[..., 0, 1] = -pi * np.sin(pi * x + 0.3) * np.sin(pi * y)
        g[..., 1, 0] = -pi * np.sin(pi * x) * np.sin(pi * y + 0.1)
        g[..., 1, 1] = pi * np.cos(pi * x) * np.cos(pi * y + 0.1)
        return self.c * g


class SymbolicVectorField(ForceField):
    """Vector field defined by two sympy expressions in symbols x, y."""

    def __init__(self, fx: sp.Expr, fy: sp.Expr, symbols: tuple[sp.Symbol, sp.Symbol]):
        x, y = symbols
        self._val = [sp.lambdify((x, y), e, modules="numpy") for e in (fx, fy)]
        self._grad = [
            [sp.lambdify((x, y), sp.diff(e, v), modules="numpy") for v in (x, y)]
            for e in (fx, fy)
        ]

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.broadcast_to(f(x, y), x.shape).astype(float) for f in self._val], axis=-1)

    def gradient(self, points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        g = np.empty(p.shape[:-1] + (2, 2))
        for i in range(2):
            for j in range(2):
                g[..., i, j] = np.broadcast_to(self._grad[i][j](x, y), x.shape)
        return g


@dataclass(frozen=True)
class LeftEdgeTraction(ForceField):
    """Constant traction on the left edge of the unit square, zero elsewhere.

    Evaluated on boundary quadrature points only; the split at x = 1/2 is
    never sampled.
    """

    value: tuple[float, float] = (2.0, 0.0)

    def evaluate(self, points):
        p = np.asarray(points, dtype=float)
        on_left = (p[..., 0] < 0.5).astype(float)
        return on_left[..., None] * np.asarray(self.value, dtype=float)


@dataclass(frozen=True)
class ManufacturedStokes:
    """Exactly known velocity/pressure pair with matching force and traction.

    ``traction`` is the Neumann data du/dn - lambda*n on the right edge of
    the unit square (outward normal (1, 0)); use it with
    ``neumann_sides={"right"}``.
    """

    velocity: SymbolicVectorField
    pressure_fn: object  # callable (x, y) -> lambda values
    force: SymbolicVectorField
    traction: SymbolicVectorField

    def pressure(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return np.broadcast_to(self.pressure_fn(p[..., 0], p[..., 1]), p.shape[:-1]).astype(float)


@lru_cache(maxsize=1)
def trig_manufactured() -> ManufacturedStokes:
    """Divergence-free trigonometric solution on the unit square.

    The velocity is the curl of the bump stream function
    psi = sin^2(pi x) sin^2(pi y), so it vanishes on the whole square
    boundary; the pressure is sin(pi x) cos(pi y).  Force and traction are
    derived by substitution into the momentum balance.
    """
    x, y = sp.symbols("x y", real=True)
    psi = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    u1 = sp.diff(psi, y)
    u2 = -sp.diff(psi, x)
    lam = sp.sin(sp.pi * x) * sp.cos(sp.pi * y)
    f1 = -(sp.diff(u1, x, 2) + sp.diff(u1, y, 2)) + sp.diff(lam, x)
    f2 = -(sp.diff(u2, x, 2) + sp.diff(u2, y, 2)) + sp.diff(lam, y)
    g1 = sp.diff(u1, x) - lam
    g2 = sp.diff(u2, x)
    velocity = SymbolicVectorField(sp.simplify(u1), sp.simplify(u2), (x, y))
    force = SymbolicVectorField(sp.simplify(f1), sp.simplify(f2), (x, y))
    traction = SymbolicVectorField(sp.simplify(g1), sp.simplify(g2), (x, y))
    pressure_fn = sp.lambdify((x, y), lam, modules="numpy")
    return ManufacturedStokes(velocity=velocity, pressure_fn=pressure_fn, force=force, traction=traction)

