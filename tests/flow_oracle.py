"""The paper's first-order flow expansions, measured on one trajectory.

For the flow phi_s of a velocity Lambda,

    inv(grad phi_s) = I - s grad(Lambda) + o(s),
    det(grad phi_s) = 1 + s div(Lambda) + o(s).

``expansion_check`` integrates the flow Jacobian with
``shapederiv.flow.integrate_flow`` and fits the decay slope of both
remainders, an oracle for the expansions the shape-derivative kernels
are built on.  No command of the package runs it.  ``negated`` gives the
field whose flow is the inverse map.  ``rk4_flow`` is the flow by RK4 on
every point, with the Jacobian beside it: the package's integration for
every field before affine fields without a window took the closed form
of their RK4 flow, and the oracle of that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from shapederiv.flow import QuadraticField, integrate_flow
from shapederiv.slopes import loglog_slope


def rk4_flow(field: QuadraticField, x, s: float, steps: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """The image points and flow Jacobians of x after ``steps`` classical
    RK4 steps of the point and its variational equation, point by point."""
    state = (np.array(x, dtype=float),)
    state += (np.broadcast_to(np.eye(2), state[0].shape[:-1] + (2, 2)).copy(),)
    h = s / steps

    def rhs(p, j):
        return field.evaluate(p), field.gradient(p) @ j

    for _ in range(steps):
        k1 = rhs(*state)
        k2 = rhs(*(y + 0.5 * h * dy for y, dy in zip(state, k1)))
        k3 = rhs(*(y + 0.5 * h * dy for y, dy in zip(state, k2)))
        k4 = rhs(*(y + h * dy for y, dy in zip(state, k3)))
        state = tuple(y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4))
    return state


def negated(field: QuadraticField) -> QuadraticField:
    """The field with the opposite sign, generating the inverse flow."""
    return replace(field, coeffs=tuple(tuple(-c for c in row) for row in field.coeffs))


@dataclass(frozen=True)
class ExpansionReport:
    """Residual sizes of the first-order flow expansions and their decay slopes.

    r1 is the remainder of  inv(grad phi_s) = I - s grad(Lambda) + r1,
    r2 the remainder of  det(grad phi_s) = 1 + s div(Lambda) + r2,
    both evaluated at a fixed base point.  ``exact`` marks fields whose
    residuals vanish identically (zero and constant velocities), in which
    case the slopes are None.
    """

    s_values: tuple[float, ...]
    r1_norms: tuple[float, ...]
    r2_norms: tuple[float, ...]
    slope_r1: float | None
    slope_r2: float | None
    exact: bool


def expansion_check(field: QuadraticField, x, s_values: Sequence[float], steps: int = 64) -> ExpansionReport:
    """Measure how fast the first-order expansion residuals vanish with s."""
    x = np.asarray(x, dtype=float)
    grad = field.gradient(x)
    div = np.trace(grad, axis1=-2, axis2=-1)
    r1n, r2n = [], []
    for s in s_values:
        sample = integrate_flow(field, x, float(s), steps=steps)
        inv_jac = np.linalg.inv(sample.jacobian)
        r1 = inv_jac - (np.eye(2) - s * grad)
        r2 = sample.det - (1.0 + s * div)
        r1n.append(float(np.linalg.norm(r1)))
        r2n.append(float(abs(r2)))
    scale = 1.0 + float(np.abs(grad).max()) + float(abs(div))
    exact = max(r1n + r2n) <= 1e-13 * scale
    if exact:
        slope1 = slope2 = None
    else:
        slope1 = loglog_slope(s_values, np.maximum(r1n, 1e-300))
        slope2 = loglog_slope(s_values, np.maximum(r2n, 1e-300))
    return ExpansionReport(
        s_values=tuple(float(s) for s in s_values),
        r1_norms=tuple(r1n),
        r2_norms=tuple(r2n),
        slope_r1=slope1,
        slope_r2=slope2,
        exact=exact,
    )
