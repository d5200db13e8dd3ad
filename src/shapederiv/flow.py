"""Velocity fields and the flow maps they generate.

A stationary velocity field Lambda deforms the plane through the
autonomous system  d(phi)/ds = Lambda(phi), phi(0) = x.  Integrating the
variational equation dJ/ds = grad(Lambda)(phi) J alongside gives the flow
Jacobian, whose determinant must stay positive for the map to remain a
diffeomorphism.  All field families are closed-form, so their Jacobians
and divergences are exact; this matters because downstream first-order
kernels consume grad(Lambda) and div(Lambda) directly and any
finite-difference noise would pollute the o(s) residual checks.

Every field evaluates on batches: points of shape (..., 2) produce values
of shape (..., 2), Jacobians (..., 2, 2) and divergences (...,).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveJacobian
from .slopes import loglog_slope

__all__ = [
    "CutoffWindow",
    "VelocityField",
    "ZeroField",
    "ConstantField",
    "AffineField",
    "RotationField",
    "QuadraticField",
    "FlowSample",
    "flow_points",
    "integrate_flow",
    "ExpansionReport",
    "expansion_check",
]


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic ramp 6t^5 - 15t^4 + 10t^3 on [0,1]; C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_d(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t * t * (t - 1.0) * (t - 1.0), 0.0)


@dataclass(frozen=True)
class CutoffWindow:
    """Axis-aligned box with a quintic ramp of relative width ``ramp``.

    The window value is 1 well inside the box, 0 outside, and ramps
    smoothly (C^2) over a margin of ``ramp`` times the side length at each
    face.  Multiplying a velocity field by the window localizes it without
    breaking the Lipschitz regularity of its gradient.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]
    ramp: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.ramp <= 0.5):
            raise ValueError("ramp fraction must lie in (0, 0.5]")
        if self.lo[0] >= self.hi[0] or self.lo[1] >= self.hi[1]:
            raise ValueError("window box must have positive side lengths")

    def _axis_profile(self, x: np.ndarray, axis: int):
        a, b = self.lo[axis], self.hi[axis]
        w = self.ramp * (b - a)
        up = (x - a) / w
        down = (b - x) / w
        val = _smoothstep(up) * _smoothstep(down)
        dval = (_smoothstep_d(up) * _smoothstep(down) - _smoothstep(up) * _smoothstep_d(down)) / w
        return val, dval

    def value(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        vx, _ = self._axis_profile(p[..., 0], 0)
        vy, _ = self._axis_profile(p[..., 1], 1)
        return vx * vy

    def gradient(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        vx, dx = self._axis_profile(p[..., 0], 0)
        vy, dy = self._axis_profile(p[..., 1], 1)
        return np.stack([dx * vy, vx * dy], axis=-1)


@dataclass(frozen=True, kw_only=True)
class VelocityField:
    """Base class: closed-form velocity with exact Jacobian and divergence.

    Subclasses implement the bare field; the base class applies the
    optional cutoff window by the product rule, so windowed fields keep
    exact derivatives.
    """

    window: CutoffWindow | None = None

    def _evaluate(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _jacobian(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        v = self._evaluate(p)
        if self.window is not None:
            v = v * self.window.value(p)[..., None]
        return v

    def jacobian(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        jac = self._jacobian(p)
        if self.window is not None:
            chi = self.window.value(p)
            grad_chi = self.window.gradient(p)
            jac = chi[..., None, None] * jac + self._evaluate(p)[..., :, None] * grad_chi[..., None, :]
        return jac

    def divergence(self, points) -> np.ndarray:
        jac = self.jacobian(points)
        return jac[..., 0, 0] + jac[..., 1, 1]

    def negated(self) -> "VelocityField":
        """Field with the opposite sign, generating the inverse flow."""
        return _Negated(inner=self)


@dataclass(frozen=True, kw_only=True)
class _Negated(VelocityField):
    inner: VelocityField

    def evaluate(self, points):
        return -self.inner.evaluate(points)

    def jacobian(self, points):
        return -self.inner.jacobian(points)

    def divergence(self, points):
        return -self.inner.divergence(points)


@dataclass(frozen=True, kw_only=True)
class ZeroField(VelocityField):
    def _evaluate(self, p):
        return np.zeros(p.shape)

    def _jacobian(self, p):
        return np.zeros(p.shape[:-1] + (2, 2))


@dataclass(frozen=True, kw_only=True)
class ConstantField(VelocityField):
    b: tuple[float, float]

    def _evaluate(self, p):
        return np.broadcast_to(np.asarray(self.b, dtype=float), p.shape).copy()

    def _jacobian(self, p):
        return np.zeros(p.shape[:-1] + (2, 2))


@dataclass(frozen=True, kw_only=True)
class AffineField(VelocityField):
    """Lambda(x) = M x + b with a constant matrix M."""

    M: tuple[tuple[float, float], tuple[float, float]]
    b: tuple[float, float] = (0.0, 0.0)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.M, dtype=float)

    def _evaluate(self, p):
        return p @ self.matrix().T + np.asarray(self.b, dtype=float)

    def _jacobian(self, p):
        return np.broadcast_to(self.matrix(), p.shape[:-1] + (2, 2)).copy()


def RotationField(omega: float = 1.0, window: CutoffWindow | None = None) -> AffineField:
    """Rigid rotation velocity Lambda(x) = omega * (-x2, x1); divergence-free."""
    return AffineField(M=((0.0, -float(omega)), (float(omega), 0.0)), window=window)


@dataclass(frozen=True, kw_only=True)
class QuadraticField(VelocityField):
    """Per-component degree-2 polynomial velocity.

    ``coeffs[i]`` holds the six coefficients of component i against the
    monomials (1, x1, x2, x1^2, x1*x2, x2^2).
    """

    coeffs: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (2, 6):
            raise ValueError("coeffs must be 2 components x 6 monomials")

    def _evaluate(self, p):
        x, y = p[..., 0], p[..., 1]
        v = np.empty(p.shape)
        for i, (c0, c1, c2, c3, c4, c5) in enumerate(np.asarray(self.coeffs, dtype=float)):
            v[..., i] = c0 + x * (c1 + c3 * x + c4 * y) + y * (c2 + c5 * y)
        return v

    def _jacobian(self, p):
        x, y = p[..., 0], p[..., 1]
        jac = np.empty(p.shape[:-1] + (2, 2))
        for i, (_, c1, c2, c3, c4, c5) in enumerate(np.asarray(self.coeffs, dtype=float)):
            jac[..., i, 0] = c1 + 2.0 * c3 * x + c4 * y
            jac[..., i, 1] = c2 + c4 * x + 2.0 * c5 * y
        return jac


@dataclass(frozen=True)
class FlowSample:
    """Image point, flow Jacobian and its determinant at one parameter value."""

    point: np.ndarray
    jacobian: np.ndarray
    det: np.ndarray


def _det2(j: np.ndarray) -> np.ndarray:
    return j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]


def _rk4(rhs, state: tuple, s: float, steps: int, valid) -> tuple:
    """Classical fixed-step RK4 on a tuple of arrays, points first:
    ``rhs(*state)`` gives their derivatives.  Raises NonPositiveJacobian
    as soon as ``valid(*state)`` fails after a step."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if state[0].shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    h = s / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = rhs(*state)
            k2 = rhs(*(y + 0.5 * h * dy for y, dy in zip(state, k1)))
            k3 = rhs(*(y + 0.5 * h * dy for y, dy in zip(state, k2)))
            k4 = rhs(*(y + h * dy for y, dy in zip(state, k3)))
            state = tuple(y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4))
            if not valid(*state):
                raise NonPositiveJacobian(f"s={s} is outside the diffeomorphism range of the flow")
    return state


def flow_points(field: VelocityField, x, s: float, steps: int = 64) -> np.ndarray:
    """``integrate_flow(field, x, s, steps).point`` without the Jacobian;
    raises NonPositiveJacobian when a trajectory blows up."""
    state = (np.array(x, dtype=float),)
    return _rk4(lambda p: (field.evaluate(p),), state, s, steps, lambda p: np.all(np.isfinite(p)))[0]


def integrate_flow(field: VelocityField, x, s: float, steps: int = 64) -> FlowSample:
    """Integrate the flow and its Jacobian with classical fixed-step RK4.

    Point and Jacobian advance jointly: the Jacobian obeys the variational
    equation dJ/ds = grad(Lambda)(phi) J with J(0) = I.  The inverse map is
    the flow of ``field.negated()`` started from the image point.  Raises
    NonPositiveJacobian when the determinant stops being positive (or the
    trajectory blows up), i.e. when s left the diffeomorphism range.
    """
    phi = np.array(x, dtype=float)
    jac = np.broadcast_to(np.eye(2), phi.shape[:-1] + (2, 2)).copy()

    def positive(p, j):
        det = _det2(j)
        return np.all((det > 0.0) & (det < np.inf))

    phi, jac = _rk4(lambda p, j: (field.evaluate(p), field.jacobian(p) @ j), (phi, jac), s, steps, positive)
    return FlowSample(point=phi, jacobian=jac, det=_det2(jac))


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


def expansion_check(field: VelocityField, x, s_values: Sequence[float], steps: int = 64) -> ExpansionReport:
    """Measure how fast the first-order expansion residuals vanish with s."""
    x = np.asarray(x, dtype=float)
    grad = field.jacobian(x)
    div = field.divergence(x)
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
