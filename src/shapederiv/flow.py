"""Velocity fields and the flow maps they generate.

A stationary velocity field Lambda deforms the plane through the
autonomous system  d(phi)/ds = Lambda(phi), phi(0) = x.  Integrating the
variational equation dJ/ds = grad(Lambda)(phi) J alongside gives the flow
Jacobian, whose determinant must stay positive for the map to remain a
diffeomorphism.  Every velocity is one ``QuadraticField``, a polynomial
of degree at most 2 per component, optionally times a cutoff window;
``ZeroField``, ``ConstantField``, ``AffineField`` and ``RotationField``
only choose its coefficients.  Its ``gradient`` is exact; the shape
derivative reads only the values at the mesh vertices.

Every field evaluates on batches: points of shape (..., 2) produce values
of shape (..., 2) and gradients (..., 2, 2), with
``gradient(p)[..., i, j] = d Lambda_i / d x_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPositiveJacobian

__all__ = [
    "CutoffWindow",
    "ZeroField",
    "ConstantField",
    "AffineField",
    "RotationField",
    "QuadraticField",
    "FlowSample",
    "flow_points",
    "integrate_flow",
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
        if not np.all(np.isfinite((self.lo, self.hi))):
            raise ValueError("window bounds must be finite")
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
class QuadraticField:
    """Per-component polynomial of degree at most 2, optionally times a
    cutoff window.

    ``coeffs[i]`` holds the six coefficients of component i against the
    monomials (1, x1, x2, x1^2, x1*x2, x2^2).  Without degree-2 terms the
    field is affine, Lambda(x) = M x + b, and is evaluated as such.  The
    window multiplies the polynomial, and ``gradient`` applies the product
    rule, so windowed fields keep exact derivatives.
    """

    coeffs: tuple[tuple[float, ...], tuple[float, ...]]
    window: CutoffWindow | None = None

    def __post_init__(self):
        if self._c.shape != (2, 6):
            raise ValueError("coeffs must be 2 components x 6 monomials")

    @cached_property
    def _c(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    @cached_property
    def _affine(self) -> bool:
        return not self._c[:, 3:].any()

    def matrix(self) -> np.ndarray:
        """The linear terms M: ``matrix()[i, j]`` multiplies x_j in component i."""
        return self._c[:, 1:3].copy()

    def _evaluate(self, p):
        if self._affine:
            return p @ self.matrix().T + self._c[:, 0]
        x, y = p[..., 0], p[..., 1]
        v = np.empty(p.shape)
        for i, (c0, c1, c2, c3, c4, c5) in enumerate(self._c):
            v[..., i] = c0 + x * (c1 + c3 * x + c4 * y) + y * (c2 + c5 * y)
        return v

    def _jacobian(self, p):
        x, y = p[..., 0], p[..., 1]
        jac = np.empty(p.shape[:-1] + (2, 2))
        for i, (_, c1, c2, c3, c4, c5) in enumerate(self._c):
            jac[..., i, 0] = c1 + 2.0 * c3 * x + c4 * y
            jac[..., i, 1] = c2 + c4 * x + 2.0 * c5 * y
        return jac

    def evaluate(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        v = self._evaluate(p)
        if self.window is not None:
            v = v * self.window.value(p)[..., None]
        return v

    def gradient(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        jac = self._jacobian(p)
        if self.window is not None:
            chi = self.window.value(p)
            grad_chi = self.window.gradient(p)
            jac = chi[..., None, None] * jac + self._evaluate(p)[..., :, None] * grad_chi[..., None, :]
        return jac


def AffineField(
    *, M: Sequence[Sequence[float]], b: Sequence[float] = (0.0, 0.0), window: CutoffWindow | None = None
) -> QuadraticField:
    """Lambda(x) = M x + b with a constant matrix M."""
    linear = np.column_stack([b, M, np.zeros((2, 3))])
    return QuadraticField(coeffs=tuple(map(tuple, linear.tolist())), window=window)


def ZeroField(*, window: CutoffWindow | None = None) -> QuadraticField:
    """Lambda = 0."""
    return AffineField(M=np.zeros((2, 2)), window=window)


def ConstantField(*, b: Sequence[float], window: CutoffWindow | None = None) -> QuadraticField:
    """Lambda = b, a rigid translation."""
    return AffineField(M=np.zeros((2, 2)), b=b, window=window)


def RotationField(omega: float = 1.0, window: CutoffWindow | None = None) -> QuadraticField:
    """Rigid rotation velocity Lambda(x) = omega * (-x2, x1); divergence-free."""
    return AffineField(M=((0.0, -float(omega)), (float(omega), 0.0)), window=window)


@dataclass(frozen=True)
class FlowSample:
    """Image point, flow Jacobian and its determinant at one parameter value."""

    point: np.ndarray
    jacobian: np.ndarray
    det: np.ndarray


def _det2(j: np.ndarray) -> np.ndarray:
    return j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]


def _points(x, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    points = np.array(x, dtype=float)
    if points.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    return points


def _rk4(rhs, state: tuple, s: float, steps: int, valid) -> tuple:
    """Classical fixed-step RK4 on a tuple of arrays: ``rhs(*state)`` gives
    their derivatives.  Raises NonPositiveJacobian as soon as
    ``valid(*state)`` fails after a step."""
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


def _affine_flow(field: QuadraticField, p: np.ndarray, s: float, steps: int) -> tuple:
    """The RK4 flow of an affine field without a window in closed form: one
    step of y' = M y + b is a map y -> P y + c, found by the same stages on
    [I | 0] (as rows: e_1, e_2, the origin), and ``steps`` of them make
    x -> R x + t.  Returns the points, R and det P; an iterate that is not
    finite raises NonPositiveJacobian, as a blown-up trajectory does."""
    bias = np.vstack([np.zeros((2, 2)), field._c[:, 0]])
    step = np.eye(3)
    step[:, :2] = _rk4(lambda y: (y @ field.matrix().T + bias,), (np.eye(3, 2),), s / steps, 1, lambda y: True)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        flow = np.linalg.matrix_power(step, steps)
        points = p @ flow[:2, :2] + flow[2, :2]
    if not (np.isfinite(flow).all() and np.isfinite(points).all()):
        raise NonPositiveJacobian(f"s={s} is outside the diffeomorphism range of the flow")
    return points, flow[:2, :2].T, _det2(step[:2, :2])


def flow_points(field: QuadraticField, x, s: float, steps: int = 64) -> np.ndarray:
    """``integrate_flow(field, x, s, steps).point`` without the Jacobian;
    raises NonPositiveJacobian when a trajectory blows up.  An affine
    field without a window maps the points by its flow's closed form."""
    p = _points(x, steps)
    if field._affine and field.window is None:
        return _affine_flow(field, p, s, steps)[0]
    return _rk4(lambda p: (field.evaluate(p),), (p,), s, steps, lambda p: np.all(np.isfinite(p)))[0]


def integrate_flow(field: QuadraticField, x, s: float, steps: int = 64) -> FlowSample:
    """Integrate the flow and its Jacobian with classical fixed-step RK4.

    Point and Jacobian advance jointly: the Jacobian obeys the variational
    equation dJ/ds = grad(Lambda)(phi) J with J(0) = I, where grad(Lambda)
    is ``field.gradient``.  The inverse map is the flow of the negated
    field started from the image point.  Raises NonPositiveJacobian when
    the determinant stops being positive (or the trajectory blows up),
    i.e. when s left the diffeomorphism range.  An affine field without a
    window takes the closed form x -> R x + t of its RK4 flow, whose
    Jacobian is R = P^steps: its determinant stays positive exactly when
    that of the one-step map P is.
    """
    phi = _points(x, steps)
    if field._affine and field.window is None:
        phi, jac, det_step = _affine_flow(field, phi, s, steps)
        if not det_step > 0.0:
            raise NonPositiveJacobian(f"s={s} is outside the diffeomorphism range of the flow")
        jac = np.broadcast_to(jac, phi.shape[:-1] + (2, 2)).copy()
        return FlowSample(point=phi, jacobian=jac, det=_det2(jac))
    jac = np.broadcast_to(np.eye(2), phi.shape[:-1] + (2, 2)).copy()

    def positive(p, j):
        det = _det2(j)
        return np.all((det > 0.0) & (det < np.inf))

    phi, jac = _rk4(lambda p, j: (field.evaluate(p), field.gradient(p) @ j), (phi, jac), s, steps, positive)
    return FlowSample(point=phi, jacobian=jac, det=_det2(jac))
