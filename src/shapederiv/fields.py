"""Analytic body-force and traction fields for the viscous-flow solver.

Forces must be globally defined with exact gradients: re-assembly on a
deformed mesh evaluates them at new coordinates, and the first-order
energy kernels consume grad(f) directly.  Batch convention matches
``flow``: points (..., 2) -> values (..., 2), gradients (..., 2, 2) with
``gradient(p)[..., i, j] = d f_i / d x_j``.

The constant and rotational forces are polynomials, so ``ConstantForce``
and ``RotationalForce`` return a ``flow.QuadraticField``: every field,
velocity or force, answers the same ``evaluate`` and ``gradient``.

``trig_manufactured`` is a full manufactured Stokes problem (velocity,
pressure, force, traction) written out in closed form with exact
gradients.  ``tests/manufactured_oracle.py`` derives the same fields
symbolically and checks the closed form against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .flow import ConstantField, QuadraticField, RotationField

__all__ = [
    "ForceField",
    "ConstantForce",
    "RotationalForce",
    "TrigForce",
    "LeftEdgeTraction",
    "ManufacturedStokes",
    "trig_manufactured",
]


class ForceField:
    """Interface: ``evaluate(points)`` and, for forces, ``gradient(points)``,
    the calls a ``flow.QuadraticField`` answers without deriving from it."""

    def evaluate(self, points) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points) -> np.ndarray:
        raise NotImplementedError


def ConstantForce(value: Sequence[float] = (1.0, 0.0)) -> QuadraticField:
    """f(x) = value."""
    return ConstantField(b=value)


def RotationalForce(c: float = 1.0) -> QuadraticField:
    """f(x) = c * (-x2, x1): equivariant under rotations about the origin."""
    return RotationField(c)


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


# --- the manufactured Stokes solution ------------------------------------------
# psi = sin^2(pi x) sin^2(pi y), u = curl psi and lambda = sin(pi x) cos(pi y),
# written in sx = sin(pi x), cx = cos(pi x), sy = sin(pi y), cy = cos(pi y).


def _sincos(points) -> tuple[np.ndarray, ...]:
    p = np.pi * np.asarray(points, dtype=float)
    return np.sin(p[..., 0]), np.cos(p[..., 0]), np.sin(p[..., 1]), np.cos(p[..., 1])


def _matrix(g00, g01, g10, g11) -> np.ndarray:
    return np.stack([np.stack([g00, g01], axis=-1), np.stack([g10, g11], axis=-1)], axis=-2)


def _manufactured_pressure(points) -> np.ndarray:
    sx, _, _, cy = _sincos(points)
    return sx * cy


@dataclass(frozen=True)
class _ManufacturedVelocity(ForceField):
    """u = 2 pi (sx^2 sy cy, -sx cx sy^2), zero on the square's boundary."""

    def evaluate(self, points):
        sx, cx, sy, cy = _sincos(points)
        return 2.0 * np.pi * np.stack([sx * sx * sy * cy, -sx * cx * sy * sy], axis=-1)

    def gradient(self, points):
        sx, cx, sy, cy = _sincos(points)
        d = 2.0 * sx * cx * sy * cy
        return 2.0 * np.pi**2 * _matrix(d, sx * sx * (cy * cy - sy * sy), (sx * sx - cx * cx) * sy * sy, -d)


@dataclass(frozen=True)
class _ManufacturedForce(ForceField):
    """f = -Lap(u) + grad(lambda), with k = 4 pi^2."""

    def evaluate(self, points):
        sx, cx, sy, cy = _sincos(points)
        k = 4.0 * np.pi**2
        f1 = cy * (k * sy * (4.0 * sx * sx - 1.0) + cx)
        return np.pi * np.stack([f1, sx * (k * cx * (1.0 - 4.0 * sy * sy) - sy)], axis=-1)

    def gradient(self, points):
        sx, cx, sy, cy = _sincos(points)
        k = 4.0 * np.pi**2
        return np.pi**2 * _matrix(
            sx * cy * (8.0 * k * cx * sy - 1.0),
            k * (4.0 * sx * sx - 1.0) * (cy * cy - sy * sy) - cx * sy,
            k * (1.0 - 4.0 * sy * sy) * (cx * cx - sx * sx) - cx * sy,
            -sx * cy * (8.0 * k * cx * sy + 1.0),
        )


@dataclass(frozen=True)
class _ManufacturedTraction(ForceField):
    """du/dx - lambda e1: the Neumann datum on the right edge (normal e1)."""

    def evaluate(self, points):
        g = _ManufacturedVelocity().gradient(points)[..., :, 0]
        g[..., 0] -= _manufactured_pressure(points)
        return g


@dataclass(frozen=True)
class ManufacturedStokes:
    """Exactly known velocity/pressure pair with matching force and traction.

    ``traction`` is the Neumann data du/dn - lambda*n on the right edge of
    the unit square (outward normal (1, 0)); use it with
    ``neumann_sides={"right"}``.
    """

    velocity: ForceField
    force: ForceField
    traction: ForceField
    pressure: Callable[[np.ndarray], np.ndarray]  # points (..., 2) -> values (...)


def trig_manufactured() -> ManufacturedStokes:
    """Divergence-free trigonometric solution on the unit square: the curl
    of the bump stream function psi = sin^2(pi x) sin^2(pi y), which
    vanishes on the whole boundary, and the pressure sin(pi x) cos(pi y)."""
    return ManufacturedStokes(
        _ManufacturedVelocity(), _ManufacturedForce(), _ManufacturedTraction(), _manufactured_pressure
    )
