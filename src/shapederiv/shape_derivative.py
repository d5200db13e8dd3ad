"""First-order sensitivity of the viscous energy to domain deformation.

Deforming the domain through the flow of a velocity field Lambda changes
the optimal energy; pulled back to the reference mesh, the change shows
up as first-order perturbations of the stiffness, the divergence pairing
and the load:

    A1 kernel:  (div Lambda) I - grad(Lambda) - grad(Lambda)'
    B1 kernel:  (div Lambda)(div u) - sum_ij G_ji du_i/dx_j,  G = grad(Lambda)
    f1 kernel:  (div Lambda) f + grad(f) Lambda

The derivative of the optimal energy splits into an energy part
E1 = 1/2 u'A1 u - f1'u and a multiplier part
int( lambda * sum_ij G_ji du_i/dx_j ), which is evaluated by direct
quadrature rather than through the assembled B1 (the two routes are
compared in the tests).  ``fd_verify`` checks the whole formula against
central differences of the energy on transported meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse

from .errors import UnsolvedSolution
from .fields import ForceField
from .flow import RotationField, VelocityField
from .mesh import DIRICHLET, TriMesh, transport_mesh
from .slopes import loglog_slope
from .stokes_fem import (
    _P1_VALS,
    _P2_VALS,
    FunctionSpace,
    StokesSolution,
    StokesSystem,
    _residuals,
    assemble,
    energy,
    solve_stokes,
)

__all__ = [
    "PerturbationForms",
    "FdEntry",
    "DerivativeReport",
    "assemble_perturbation",
    "transport_pairing_matrix",
    "stokes_shape_derivative",
    "fd_verify",
    "corollary3_check",
]


@dataclass(frozen=True)
class PerturbationForms:
    """First-order perturbation matrices, restricted to the free dofs."""

    A1: sparse.csr_matrix
    B1: sparse.csr_matrix
    f1: np.ndarray


@dataclass(frozen=True)
class FdEntry:
    s: float
    fd: float
    abs_err: float


@dataclass(frozen=True)
class DerivativeReport:
    """Shape derivative L1 = E1 + dual_term, optionally with its
    central-difference verification table."""

    L1: float
    E1: float
    dual_term: float
    energy: float
    fd_table: tuple[FdEntry, ...] | None = None
    slope: float | None = None
    one_sided_slope: float | None = None
    exact: bool = False


def _field_kernels(space: FunctionSpace, field: VelocityField):
    grad = field.jacobian(space.quad_points)  # (nt, nq, 2, 2)
    div = field.divergence(space.quad_points)  # (nt, nq)
    return grad, div


def assemble_perturbation(
    space: FunctionSpace, field: VelocityField, f_field: ForceField
) -> PerturbationForms:
    """Assemble (A1, B1, f1) for a deformation velocity and a body force.

    Uses the same quadrature and the same Dirichlet elimination as the
    parent system, so the matrices pair directly with its solution
    vectors.
    """
    pg, coef = space.phys_grads, space.quad_coef
    grad, div = _field_kernels(space, field)

    q_kernel = div[..., None, None] * np.eye(2) - grad - np.swapaxes(grad, -1, -2)
    a1e = np.einsum("tqai,tqij,tqbj,tq->tab", pg, q_kernel, pg, coef)
    a1e = 0.5 * (a1e + np.swapaxes(a1e, 1, 2))  # kernel is symmetric; enforce exactly

    b1e = np.einsum("tq,tq,qp,tqac->tpac", coef, div, _P1_VALS, pg)
    b1e -= np.einsum("tq,qp,tqjc,tqaj->tpac", coef, _P1_VALS, grad, pg)

    f_vals = f_field.evaluate(space.quad_points)
    f_grad = f_field.gradient(space.quad_points)  # (nt, nq, 2, 2), [i, j] = d f_i / d x_j
    vel = field.evaluate(space.quad_points)
    f1_vals = div[..., None] * f_vals + np.einsum("tqij,tqj->tqi", f_grad, vel)
    f1e = np.einsum("tq,qa,tqc->tac", coef, _P2_VALS, f1_vals)
    return PerturbationForms(
        A1=space.stiffness_matrix(a1e), B1=space.pairing_matrix(b1e), f1=space.load_vector(f1e)
    )


def transport_pairing_matrix(space: FunctionSpace, field: VelocityField) -> sparse.csr_matrix:
    """Matrix T with lam'Tu = int( lambda sum_ij G_ji du_i/dx_j ), the
    transport part of the B1 kernel, assembled on its own."""
    grad, _ = _field_kernels(space, field)
    te = np.einsum("tq,qp,tqjc,tqaj->tpac", space.quad_coef, _P1_VALS, grad, space.phys_grads)
    return space.pairing_matrix(te)


def _dual_term_quadrature(
    space: FunctionSpace, field: VelocityField, u_free: np.ndarray, lam: np.ndarray
) -> float:
    """Direct quadrature of int( lambda sum_ij G_ji du_i/dx_j )."""
    grad, _ = _field_kernels(space, field)
    grad_u = space.element_velocity_gradients(u_free)
    lam_q = space.pressure_at_quad(lam)
    return float(np.einsum("tq,tq,tqji,tqij->", space.quad_coef, lam_q, grad, grad_u))


def _check_solved(system: StokesSystem, solution: StokesSolution) -> None:
    r_mom, r_div, scale = _residuals(system, solution.u, solution.lam)
    if not (r_mom <= 1e-8 * scale and r_div <= 1e-8 * scale):
        raise UnsolvedSolution(
            f"solution does not satisfy this system (momentum {r_mom:.3e}, divergence {r_div:.3e})"
        )


def stokes_shape_derivative(
    system: StokesSystem,
    solution: StokesSolution,
    forms: PerturbationForms,
    field: VelocityField,
) -> DerivativeReport:
    """Evaluate the shape derivative at a solved state.

    E1 comes from the assembled first-order matrices; the multiplier term
    is integrated directly at quadrature points.  L1 = E1 + dual_term by
    construction.
    """
    _check_solved(system, solution)
    u, lam = solution.u, solution.lam
    e1 = float(0.5 * u @ (forms.A1 @ u) - forms.f1 @ u)
    dual = _dual_term_quadrature(system.space, field, u, lam)
    return DerivativeReport(
        L1=e1 + dual,
        E1=e1,
        dual_term=dual,
        energy=energy(system, solution),
    )


def fd_verify(
    mesh: TriMesh,
    f_field: ForceField,
    field: VelocityField,
    s_values: Sequence[float],
    steps: int = 64,
    pin_pressure: bool = False,
) -> DerivativeReport:
    """Compare the shape derivative with central differences of the energy.

    For each step s the mesh is transported by +s and -s, the problem is
    re-assembled with the same body force evaluated at the new coordinates
    and re-solved, and the quotient (E(+s) - E(-s)) / (2s) enters the
    table together with its distance to L1.  The slope of that distance
    against s is fitted by least squares; ``one_sided_slope`` does the
    same for the forward quotient (E(+s) - E(0)) / s.  Only the
    homogeneous Neumann condition is meaningful under transport, so no
    traction data enters here.
    """
    s_values = [float(s) for s in s_values]
    if any(not (s > 0.0 and math.isfinite(s)) for s in s_values):
        raise ValueError("finite-difference steps must be positive and finite")
    base_system = assemble(mesh, f_field)
    base_solution = solve_stokes(base_system, pin_pressure=pin_pressure)
    forms = assemble_perturbation(base_system.space, field, f_field)
    head = stokes_shape_derivative(base_system, base_solution, forms, field)

    entries: list[FdEntry] = []
    one_sided_err: list[float] = []
    for s in s_values:
        e_pm = []
        for sign in (+1.0, -1.0):
            moved = transport_mesh(mesh, field, sign * s, steps=steps)
            system = assemble(moved, f_field)
            sol = solve_stokes(system, pin_pressure=pin_pressure)
            e_pm.append(energy(system, sol))
        fd = (e_pm[0] - e_pm[1]) / (2.0 * s)
        entries.append(FdEntry(s=s, fd=fd, abs_err=abs(fd - head.L1)))
        one_sided_err.append(abs((e_pm[0] - head.energy) / s - head.L1))

    scale = 1.0 + abs(head.energy) + abs(head.L1)
    errs = [e.abs_err for e in entries]
    exact = max(errs + one_sided_err) <= 1e-12 * scale
    slope = one_sided = None
    if not exact and len(s_values) >= 2:
        if min(errs) > 0.0:
            slope = loglog_slope(s_values, errs)
        if min(one_sided_err) > 0.0:
            one_sided = loglog_slope(s_values, one_sided_err)
    return DerivativeReport(
        L1=head.L1,
        E1=head.E1,
        dual_term=head.dual_term,
        energy=head.energy,
        fd_table=tuple(entries),
        slope=slope,
        one_sided_slope=one_sided,
        exact=exact,
    )


def corollary3_check(
    mesh: TriMesh,
    f_field: ForceField,
    omega: float,
    s_values: Sequence[float],
    steps: int = 64,
) -> DerivativeReport:
    """Shape derivative under a rigid rotation of a pure-Dirichlet domain.

    Rotation velocities are divergence-free, so every (div Lambda) term in
    the first-order kernels vanishes identically and the transported
    meshes preserve element areas exactly.  The pressure is pinned and
    re-centered to zero mean, which leaves both the energy and the
    multiplier term unchanged.
    """
    if any(tag != DIRICHLET for tag in mesh.boundary_tags):
        raise ValueError("rotation check expects a pure-Dirichlet mesh")
    field = RotationField(omega)
    return fd_verify(mesh, f_field, field, s_values, steps=steps, pin_pressure=True)
