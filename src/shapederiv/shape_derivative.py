"""First-order sensitivity of the viscous energy to domain deformation.

Deforming the domain through the flow of a velocity field Lambda changes
the optimal energy; pulled back to the reference mesh, the change shows
up as first-order perturbations of the stiffness, the divergence pairing
and the load, with G = grad(Lambda):

    A1 kernel:  K = (div Lambda) I - G - G'
    B1 kernel:  (div Lambda)(div u) - sum_ij G_ji du_i/dx_j
    f1 kernel:  (div Lambda) f + grad(f) Lambda

The derivative of the Lagrangian at the saddle point is

    L1 = 1/2 u'A1 u - f1'u + int( lambda * sum_ij G_ji du_i/dx_j ).

Only f1 is assembled (it is the one part that needs the body force).
A1 and B1 are never built: 1/2 u'A1 u = 1/2 int( sum_c grad(u_c).K grad(u_c) )
and the multiplier term are integrated directly at the quadrature points
from grad(u_h), lambda_h and G, with G evaluated once per call and
div Lambda taken as its trace.  The (div Lambda)(div u) part of B1 is
left out of the formula because div u = 0 at the saddle point.  The
assembled matrices survive as an independent oracle in the tests.
``fd_verify`` checks the whole formula against central differences of
the energy on transported meshes.

Only G, its kernels, f1 and the contractions depend on Lambda; a sweep
over directions computes the rest once.  The residual check, grad(u_h)
and lambda_h at the quadrature points and the energy are memoized on the
system per solution (a bitwise copy of u and lambda is the key), and the
force values and gradients at the quadrature points on the function
space per force object, so a force must not change after its first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, UnsolvedSolution
from .fields import ForceField
from .flow import RotationField, VelocityField
from .mesh import DIRICHLET, TriMesh, transport_mesh
from .slopes import FdTable, fd_table
from .stokes_fem import (
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
    "DerivativeReport",
    "assemble_perturbation",
    "stokes_shape_derivative",
    "fd_verify",
    "corollary3_check",
]


# Contraction order of the E1 integrand: grad_u with the kernel, then with
# grad_u again, then the quadrature weights; no (nt, nq, 2, 2, 2) product.
_E1_PATH = ["einsum_path", (1, 2), (1, 2), (0, 1)]


@dataclass(frozen=True)
class DerivativeReport:
    """Shape derivative L1 = E1 + dual_term, optionally with its
    central-difference verification table ``fd``."""

    L1: float
    E1: float
    dual_term: float
    energy: float
    fd: FdTable | None = None


def assemble_perturbation(
    space: FunctionSpace, field: VelocityField, f_field: ForceField
) -> np.ndarray:
    """First-order load f1 on the free dofs for a deformation velocity and
    a body force, with the parent system's quadrature and Dirichlet
    elimination, so it pairs directly with its solution vectors."""
    coef = space.quad_coef
    div = field.divergence(space.quad_points)  # (nt, nq)
    memo = getattr(space, "_force_at_quad", None)  # one entry, stored in one assignment
    if memo is None or memo[0] is not f_field:
        memo = f_field, f_field.evaluate(space.quad_points), f_field.gradient(space.quad_points)
        space._force_at_quad = memo
    _, f_vals, f_grad = memo  # f_grad (nt, nq, 2, 2), [i, j] = d f_i / d x_j
    vel = field.evaluate(space.quad_points)
    f1_vals = div[..., None] * f_vals + np.einsum("tqij,tqj->tqi", f_grad, vel)
    return space.load_vector(np.einsum("tq,qa,tqc->tac", coef, _P2_VALS, f1_vals))


def _solved_state(system: StokesSystem, solution: StokesSolution, f1: np.ndarray) -> tuple:
    """A copy of the solution once it passes the residual check, grad(u_h)
    and lambda_h at the quadrature points, and the energy.  Memoized on the
    system, as its factors are, for as long as the given solution's vectors
    are bitwise equal to the copy; the shapes are checked on every call."""
    sizes = {
        "velocity": (solution.u.shape, system.space.num_velocity),
        "pressure": (solution.lam.shape, system.B.shape[0]),
        "f1": (np.shape(f1), system.space.num_velocity),
    }
    for name, (shape, n) in sizes.items():
        if shape != (n,):
            raise DimensionMismatch(f"{name} vector has shape {shape}, the system expects ({n},)")
    state = system.__dict__.get("_solved_state")
    if state is not None and np.array_equal(state[0].u, solution.u) and np.array_equal(state[0].lam, solution.lam):
        return state
    solved = replace(solution, u=solution.u.copy(), lam=solution.lam.copy())
    r_mom, r_div, scale = _residuals(system, solved.u, solved.lam)
    if not (r_mom <= 1e-8 * scale and r_div <= 1e-8 * scale):
        raise UnsolvedSolution(
            f"solution does not satisfy this system (momentum {r_mom:.3e}, divergence {r_div:.3e})"
        )
    grad_u, lam_q = system.space.element_velocity_gradients(solved.u), system.space.pressure_at_quad(solved.lam)
    state = solved, grad_u, lam_q, energy(system, solved)
    system.__dict__["_solved_state"] = state  # one assignment: concurrent callers at worst build it twice
    return state


def stokes_shape_derivative(
    system: StokesSystem,
    solution: StokesSolution,
    f1: np.ndarray,
    field: VelocityField,
) -> DerivativeReport:
    """Evaluate the shape derivative at a solved state.

    ``f1`` is :func:`assemble_perturbation`'s load for the same ``field``.
    E1 = 1/2 u'A1 u - f1'u, with the quadratic form and the multiplier
    term both integrated directly at quadrature points; ``field.jacobian``
    is evaluated once, and the divergence is its trace.  L1 = E1 +
    dual_term by construction.  A solution or f1 of the wrong size raises
    ``DimensionMismatch``; one that does not solve ``system`` raises
    ``UnsolvedSolution``.  Calls on the same system and solution share
    one residual check, grad(u_h), lambda_h and energy.
    """
    solved, grad_u, lam_q, solved_energy = _solved_state(system, solution, f1)  # grad_u [c, j] = d u_c / d x_j
    space, u = system.space, solved.u
    grad = field.jacobian(space.quad_points)  # (nt, nq, 2, 2), [i, j] = d Lambda_i / d x_j
    div = grad[..., 0, 0] + grad[..., 1, 1]
    kernel = div[..., None, None] * np.eye(2) - grad - np.swapaxes(grad, -1, -2)
    coef = space.quad_coef
    e1 = float(0.5 * np.einsum("tq,tqci,tqij,tqcj->", coef, grad_u, kernel, grad_u, optimize=_E1_PATH) - f1 @ u)
    dual = float(np.einsum("tq,tq,tqji,tqij->", coef, lam_q, grad, grad_u))
    return DerivativeReport(
        L1=e1 + dual,
        E1=e1,
        dual_term=dual,
        energy=solved_energy,
    )


def fd_verify(
    mesh: TriMesh,
    f_field: ForceField,
    field: VelocityField,
    s_values: Sequence[float],
    steps: int = 64,
) -> DerivativeReport:
    """Compare the shape derivative with central differences of the energy.

    For each step s the mesh is transported by +s and -s, the problem is
    re-assembled with the same body force evaluated at the new coordinates
    and re-solved, and :func:`slopes.fd_table` compares the difference
    quotients of the energy with L1 (the result's ``fd``).  The signed
    steps run concurrently; the base system, its factors and its solution
    are released before they start, so each thread holds at most one
    factored system.  Only the homogeneous Neumann condition is meaningful
    under transport, so no traction data enters here.  Without a Neumann
    edge the pressure is fixed only up to a constant: every solve says so
    with ``pin_pressure`` and returns the zero-mean pressure.
    """
    base_system = assemble(mesh, f_field)
    pin_pressure = not len(base_system.space.neumann_edges)
    base_solution = solve_stokes(base_system, pin_pressure=pin_pressure)
    f1 = assemble_perturbation(base_system.space, field, f_field)
    head = stokes_shape_derivative(base_system, base_solution, f1, field)
    del base_system, base_solution, f1

    def energy_at(s: float) -> float:
        system = assemble(transport_mesh(mesh, field, s, steps=steps), f_field)
        return energy(system, solve_stokes(system, pin_pressure=pin_pressure))

    return replace(head, fd=fd_table(energy_at, head.L1, head.energy, s_values, concurrent=True))


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
    meshes preserve element areas exactly.  The pressure, fixed only up
    to a constant, is solved for with zero mean; another constant would
    leave both the energy and the multiplier term unchanged.
    """
    if any(tag != DIRICHLET for tag in mesh.boundary_tags):
        raise ValueError("rotation check expects a pure-Dirichlet mesh")
    return fd_verify(mesh, f_field, RotationField(omega), s_values, steps=steps)
