"""First-order sensitivity of the viscous energy to domain deformation.

``transport_mesh`` moves only the vertices, along the flow of a velocity
field Lambda, so to first order a mesh moves by the P1 interpolant of
Lambda.  The discrete problem is the equality-cone QP of ``core_minimax``
with A(s), B(s), f(s) assembled on the moved mesh, and by the paper's
theorem its optimal energy has the derivative L1 = 1/2 u'A1 u - f1'u -
lambda'B1 u, with A1, B1, f1 the derivatives of the assembled arrays.
Pulled back with the assembly's quadrature, L1 is linear in Lambda at the
vertices: it is a nodal shape gradient g contracted with them (its volume
form: Hiptmair, Paganini & Sargheini, BIT 55, 2015; Berggren 2010),

    g_v = sum_{t containing v} T_t grad(phi_v) + sum_q coef phi_v(x_q) w_q,
    T_E = (1/2 |grad u|^2 - f.u) I - (grad u)' grad u,   w = -(grad f)' u,
    T_lam = -lambda (div u) I + lambda (grad u)',

with T_t = sum_q coef T over the quadrature points of element t.  Its
parts g_E (T_E and w) and g_lam give E1 and dual_term, for the force the
system was assembled with; a perturbation with another force is refused.
The residual check, the energy and g are memoized on the system while the
solution's vectors are bitwise equal to a copy, so a direction costs one
evaluation of Lambda at the vertices and two dot products.

``mesh_shape_derivative`` is that computation on a mesh (assemble, solve,
contract) and ``fd_verify`` adds central differences of re-solves on
transported meshes, on the base factor and stopped on their energy
estimate.  The re-solves of each sign run in order on one thread, each
started from the Lagrange interpolant of the pressures solved before it
along that sign's path, the base pressure included: the predictor step of
continuation (Allgower & Georg 2003).  The paper's
Corollary 3 is ``fd_verify`` with a divergence-free ``RotationField`` on a
mesh with no Neumann edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, UnsolvedSolution
from .fields import ForceField
from .flow import QuadraticField
from .mesh import TriMesh, transport_mesh
from .slopes import FdTable, fd_table
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
    "DerivativeReport",
    "Perturbation",
    "assemble_perturbation",
    "stokes_shape_derivative",
    "mesh_shape_derivative",
    "fd_verify",
]


@dataclass(frozen=True)
class DerivativeReport:
    """Shape derivative L1 = E1 + dual_term, optionally with its
    central-difference verification table ``fd``."""

    L1: float
    E1: float
    dual_term: float
    energy: float
    fd: FdTable | None = None


@dataclass(frozen=True)
class Perturbation:
    """A velocity field, its values at the mesh vertices and the body force."""

    field: QuadraticField
    force: ForceField
    motion: np.ndarray  # (num_vertices, 2)


def assemble_perturbation(space: FunctionSpace, field: QuadraticField, f_field: ForceField) -> Perturbation:
    """``field`` at the vertices of ``space``'s mesh, with the body force;
    a motion that is not finite at every vertex raises ``DimensionMismatch``."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        motion = field.evaluate(space.mesh.vertices)
    if not np.all(np.isfinite(motion)):
        raise DimensionMismatch("velocity field is not finite at every mesh vertex")
    return Perturbation(field, f_field, motion)


def _solved_state(system: StokesSystem, solution: StokesSolution, perturbation: Perturbation) -> tuple:
    """A copy of the solution once it passes the residual check, the energy
    and the shape gradient, memoized on the system as its factors are,
    while the solution's vectors are bitwise equal to the copy.  The shapes
    are checked on every call."""
    sizes = {
        "velocity vector": (solution.u.shape, (system.space.num_velocity,)),
        "pressure vector": (solution.lam.shape, (system.B.shape[0],)),
        "vertex motion": (perturbation.motion.shape, (system.space.num_pressure, 2)),
    }
    for name, (shape, expected) in sizes.items():
        if shape != expected:
            raise DimensionMismatch(f"{name} has shape {shape}, the system expects {expected}")
    state = system.__dict__.get("_solved_state")
    if state is not None and np.array_equal(state[0].u, solution.u) and np.array_equal(state[0].lam, solution.lam):
        return state
    solved = replace(solution, u=solution.u.copy(), lam=solution.lam.copy())
    r_mom, r_div, error = _residuals(system, solved.u, solved.lam)
    if not error <= 1e-8:
        raise UnsolvedSolution(
            f"solution does not satisfy this system (momentum {r_mom:.3e}, divergence {r_div:.3e})"
        )
    state = solved, energy(system, solved), _shape_gradient(system, solved)
    system.__dict__["_solved_state"] = state  # one assignment: concurrent callers at worst build it twice
    return state


def _shape_gradient(system: StokesSystem, solved: StokesSolution) -> np.ndarray:
    """The nodal shape gradient of a solved state of ``system``: rows g_E
    and g_lam, each over the vertices' (x, y)."""
    space, force = system.space, system.force
    coef, tri, nv = space.quad_coef, space.mesh.triangles, space.num_pressure
    nt, nq = coef.shape
    u_q = _P2_VALS @ space.expand_velocity(solved.u).reshape(-1, 2)[space.tri_nodes]  # (nt, nq, 2)
    grad_u = space.element_velocity_gradients(solved.u)  # [c, j] = d u_c / d x_j
    f_vals, f_grad = force.evaluate(space.quad_points), force.gradient(space.quad_points)  # [i, j] = d f_i / d x_j

    # Per element, sum_q coef of (grad u)'grad u, of f.u and of lambda grad u; then T_E' and T_lam'.
    gram = np.swapaxes((coef[..., None, None] * grad_u).reshape(nt, 2 * nq, 2), 1, 2) @ grad_u.reshape(nt, 2 * nq, 2)
    work = np.vecdot(coef[..., None] * f_vals, u_q).sum(axis=1)
    lam_grad = ((coef * (solved.lam[tri] @ _P1_VALS.T))[:, None] @ grad_u.reshape(nt, nq, 4)).reshape(nt, 2, 2)
    traces = np.stack([0.5 * np.trace(gram, axis1=1, axis2=2) - work, -np.trace(lam_grad, axis1=1, axis2=2)])
    tensors = traces[..., None, None] * np.eye(2) + np.stack([-gram, lam_grad])  # (2, nt, 2, 2)

    xy = space.mesh.vertices[tri]
    edge = np.roll(xy, -2, axis=1) - np.roll(xy, -1, axis=1)  # grad(phi_k) = rot(x_{k+2} - x_{k+1}) / det
    hat_grads = np.stack([-edge[..., 1], edge[..., 0]], axis=-1) / space.det[:, None, None]  # (nt, 3, 2)
    blocks = hat_grads @ tensors  # T_t grad(phi_k), (2, nt, 3, 2)
    blocks[0] -= _P1_VALS.T @ (coef[..., None] * np.einsum("tqij,tqi->tqj", f_grad, u_q))
    index = 2 * tri[..., None] + np.arange(2) + 2 * nv * np.arange(2)[:, None, None, None]
    return np.bincount(index.ravel(), blocks.ravel(), minlength=4 * nv).reshape(2, -1)


def stokes_shape_derivative(
    system: StokesSystem, solution: StokesSolution, perturbation: Perturbation, field: QuadraticField
) -> DerivativeReport:
    """Evaluate the shape derivative at a solved state.

    ``perturbation`` is :func:`assemble_perturbation`'s direction for
    ``field`` with the force the system was assembled with, or one equal
    to it (another field or force raises ``ValueError``).  E1 and dual_term
    are g_E and g_lam contracted with the motion; L1 = E1 + dual_term.  A
    solution or motion of the wrong size raises ``DimensionMismatch``; one
    that does not solve ``system`` raises ``UnsolvedSolution``.  Calls with
    the same solution share one residual check, energy and g.
    """
    if perturbation.field is not field:
        raise ValueError("the perturbation was assembled for another velocity field")
    if not (perturbation.force is system.force or perturbation.force == system.force):
        raise ValueError("the perturbation was assembled with another body force than the system's")
    _, solved_energy, gradient = _solved_state(system, solution, perturbation)
    e1, dual = map(float, gradient @ perturbation.motion.ravel())
    return DerivativeReport(L1=e1 + dual, E1=e1, dual_term=dual, energy=solved_energy)


def _solve(mesh: TriMesh, f_field: ForceField, **kwargs) -> tuple[StokesSystem, StokesSolution]:
    """Assemble and solve, with ``solve_stokes``'s keyword arguments."""
    system = assemble(mesh, f_field)
    return system, solve_stokes(system, **kwargs)


def _head(mesh: TriMesh, f_field: ForceField, field: QuadraticField) -> tuple[DerivativeReport, np.ndarray, tuple]:
    """The shape derivative on ``mesh``, the solved pressure and the LU of
    L; the rest of the system is released on return."""
    system, solution = _solve(mesh, f_field)
    perturbation = assemble_perturbation(system.space, field, f_field)
    return stokes_shape_derivative(system, solution, perturbation, field), solution.lam, system._schur().factor


def mesh_shape_derivative(mesh: TriMesh, f_field: ForceField, field: QuadraticField) -> DerivativeReport:
    """The shape derivative of the energy on ``mesh`` along ``field``: one
    assembly and solve, then :func:`stokes_shape_derivative`."""
    return _head(mesh, f_field, field)[0]


def _start_pressure(s: float, base: np.ndarray, solved: dict[float, np.ndarray]) -> np.ndarray:
    """The Lagrange interpolant at ``s`` through ``base`` at step 0 and the
    (at most) three pressures of ``solved`` (step -> pressure) whose steps
    are nearest to ``s``; ``base`` itself when ``solved`` is empty."""
    if not solved:
        return base
    nodes = [0.0, *sorted(solved, key=lambda t: abs(t - s))[:3]]
    values = [base, *(solved[t] for t in nodes[1:])]
    weights = [math.prod((s - t) / (node - t) for t in nodes if t != node) for node in nodes]
    return sum(w * value for w, value in zip(weights, values))


def fd_verify(
    mesh: TriMesh,
    f_field: ForceField,
    field: QuadraticField,
    s_values: Sequence[float],
    steps: int = 64,
) -> DerivativeReport:
    """Compare the shape derivative with central differences of the energy.

    For each step s the mesh is transported by +s and -s, the problem is
    re-assembled with the same body force evaluated at the new coordinates
    and re-solved, and :func:`slopes.fd_table` compares the difference
    quotients of the energy with L1 (the result's ``fd``).  The + steps and
    the - steps run as two chains, each in ``s_values`` order on one thread
    (``fd_table``'s ``concurrent``).  Each re-solve starts from the
    interpolant at s of the pressures solved so far along the path of its
    sign, the base pressure at s = 0 and at most the three nearest of its
    chain's earlier steps (a chain's first step starts from the base
    pressure).  It corrects that state in sweeps on the base LU of L, as
    the meshes share one topology (``solve_stokes``'s ``start`` and
    ``factor``), to a relative energy error of about 1e-15, and factors
    nothing unless its mesh has moved too far for the sweeps to contract:
    it is then the cold solve.  Each chain keeps its own earlier pressures,
    so the starts, and the table, do not depend on the threads' timing or
    the CPU count.  An affine velocity without a window moves the mesh by
    the closed form of its RK4 flow (``flow.flow_points``).  Both chains
    share the base pressure and factor, which they only read; the rest of
    the base system and its solution is released before they start.  Only
    the homogeneous Neumann condition is meaningful under transport, so no
    traction data enters here.
    """
    head, lam, factor = _head(mesh, f_field, field)
    chains: dict[bool, dict[float, np.ndarray]] = {True: {}, False: {}}  # per sign; only its chain writes it

    def energy_at(s: float) -> float:
        solved = chains[s > 0.0]
        moved = transport_mesh(mesh, field, s, steps=steps)
        system, solution = _solve(moved, f_field, start=_start_pressure(s, lam, solved), factor=factor)
        solved[s] = solution.lam
        return energy(system, solution)

    return replace(head, fd=fd_table(energy_at, head.L1, head.energy, s_values, concurrent=True))
