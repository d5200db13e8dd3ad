"""Assembled first-order Stokes matrices, used only as test oracles.

The package evaluates 1/2 u'A1 u and the multiplier term directly at the
quadrature points and assembles only the load f1; these oracles build the
sparse matrices A1, B1 and the transport pairing T element by element,
so L1 = 1/2 u'A1 u - f1'u + lam'Tu can be checked against them.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from shapederiv.stokes_fem import _P1_VALS, _P2_VALS


@dataclass(frozen=True)
class PerturbationMatrices:
    """First-order perturbation matrices, restricted to the free dofs."""

    A1: sparse.csr_matrix
    B1: sparse.csr_matrix
    f1: np.ndarray


def _field_kernels(space, field):
    grad = field.jacobian(space.quad_points)  # (nt, nq, 2, 2)
    div = field.divergence(space.quad_points)  # (nt, nq)
    return grad, div


def assemble_perturbation_matrices(space, field, f_field) -> PerturbationMatrices:
    """Assemble (A1, B1, f1) for a deformation velocity and a body force,
    with the parent system's quadrature and Dirichlet elimination."""
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
    return PerturbationMatrices(
        A1=sparse.kron(space.stiffness_matrix(a1e), sparse.identity(2), format="csr"),
        B1=space.pairing_matrix(b1e),
        f1=space.load_vector(f1e),
    )


def transport_pairing_matrix(space, field) -> sparse.csr_matrix:
    """Matrix T with lam'Tu = int( lambda sum_ij G_ji du_i/dx_j ), the
    transport part of the B1 kernel, assembled on its own."""
    grad, _ = _field_kernels(space, field)
    te = np.einsum("tq,qp,tqjc,tqaj->tpac", space.quad_coef, _P1_VALS, grad, space.phys_grads)
    return space.pairing_matrix(te)


def dual_term_quadrature(space, field, u_free, lam) -> float:
    """Direct quadrature of int( lambda sum_ij G_ji du_i/dx_j )."""
    grad, _ = _field_kernels(space, field)
    grad_u = space.element_velocity_gradients(u_free)
    lam_q = space.pressure_at_quad(lam)
    return float(np.einsum("tq,tq,tqji,tqij->", space.quad_coef, lam_q, grad, grad_u))
