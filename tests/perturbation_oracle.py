"""Assembled first-order Stokes matrices, used only as test oracles.

The package contracts a nodal shape gradient with the vertex motion; these
oracles build the sparse matrices A1, B1, the load f1 and the transport
pairing T element by element from the kernels of the pulled-back
problem, so L1 = 1/2 u'A1 u - f1'u - lam'B1 u can be checked against
them.  Given the P1 interpolant of a velocity field (the motion
``transport_mesh`` performs to first order), they are the derivatives of
the assembled arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from shapederiv.stokes_fem import _GRAD_BARY, _P1_VALS, _P2_VALS

from kernel_oracle import phys_grads


class P1Interpolant:
    """The P1 interpolant of a velocity field on a function space's mesh,
    evaluated at that space's quadrature points only."""

    def __init__(self, space, field):
        self.space = space
        mesh = space.mesh
        self.nodal = field.evaluate(mesh.vertices)[mesh.triangles]  # (nt, 3, 2)
        xy = mesh.vertices[mesh.triangles]
        jac = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=-1)
        hat = np.linalg.solve(np.swapaxes(jac, 1, 2), np.broadcast_to(_GRAD_BARY.T, jac.shape[:1] + (2, 3)))
        self.element_gradient = np.einsum("tki,tjk->tij", self.nodal, hat)  # (nt, 2, 2), constant per element

    def _check(self, points):
        assert points is self.space.quad_points, "the interpolant is evaluated at its quadrature points only"

    def evaluate(self, points):
        self._check(points)
        return _P1_VALS @ self.nodal

    def gradient(self, points):
        self._check(points)
        return np.repeat(self.element_gradient[:, None], points.shape[1], axis=1)


@dataclass(frozen=True)
class PerturbationMatrices:
    """First-order perturbation matrices, restricted to the free dofs."""

    A1: sparse.csr_matrix
    B1: sparse.csr_matrix
    f1: np.ndarray


def _field_kernels(space, field):
    grad = field.gradient(space.quad_points)  # (nt, nq, 2, 2)
    div = np.trace(grad, axis1=-2, axis2=-1)  # (nt, nq)
    return grad, div


def assemble_perturbation_matrices(space, field, f_field) -> PerturbationMatrices:
    """Assemble (A1, B1, f1) for a deformation velocity and a body force,
    with the parent system's quadrature and Dirichlet elimination."""
    pg, coef = phys_grads(space.mesh)[0], space.quad_coef
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
        A1=sparse.kron(space._topology.stiffness.matrix(a1e), sparse.identity(2), format="csr"),
        B1=space._topology.pairing.matrix(np.moveaxis(b1e, -1, 0)),
        f1=space.load_vector(f1e),
    )


def transport_pairing_matrix(space, field) -> sparse.csr_matrix:
    """Matrix T with lam'Tu = int( lambda sum_ij G_ji du_i/dx_j ), the
    transport part of the B1 kernel, assembled on its own."""
    grad, _ = _field_kernels(space, field)
    te = np.einsum("tq,qp,tqjc,tqaj->tpac", space.quad_coef, _P1_VALS, grad, phys_grads(space.mesh)[0])
    return space._topology.pairing.matrix(np.moveaxis(te, -1, 0))

