"""Plain-einsum element kernels and the monomial-stack quadratic field,
used only as test oracles.

The package evaluates the element matrices as the element geometry times
reference tensors, the velocity gradients through the reference
gradients, the E1 part of the shape derivative as a nodal vector, and the
quadratic field in closed form; these oracles keep the direct forms (one
einsum string per kernel over the physical basis gradients at every
quadrature point, with no path, and a stack of monomials times the
coefficients), so the fast kernels can be checked against them to
roundoff.  Each kernel oracle also returns the same
contraction over absolute values, the scale that roundoff is relative to.  The package sums
load vectors, and matrices through their fixed patterns, with
``np.bincount``; the dense ``np.add.at`` sums kept here, over the full
dofs and then sliced to the free ones, add in the same order, so the two
must agree bit for bit.  The pressure integral
weights have no package counterpart: the solver returns the zero-mean
pressure, and the tests measure its mean with them.
"""

from dataclasses import dataclass

import numpy as np

from shapederiv.flow import QuadraticField
from shapederiv.stokes_fem import _P1_VALS, _P2_REF_GRADS, _P2_VALS


def phys_grads(mesh):
    """Physical P2 basis gradients (nt, nq, 6, 2) and their scale."""
    v, t = mesh.vertices, mesh.triangles
    v0 = v[t[:, 0]]
    e1 = v[t[:, 1]] - v0
    e2 = v[t[:, 2]] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    jinv_t = np.stack([np.stack([e2[:, 1], -e1[:, 1]], -1), np.stack([-e2[:, 0], e1[:, 0]], -1)], 1)
    jinv_t = jinv_t / det[:, None, None]
    grads = np.einsum("tij,qaj->tqai", jinv_t, _P2_REF_GRADS)
    return grads, np.einsum("tij,qaj->tqai", np.abs(jinv_t), np.abs(_P2_REF_GRADS))


def stiffness_blocks(space):
    """Scalar P2 stiffness blocks (nt, 6, 6) and their scale."""
    pg, coef = phys_grads(space.mesh)[0], space.quad_coef
    return (
        np.einsum("tqai,tqbi,tq->tab", pg, pg, coef),
        np.einsum("tqai,tqbi,tq->tab", np.abs(pg), np.abs(pg), np.abs(coef)),
    )


def pairing_blocks(space):
    """P1 x P2 divergence pairing blocks (nt, 3, 6, 2) and their scale."""
    pg, coef = phys_grads(space.mesh)[0], space.quad_coef
    return (
        np.einsum("tq,qp,tqac->tpac", coef, _P1_VALS, pg),
        np.einsum("tq,qp,tqac->tpac", np.abs(coef), _P1_VALS, np.abs(pg)),
    )


def mass_blocks(space):
    """P1 pressure mass blocks (nt, 3, 3) and their scale."""
    coef = space.quad_coef
    return (
        np.einsum("tq,qp,qr->tpr", coef, _P1_VALS, _P1_VALS),
        np.einsum("tq,qp,qr->tpr", np.abs(coef), _P1_VALS, _P1_VALS),
    )


def load_blocks(space, f_vals):
    """Body-load blocks (nt, 6, 2) from force values at the quadrature
    points, and their scale."""
    coef = space.quad_coef
    return (
        np.einsum("tq,qa,tqc->tac", coef, _P2_VALS, f_vals),
        np.einsum("tq,qa,tqc->tac", np.abs(coef), np.abs(_P2_VALS), np.abs(f_vals)),
    )


def pressure_values(space, lam):
    """P1 pressure at the quadrature points (nt, nq) and its scale."""
    vertex_values = lam[space.mesh.triangles]
    return np.einsum("tp,qp->tq", vertex_values, _P1_VALS), np.einsum("tp,qp->tq", np.abs(vertex_values), _P1_VALS)


def velocity_gradients(space, u_free):
    """grad(u_h) at the quadrature points (nt, nq, 2, 2) and its scale."""
    coeffs = space.expand_velocity(u_free).reshape(-1, 2)[space.tri_nodes]
    pg = phys_grads(space.mesh)[0]
    return (
        np.einsum("tai,tqaj->tqij", coeffs, pg),
        np.einsum("tai,tqaj->tqij", np.abs(coeffs), np.abs(pg)),
    )


def e1(space, field, u_free, f1):
    """E1 = 1/2 u'A1 u - f1'u by one einsum at the quadrature points, and
    its scale."""
    grad = field.gradient(space.quad_points)
    div = np.trace(grad, axis1=-2, axis2=-1)
    kernel = div[..., None, None] * np.eye(2) - grad - np.swapaxes(grad, -1, -2)
    gu = space.element_velocity_gradients(u_free)
    coef = space.quad_coef
    value = 0.5 * np.einsum("tq,tqci,tqij,tqcj->", coef, gu, kernel, gu) - f1 @ u_free
    scale = 0.5 * np.einsum("tq,tqci,tqij,tqcj->", coef, abs(gu), abs(kernel), abs(gu)) + abs(f1) @ abs(u_free)
    return float(value), float(scale)


def load_vector(space, blocks, nodes=None):
    """``FunctionSpace.load_vector`` summed by ``np.add.at``, which adds
    in the order of the index array, as ``np.bincount`` does."""
    full = np.zeros(2 * space.num_nodes)
    np.add.at(full, 2 * (space.tri_nodes if nodes is None else nodes)[..., None] + np.arange(2), blocks)
    return full[space.free_dofs]


def _dense_sum(rows, cols, blocks, shape):
    """``blocks`` summed by ``np.add.at`` into a dense array at (rows, cols),
    broadcast to the blocks, in their order."""
    full = np.zeros(shape)
    np.add.at(full, (np.broadcast_to(rows, blocks.shape), np.broadcast_to(cols, blocks.shape)), blocks)
    return full


def stiffness_matrix(space, blocks):
    """The stiffness pattern's ``matrix`` as a dense array: P2 blocks (nt,
    6, 6) over all nodes, then the free rows and columns."""
    nodes = space.tri_nodes
    full = _dense_sum(nodes[:, :, None], nodes[:, None, :], blocks, (space.num_nodes, space.num_nodes))
    return full[np.ix_(space._topology.free_nodes, space._topology.free_nodes)]


def pairing_matrix(space, blocks):
    """The pairing pattern's ``matrix`` as a dense array: blocks (nt, 3, 6,
    2) over all velocity dofs, then the free columns."""
    rows = space.mesh.triangles[:, :, None, None]
    cols = 2 * space.tri_nodes[:, None, :, None] + np.arange(2)
    return _dense_sum(rows, cols, blocks, (space.num_pressure, 2 * space.num_nodes))[:, space.free_dofs]


def mass_matrix(space, blocks):
    """The pressure mass matrix as a dense array from P1 blocks (nt, 3, 3)."""
    tri = space.mesh.triangles
    return _dense_sum(tri[:, :, None], tri[:, None, :], blocks, (space.num_pressure, space.num_pressure))


def pressure_integral_weights(space):
    """Vector a with a.lam = integral of the P1 pressure lam (exact), summed
    by ``np.add.at``."""
    weights = np.zeros(space.num_pressure)
    np.add.at(weights, space.mesh.triangles, (space.det / 6.0)[:, None])
    return weights


def _monomials(p):
    x, y = p[..., 0], p[..., 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    value = np.stack([one, x, y, x * x, x * y, y * y], axis=-1)
    dx = np.stack([zero, one, zero, 2 * x, y, zero], axis=-1)
    dy = np.stack([zero, zero, one, zero, x, 2 * y], axis=-1)
    return value, dx, dy


@dataclass(frozen=True, kw_only=True)
class StackedQuadraticField(QuadraticField):
    """QuadraticField evaluated as a stack of the six monomials (and of
    their derivatives) times the coefficient matrix."""

    def _evaluate(self, p):
        value, _, _ = _monomials(p)
        return value @ np.asarray(self.coeffs, dtype=float).T

    def _jacobian(self, p):
        c = np.asarray(self.coeffs, dtype=float)
        _, dx, dy = _monomials(p)
        jac = np.empty(p.shape[:-1] + (2, 2))
        jac[..., 0, :] = np.stack([dx @ c[0], dy @ c[0]], axis=-1)
        jac[..., 1, :] = np.stack([dx @ c[1], dy @ c[1]], axis=-1)
        return jac

    def scales(self, points):
        """Sums of |coefficient x monomial| for the value (..., 2) and the
        Jacobian (..., 2, 2) of the field without a window."""
        p = np.asarray(points, dtype=float)
        c = np.abs(np.asarray(self.coeffs, dtype=float))
        value, dx, dy = (np.abs(m) for m in _monomials(p))
        return value @ c.T, np.stack([dx @ c.T, dy @ c.T], axis=-1)
