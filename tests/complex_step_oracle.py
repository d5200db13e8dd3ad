"""The shape derivative by the complex step, used only as a test oracle.

The assembled stiffness, divergence pairing and load are analytic in the
vertex coordinates, so assembling them on the complex vertices
v + i h Lambda(v) gives their derivatives along the vertex motion of
``transport_mesh`` as the imaginary parts over h, to roundoff and with
no hand derivation (Squire & Trapp, SIAM Rev. 40, 1998; Martins, Sturdza
& Alonso, ACM TOMS 29(3), 2003).  The derivative of the discrete energy
at a solved state is then L1 = 1/2 u'A1 u - f1'u - lam'B1 u, the formula
of ``core_minimax.shape_derivative``.

The package assembles in real arithmetic only, so the element kernels
are written out here once more in complex arithmetic, from the reference
basis tables; only the real scatter into the free dofs is the package's.
The body force, a ``TrigForce``, is evaluated by a complex copy of its
closed form, since the package's fields cast points to float.
"""

import numpy as np

from shapederiv.fields import TrigForce
from shapederiv.stokes_fem import _P1_VALS, _P2_REF_GRADS, _P2_VALS, _TRI_BARY, _TRI_W

STEP = 1e-30


def complex_force(force, points):
    """A TrigForce at complex points."""
    if not isinstance(force, TrigForce):
        raise TypeError(f"no complex form for {type(force).__name__}")
    x, y = np.pi * points[..., 0], np.pi * points[..., 1]
    return force.c * np.stack([np.sin(x + 0.3) * np.cos(y), np.cos(x) * np.sin(y + 0.1)], axis=-1)


def perturbation_blocks(space, field, force, step=STEP):
    """Element blocks of (A1, B1, f1) along the motion Lambda(v): scalar
    stiffness (nt, 6, 6), pairing (nt, 3, 6, 2) and load (nt, 6, 2)."""
    mesh = space.mesh
    z = mesh.vertices + 1j * step * field.evaluate(mesh.vertices)
    v0, v1, v2 = (z[mesh.triangles[:, k]] for k in range(3))
    jac = np.stack([v1 - v0, v2 - v0], axis=-1)  # (nt, 2, 2): columns are the edge vectors
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.stack([np.stack([jac[:, 1, 1], -jac[:, 1, 0]], -1), np.stack([-jac[:, 0, 1], jac[:, 0, 0]], -1)], 1)
    grads = np.einsum("tij,qaj->tqai", inv_t / det[:, None, None], _P2_REF_GRADS)
    coef = _TRI_W * (0.5 * det)[:, None]  # (nt, nq)
    points = np.einsum("qk,tki->tqi", _TRI_BARY, np.stack([v0, v1, v2], axis=1))
    stiffness = np.einsum("tq,tqai,tqbi->tab", coef, grads, grads)
    pairing = np.einsum("tq,qp,tqac->tpac", coef, _P1_VALS, grads)
    load = np.einsum("tq,qa,tqc->tac", coef, _P2_VALS, complex_force(force, points))
    return stiffness.imag / step, pairing.imag / step, load.imag / step


def shape_derivative(space, field, force, u, lam, step=STEP):
    """L1 = 1/2 u'A1 u - f1'u - lam'B1 u by the complex step, and its
    roundoff scale, the same sum over absolute values."""
    stiffness, pairing, load = perturbation_blocks(space, field, force, step)
    A1 = space._topology.stiffness.matrix(stiffness)
    B1, f1 = space._topology.pairing.matrix(np.moveaxis(pairing, -1, 0)), space.load_vector(load)
    grid, abs_grid = u.reshape(-1, 2), abs(u).reshape(-1, 2)
    value = 0.5 * np.vdot(grid, A1 @ grid) - f1 @ u - lam @ (B1 @ u)
    scale = 0.5 * np.vdot(abs_grid, abs(A1) @ abs_grid) + abs(f1) @ abs(u) + abs(lam) @ (abs(B1) @ abs(u))
    return float(value), float(scale)
