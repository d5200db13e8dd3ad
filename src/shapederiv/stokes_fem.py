"""Mixed Dirichlet-Neumann viscous flow on triangulations (Taylor-Hood P2/P1).

The problem: minimize the viscous energy  int( sum_i 1/2|grad u_i|^2 - f.u )
over velocities vanishing on the Dirichlet part of the boundary, subject
to the pointwise divergence-free constraint; the pressure is the
multiplier of that constraint.  The quadratic/linear element pair is
inf-sup stable, which keeps the discrete multiplier unique whenever the
Neumann part of the boundary is nonempty.

Assembly uses a fixed six-point triangle rule (exact through degree 4)
and three-point Gauss edges.  Every element kernel is a sum over the
quadrature points, evaluated as a batched matrix product or as an einsum
along a contraction path, so that it costs what its arithmetic costs; the
direct einsum forms are kept as test oracles.  Element blocks become
global arrays in three ``FunctionSpace`` methods only --
``stiffness_matrix``, ``pairing_matrix`` and ``load_vector`` -- which sum
contributions in a fixed order and drop the Dirichlet dofs.  The state
system and its first-order perturbation go through the same three, so
they pair dof for dof and repeated assemblies are bit-identical.

Saddle systems are solved through their structure rather than by one LU of
the bordered matrix: both velocity components share the Dirichlet nodes,
so the stiffness is two interleaved copies of the scalar P2 Laplacian,
which is factored once at half size; the pressure then comes from
conjugate gradients on the Schur complement B A^-1 B', preconditioned by
the P1 pressure mass matrix (Elman, Silvester & Wathen, "Finite Elements
and Fast Iterative Solvers", OUP 2014).  Inf-sup stability bounds the
preconditioned spectrum independently of the mesh, so the iteration count
does not grow under refinement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, EmptyDirichletBoundary, SingularSystem
from .fields import ForceField, ManufacturedStokes
from .mesh import DIRICHLET, TriMesh, _edge_keys, _edge_table

__all__ = [
    "FunctionSpace",
    "StokesSystem",
    "StokesSolution",
    "assemble",
    "solve_stokes",
    "energy",
    "inf_sup_constant",
    "h1_velocity_error",
    "pressure_mass_matrix",
    "ConvergenceRow",
    "convergence_study",
]

# Six-point triangle rule, exact for polynomials of degree <= 4.
_QA1, _QB1, _QW1 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_QA2, _QB2, _QW2 = 0.108103018168070, 0.445948490915965, 0.223381589678011
_TRI_BARY = np.array(
    [
        [_QA1, _QB1, _QB1],
        [_QB1, _QA1, _QB1],
        [_QB1, _QB1, _QA1],
        [_QA2, _QB2, _QB2],
        [_QB2, _QA2, _QB2],
        [_QB2, _QB2, _QA2],
    ]
)
_TRI_W = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])  # sums to 1

# Three-point Gauss rule on [0, 1] (degree 5).
_EDGE_T = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_EDGE_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

_GRAD_BARY = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d l_k / d(xi, eta)


def _p2_values(bary: np.ndarray) -> np.ndarray:
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ]
    )


def _p2_ref_grads(bary: np.ndarray) -> np.ndarray:
    nq = bary.shape[0]
    g = np.zeros((nq, 6, 2))
    l = bary
    d = _GRAD_BARY
    for k in range(3):
        g[:, k, :] = (4 * l[:, k] - 1)[:, None] * d[k]
    pairs = [(0, 1), (1, 2), (2, 0)]  # midpoint nodes 3, 4, 5
    for idx, (a, b) in enumerate(pairs):
        g[:, 3 + idx, :] = 4 * (l[:, a][:, None] * d[b] + l[:, b][:, None] * d[a])
    return g


_P2_VALS = _p2_values(_TRI_BARY)        # (nq, 6)
_P2_REF_GRADS = _p2_ref_grads(_TRI_BARY)  # (nq, 6, 2)
_P1_VALS = _TRI_BARY                    # (nq, 3)


def _edge_p2_values(t: np.ndarray) -> np.ndarray:
    return np.column_stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


_EDGE_P2 = _edge_p2_values(_EDGE_T)  # (3 quad, 3 nodes: start, end, mid)


class FunctionSpace:
    """Taylor-Hood space on a mesh: P2 vector velocity, P1 scalar pressure.

    Velocity nodes are vertices plus edge midpoints; both velocity
    components are constrained to zero at every node on the closure of
    the Dirichlet edges.  Pressure nodes are the vertices, unconstrained.
    Precomputes the per-element geometry used by every assembly loop.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        v, t = mesh.vertices, mesh.triangles
        nv, nt = mesh.num_vertices, mesh.num_triangles

        # Edge midpoints are numbered nv, nv + 1, ... in order of first
        # appearance over the local edges (01, 12, 20) of the triangles.
        local, keys, first, inverse, *_ = _edge_table(t, nv)
        order = np.argsort(first)
        mid_node = np.empty_like(order)
        mid_node[order] = nv + np.arange(order.size)
        self.tri_nodes = np.hstack([t, mid_node[inverse].reshape(nt, 3)])
        a, b = local[first[order]].T
        self.node_coords = np.vstack([v, 0.5 * (v[a] + v[b])])
        self.num_nodes = self.node_coords.shape[0]
        self.num_pressure = nv

        ends = mesh.boundary_edges.reshape(-1, 2)
        boundary_keys = _edge_keys(ends, nv)
        pos = np.minimum(np.searchsorted(keys, boundary_keys), keys.size - 1)
        if not np.array_equal(keys[pos], boundary_keys):
            raise ValueError("a boundary edge is not an edge of the triangulation")
        edges = np.column_stack([ends, mid_node[pos]])
        on_dirichlet = np.array([tag == DIRICHLET for tag in mesh.boundary_tags], dtype=bool)
        self.neumann_edges = edges[~on_dirichlet]  # (k, 3): start, end and midpoint node
        self.dirichlet_nodes = np.unique(edges[on_dirichlet])

        constrained = np.zeros(2 * self.num_nodes, dtype=bool)
        constrained[2 * self.dirichlet_nodes] = True
        constrained[2 * self.dirichlet_nodes + 1] = True
        self.free_dofs = np.nonzero(~constrained)[0]
        self.num_velocity = self.free_dofs.size

        # Element geometry: affine maps, physical basis gradients, quadrature.
        v0 = v[t[:, 0]]
        e1 = v[t[:, 1]] - v0
        e2 = v[t[:, 2]] - v0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        jinv_t = np.empty((nt, 2, 2))
        jinv_t[:, 0, 0] = e2[:, 1]
        jinv_t[:, 0, 1] = -e1[:, 1]
        jinv_t[:, 1, 0] = -e2[:, 0]
        jinv_t[:, 1, 1] = e1[:, 0]
        jinv_t /= det[:, None, None]
        self.det = det
        self.phys_grads = np.einsum("tij,qaj->tqai", jinv_t, _P2_REF_GRADS, optimize=True)
        xi, eta = _TRI_BARY[:, 1], _TRI_BARY[:, 2]
        self.quad_points = (
            v0[:, None, :] + xi[None, :, None] * e1[:, None, :] + eta[None, :, None] * e2[:, None, :]
        )
        self.quad_coef = _TRI_W[None, :] * (0.5 * det)[:, None]

    def expand_velocity(self, u_free: np.ndarray) -> np.ndarray:
        """Free-dof coefficients -> full vector with zeros at Dirichlet dofs."""
        full = np.zeros(2 * self.num_nodes)
        full[self.free_dofs] = u_free
        return full

    def element_velocity_gradients(self, u_free: np.ndarray) -> np.ndarray:
        """grad(u_h) at every quadrature point: (nt, nq, 2, 2)."""
        full = self.expand_velocity(u_free)
        coeffs = full.reshape(-1, 2)[self.tri_nodes]  # (nt, 6, 2)
        return np.einsum("tai,tqaj->tqij", coeffs, self.phys_grads, optimize=True)

    def pressure_at_quad(self, lam: np.ndarray) -> np.ndarray:
        """P1 pressure values at every quadrature point: (nt, nq)."""
        return lam[self.mesh.triangles] @ _P1_VALS.T

    def pressure_integral_weights(self) -> np.ndarray:
        """Vector a with a.lam = integral of the P1 pressure (exact)."""
        a = np.zeros(self.num_pressure)
        np.add.at(a, self.mesh.triangles, (self.det / 6.0)[:, None])
        return a

    def stiffness_matrix(self, ke: np.ndarray) -> sparse.csr_matrix:
        """Velocity matrix on the free dofs from scalar P2 blocks (nt, 6, 6),
        one copy per velocity component."""
        nt = ke.shape[0]
        node_dofs = 2 * self.tri_nodes
        rows = np.broadcast_to(node_dofs[:, :, None], (nt, 6, 6))
        cols = np.broadcast_to(node_dofs[:, None, :], (nt, 6, 6))
        data = np.concatenate([ke.ravel(), ke.ravel()])
        rr = np.concatenate([rows.ravel(), (rows + 1).ravel()])
        cc = np.concatenate([cols.ravel(), (cols + 1).ravel()])
        ndof = 2 * self.num_nodes
        full = sparse.coo_matrix((data, (rr, cc)), shape=(ndof, ndof)).tocsr()
        return full[self.free_dofs][:, self.free_dofs].tocsr()

    def pairing_matrix(self, be: np.ndarray) -> sparse.csr_matrix:
        """Pressure-by-velocity matrix on the free dofs from P1 x P2 blocks
        (nt, 3, 6, 2): vertex pressure, velocity node, component."""
        shape = be.shape
        rows = np.broadcast_to(self.mesh.triangles[:, :, None, None], shape)
        cols = np.broadcast_to(2 * self.tri_nodes[:, None, :, None] + np.arange(2), shape)
        full = sparse.coo_matrix(
            (be.ravel(), (rows.ravel(), cols.ravel())), shape=(self.num_pressure, 2 * self.num_nodes)
        ).tocsr()
        return full[:, self.free_dofs].tocsr()

    def load_vector(self, fe: np.ndarray) -> np.ndarray:
        """Load vector on the free dofs from element blocks (nt, 6, 2)."""
        return self._scatter_load(self.tri_nodes, fe)

    def _scatter_load(self, nodes: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Sum blocks (..., 2) into the velocity dofs of ``nodes``, in order."""
        full = np.zeros(2 * self.num_nodes)
        np.add.at(full, 2 * nodes[..., None] + np.arange(2), blocks)
        return full[self.free_dofs]


@dataclass(frozen=True)
class StokesSystem:
    """Assembled saddle system: stiffness A, divergence pairing B, loads f, g."""

    space: FunctionSpace
    A: sparse.csr_matrix
    B: sparse.csr_matrix
    f: np.ndarray
    g: np.ndarray | None = None

    @property
    def rhs(self) -> np.ndarray:
        return self.f if self.g is None else self.f + self.g


@dataclass(frozen=True)
class StokesSolution:
    """Velocity and pressure coefficients with their defect norms and the
    number of Schur-complement CG iterations that produced them."""

    u: np.ndarray
    lam: np.ndarray
    residual_momentum: float
    residual_divergence: float
    iterations: int = 0


def assemble(mesh: TriMesh, f_field: ForceField, g_field: ForceField | None = None) -> StokesSystem:
    """Assemble stiffness, divergence pairing and loads on a tagged mesh.

    Dirichlet velocity dofs are eliminated by row/column removal (the
    boundary data is zero, so no lifting is needed).  ``g_field``, when
    given, is integrated over the Neumann edges only.
    """
    if DIRICHLET not in mesh.boundary_tags:
        raise EmptyDirichletBoundary("no Dirichlet edges: velocity stiffness would be singular")
    space = FunctionSpace(mesh)
    pg, coef = space.phys_grads, space.quad_coef
    nt = pg.shape[0]
    # Each kernel is a batched matrix product over the quadrature points:
    # sum_q coef grad(phi_a).grad(phi_b), one 6x6 product per component;
    # sum_q coef psi_p grad(phi_a); and sum_q coef phi_a f.
    weighted = pg * coef[:, :, None, None]
    A = space.stiffness_matrix(sum(np.swapaxes(weighted[..., i], 1, 2) @ pg[..., i] for i in range(2)))
    B = space.pairing_matrix(((coef[:, None, :] * _P1_VALS.T) @ pg.reshape(nt, -1, 12)).reshape(nt, 3, 6, 2))
    f_vals = f_field.evaluate(space.quad_points)  # (nt, nq, 2)
    f = space.load_vector(_P2_VALS.T @ (coef[:, :, None] * f_vals))

    g = None
    if g_field is not None and len(space.neumann_edges):
        v = space.mesh.vertices
        start, end = v[space.neumann_edges[:, 0]], v[space.neumann_edges[:, 1]]
        tangent = end - start
        length = np.sqrt(np.vecdot(tangent, tangent))  # the dot of np.linalg.norm, per edge
        xq = start[:, None, :] + _EDGE_T[None, :, None] * tangent[:, None, :]
        ge = length[:, None, None] * np.einsum("q,qa,eqc->eac", _EDGE_W, _EDGE_P2, g_field.evaluate(xq))
        g = space._scatter_load(space.neumann_edges, ge)
    return StokesSystem(space=space, A=A, B=B, f=f, g=g)


# Schur-complement CG stops once the recursively updated residual falls
# below this fraction of the right-hand side.  That residual keeps shrinking
# after the true one reaches roundoff, so the rule always terminates; the
# accepted solution is still judged by its true residuals.
_CG_RTOL = 1e-14
_CG_MAX_ITER = 500

# lobpcg for the inf-sup constant: bound on the residual of the smallest
# generalized eigenpair in the M^-1 norm (the eigenvalue error is of its
# square) and iteration cap.
_EIG_RTOL = 1e-9
_EIG_MAX_ITER = 200


class _SchurComplement:
    """The pressure Schur complement S = B A^-1 B' of a Taylor-Hood system.

    Both velocity components vanish on the same Dirichlet nodes, so the
    free dofs come in (x, y) pairs per node and A = kron(L, I_2) with L the
    scalar P2 Laplacian.  A^-1 is one LU of L applied to the two components
    as columns.  The P1 pressure mass matrix M is factored as the
    preconditioner.  With ``pin_pressure`` the first pressure dof is
    dropped from B and M.
    """

    def __init__(self, system: StokesSystem, pin_pressure: bool):
        A = system.A
        L = A[0::2, 0::2]
        if A.nnz != 2 * L.nnz or (A[1::2, 1::2] != L).nnz:
            raise SingularSystem("velocity stiffness is not one scalar block per component")
        self.B = system.B[1:] if pin_pressure else system.B
        self.Bt = self.B.T.tocsr()  # B' applied on every CG step and in the back-solve
        mass = pressure_mass_matrix(system.space)
        self.M = mass[1:, 1:] if pin_pressure else mass
        row_norms = np.sqrt(np.asarray(self.B.multiply(self.B).sum(axis=1)).ravel())
        if self.B.shape[0] > self.B.shape[1] or not np.all(row_norms > 0.0):
            raise SingularSystem("divergence pairing is rank deficient: the pressure is not unique")
        try:
            self._velocity = spla.splu(L.tocsc(), permc_spec="MMD_AT_PLUS_A")
            self._mass = spla.splu(self.M.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularSystem(f"factorization failed: {exc}") from None

    def solve_velocity(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for a vector or a block of columns over the velocity dofs."""
        return self._velocity.solve(rhs.reshape(rhs.shape[0] // 2, -1)).reshape(rhs.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.B @ self.solve_velocity(self.Bt @ x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return self._mass.solve(r)

    def cg(self, b: np.ndarray) -> tuple[np.ndarray, int, list, list]:
        """Mass-preconditioned CG on S x = b.

        Returns x, the iteration count, and the search directions p with
        their products S p, one array per iteration.  The directions are
        S-conjugate and span the Krylov space of M^-1 S from M^-1 b.
        """
        x = np.zeros_like(b)
        r = b.copy()
        stop = _CG_RTOL * float(np.linalg.norm(b))
        if not np.isfinite(stop):
            raise SingularSystem("Schur-complement right-hand side is not finite")
        z = self.precondition(r)
        p = z.copy()
        rz = float(r @ z)
        directions, products = [], []
        for iteration in range(_CG_MAX_ITER + 1):
            if np.linalg.norm(r) <= stop:
                return x, iteration, directions, products
            if iteration == _CG_MAX_ITER:
                break
            sp = self.apply(p)
            directions.append(p)
            products.append(sp)
            psp = float(p @ sp)
            # r != 0 here, so both forms are positive for SPD S and M.
            if not (np.isfinite(psp) and psp > 0.0 and rz > 0.0):
                raise SingularSystem(
                    f"Schur-complement CG broke down (p'Sp = {psp:.3e}, r'M^-1r = {rz:.3e})"
                )
            alpha = rz / psp
            x += alpha * p
            r -= alpha * sp
            z = self.precondition(r)
            rz_next = float(r @ z)
            if not np.isfinite(rz_next):
                raise SingularSystem("Schur-complement CG produced a non-finite residual")
            p = z + (rz_next / rz) * p
            rz = rz_next
        raise SingularSystem(f"Schur-complement CG did not converge in {_CG_MAX_ITER} iterations")


def _residuals(system: StokesSystem, u: np.ndarray, lam: np.ndarray) -> tuple[float, float, float]:
    """Momentum and divergence defects of (u, lam) and the load scale 1 + |f + g|."""
    r_mom = float(np.linalg.norm(system.A @ u - system.rhs - system.B.T @ lam))
    r_div = float(np.linalg.norm(system.B @ u))
    return r_mom, r_div, 1.0 + float(np.linalg.norm(system.rhs))


def solve_stokes(
    system: StokesSystem, pin_pressure: bool = False, residual_tol: float = 1e-9
) -> StokesSolution:
    """Solve the saddle system [[A, -B'], [-B, 0]] (u, lam) = (f + g, 0).

    The pressure solves S lam = -B A^-1 (f + g) with S = B A^-1 B', by
    conjugate gradients preconditioned with the pressure mass matrix; the
    velocity is then u = A^-1 (f + g + B' lam).  A^-1 is one sparse LU of
    the scalar P2 Laplacian shared by both velocity components.

    With an empty Neumann boundary the pressure is only determined up to a
    constant; callers must then opt into ``pin_pressure``: one pressure
    dof is fixed to zero for the solve and the result is shifted to zero
    mean afterwards.  ``residual_tol`` scales with 1 + |f + g| and bounds
    the accepted momentum and divergence defects.  A non-finite load, a
    rank-deficient B, a failed factorization, a CG breakdown or a CG run
    past its iteration cap raises ``SingularSystem``.
    """
    space = system.space
    if not len(space.neumann_edges) and not pin_pressure:
        raise SingularSystem(
            "no Neumann edges: the pressure is defined up to a constant; "
            "solve with pin_pressure=True"
        )
    rhs_u = system.rhs
    if not np.all(np.isfinite(rhs_u)):
        raise SingularSystem("load vector has non-finite entries")
    schur = _SchurComplement(system, pin_pressure)
    lam, iterations, _, _ = schur.cg(-(schur.B @ schur.solve_velocity(rhs_u)))
    u = schur.solve_velocity(rhs_u + schur.Bt @ lam)
    if pin_pressure:
        lam = np.concatenate([[0.0], lam])
        weights = space.pressure_integral_weights()
        lam = lam - (weights @ lam) / weights.sum()

    r_mom, r_div, scale = _residuals(system, u, lam)
    if not (r_mom <= residual_tol * scale and r_div <= residual_tol * scale):
        raise SingularSystem(
            f"solution residuals too large (momentum {r_mom:.3e}, divergence {r_div:.3e})"
        )
    return StokesSolution(
        u=u, lam=lam, residual_momentum=r_mom, residual_divergence=r_div, iterations=iterations
    )


def energy(system: StokesSystem, solution: StokesSolution) -> float:
    """Discrete energy 1/2 u'Au - (f+g)'u of a velocity vector."""
    u = solution.u
    if u.shape[0] != system.A.shape[0]:
        raise DimensionMismatch("velocity vector does not match the system")
    return float(0.5 * u @ (system.A @ u) - system.rhs @ u)


def pressure_mass_matrix(space: FunctionSpace) -> sparse.csr_matrix:
    nt = space.mesh.num_triangles
    me = np.einsum("tq,qp,qr->tpr", space.quad_coef, _P1_VALS, _P1_VALS, optimize=True)
    rows = np.broadcast_to(space.mesh.triangles[:, :, None], (nt, 3, 3))
    cols = np.broadcast_to(space.mesh.triangles[:, None, :], (nt, 3, 3))
    return sparse.coo_matrix(
        (me.ravel(), (rows.ravel(), cols.ravel())),
        shape=(space.num_pressure, space.num_pressure),
    ).tocsr()


def inf_sup_constant(system: StokesSystem) -> float:
    """Discrete inf-sup constant of the divergence pairing.

    Smallest generalized singular value of B with the stiffness norm on
    velocities and the pressure mass norm on multipliers: the square root
    of the smallest eigenvalue of S x = mu M x, S = B A^-1 B'.  Computed on
    the same factored Schur operator that ``solve_stokes`` uses, in three
    steps.  One mass-preconditioned CG on S with a seeded right-hand side
    (independent of the load) keeps its S-conjugate search directions P
    and their products S P: CG is a Lanczos process, so P spans a Krylov
    space holding the smallest Ritz pair.  A Rayleigh-Ritz on that space,
    with no further Schur products, scales the columns to Q = P
    diag(p'Sp)^-1/2 and takes the largest eigenpair of the small problem
    Q'MQ y = nu Q'SQ y, so that 1/nu is the smallest Ritz value.  Its one
    Ritz vector Q y starts a one-column lobpcg, preconditioned by M^-1,
    which must bring the residual of the eigenpair below a fixed bound.

    A mesh with no Neumann edge raises ``SingularSystem`` before any
    factorization: constant pressures then lie in the kernel of B', so
    the constant is 0.  A rank-deficient B, a failed factorization, a CG
    failure or an eigenpair that misses the bound raises it too.
    """
    if not len(system.space.neumann_edges):
        raise SingularSystem(
            "no Neumann edges: constant pressures lie in the kernel of B', "
            "so the inf-sup constant is 0"
        )
    schur = _SchurComplement(system, pin_pressure=False)
    n = schur.B.shape[0]
    S = spla.LinearOperator((n, n), matvec=schur.apply, matmat=schur.apply, dtype=float)
    precond = spla.LinearOperator(
        (n, n), matvec=schur.precondition, matmat=schur.precondition, dtype=float
    )
    # P1 mass eigenvalues are at least half the smallest diagonal entry, so
    # this Euclidean bound implies an M^-1-norm residual below _EIG_RTOL.
    tol = _EIG_RTOL * float(np.sqrt(0.5 * schur.M.diagonal().min()))

    _, _, directions, products = schur.cg(np.random.default_rng(0).standard_normal(n))
    P, SP = np.column_stack(directions), np.column_stack(products)
    scale = 1.0 / np.sqrt(np.vecdot(P, SP, axis=0))
    Q, SQ = P * scale, SP * scale
    # Q'SQ is the identity up to lost conjugacy; eigh reads its lower triangle.
    last = Q.shape[1] - 1
    _, y = scipy.linalg.eigh(Q.T @ (schur.M @ Q), Q.T @ SQ, subset_by_index=[last, last])
    # One column only: Ritz vectors of one Krylov space have parallel
    # residuals, so a wider start block gives lobpcg a rank-deficient
    # residual block, and it stalls.
    start = Q @ y
    # lobpcg warns when it falls back to a dense solve on tiny problems and
    # when it stops short of ``tol``; convergence is checked below instead.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        values, vectors = spla.lobpcg(
            S, start, B=schur.M, M=precond, largest=False, tol=tol, maxiter=_EIG_MAX_ITER
        )
    mu, x = float(values[0]), vectors[:, 0]
    x = x / np.sqrt(x @ (schur.M @ x))
    residual = float(np.linalg.norm(S @ x - mu * (schur.M @ x)))
    if not residual <= tol:
        raise SingularSystem(f"inf-sup eigensolver did not converge (residual {residual:.3e})")
    return float(np.sqrt(max(mu, 0.0)))


def h1_velocity_error(space: FunctionSpace, u_free: np.ndarray, exact_velocity) -> float:
    """H1-seminorm distance between a discrete velocity and an exact one."""
    grad_h = space.element_velocity_gradients(u_free)
    grad_ex = exact_velocity.gradient(space.quad_points)
    diff = grad_h - grad_ex
    return float(np.sqrt(np.einsum("tqij,tqij,tq->", diff, diff, space.quad_coef, optimize=True)))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    h1_error: float
    order: float | None  # vs the previous row; None on the first row


def convergence_study(manufactured: ManufacturedStokes, n_list) -> list[ConvergenceRow]:
    """Solve the manufactured problem on unit squares with the right edge
    traction-free, where its traction is the Neumann datum, and report H1
    velocity errors with consecutive-ratio orders."""
    from .mesh import unit_square_mesh

    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n in n_list:
        mesh = unit_square_mesh(int(n), neumann_sides={"right"})
        system = assemble(mesh, manufactured.force, manufactured.traction)
        solution = solve_stokes(system)
        err = h1_velocity_error(system.space, solution.u, manufactured.velocity)
        order = None
        if prev is not None and err > 0.0 and prev.h1_error > 0.0:
            order = float(np.log(prev.h1_error / err) / np.log(n / prev.n))
        row = ConvergenceRow(n=int(n), h=1.0 / float(n), h1_error=err, order=order)
        rows.append(row)
        prev = row
    return rows
