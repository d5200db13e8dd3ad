"""Mixed Dirichlet-Neumann viscous flow on triangulations (Taylor-Hood P2/P1).

The problem: minimize the viscous energy  int( sum_i 1/2|grad u_i|^2 - f.u )
over velocities vanishing on the Dirichlet part of the boundary, subject
to the pointwise divergence-free constraint; the pressure is the
multiplier of that constraint.  The quadratic/linear element pair is
inf-sup stable, which keeps the discrete multiplier unique whenever the
Neumann part of the boundary is nonempty, and unique among the pressures
of zero integral when it is empty.

Assembly uses a fixed six-point triangle rule (exact through degree 4)
and three-point Gauss edges.  Every element kernel is a sum over the
quadrature points, evaluated as a batched matrix product or as an einsum
along a contraction path, so that it costs what its arithmetic costs; the
direct einsum forms are kept as test oracles.  Element blocks become
global arrays by ``np.bincount``, which adds in input order: vectors
into the velocity dofs (``FunctionSpace.load_vector``), matrices into the
data slots of a fixed CSR pattern (``_Pattern.matrix``, for L and B in
``assemble`` and for ``pressure_mass_matrix``): parts of one pattern of
node pairs, whose slot maps discard entries on a Dirichlet row or
column.  The patterns, the node numbering and the free dofs depend on
the connectivity alone: a mesh's ``_Topology`` holds them, built once
per connectivity by one argsort of the node pairs' keys and shared by
every mesh that ``transport_mesh`` moves from it; only the element
geometry is computed per mesh.  The state system and its perturbation
share these, so they pair dof for dof, and assemblies are bit-identical.

Both velocity components vanish on the same Dirichlet nodes, so the
stiffness is A = kron(L, I_2), L the scalar P2 Laplacian on the free
nodes; a system stores L and applies A as L times the (n, 2) velocity,
bitwise equal to A u.  The saddle system is solved through its structure: one
LU of L, then conjugate gradients on the Schur complement B A^-1 B',
preconditioned by a Chebyshev polynomial in D^-1 M, M the P1 pressure mass
matrix and D its diagonal (Elman, Silvester & Wathen, "Finite Elements and
Fast Iterative Solvers", OUP 2014), whose iteration count inf-sup stability
keeps bounded under refinement.  Each system factors L once, on first use;
only ``inf_sup_constant`` factors M.  With no Neumann edge B'1 = 0 and S is
singular; one projection onto its range, 1-perp, serves both: the solve
returns the zero-integral pressure, and the inf-sup constant is the one over
them.  A re-solve on a moved mesh of the same topology, whose L differs by a
fraction of a percent, corrects a known pressure in sweeps on the base LU
(``_sweeps``) until their energy-error estimate is met, or, where they stop
contracting, is the cold solve.  ``energy``, the Lagrangian, is the dual
value at u = A^-1 (f + g + B' lam): its error is quadratic in lam's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from ._norms import binary_exponent, norm2
from .errors import DimensionMismatch, EmptyDirichletBoundary, SingularSystem
from .fields import ForceField, ManufacturedStokes
from .mesh import _TOPOLOGY, DIRICHLET, TriMesh, _edge_keys, _edges, _memo, unit_square_mesh

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


@dataclass(frozen=True)
class _Pattern:
    """A fixed CSR sparsity pattern: ``indptr`` and sorted, duplicate-free
    ``indices``, and for every entry of the element blocks, in their order,
    the data slot s it is summed into, or component i of c into data entry
    c s + i, the components on a leading axis; slots from nnz / c on are
    discarded."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray  # int32, one per block entry, in the blocks' shape

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.slots):
            array.flags.writeable = False

    def matrix(self, blocks: np.ndarray) -> sparse.csr_matrix:
        """The blocks, of the slots' shape after any component axis, summed
        into their slots in input order, as in ``FunctionSpace.load_vector``,
        one contiguous component at a time."""
        if blocks.shape[blocks.ndim - self.slots.ndim:] != self.slots.shape:
            raise ValueError(f"blocks of shape {blocks.shape} for slots of shape {self.slots.shape}")
        blocks = blocks.reshape(-1, self.slots.size)  # a row per component
        nnz = self.indices.size // blocks.shape[0]
        data = np.column_stack([np.bincount(self.slots.ravel(), c, minlength=nnz)[:nnz] for c in blocks])
        return sparse.csr_matrix((data.ravel(), self.indices, self.indptr), shape=self.shape)

    def restrict(self, rows: np.ndarray, cols: np.ndarray, slots: np.ndarray, width: int = 1) -> _Pattern:
        """The part on the increasing index arrays ``rows`` and ``cols``,
        renumbered from 0, with ``width`` columns per column, for entries of
        these ``slots`` here; each keeps its order, so its slot is its rank."""
        row, col = np.full(self.shape[0], -1, np.int32), np.full(self.shape[1], -1, np.int32)
        row[rows], col[cols] = np.arange(rows.size), np.arange(cols.size)
        row, col = row[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))], col[self.indices]
        kept = (row >= 0) & (col >= 0)
        rank = np.where(kept, np.cumsum(kept, dtype=np.int32) - 1, kept.sum(dtype=np.int32))
        indptr = width * np.searchsorted(row[kept], np.arange(rows.size + 1)).astype(np.int32)
        indices = (width * col[kept, None] + np.arange(width, dtype=np.int32)).ravel()
        return _Pattern((rows.size, width * cols.size), indptr, indices, rank[slots])


def _pattern(nodes: np.ndarray, n: int) -> _Pattern:
    """The n x n pattern of the node pairs (nodes[t, a], nodes[t, b]), with
    slots in the shape (t, a, b): one argsort of the keys row * n + column;
    an entry's slot is the rank of its key."""
    keys = (nodes[:, :, None].astype(np.int64) * n + nodes[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # the keys are >= 0
    slots = np.empty(keys.size, dtype=np.int32)
    slots[order] = np.cumsum(first, dtype=np.int32) - 1
    unique = keys[first]
    indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
    return _Pattern((n, n), indptr, (unique % n).astype(np.int32), slots.reshape(nodes.shape + nodes.shape[-1:]))


class _Topology:
    """What assembly takes from a mesh's connectivity and boundary tags
    alone: the P2 node numbering, the end vertices of each edge midpoint,
    the Neumann edges, the free nodes and dofs, and the patterns of the
    scalar stiffness L, the pairing B and the pressure mass matrix M, parts
    of one node x node pattern whose first nodes are the vertices.  Its
    arrays are read-only, as the mesh's are, since meshes of one
    connectivity share it (see ``FunctionSpace`` and ``mesh.transport_mesh``)."""

    def __init__(self, mesh: TriMesh):
        t = mesh.triangles
        nv, nt = mesh.num_vertices, mesh.num_triangles

        # Edge midpoints are numbered nv, nv + 1, ... in order of first
        # appearance over the local edges (01, 12, 20) of the triangles.
        local, keys, first, inverse, *_ = _edges(mesh)
        order = np.argsort(first)
        mid_node = np.empty_like(order)
        mid_node[order] = nv + np.arange(order.size)
        self.tri_nodes = np.hstack([t, mid_node[inverse].reshape(nt, 3)])
        self.midpoint_ends = local[first[order]].T  # (2, number of edges)
        self.num_nodes = nv + order.size

        ends = mesh.boundary_edges
        boundary_keys = _edge_keys(ends, nv)
        pos = np.minimum(np.searchsorted(keys, boundary_keys), keys.size - 1)
        if not np.array_equal(keys[pos], boundary_keys):
            raise ValueError("a boundary edge is not an edge of the triangulation")
        edges = np.column_stack([ends, mid_node[pos]])
        on_dirichlet = np.array([tag == DIRICHLET for tag in mesh.boundary_tags], dtype=bool)
        self.neumann_edges = edges[~on_dirichlet]  # (k, 3): start, end and midpoint node
        dirichlet = np.zeros(self.num_nodes, dtype=bool)
        dirichlet[edges[on_dirichlet]] = True
        self.free_nodes = np.flatnonzero(~dirichlet)
        self.free_dofs = (2 * self.free_nodes[:, None] + np.arange(2)).ravel()

        nodes, vertices = _pattern(self.tri_nodes, self.num_nodes), np.arange(nv)
        self.stiffness = nodes.restrict(self.free_nodes, self.free_nodes, nodes.slots)
        self.pairing = nodes.restrict(vertices, self.free_nodes, nodes.slots[:, :3], width=2)
        self.mass = nodes.restrict(vertices, vertices, nodes.slots[:, :3, :3])
        for array in (self.tri_nodes, self.midpoint_ends, self.neumann_edges, self.free_nodes, self.free_dofs):
            array.flags.writeable = False


class FunctionSpace:
    """Taylor-Hood space on a mesh: P2 vector velocity, P1 scalar pressure.

    Velocity nodes are vertices plus edge midpoints; both velocity
    components are constrained to zero at every node on the closure of
    the Dirichlet edges.  Pressure nodes are the vertices, unconstrained.
    What depends on the connectivity alone, the numbering, the free dofs
    and the matrix patterns, is the mesh's topology: built once per
    connectivity and shared with every mesh ``transport_mesh`` moves from
    it.  The per-element geometry used by every assembly loop is computed
    here, per mesh.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        v, t = mesh.vertices, mesh.triangles
        nt = mesh.num_triangles
        topology = self._topology = _memo(mesh, _TOPOLOGY, _Topology)
        self.tri_nodes = topology.tri_nodes
        a, b = topology.midpoint_ends
        self.node_coords = np.vstack([v, 0.5 * (v[a] + v[b])])
        self.num_nodes = topology.num_nodes
        self.num_pressure = mesh.num_vertices
        self.neumann_edges = topology.neumann_edges
        self.free_dofs = topology.free_dofs
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

    def load_vector(self, blocks: np.ndarray, nodes: np.ndarray | None = None) -> np.ndarray:
        """Load vector on the free dofs: blocks (..., 2) summed in order into
        the velocity dofs of ``nodes``, by default the triangles' (nt, 6)."""
        index = 2 * (self.tri_nodes if nodes is None else nodes)[..., None] + np.arange(2)
        return np.bincount(index.ravel(), blocks.ravel(), minlength=2 * self.num_nodes)[self.free_dofs]


@dataclass(frozen=True)
class StokesSystem:
    """Assembled saddle system: scalar stiffness L on the free nodes (the
    velocity stiffness is A = kron(L, I_2)), divergence pairing B, loads f,
    g, the body force that f integrates, and the factored Schur operator
    once a solve has built it."""

    space: FunctionSpace
    L: sparse.csr_matrix
    B: sparse.csr_matrix
    f: np.ndarray
    force: ForceField
    g: np.ndarray | None = None

    @property
    def rhs(self) -> np.ndarray:
        return self.f if self.g is None else self.f + self.g

    @property
    def A(self) -> sparse.csr_matrix:
        """The velocity stiffness kron(L, I_2), built on every access; the
        solver and the energy never form it."""
        return sparse.kron(self.L, sparse.identity(2), format="csr")

    def _schur(self) -> "_SchurComplement":
        return _memo(self, "_schur_complement", _SchurComplement)


@dataclass(frozen=True)
class StokesSolution:
    """Velocity and pressure coefficients, their defect norms, and the Schur
    CG steps that produced them (a fallback's include its abandoned sweeps)."""

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
    # Each kernel is a batched matrix product over the quadrature points:
    # sum_q coef grad(phi_a).grad(phi_b), one 6x6 product per component;
    # sum_q coef psi_p grad(phi_a), component first; and sum_q coef phi_a f.
    weighted = pg * coef[:, :, None, None]
    topology = space._topology
    L = topology.stiffness.matrix(sum(np.swapaxes(weighted[..., i], 1, 2) @ pg[..., i] for i in range(2)))
    B = topology.pairing.matrix((coef[:, None, :] * _P1_VALS.T) @ np.moveaxis(pg, 3, 0))
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
        g = space.load_vector(ge, space.neumann_edges)
    return StokesSystem(space=space, L=L, B=B, f=f, force=f_field, g=g)


# Schur-complement CG stops once the recursively updated residual falls
# below this fraction of the right-hand side.  That residual keeps shrinking
# after the true one reaches roundoff, so the rule always terminates; the
# accepted solution is still judged by its true residuals.
_CG_RTOL = 1e-14
_CG_SWEEP_RTOL = 1e-3  # the same fraction for each sweep of ``_sweeps``
_CG_MAX_ITER = 500
_CG_CHEB_STEPS = 4  # steps of ``precondition``, a fixed SPD polynomial: CG stays CG (Wathen & Rees, ETNA 34, 2009)

# A CG in a re-solve's sweep also stops once the sum of the dual
# value's increases over _CG_DELAY steps, which estimates the energy error of
# the iterate that many steps back, is at most _CG_ETOL times its dual value.
_CG_DELAY = 4
_CG_ETOL = 1e-15

# Rayleigh-Ritz loop for the inf-sup constant: bound on the residual of the
# smallest generalized eigenpair in the M^-1 norm (the eigenvalue error is
# of its square) and cap on the refinement steps after the Krylov space.
_EIG_RTOL = 1e-9
_EIG_MAX_ITER = 200


def _lu(matrix: sparse.csr_matrix) -> spla.SuperLU:
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularSystem(f"factorization failed: {exc}") from None


class _SchurComplement:
    """The pressure Schur complement S = B A^-1 B' of a Taylor-Hood system.

    A = kron(L, I_2), so A^-1 is one LU of the scalar stiffness L applied
    to the two velocity components as columns.  A mesh with no Neumann
    edge has B'1 = 0, so the constants are the kernel of S, and ``project``
    maps a residual onto range(S) = 1-perp for ``cg`` and the inf-sup loop.

    ``factor`` is (topology, LU of L): made here for the cold CG, or
    borrowed for ``_sweeps`` from a system on the same topology, whose L
    then stands in for this one's.  B, B' and the pressure mass matrix M,
    which preconditions and weighs ``zero_integral``, are always this
    system's.  A factor of another topology raises ``DimensionMismatch``.
    """

    def __init__(self, system: StokesSystem, factor: tuple | None = None):
        topology = system.space._topology
        if factor is not None and factor[0] is not topology:
            raise DimensionMismatch("the velocity factor was made on another mesh topology")
        self.mean_free = not len(system.space.neumann_edges)
        self.B = system.B
        self.Bt = self.B.T.tocsr()  # B' applied on every CG step and in the back-solve
        self.M = pressure_mass_matrix(system.space)
        row_norms = np.sqrt(np.asarray(self.B.multiply(self.B).sum(axis=1)).ravel())
        if self.B.shape[0] - self.mean_free > self.B.shape[1] or not np.all(row_norms > 0.0):
            raise SingularSystem("divergence pairing is rank deficient: the pressure is not unique")
        self.inverse_diagonal = 1.0 / self.M.diagonal()
        self.factor = factor or (topology, _lu(system.L))

    def solve_velocity(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for a vector or a block of columns over the velocity dofs."""
        return self.factor[1].solve(rhs.reshape(rhs.shape[0] // 2, -1)).reshape(rhs.shape)

    def apply(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S x and the velocity A^-1 B'x it solved for."""
        v = self.solve_velocity(self.Bt @ x)
        return self.B @ v, v

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """P^-1 r: _CG_CHEB_STEPS Chebyshev steps on M z = r from z = 0 (Saad, Alg. 12.1) for the spectrum
        [1/2, 2] of D^-1 M, which holds for every P1 mass matrix (Wathen, IMA J. Numer. Anal. 7, 1987)."""
        rho, z, d = 0.6, 0.0, r * self.inverse_diagonal / 1.25  # centre 5/4, half-width 3/4, rho = 1/sigma = 3/5
        for _ in range(_CG_CHEB_STEPS - 1):
            z, r = z + d, r - self.M @ d
            rho, last = 1.0 / (10.0 / 3.0 - rho), rho  # 1 / (2 sigma - rho)
            d = rho * last * d + (rho / 0.375) * (r * self.inverse_diagonal)  # 2 rho / half-width
        return z + d

    def project(self, r: np.ndarray) -> np.ndarray:
        """r - mean(r) with ``mean_free``; otherwise r itself."""
        return r - r.mean() if self.mean_free else r

    def zero_integral(self, x: np.ndarray) -> np.ndarray:
        """With ``mean_free``, a new array: the pressure x less the constant
        of its mean value, so that its integral 1'M x is zero; otherwise x
        itself."""
        if not self.mean_free:
            return x
        weights = np.asarray(self.M.sum(axis=0)).ravel()  # the integrals of the P1 hat functions
        return x - (weights @ x) / weights.sum()

    def cg(self, b: np.ndarray, energy: tuple | None = None, spent: int = 0,
           precondition=None) -> tuple[np.ndarray, int, list, list]:
        """CG on S x = b, preconditioned by ``precondition`` or by default ``self.precondition``.

        Returns x, the iteration count, and the search directions p with
        their products S p, one array per iteration: S-conjugate, spanning
        the Krylov space of P^-1 S from P^-1 b.  With ``mean_free`` each
        residual is projected onto range(S) = 1-perp (Kaasschieter, J.
        Comput. Appl. Math. 24, 1988); P1 mass matrices have M 1 = 2 D 1, so
        1'M P^-1 r is a multiple of 1'r = 0: x has zero pressure integral.

        ``energy = (q, w, du)`` is for a b that is the Schur residual of a
        state (w, x0) of ``_sweeps``, whose Lagrangian is -1/2 q'w; x is then
        the correction to x0, and CG adds A^-1 B'x to du in place, from the
        velocity solves of its products.  At a CG iterate the dual value
        falls short of its maximum by 1/2 |x* - x_k|_S^2, and step j raises
        it by 1/2 alpha_j r_j'z_j (Hestenes and Stiefel 1952), so the sum
        over _CG_DELAY steps from x_k is a lower estimate of that error
        (Strakos and Tichy, ETNA 13, 2002).  With ``energy`` CG stops, with
        the current iterate, once that estimate is at most _CG_ETOL times
        the value at x_k, or once |r| <= _CG_SWEEP_RTOL |b|; without it, a
        cold CG, once |r| <= _CG_RTOL |b|.  ``spent`` earlier steps count
        against _CG_MAX_ITER.

        The iteration runs on b / 2^e, e the binary exponent of b's largest
        entry, and returns 2^e times its x.  Scaling by a power of two is
        exact, so the bits are those of an unscaled run wherever that run
        neither under- nor overflows, while norms and r'z stay far from both
        for any finite load.  The directions are those of the scaled run.
        The dual values are taken in the same units, 4^-e times their own,
        so the energy rule compares as an unscaled run would.
        """
        if not np.all(np.isfinite(b)):
            raise SingularSystem("Schur-complement right-hand side is not finite")
        exp = binary_exponent(b)
        b = np.ldexp(b, -exp)
        x = np.zeros_like(b)
        r = self.project(b)
        stop = (_CG_RTOL if energy is None else _CG_SWEEP_RTOL) * float(np.linalg.norm(b))
        z = (precondition or self.precondition)(r)
        p = z.copy()
        rz = float(r @ z)
        dual0 = None if energy is None else -0.5 * float(np.ldexp(energy[0], -exp) @ np.ldexp(energy[1], -exp))
        directions, products, gains = [], [], []  # gains[j] = 1/2 alpha_j r_j'z_j
        for iteration in range(_CG_MAX_ITER - spent + 1):
            lag = iteration - _CG_DELAY  # gains[lag:] estimates the energy error of x_lag
            if np.linalg.norm(r) <= stop or (
                dual0 is not None and lag >= 0 and sum(gains[lag:]) <= _CG_ETOL * abs(dual0 + sum(gains[:lag]))
            ):
                return np.ldexp(x, exp), iteration, directions, products
            if iteration == _CG_MAX_ITER - spent:
                break
            sp, ap = self.apply(p)
            directions.append(p)
            products.append(sp)
            psp = float(p @ sp)
            # r != 0 here, so both forms are positive for SPD S and M.
            if not (np.isfinite(psp) and psp > 0.0 and rz > 0.0):
                raise SingularSystem(
                    f"Schur-complement CG broke down (p'Sp = {psp:.3e}, r'M^-1r = {rz:.3e})"
                )
            alpha = rz / psp
            gains.append(0.5 * alpha * rz)
            x += alpha * p
            if energy is not None:
                energy[2][:] += np.ldexp(alpha, exp) * ap
            r = self.project(r - alpha * sp)
            z = (precondition or self.precondition)(r)
            rz_next = float(r @ z)
            if not np.isfinite(rz_next):
                raise SingularSystem("Schur-complement CG produced a non-finite residual")
            p = z + (rz_next / rz) * p
            rz = rz_next
        raise SingularSystem(f"Schur-complement CG did not converge in {_CG_MAX_ITER} iterations")


def _residuals(system: StokesSystem, u: np.ndarray, lam: np.ndarray) -> tuple[float, float, float]:
    """Momentum and divergence defects of (u, lam) and its normwise backward
    error: the larger defect over the scale of the system's terms at (u,
    lam), |L||u| + |B||lam| + |f + g|, matrix norms the largest absolute
    row sums (those of A and L agree), vector norms Euclidean.  The scale
    has no floor, so the error judges a state at every load scale.  It is
    taken on u, lam and f + g divided by one power of two, 2^e with e the
    largest binary exponent of their entries, as in ``cg``: exact, so the
    defects are those of the unscaled vectors, while neither they nor the
    scale can overflow.  A defect past the largest double reads inf."""
    rhs = system.rhs
    exp = binary_exponent(u, lam, rhs)
    u, lam, rhs = (np.ldexp(v, -exp) for v in (u, lam, rhs))
    r_mom = norm2((system.L @ u.reshape(-1, 2)).ravel() - rhs - system.B.T @ lam)
    r_div = norm2(system.B @ u)
    norm_L, norm_B = (float(spla.norm(m, np.inf)) for m in (system.L, system.B))  # floats: no overflow warning
    scale = norm_L * norm2(u) + norm_B * norm2(lam) + norm2(rhs)
    error = max(r_mom, r_div) / scale if scale else 0.0  # a zero scale is the zero state of a zero load
    with np.errstate(over="ignore"):
        return float(np.ldexp(r_mom, exp)), float(np.ldexp(r_div, exp)), error


def _cold(system: StokesSystem, spent: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """The cold solve's u, lam and CG steps, counting ``spent`` earlier ones."""
    schur, rhs = system._schur(), system.rhs
    lam, iterations, _, _ = schur.cg(-(schur.B @ schur.solve_velocity(rhs)), spent=spent)
    return schur.solve_velocity(rhs + schur.Bt @ lam), lam, spent + iterations


def _sweeps(system: StokesSystem, start: np.ndarray | None, factor: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """Defect correction (Stetter, Numer. Math. 29, 1978) from the pressure
    ``start`` moved to zero integral (or zero), on the borrowed LU of L in
    ``factor``, from a system on the same topology; returns u, lam moved to
    zero integral on this mesh (a constant in the kernel of S, which leaves
    u as it is), and the CG steps, all of which count against _CG_MAX_ITER.

    The first velocity is u = A~^-1 (f + g + B'lam), A~ the factored matrix.
    A sweep takes the true residuals r_u = f + g + B'lam - A u and r_p = B u,
    solves for the correction (du, dlam) with A~ in place of A, by the Schur
    CG stopped on its energy rule or at _CG_SWEEP_RTOL, and adds it; du is
    A~^-1 r_u plus the CG's sum A~^-1 B'dlam, one velocity solve.  Were A~ = A
    and the correction exact, the Lagrangian before the sweep would be off
    by 1/2 |r_u'du + r_p'dlam|, an estimate free of cancellation; the loop
    stops once it is at most _CG_ETOL times the Lagrangian -1/2 (f + g +
    B'lam + r_u)'u, or once the state's Schur residual meets the cold CG's
    rule, _CG_RTOL |B A~^-1 (f + g)|, which ends it at roundoff where the
    Lagrangian is zero.  A sweep whose estimate is above 1/100 of the
    previous one abandons the sweeps for ``_cold``, which returns the cold
    solve's state and counts their steps.  The sweeps run on the load and
    lam divided by 2^e, as in ``cg``, and return 2^e times their state.
    """
    schur = _SchurComplement(system, factor)
    rhs, lam = system.rhs, np.zeros(system.B.shape[0]) if start is None else schur.zero_integral(start)
    exp = binary_exponent(rhs, lam)
    rhs, lam = np.ldexp(rhs, -exp), np.ldexp(lam, -exp)
    load = rhs + schur.Bt @ lam
    u, iterations, last = schur.solve_velocity(load), 0, np.inf
    floor = _CG_RTOL * norm2(schur.B @ schur.solve_velocity(rhs))
    for _ in range(_CG_MAX_ITER):
        r_u, r_p = load - (system.L @ u.reshape(-1, 2)).ravel(), schur.B @ u
        d_u = schur.solve_velocity(r_u)
        b = -(r_p + schur.B @ d_u)
        if norm2(schur.project(b)) <= floor:
            break
        d_lam, steps, _, _ = schur.cg(b, (load + r_u, u, d_u), iterations)
        iterations += steps
        estimate, dual = abs(r_u @ d_u + r_p @ d_lam), abs((load + r_u) @ u)  # both twice their value
        u, lam = u + d_u, lam + d_lam
        load = rhs + schur.Bt @ lam
        if estimate <= _CG_ETOL * dual:
            break
        if estimate > 1e-2 * last:
            return _cold(system, iterations)
        last = estimate
    else:
        raise SingularSystem(f"Schur-complement CG did not converge in {_CG_MAX_ITER} iterations")
    return np.ldexp(u, exp), np.ldexp(schur.zero_integral(lam), exp), iterations


def solve_stokes(
    system: StokesSystem,
    pin_pressure: bool | None = None,
    residual_tol: float = 1e-9,
    *,
    start: np.ndarray | None = None,
    factor: tuple | None = None,
) -> StokesSolution:
    """Solve the saddle system [[A, -B'], [-B, 0]] (u, lam) = (f + g, 0).

    The pressure solves S lam = -B A^-1 (f + g) with S = B A^-1 B', by
    conjugate gradients preconditioned with a polynomial in the pressure
    mass matrix; the velocity is then u = A^-1 (f + g + B' lam).  A^-1 is
    one sparse LU of the scalar P2 Laplacian shared by both components.

    Without ``factor`` this is that cold solve, on the system's own LU,
    made once.  With ``factor``, the LU ``system._schur().factor`` of a
    system on the same topology (a mesh ``transport_mesh`` moved from the
    same base), ``_sweeps`` corrects the state from the pressure ``start``
    (or zero) on it until its Lagrangian ``energy`` is within about
    1e-15 of its own size; where the sweeps stop contracting it adds the
    cold solve's cost and returns its state bit for bit (``iterations``
    counts both).  ``factor`` and ``start`` are only read, so threads may
    share them; with no Neumann edge ``start``, and the result, are moved
    to zero integral.  A ``start`` without ``factor`` raises
    ``ValueError``, one of another size or a factor of another topology
    ``DimensionMismatch``.

    With an empty Neumann boundary the pressure is only determined up to a
    constant, and the solve returns the zero-mean pressure; a Neumann edge
    fixes it.  The mesh decides this gauge: ``pin_pressure`` fixes no
    pressure value, and when given it must agree, True exactly when the
    mesh has no Neumann edge, or it raises ``SingularSystem``.
    ``residual_tol`` bounds the accepted backward error on either path:
    both defects over |L||u| + |B||lam| + |f + g|.  A non-finite load or
    start, a rank-deficient B, a failed factorization, a CG breakdown or a
    CG run past its iteration cap raises ``SingularSystem``.
    """
    if pin_pressure is not None and pin_pressure == bool(len(system.space.neumann_edges)):
        raise SingularSystem(
            "Neumann edges fix the pressure; solve with pin_pressure=False" if pin_pressure else
            "no Neumann edges: the pressure is defined up to a constant; solve with pin_pressure=True"
        )
    if not np.all(np.isfinite(system.rhs)):
        raise SingularSystem("load vector has non-finite entries")
    if start is not None and factor is None:
        raise ValueError("a start pressure is read only by a re-solve on a borrowed factor; pass factor too")
    if start is not None and np.shape(start) != system.B.shape[:1]:
        raise DimensionMismatch(f"start pressure has shape {np.shape(start)}, the system expects {system.B.shape[:1]}")
    u, lam, iterations = _cold(system) if factor is None else _sweeps(system, start, factor)

    r_mom, r_div, error = _residuals(system, u, lam)
    if not error <= residual_tol:
        raise SingularSystem(
            f"solution residuals too large (momentum {r_mom:.3e}, divergence {r_div:.3e})"
        )
    return StokesSolution(
        u=u, lam=lam, residual_momentum=r_mom, residual_divergence=r_div, iterations=iterations
    )


def energy(system: StokesSystem, solution: StokesSolution) -> float:
    """The Lagrangian 1/2 u'Au - (f+g)'u - lam'Bu of a solution.  At a
    solved state it is the discrete energy 1/2 u'Au - (f+g)'u, as Bu = 0
    there, and it equals the dual value -1/2 u'Au at u = A^-1 (f + g +
    B'lam) for any lam, so its error is quadratic in the error of lam.  A
    vector of the wrong size raises ``DimensionMismatch``; an energy past
    the largest double raises ``SingularSystem``."""
    u, lam = solution.u, solution.lam
    if u.shape != (system.space.num_velocity,):
        raise DimensionMismatch("velocity vector does not match the system")
    if lam.shape != (system.B.shape[0],):
        raise DimensionMismatch("pressure vector does not match the system")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        value = float(0.5 * u @ (system.L @ u.reshape(-1, 2)).ravel() - system.rhs @ u - lam @ (system.B @ u))
    if not np.isfinite(value):
        raise SingularSystem("the energy overflows: the load is too large for double precision")
    return value


def pressure_mass_matrix(space: FunctionSpace) -> sparse.csr_matrix:
    return space._topology.mass.matrix(np.einsum("tq,qp,qr->tpr", space.quad_coef, _P1_VALS, _P1_VALS, optimize=True))


def inf_sup_constant(system: StokesSystem) -> float:
    """Discrete inf-sup constant of the divergence pairing.

    Smallest generalized singular value of B with the stiffness norm on
    velocities and the pressure mass norm on multipliers: the square root
    of the smallest eigenvalue of S x = mu M x, S = B A^-1 B', on the
    system's factored Schur operator.  A Rayleigh-Ritz loop scales a trial
    space V and S V to unit S-norm columns and takes the largest eigenpair
    of V'MV y = nu V'SV y (1/nu is the smallest Ritz value): first on the
    search directions of a CG on S preconditioned by an LU of M, from a
    seeded, load-independent right-hand side, a Krylov space (CG is Lanczos), then
    on [x, M^-1 r, p], the Ritz vector, its residual and its last step, as
    one-column LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001, Alg. 4.1),
    until |S x - mu M x| for x normalized in M, S x applied afresh, is
    below a fixed bound.

    On a mesh with no Neumann edge the constants are the kernel of B', and
    the constant is taken over the zero-integral pressures, where the
    multiplier lives: CG keeps its directions there, and each residual is
    projected onto range(S) before it is preconditioned, as in ``cg``.  A
    rank-deficient B, a failed factorization, a CG failure, a degenerate
    trial space or an unconverged eigenpair raises ``SingularSystem``.
    """
    schur = system._schur()
    M, solve_mass = schur.M, _lu(schur.M).solve  # the exact M^-1 of the pencil (S, M)
    # P1 mass eigenvalues are at least half the smallest diagonal entry, so
    # this Euclidean bound implies an M^-1-norm residual below _EIG_RTOL.
    tol = _EIG_RTOL * float(np.sqrt(0.5 * M.diagonal().min()))

    _, _, trial, products = schur.cg(np.random.default_rng(0).standard_normal(M.shape[0]), precondition=solve_mass)
    for step in range(_EIG_MAX_ITER + 1):
        V, SV = np.column_stack(trial), np.column_stack(products)
        norms = np.vecdot(V, SV, axis=0)
        if not np.all(np.isfinite(norms) & (norms > 0.0)):
            raise SingularSystem("inf-sup trial space has a column of no positive, finite S-norm")
        scale = 1.0 / np.sqrt(norms)
        V, SV = V * scale, SV * scale
        last = V.shape[1] - 1  # eigh reads the lower triangles of the Gram matrices
        try:
            y = scipy.linalg.eigh(V.T @ (M @ V), V.T @ SV, subset_by_index=[last, last])[1][:, 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"inf-sup Rayleigh-Ritz failed: {exc}") from None
        x, Sx = V @ y, SV @ y
        Mx = M @ x
        norm = np.sqrt(x @ Mx)
        x, Sx, Mx = x / norm, Sx / norm, Mx / norm
        mu = float(x @ Sx)
        residual = float(np.linalg.norm(Sx - mu * Mx))
        if residual <= tol:  # S x so far combines earlier products: certify afresh
            Sx = schur.apply(x)[0]
            mu = float(x @ Sx)
            residual = float(np.linalg.norm(Sx - mu * Mx))
            if residual <= tol:
                return float(np.sqrt(max(mu, 0.0)))
        w = solve_mass(schur.project(Sx - mu * Mx))
        trial, products = [x, w], [Sx, schur.apply(w)[0]]
        if step:  # p, the step from the previous Ritz vector
            trial.append(V[:, 1:] @ y[1:])
            products.append(SV[:, 1:] @ y[1:])
    raise SingularSystem(f"inf-sup eigensolver did not converge (residual {residual:.3e})")


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
