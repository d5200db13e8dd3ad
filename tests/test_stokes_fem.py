"""Taylor-Hood assembly, exactly representable solutions, convergence."""

import dataclasses
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shapederiv as sd
from shapederiv import mesh as mesh_module
from shapederiv import stokes_fem
from shapederiv.fields import ConstantForce, LeftEdgeTraction, trig_manufactured
from shapederiv.mesh import TriMesh
from shapederiv.stokes_fem import FunctionSpace, pressure_mass_matrix

from kernel_oracle import phys_grads, pressure_integral_weights


def pressure_gradient_setup(n):
    """f = (1, 0) with the right edge free: u = 0, lambda = x1 - 1 exactly."""
    mesh = sd.unit_square_mesh(n, {"right"})
    system = sd.assemble(mesh, ConstantForce(value=(1.0, 0.0)))
    return mesh, system, sd.solve_stokes(system)


def poiseuille_setup(n):
    """No body force, traction (2, 0) on the left edge, walls top and bottom."""
    mesh = sd.unit_square_mesh(n, {"left", "right"})
    system = sd.assemble(mesh, ConstantForce(value=(0.0, 0.0)), LeftEdgeTraction(value=(2.0, 0.0)))
    return mesh, system, sd.solve_stokes(system)


# --- function space ----------------------------------------------------------


def test_space_dof_counts_unit_square():
    mesh = sd.unit_square_mesh(2, {"right"})
    space = FunctionSpace(mesh)
    assert space.num_pressure == 9
    # 9 vertices + 16 edges; Dirichlet closure = all boundary nodes except
    # the interior of the right edge (2 vertices + 2 midpoints stay free).
    assert space.num_nodes == 25
    on_dirichlet = [
        k for k, (x, y) in enumerate(space.node_coords)
        if (x == 0.0 or y == 0.0 or y == 1.0)
    ]
    assert set(range(space.num_nodes)) - set(space._topology.free_nodes) == set(on_dirichlet)
    assert space.num_velocity == 2 * (space.num_nodes - len(on_dirichlet))


def test_space_reference_triangle_fully_clamped():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    mesh = TriMesh(verts, tris, edges, ("D", "D", "D"))
    space = FunctionSpace(mesh)
    assert space.num_velocity == 0  # every quadratic node sits on the boundary


def test_assemble_requires_dirichlet_edges():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]), ("N", "N", "N"))
    with pytest.raises(sd.EmptyDirichletBoundary):
        sd.assemble(mesh, ConstantForce())


def first_appearance_numbering(mesh):
    """Reference dof numbering by a dict over the triangles' local edges
    (01, 12, 20): midpoint nodes numbered in order of first appearance.
    Returns tri_nodes, node_coords, the Neumann edges and the Dirichlet nodes."""
    v, t, nv = mesh.vertices, mesh.triangles, mesh.num_vertices
    edge_ids = {}
    tri_nodes = np.empty((mesh.num_triangles, 6), dtype=int)
    tri_nodes[:, :3] = t
    mid_coords = []
    for ti, (i, j, k) in enumerate(t):
        for local, (a, b) in enumerate(((i, j), (j, k), (k, i))):
            key = (min(a, b), max(a, b))
            if key not in edge_ids:
                edge_ids[key] = nv + len(mid_coords)
                mid_coords.append(0.5 * (v[a] + v[b]))
            tri_nodes[ti, 3 + local] = edge_ids[key]
    node_coords = np.vstack([v, np.array(mid_coords).reshape(-1, 2)])
    neumann, dirichlet = [], set()
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        mid = edge_ids[(min(i, j), max(i, j))]
        if tag == "D":
            dirichlet.update((int(i), int(j), mid))
        else:
            neumann.append((int(i), int(j), mid))
    return tri_nodes, node_coords, np.array(neumann, dtype=int).reshape(-1, 3), sorted(dirichlet)


def shuffled_square():
    mesh = sd.unit_square_mesh(5, {"right", "top"})
    perm = np.random.default_rng(3).permutation(mesh.num_triangles)
    return TriMesh(mesh.vertices, mesh.triangles[perm], mesh.boundary_edges, mesh.boundary_tags)


def disk_with_neumann_arcs(rings):
    """Disk with two of every three boundary edges Neumann: slanted edges."""
    mesh = sd.disk_mesh(rings)
    tags = tuple("D" if k % 3 == 0 else "N" for k in range(len(mesh.boundary_tags)))
    return TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, tags)


@pytest.mark.parametrize(
    "mesh",
    [sd.unit_square_mesh(5, {"right", "top"}), sd.disk_mesh(7), shuffled_square()],
    ids=["square", "disk", "shuffled-square"],
)
def test_dof_numbering_matches_first_appearance(mesh):
    # Any numbering gives the same physics, so only this pins velocity.csv.
    tri_nodes, node_coords, neumann, dirichlet = first_appearance_numbering(mesh)
    space = FunctionSpace(mesh)
    assert np.array_equal(space.tri_nodes, tri_nodes)
    assert np.array_equal(space.node_coords, node_coords)
    assert np.array_equal(space.neumann_edges, neumann)
    assert np.array_equal(np.setdiff1d(np.arange(space.num_nodes), space._topology.free_nodes), dirichlet)


@pytest.mark.parametrize("kind", ["square", "disk", "file"])
def test_a_mesh_and_its_space_build_one_edge_table(monkeypatch, tmp_path, kind):
    # The generator (or read_mesh's validate) builds the table and the
    # mesh memoizes it for its topology, which equals one built afresh.
    path = tmp_path / "disk.txt"
    sd.write_mesh(path, disk_with_neumann_arcs(5))
    make_mesh = {"square": lambda: sd.unit_square_mesh(5, {"right", "top"}), "disk": lambda: sd.disk_mesh(7),
                 "file": lambda: sd.read_mesh(path)}[kind]
    calls, edge_table = [], mesh_module._edge_table
    monkeypatch.setattr(mesh_module, "_edge_table", lambda *args: calls.append(args) or edge_table(*args))
    mesh = make_mesh()
    topology = FunctionSpace(mesh)._topology
    assert len(calls) == 1
    fresh = stokes_fem._Topology(TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags))
    assert len(calls) == 2
    for name in ("tri_nodes", "midpoint_ends", "neumann_edges", "free_nodes", "free_dofs"):
        assert np.array_equal(getattr(topology, name), getattr(fresh, name))
    for name in ("stiffness", "pairing", "mass"):
        for part in ("indptr", "indices", "slots"):
            assert np.array_equal(getattr(getattr(topology, name), part), getattr(getattr(fresh, name), part))


def test_boundary_edge_outside_triangulation_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    edges = np.array([[0, 1], [1, 2], [2, 0], [1, 3]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]), edges, ("D", "D", "D", "N"))
    with pytest.raises(ValueError, match="boundary edge"):
        FunctionSpace(mesh)


@pytest.mark.parametrize(
    "mesh", [sd.unit_square_mesh(6, {"right", "top"}), sd.disk_mesh(4)], ids=["square-two-sides", "disk"]
)
def test_transported_assembly_equals_a_fresh_one_bitwise(mesh):
    # The moved mesh shares the base mesh's topology; a mesh built afresh
    # from the same arrays builds its own, and must assemble the same bits.
    # A mesh moved before the base is assembled has none handed on.
    force, traction = trig_manufactured().force, trig_manufactured().traction
    field = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))
    early = sd.transport_mesh(mesh, field, 0.05)
    topology = sd.assemble(mesh, force).space._topology
    moved = sd.transport_mesh(mesh, field, 0.05)
    fresh = TriMesh(moved.vertices, mesh.triangles.copy(), mesh.boundary_edges.copy(), mesh.boundary_tags)
    shared, rebuilt = (sd.assemble(m, force, traction) for m in (moved, fresh))
    assert shared.space._topology is topology
    assert rebuilt.space._topology is not topology and sd.FunctionSpace(early)._topology is not topology
    # One int32 slot per block entry: (nt, 6, 6) for L, (nt, 3, 6) for B,
    # whose two components share a slot, and (nt, 3, 3) for M.
    nt = mesh.num_triangles
    for pattern, size in ((topology.stiffness, 36 * nt), (topology.pairing, 18 * nt), (topology.mass, 9 * nt)):
        assert pattern.slots.size == size and pattern.slots.dtype == np.int32
    pairs = [(shared.L, rebuilt.L), (shared.B, rebuilt.B)]
    pairs.append((pressure_mass_matrix(shared.space), pressure_mass_matrix(rebuilt.space)))
    for a, b in pairs:
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
    assert np.array_equal(shared.f, rebuilt.f)
    assert (shared.g is None) == (rebuilt.g is None) and (shared.g is None or np.array_equal(shared.g, rebuilt.g))


def per_edge_traction_load(space, g_field):
    """Reference Neumann load: edge by edge, three-point Gauss rule."""
    g = np.zeros(2 * space.num_nodes)
    for i, j, mid in space.neumann_edges:
        pa, pb = space.mesh.vertices[i], space.mesh.vertices[j]
        length = float(np.linalg.norm(pb - pa))
        xq = pa[None, :] + stokes_fem._EDGE_T[:, None] * (pb - pa)[None, :]
        ge = length * np.einsum("q,qa,qc->ac", stokes_fem._EDGE_W, stokes_fem._EDGE_P2, g_field.evaluate(xq))
        for local, node in enumerate((i, j, mid)):
            g[2 * node] += ge[local, 0]
            g[2 * node + 1] += ge[local, 1]
    return g[space.free_dofs]


@pytest.mark.parametrize(
    "mesh",
    [sd.unit_square_mesh(6, {"right"}), sd.unit_square_mesh(5, {"right", "top"}), disk_with_neumann_arcs(5)],
    ids=["square", "square-two-sides", "disk-arcs"],
)
def test_neumann_load_matches_per_edge_loop_bitwise(mesh):
    traction = trig_manufactured().traction
    system = sd.assemble(mesh, ConstantForce(), traction)
    assert np.array_equal(system.g, per_edge_traction_load(system.space, traction))


# --- assembly ---------------------------------------------------------------


def test_zero_force_gives_zero_load():
    mesh = sd.unit_square_mesh(1, {"right"})
    system = sd.assemble(mesh, ConstantForce(value=(0.0, 0.0)))
    assert np.all(system.f == 0.0)


def test_stiffness_symmetry():
    mesh = sd.unit_square_mesh(4, {"right"})
    system = sd.assemble(mesh, ConstantForce())
    diff = abs(system.A - system.A.T).max()
    assert diff <= 1e-14 * abs(system.A).max()


def test_stiffness_positive_definite_on_free_dofs():
    mesh = sd.unit_square_mesh(2, {"right"})
    system = sd.assemble(mesh, ConstantForce())
    eigvals = np.linalg.eigvalsh(system.A.toarray())
    assert eigvals[0] > 0.0


def test_divergence_rows_sum_to_integral_of_div():
    # The pressure basis is a partition of unity, so summing the rows of B
    # must reproduce int(div basis) computed by plain quadrature.
    mesh = sd.unit_square_mesh(3, {"right"})
    system = sd.assemble(mesh, ConstantForce())
    space = system.space
    ref = np.zeros(2 * space.num_nodes)
    pg = phys_grads(mesh)[0]
    for t, nodes in enumerate(space.tri_nodes):
        contrib = np.einsum("q,qac->ac", space.quad_coef[t], pg[t])
        for a, node in enumerate(nodes):
            ref[2 * node] += contrib[a, 0]
            ref[2 * node + 1] += contrib[a, 1]
    row_sums = np.asarray(system.B.sum(axis=0)).ravel()
    np.testing.assert_allclose(row_sums, ref[space.free_dofs], atol=1e-13)


def test_load_against_midpoint_rule_oracle():
    """Oracle: edge-midpoint quadrature (degree 1) of f . w per element."""
    mesh = sd.unit_square_mesh(4, {"right"})
    system = sd.assemble(mesh, ConstantForce(value=(1.0, 0.0)))
    space = system.space
    ref = np.zeros(2 * space.num_nodes)
    mids = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])  # barycentric midpoints
    # P2 basis at edge midpoints: vertex functions vanish there, each edge
    # function is 1 at its own midpoint and 0 at the others.
    for t, nodes in enumerate(space.tri_nodes):
        area = 0.5 * space.det[t]
        for local_mid in range(3):
            node = nodes[3 + local_mid]
            ref[2 * node] += area / 3.0  # integral of f1 * (edge basis)
    np.testing.assert_allclose(
        system.f, ref[space.free_dofs], atol=1e-3 * max(1.0, abs(ref).max())
    )


# --- solving ----------------------------------------------------------------


def test_zero_data_zero_solution():
    mesh = sd.unit_square_mesh(2, {"right"})
    system = sd.assemble(mesh, ConstantForce(value=(0.0, 0.0)))
    sol = sd.solve_stokes(system)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.lam).max() == 0.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_pressure_gradient_case_exact(n):
    mesh, system, sol = pressure_gradient_setup(n)
    u_full = system.space.expand_velocity(sol.u)
    assert np.abs(u_full).max() <= 1e-9
    lam_exact = mesh.vertices[:, 0] - 1.0
    assert np.abs(sol.lam - lam_exact).max() <= 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
def test_poiseuille_with_traction_exact(n):
    mesh, system, sol = poiseuille_setup(n)
    space = system.space
    u_full = space.expand_velocity(sol.u)
    u_exact = np.zeros_like(u_full)
    u_exact[0::2] = space.node_coords[:, 1] * (1.0 - space.node_coords[:, 1])
    assert np.abs(u_full - u_exact).max() <= 1e-8
    lam_exact = 2.0 * (1.0 - mesh.vertices[:, 0])
    assert np.abs(sol.lam - lam_exact).max() <= 1e-8


def test_poiseuille_energy_closed_form():
    # int 1/2 |grad u|^2 = 1/2 * int (1 - 2 y)^2 = 1/6; boundary work = 1/3.
    _, system, sol = poiseuille_setup(4)
    assert sd.energy(system, sol) == pytest.approx(-1.0 / 6.0, abs=1e-10)


def test_energy_identity_and_complementarity():
    for make in (pressure_gradient_setup, poiseuille_setup):
        _, system, sol = make(4)
        scale = 1.0 + np.linalg.norm(system.rhs) * np.linalg.norm(sol.u)
        assert abs(sol.u @ (system.A @ sol.u) - system.rhs @ sol.u) <= 1e-9 * scale
        assert abs(sol.lam @ (system.B @ sol.u)) <= 1e-10 * scale


def test_energy_checks_the_size_of_both_vectors():
    # The Lagrangian reads lambda too, so a pressure of the wrong size is
    # refused as a velocity of the wrong size is.
    _, system, sol = poiseuille_setup(2)
    for bad in (
        dataclasses.replace(sol, u=sol.u[:-1]),
        dataclasses.replace(sol, lam=sol.lam[:-1]),
        dataclasses.replace(sol, lam=np.append(sol.lam, 0.0)),
    ):
        with pytest.raises(sd.DimensionMismatch):
            sd.energy(system, bad)


@pytest.mark.parametrize("shape", [(110,), (113,), (56, 2)], ids=["short", "long", "nodal"])
def test_a_velocity_of_the_wrong_shape_is_refused(shape):
    # The n=4 square with a Neumann side has 112 velocity dofs; a (56, 2)
    # array has as many entries, but not the shape of the free dofs.
    space = FunctionSpace(sd.unit_square_mesh(4, {"right"}))
    assert space.num_velocity == 112
    u = np.ones(shape)
    for call in (
        space.expand_velocity,
        space.element_velocity_gradients,
        lambda v: sd.h1_velocity_error(space, v, sd.ZeroField()),
    ):
        with pytest.raises(sd.DimensionMismatch, match=rf"shape \({shape[0]},.*expects \(112,\)"):
            call(u)


@pytest.mark.parametrize("make_mesh", [lambda: sd.unit_square_mesh(8, {"right"}), lambda: sd.disk_mesh(6)],
                         ids=["square", "disk"])
def test_row_sums_from_the_data_are_scipys(make_mesh):
    # The backward error's matrix norms and the zero-row check on B read
    # the row sums of |L| and |B| from the data; scipy's are the oracle,
    # also with structurally empty rows of B, the first and the last.
    system = sd.assemble(make_mesh(), sd.TrigForce())
    B = system.B
    for matrix in (system.L, B, _zero_row(B, 0), _zero_row(_zero_row(B, 3), B.shape[0] - 1)):
        sums = stokes_fem._abs_row_sums(matrix)
        np.testing.assert_array_equal(sums, np.asarray(abs(matrix).sum(axis=1)).ravel())
        assert float(sums.max()) == spla.norm(matrix, np.inf)
        np.testing.assert_array_equal(sums > 0.0, np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel() > 0.0)


def test_residual_invariants():
    mesh = sd.unit_square_mesh(8, {"right"})
    system = sd.assemble(mesh, sd.TrigForce())
    sol = sd.solve_stokes(system)
    scale = 1.0 + np.linalg.norm(system.rhs)
    assert sol.residual_momentum <= 1e-9 * scale
    assert sol.residual_divergence <= 1e-9 * scale


def test_pure_dirichlet_needs_pinning():
    mesh = sd.disk_mesh(2)
    system = sd.assemble(mesh, ConstantForce(value=(0.0, 1.0)))
    with pytest.raises(sd.SingularSystem, match="pin_pressure=True"):
        sd.solve_stokes(system, pin_pressure=False)
    sol = sd.solve_stokes(system, pin_pressure=True)
    weights = pressure_integral_weights(system.space)
    assert abs(weights @ sol.lam) <= 1e-12  # zero-mean representative
    assert sol.residual_divergence <= 1e-9


@pytest.mark.parametrize("clamped", [True, False], ids=["disk", "right-neumann"])
def test_the_default_gauge_is_the_mesh_s(clamped):
    mesh = sd.disk_mesh(3) if clamped else sd.unit_square_mesh(8, {"right"})
    system = sd.assemble(mesh, sd.TrigForce())
    default, explicit = sd.solve_stokes(system), sd.solve_stokes(system, pin_pressure=clamped)
    assert default.u.tobytes() == explicit.u.tobytes()
    assert default.lam.tobytes() == explicit.lam.tobytes()
    assert default.iterations == explicit.iterations


def test_pure_dirichlet_gradient_force_zero_velocity():
    # f = grad(x1) on a fully clamped domain: u = 0, pressure recovers x1.
    mesh = sd.disk_mesh(3)
    system = sd.assemble(mesh, ConstantForce(value=(1.0, 0.0)))
    sol = sd.solve_stokes(system, pin_pressure=True)
    assert np.abs(system.space.expand_velocity(sol.u)).max() <= 1e-12
    weights = pressure_integral_weights(system.space)
    shift = (weights @ mesh.vertices[:, 0]) / weights.sum()
    assert np.abs(sol.lam - (mesh.vertices[:, 0] - shift)).max() <= 1e-10


# --- structured saddle solve ---------------------------------------------------


def bordered_lu_solve(system, pin_pressure=False):
    """Oracle: one sparse LU of the whole bordered matrix [[A, -B'], [-B, 0]]."""
    B = system.B[1:] if pin_pressure else system.B
    K = sparse.bmat([[system.A, -B.T], [-B, None]], format="csc")
    sol = spla.splu(K).solve(np.concatenate([system.rhs, np.zeros(B.shape[0])]))
    nu = system.A.shape[0]
    u, lam = sol[:nu], sol[nu:]
    if pin_pressure:
        weights = pressure_integral_weights(system.space)
        lam = np.concatenate([[0.0], lam])
        lam = lam - (weights @ lam) / weights.sum()
    return sd.StokesSolution(u=u, lam=lam, residual_momentum=0.0, residual_divergence=0.0)


ORACLE_CASES = {  # name -> (system, pin_pressure)
    "square8": lambda: (sd.assemble(sd.unit_square_mesh(8, {"right"}), sd.TrigForce()), False),
    "square16": lambda: (sd.assemble(sd.unit_square_mesh(16, {"right"}), sd.TrigForce()), False),
    "disk4": lambda: (sd.assemble(sd.disk_mesh(4), sd.TrigForce()), True),
    "manufactured": lambda: (
        sd.assemble(
            sd.unit_square_mesh(8, {"right"}), trig_manufactured().force, trig_manufactured().traction
        ),
        False,
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_structured_solve_matches_bordered_lu(name):
    system, pin = ORACLE_CASES[name]()
    sol = sd.solve_stokes(system, pin_pressure=pin)
    ref = bordered_lu_solve(system, pin_pressure=pin)
    assert np.abs(sol.u - ref.u).max() <= 1e-10 * (1.0 + np.abs(ref.u).max())
    assert np.abs(sol.lam - ref.lam).max() <= 1e-10 * (1.0 + np.abs(ref.lam).max())
    e, e_ref = sd.energy(system, sol), sd.energy(system, ref)
    assert abs(e - e_ref) <= 1e-13 * abs(e_ref)


@pytest.mark.parametrize("mesh", [sd.unit_square_mesh(6, {"right"}), sd.disk_mesh(3)])
def test_stiffness_is_scalar_laplacian_per_component(mesh):
    # Both components share the Dirichlet nodes, so the vector stiffness is
    # A = kron(L, I_2) with the scalar L the system stores.  Oracle: the form
    # int grad u : grad v at the quadrature points, for two drawn velocities.
    system = sd.assemble(mesh, ConstantForce())
    space = system.space
    u, v = np.random.default_rng(3).standard_normal((2, space.num_velocity))
    gu, gv = space.element_velocity_gradients(u), space.element_velocity_gradients(v)
    form = np.einsum("tq,tqij,tqij->", space.quad_coef, gu, gv)
    scale = np.einsum("tq,tqij,tqij->", space.quad_coef, abs(gu), abs(gv))
    assert abs(u @ (system.A @ v) - form) <= 1e-14 * scale


@pytest.mark.parametrize("name", ["square8", "disk4"])
def test_stiffness_products_equal_the_kronecker_form(name):
    # energy and the residuals apply A as L times the (n, 2) velocity; that
    # must be bitwise the product with the assembled kron(L, I_2).
    system, pin = ORACLE_CASES[name]()
    sol = sd.solve_stokes(system, pin_pressure=pin)
    u, A = sol.u, system.A
    assert sd.energy(system, sol) == float(0.5 * u @ (A @ u) - system.rhs @ u - sol.lam @ (system.B @ u))
    r_mom, r_div, _ = stokes_fem._residuals(system, u, sol.lam)
    assert r_mom == float(np.linalg.norm(A @ u - system.rhs - system.B.T @ sol.lam))
    assert r_div == float(np.linalg.norm(system.B @ u))


def test_schur_cg_iterations_mesh_independent():
    counts = [
        sd.solve_stokes(sd.assemble(sd.unit_square_mesh(n, {"right"}), sd.TrigForce())).iterations
        for n in (8, 16, 32)
    ]
    assert max(counts) - min(counts) <= 5
    assert max(counts) <= 60


def test_clamped_schur_cg_runs_on_the_mean_free_pressures():
    # No Neumann edge: the constants are the kernel of S, and CG solves the
    # consistent singular system on mean-free residuals.  Every residual is
    # projected, so the pressure integral stays within the roundoff of the
    # integral itself; projecting only the right-hand side lets it drift to
    # about 14 units of that here.
    system = sd.assemble(sd.disk_mesh(24), sd.TrigForce())
    sol = sd.solve_stokes(system, pin_pressure=True)
    assert sol.iterations <= 16
    weights = pressure_integral_weights(system.space)
    assert abs(weights @ sol.lam) <= 2.0 * np.finfo(float).eps * (abs(weights) @ abs(sol.lam))


@pytest.mark.parametrize("pinned", [False, True], ids=["neumann", "clamped"])
def test_solve_is_linear_in_the_load_down_to_1e_300(pinned):
    # solve_stokes runs on the load scaled by a power of two, so CG's
    # stopping rule neither underflows (a tiny load once stopped after 0
    # steps, with lambda = 0) nor loses digits to subnormal inner products.
    mesh = sd.unit_square_mesh(4, set() if pinned else {"right"})
    unit = sd.solve_stokes(sd.assemble(mesh, sd.TrigForce()), pin_pressure=pinned)
    for c in (1e-100, 1e-155, 1e-160, 1e-300):
        sol = sd.solve_stokes(sd.assemble(mesh, sd.TrigForce(c=c)), pin_pressure=pinned)
        assert sol.iterations == unit.iterations
        assert np.abs(sol.u / c - unit.u).max() <= 1e-12 * np.abs(unit.u).max()
        assert np.abs(sol.lam / c - unit.lam).max() <= 1e-12 * np.abs(unit.lam).max()


def test_large_loads_solve_and_an_energy_past_the_double_range_raises():
    # Under the default "error" warnings filter: no overflow warning on the way.
    mesh = sd.unit_square_mesh(4, {"right"})
    unit_system = sd.assemble(mesh, sd.TrigForce())
    unit = sd.solve_stokes(unit_system)
    for c in (1e100, 1e160, 1e300):
        system = sd.assemble(mesh, sd.TrigForce(c=c))
        sol = sd.solve_stokes(system)
        assert sol.iterations == unit.iterations
        assert np.abs(sol.u / c - unit.u).max() <= 1e-12 * np.abs(unit.u).max()
        if c == 1e100:
            assert sd.energy(system, sol) / c**2 == pytest.approx(sd.energy(unit_system, unit), rel=1e-12)
        else:
            with pytest.raises(sd.SingularSystem, match="energy overflows"):
                sd.energy(system, sol)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(exponent=st.floats(-300.0, 150.0), clamped=st.booleans())
def test_backward_error_accepts_the_solve_and_refuses_defects_at_every_load_scale(exponent, clamped):
    # Both defects are judged against |L||u| + |B||lam| + |f + g|, which has
    # no floor: the solved state reads about 1e-16 at every load, the zero
    # state exactly 1, and a CG stopped early is refused.
    mesh = sd.unit_square_mesh(4, set() if clamped else {"right"})
    system = sd.assemble(mesh, sd.TrigForce(c=10.0**exponent))
    sol = sd.solve_stokes(system, pin_pressure=clamped)
    assert stokes_fem._residuals(system, sol.u, sol.lam)[2] <= 1e-14
    r_mom, r_div, error = stokes_fem._residuals(system, 0.0 * sol.u, 0.0 * sol.lam)
    assert error == 1.0 and r_mom > 0.0 and r_div == 0.0
    with mock.patch.object(stokes_fem, "_CG_RTOL", 1e-4):
        with pytest.raises(sd.SingularSystem, match="residuals too large"):
            sd.solve_stokes(sd.assemble(mesh, sd.TrigForce(c=10.0**exponent)), pin_pressure=clamped)


def _square_system(n=4):
    return sd.assemble(sd.unit_square_mesh(n, {"right"}), sd.TrigForce())


def _zero_row(B, row):
    B = B.tolil()
    B[row, :] = 0.0
    return B.tocsr()


def _nan_entry(f):
    f = f.copy()
    f[3] = np.nan
    return f


@pytest.mark.parametrize(
    "broken",
    [
        pytest.param(lambda s: dataclasses.replace(s, f=_nan_entry(s.f)), id="nan-load"),
        pytest.param(lambda s: dataclasses.replace(s, B=_zero_row(s.B, 5)), id="rank-deficient-B"),
        pytest.param(lambda s: dataclasses.replace(s, L=-s.L), id="cg-breakdown"),
    ],
)
def test_solver_failures_are_categorized(broken):
    system = broken(_square_system())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sd.SingularSystem):
            sd.solve_stokes(system)


def test_fully_clamped_triangle_pressure_not_unique():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]), ("D", "D", "D"))
    system = sd.assemble(mesh, ConstantForce())
    with pytest.raises(sd.SingularSystem, match="rank deficient"):
        sd.solve_stokes(system, pin_pressure=True)


def _no_factorization(*args):
    raise AssertionError("factored a system whose pressure pinning is wrong")


def test_pinned_solve_with_a_neumann_edge_raises_before_factoring(monkeypatch):
    # A Neumann edge already fixes the pressure; pinning one dof as well
    # would solve a different problem.
    monkeypatch.setattr(stokes_fem, "_SchurComplement", _no_factorization)
    with pytest.raises(sd.SingularSystem, match="pin_pressure=False"):
        sd.solve_stokes(_square_system(), pin_pressure=True)


def test_cg_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", 3)
    with pytest.raises(sd.SingularSystem, match="did not converge"):
        sd.solve_stokes(_square_system())


# --- inf-sup and convergence --------------------------------------------------


def dense_inf_sup(system):
    """Oracle: dense Schur complement of the full stiffness, dense generalized
    eigh; with no Neumann edge, restricted to the zero-integral pressures
    (an orthonormal basis of the null space of 1'M)."""
    bt = system.B.toarray().T
    schur = bt.T @ spla.splu(system.A.tocsc()).solve(bt)
    m = pressure_mass_matrix(system.space).toarray()
    if not len(system.space.neumann_edges):
        q = scipy.linalg.null_space(m.sum(axis=0)[None, :])
        schur, m = q.T @ schur @ q, q.T @ m @ q
    eigvals = scipy.linalg.eigh(schur, m, eigvals_only=True)
    return float(np.sqrt(max(eigvals[0], 0.0)))


def test_inf_sup_floor_under_refinement():
    values = {}
    for n in (4, 8, 16):
        mesh = sd.unit_square_mesh(n, {"right"})
        system = sd.assemble(mesh, ConstantForce())
        values[n] = sd.inf_sup_constant(system)
        assert values[n] == pytest.approx(dense_inf_sup(system), rel=1e-12)
    assert values[4] > 0.1
    assert values[8] >= 0.8 * values[4]
    assert values[16] >= 0.8 * values[8]


def disk_file_mesh(tmp_path):
    path = tmp_path / "disk.txt"
    sd.write_mesh(path, disk_with_neumann_arcs(5))
    return sd.read_mesh(path)


SQUARE_SIDES = {"left-right": {"left", "right"}, "left-right-top": {"left", "right", "top"},
                "right-top": {"right", "top"}}


@pytest.mark.parametrize(
    "make_mesh",
    [lambda _, n=n, sides=sides: sd.unit_square_mesh(n, sides)
     for n in (4, 8, 12) for sides in SQUARE_SIDES.values()] + [disk_file_mesh],
    ids=[f"square{n}-{name}" for n in (4, 8, 12) for name in SQUARE_SIDES] + ["disk-file-arcs"],
)
def test_inf_sup_matches_dense_where_warm_start_is_weakest(make_mesh, tmp_path):
    # {left, right} clusters the bottom of the spectrum (mu = 0.3651,
    # 0.3766, 0.3782 at n=8); the disk's Neumann arcs are slanted.
    system = sd.assemble(make_mesh(tmp_path), ConstantForce())
    assert sd.inf_sup_constant(system) == pytest.approx(dense_inf_sup(system), rel=1e-12)


@pytest.mark.parametrize(
    "mesh",
    [sd.unit_square_mesh(4, set()), sd.unit_square_mesh(8, set()), sd.disk_mesh(3), sd.disk_mesh(4), sd.disk_mesh(8)],
    ids=["square4", "square8", "disk3", "disk4", "disk8"],
)
def test_clamped_inf_sup_is_taken_over_the_zero_integral_pressures(mesh):
    # Constant pressures lie in the kernel of B'; the multiplier lives on the
    # zero-integral pressures, and the constant is the one over them.  Without
    # the projection of the refinement residual onto range(S) the loop drifts
    # into the constants: disk4 returns 1.5e-10, and the Rayleigh-Ritz Gram
    # matrix of disk3 and disk8 loses positive definiteness.
    system = sd.assemble(mesh, ConstantForce())
    value = sd.inf_sup_constant(system)
    assert value > 0.0
    assert value == pytest.approx(dense_inf_sup(system), rel=1e-10)


def test_inf_sup_does_not_depend_on_the_load():
    mesh = sd.unit_square_mesh(8, {"right"})
    still = sd.inf_sup_constant(sd.assemble(mesh, ConstantForce((0.0, 0.0))))
    driven = sd.inf_sup_constant(sd.assemble(mesh, sd.TrigForce()))
    assert still == driven


def test_inf_sup_schur_product_count(monkeypatch):
    # Columns of S = B A^-1 B' applied by one call on square n=16, right side
    # Neumann: 91 from a random two-column lobpcg start block (before the
    # warm start), 38 from the seeded CG and a one-column lobpcg, 36 from the
    # Rayleigh-Ritz loop: 35 CG steps and one fresh product that certifies
    # their Ritz pair.  The count is deterministic, so not a timing test.
    columns = []
    apply = stokes_fem._SchurComplement.apply

    def counted(self, x):
        columns.append(1 if x.ndim == 1 else x.shape[1])
        return apply(self, x)

    monkeypatch.setattr(stokes_fem._SchurComplement, "apply", counted)
    sd.inf_sup_constant(sd.assemble(sd.unit_square_mesh(16, {"right"}), ConstantForce()))
    assert sum(columns) <= 50


def _fresh_systems():
    return [sd.assemble(sd.unit_square_mesh(n, sides), ConstantForce())
            for n in (4, 8, 12) for sides in ({"right"}, {"left", "right"})]


def test_inf_sup_leaves_the_warnings_filters_alone(monkeypatch):
    # warnings.catch_warnings swaps process-wide state, so it is not thread-safe
    def unsafe(*args, **kwargs):
        raise AssertionError("inf_sup_constant entered warnings.catch_warnings")

    system = _fresh_systems()[3]
    monkeypatch.setattr(warnings, "catch_warnings", unsafe)
    try:
        value = sd.inf_sup_constant(system)
    finally:
        monkeypatch.undo()  # pytest reports failures under catch_warnings
    assert value > 0.0


def test_inf_sup_on_threads_equals_sequential():
    sequential = [sd.inf_sup_constant(system) for system in _fresh_systems()]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(sd.inf_sup_constant, _fresh_systems(), timeout=120))
    assert threaded == sequential


def test_inf_sup_short_of_the_bound_raises(monkeypatch):
    # On this clustered spectrum the Krylov Ritz pair alone misses the bound
    # (residual 4.6e-5), so no refinement step means no certificate.
    monkeypatch.setattr(stokes_fem, "_EIG_MAX_ITER", 0)
    system = sd.assemble(sd.unit_square_mesh(8, {"left", "right"}), ConstantForce())
    with pytest.raises(sd.SingularSystem, match="did not converge"):
        sd.inf_sup_constant(system)


def _failing_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("the leading minor of order 2 is not positive")


def _zero_direction_cg(cg):
    def patched(self, b, **kwargs):
        x, iterations, directions, products = cg(self, b, **kwargs)
        return x, iterations, directions + [0.0 * b], products + [0.0 * b]

    return patched


@pytest.mark.parametrize("target, name, patch, message", [
    (scipy.linalg, "eigh", lambda _: _failing_eigh, "Rayleigh-Ritz failed"),
    (stokes_fem._SchurComplement, "cg", _zero_direction_cg, "no positive, finite S-norm"),
], ids=["eigh-fails", "zero-column"])
def test_inf_sup_degenerate_rayleigh_ritz_raises(monkeypatch, target, name, patch, message):
    monkeypatch.setattr(target, name, patch(getattr(target, name)))
    with pytest.raises(sd.SingularSystem, match=message):
        sd.inf_sup_constant(_square_system())


def mass_diagonal_spectrum(mesh):
    """Oracle: the eigenvalues of D^-1 M, D = diag(M), from the symmetric D^-1/2 M D^-1/2 by dense eigh."""
    m = pressure_mass_matrix(FunctionSpace(mesh)).toarray()
    scale = 1.0 / np.sqrt(np.diag(m))
    return scipy.linalg.eigh(scale[:, None] * m * scale, eigvals_only=True)


def _assert_in_wathens_interval(eigenvalues):
    # The Chebyshev preconditioner hard-codes [1/2, 2]; the ends are attained.
    slack = 8 * np.finfo(float).eps
    assert 0.5 - slack <= eigenvalues.min() and eigenvalues.max() <= 2.0 + slack


@pytest.mark.parametrize(
    "make_mesh",
    [lambda _, sides=sides: sd.unit_square_mesh(6, sides) for sides in [set(), {"right"}, *SQUARE_SIDES.values()]]
    + [lambda _: sd.disk_mesh(6), lambda _: shuffled_square(), lambda tmp_path: disk_file_mesh(tmp_path)],
    ids=["square-clamped", "square-right", *(f"square-{name}" for name in SQUARE_SIDES), "disk", "shuffled-square",
         "disk-file-arcs"],
)
def test_the_mass_matrix_diagonal_bounds_its_spectrum(make_mesh, tmp_path):
    # Wathen (IMA J. Numer. Anal. 7, 1987): spec(D^-1 M) lies in [1/2, 2]
    # for every P1 mass matrix.
    _assert_in_wathens_interval(mass_diagonal_spectrum(make_mesh(tmp_path)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    disk=st.booleans(),
    size=st.integers(1, 5),
    stretch=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_wathens_interval_holds_on_drawn_triangulations(disk, size, stretch, data):
    # The bound is element by element: each triangle's D_T^-1 M_T has the
    # eigenvalues 1/2, 1/2 and 2 whatever its shape.  Vertices are moved by
    # up to 0.4 h, and x is scaled by 10^stretch, so triangles get thin.
    base = sd.disk_mesh(size) if disk else sd.unit_square_mesh(size + 1)
    jitter = data.draw(arrays(float, base.vertices.shape, elements=st.floats(-0.4, 0.4, allow_nan=False)))
    vertices = (base.vertices + jitter / (size + 1)) * [10.0 ** stretch, 1.0]
    mesh = TriMesh(vertices, base.triangles, base.boundary_edges, base.boundary_tags)
    assume(np.all(mesh.triangle_areas() > 0.0))
    _assert_in_wathens_interval(mass_diagonal_spectrum(mesh))


def _dense_preconditioner(schur):
    return np.column_stack([schur.precondition(e) for e in np.eye(schur.M.shape[0])])


@pytest.mark.parametrize("mesh", [sd.unit_square_mesh(6, {"right"}), sd.disk_mesh(4)], ids=["square", "disk-clamped"])
def test_the_chebyshev_preconditioner_is_a_fixed_spd_operator(mesh):
    # CG stays CG only if P^-1 is one linear, symmetric, positive definite
    # operator; the Chebyshev polynomial of degree k puts spec(P^-1 M)
    # within 1/T_k(5/3) of 1 (centre 5/4 over half-width 3/4 of [1/2, 2]).
    # M 1 = 2 D 1, so P^-1 maps mean-free residuals to zero-integral
    # pressures, as M^-1 does: the clamped CG needs no other projection.
    schur = sd.assemble(mesh, sd.TrigForce())._schur()
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, schur.M.shape[0])) * [[1e-3], [1e5]]
    px, py = schur.precondition(x), schur.precondition(y)
    eps = np.finfo(float).eps
    assert abs(x @ py - y @ px) <= 4 * eps * (abs(x) @ abs(py) + abs(y) @ abs(px))
    combined = schur.precondition(3.0 * x - 0.5 * y)
    assert np.abs(combined - (3.0 * px - 0.5 * py)).max() <= 16 * eps * np.abs(combined).max()
    for v in rng.standard_normal((20, schur.M.shape[0])):
        assert v @ schur.precondition(v) > 0.0
    mean_free = schur.precondition(x - x.mean())
    weights = pressure_integral_weights(FunctionSpace(mesh))
    assert abs(weights @ mean_free) <= 8 * eps * (abs(weights) @ abs(mean_free))
    dense = _dense_preconditioner(schur)
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0
    gap = 1.0 / np.polynomial.chebyshev.chebval(5.0 / 3.0, [0.0] * stokes_fem._CG_CHEB_STEPS + [1.0])
    spectrum = np.linalg.eigvals(dense @ schur.M.toarray()).real
    assert 1.0 - gap - 1e-12 <= spectrum.min() and spectrum.max() <= 1.0 + gap + 1e-12


def test_pressure_mass_total():
    mesh = sd.unit_square_mesh(3, {"right"})
    m = pressure_mass_matrix(FunctionSpace(mesh))
    assert m.sum() == pytest.approx(1.0, abs=1e-13)


def test_manufactured_solution_satisfies_momentum_balance():
    """Substitution oracle: -Lap(u) + grad(lambda) - f = 0, via differences."""
    man = trig_manufactured()
    rng = np.random.default_rng(10)
    eps = 1e-5
    for _ in range(5):
        p = rng.uniform(0.2, 0.8, size=2)
        lap = np.zeros(2)
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = eps
            lap += (man.velocity.evaluate(p + dp) - 2 * man.velocity.evaluate(p)
                    + man.velocity.evaluate(p - dp)) / eps**2
        grad_lam = np.array(
            [
                (man.pressure(p + np.array([eps, 0])) - man.pressure(p - np.array([eps, 0]))) / (2 * eps),
                (man.pressure(p + np.array([0, eps])) - man.pressure(p - np.array([0, eps]))) / (2 * eps),
            ]
        )
        residual = -lap + grad_lam - man.force.evaluate(p)
        assert np.abs(residual).max() <= 1e-4
        # divergence-free by construction
        div = sum(
            (man.velocity.evaluate(p + np.eye(2)[j] * eps)[j]
             - man.velocity.evaluate(p - np.eye(2)[j] * eps)[j]) / (2 * eps)
            for j in range(2)
        )
        assert abs(div) <= 1e-9


def test_convergence_study_orders():
    rows = sd.convergence_study(trig_manufactured(), [4, 8, 16])
    assert rows[0].order is None
    assert all(r.order >= 1.8 for r in rows[1:])
    errs = [r.h1_error for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_study_single_row():
    rows = sd.convergence_study(trig_manufactured(), [4])
    assert len(rows) == 1 and rows[0].order is None


def test_exactly_representable_solutions_mesh_independent():
    for make in (pressure_gradient_setup, poiseuille_setup):
        energies = []
        for n in (2, 4, 8):
            _, system, sol = make(n)
            energies.append(sd.energy(system, sol))
        assert max(energies) - min(energies) <= 1e-10
