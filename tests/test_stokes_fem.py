"""Taylor-Hood assembly, exactly representable solutions, convergence."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import shapederiv as sd
from shapederiv import stokes_fem
from shapederiv.fields import ConstantForce, LeftEdgeTraction, trig_manufactured
from shapederiv.mesh import TriMesh
from shapederiv.stokes_fem import FunctionSpace, pressure_mass_matrix


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
    assert set(space.dirichlet_nodes) == set(on_dirichlet)
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
    assert np.array_equal(space.dirichlet_nodes, dirichlet)


def test_boundary_edge_outside_triangulation_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    edges = np.array([[0, 1], [1, 2], [2, 0], [1, 3]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]), edges, ("D", "D", "D", "N"))
    with pytest.raises(ValueError, match="boundary edge"):
        FunctionSpace(mesh)


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
    for t, nodes in enumerate(space.tri_nodes):
        contrib = np.einsum("q,qac->ac", space.quad_coef[t], space.phys_grads[t])
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
    with pytest.raises(sd.SingularSystem):
        sd.solve_stokes(system)
    sol = sd.solve_stokes(system, pin_pressure=True)
    weights = system.space.pressure_integral_weights()
    assert abs(weights @ sol.lam) <= 1e-12  # zero-mean representative
    assert sol.residual_divergence <= 1e-9


def test_pure_dirichlet_gradient_force_zero_velocity():
    # f = grad(x1) on a fully clamped domain: u = 0, pressure recovers x1.
    mesh = sd.disk_mesh(3)
    system = sd.assemble(mesh, ConstantForce(value=(1.0, 0.0)))
    sol = sd.solve_stokes(system, pin_pressure=True)
    assert np.abs(system.space.expand_velocity(sol.u)).max() <= 1e-12
    weights = system.space.pressure_integral_weights()
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
        weights = system.space.pressure_integral_weights()
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
    # Both components share the Dirichlet nodes, so A = kron(L, I_2): the
    # structure the saddle solver factors at half size.
    A = sd.assemble(mesh, ConstantForce()).A
    L = A[0::2, 0::2]
    assert abs(A - sparse.kron(L, sparse.identity(2))).max() == 0.0


def test_schur_cg_iterations_mesh_independent():
    counts = [
        sd.solve_stokes(sd.assemble(sd.unit_square_mesh(n, {"right"}), sd.TrigForce())).iterations
        for n in (8, 16, 32)
    ]
    assert max(counts) - min(counts) <= 5
    assert max(counts) <= 60


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
        pytest.param(lambda s: dataclasses.replace(s, A=-s.A), id="cg-breakdown"),
        pytest.param(lambda s: dataclasses.replace(s, A=s.A[::-1]), id="not-per-component"),
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


def test_cg_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", 3)
    with pytest.raises(sd.SingularSystem, match="did not converge"):
        sd.solve_stokes(_square_system())


# --- inf-sup and convergence --------------------------------------------------


def dense_inf_sup(system):
    """Oracle: dense Schur complement of the full stiffness, dense generalized eigh."""
    bt = system.B.toarray().T
    schur = bt.T @ spla.splu(system.A.tocsc()).solve(bt)
    m = pressure_mass_matrix(system.space).toarray()
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
