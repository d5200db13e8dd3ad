"""Element kernels and the quadratic field against their direct forms.

The package takes its element matrices as the element geometry times
reference tensors, its velocity gradients through the reference gradients,
and evaluates QuadraticField in closed form; ``kernel_oracle`` keeps the
plain einsum strings over the physical gradients at every quadrature point
and the monomial stack.  Every comparison allows 1e-15 of the oracle's
roundoff scale: the largest entry of the same contraction taken over
absolute values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shapederiv as sd
from shapederiv.fields import TrigForce
from shapederiv.stokes_fem import _P1_VALS, _REF_MASS, pressure_mass_matrix

import kernel_oracle as oracle
from perturbation_oracle import P1Interpolant, assemble_perturbation_matrices

RTOL = 1e-15


def _max_abs(a):
    return float(abs(a).max())


def _kernel_pairs(mesh, u_values, coeffs):
    """name -> (package result, oracle result, oracle scale); the velocity
    repeats ``u_values`` over the free dofs."""
    force = TrigForce()
    system = sd.assemble(mesh, force)
    space = system.space
    u = np.resize(u_values, space.num_velocity)
    f_vals = force.evaluate(space.quad_points)
    lam = np.sin(np.arange(space.num_pressure))
    stiffness = [space._topology.stiffness.matrix(b) for b in oracle.stiffness_blocks(space)]
    pairing = [space._topology.pairing.matrix(np.moveaxis(b, -1, 0)) for b in oracle.pairing_blocks(space)]
    load = [space.load_vector(b) for b in oracle.load_blocks(space, f_vals)]
    mass = [space._topology.mass.matrix(b) for b in oracle.mass_blocks(space)]
    fast = sd.QuadraticField(coeffs=coeffs)
    stacked = oracle.StackedQuadraticField(coeffs=coeffs)
    value_scale, jacobian_scale = stacked.scales(space.quad_points)
    return {
        "stiffness": (system.L, *stiffness),
        "pairing": (system.B, *pairing),
        "mass": (pressure_mass_matrix(space), *mass),
        "load": (system.f, *load),
        "velocity_gradients": (space.element_velocity_gradients(u), *oracle.velocity_gradients(space, u)),
        "pressure_values": (lam[mesh.triangles] @ _P1_VALS.T, *oracle.pressure_values(space, lam)),
        "quadratic_value": (fast.evaluate(space.quad_points), stacked.evaluate(space.quad_points), value_scale),
        "quadratic_gradient": (fast.gradient(space.quad_points), stacked.gradient(space.quad_points), jacobian_scale),
    }


def _assert_pairs_close(pairs):
    for name, (new, old, scale) in pairs.items():
        gap = _max_abs(new - old)
        assert gap <= RTOL * _max_abs(scale), f"{name}: |new - old| = {gap:.3e}, scale {_max_abs(scale):.3e}"


COEFFS = ((0.3, -1.2, 0.7, 0.45, -0.8, 1.1), (-0.5, 0.25, 0.9, -1.3, 0.6, 0.35))
MESHES = {
    "square": lambda: sd.unit_square_mesh(8, {"right"}),
    "disk": lambda: sd.disk_mesh(6),
}


def _mapped_square(matrix):
    """The n=6 square, right side Neumann, with its vertices mapped by ``matrix``."""
    base = sd.unit_square_mesh(6, {"right"})
    return sd.TriMesh(base.vertices @ np.array(matrix).T, base.triangles, base.boundary_edges, base.boundary_tags)


# Elements whose J^-1 J^-T is far from isotropic: the geometry tensors
# that the package contracts have entries of very different sizes.
DISTORTED = {
    "sheared": lambda: _mapped_square([[1.0, 0.9999], [0.0, 1e-4]]),
    "anisotropic": lambda: _mapped_square([[1.0, 0.0], [0.0, 1e-3]]),
}


@pytest.mark.parametrize("mesh_name", sorted(MESHES) + sorted(DISTORTED))
def test_kernels_match_plain_einsum(mesh_name):
    u_values = np.random.default_rng(7).standard_normal(1000)
    _assert_pairs_close(_kernel_pairs((MESHES | DISTORTED)[mesh_name](), u_values, COEFFS))


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_e1_matches_plain_einsum(mesh_name):
    mesh, force, fld = MESHES[mesh_name](), TrigForce(), sd.QuadraticField(coeffs=COEFFS)
    system = sd.assemble(mesh, force)
    solution = sd.solve_stokes(system, pin_pressure=not len(system.space.neumann_edges))
    interpolant = P1Interpolant(system.space, fld)  # the motion of the mesh
    f1 = assemble_perturbation_matrices(system.space, interpolant, force).f1
    e1, scale = oracle.e1(system.space, interpolant, solution.u, f1)
    report = sd.stokes_shape_derivative(system, solution, sd.assemble_perturbation(system.space, fld, force), fld)
    assert abs(report.E1 - e1) <= RTOL * scale


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    jitter=arrays(float, (4, 2), elements=st.floats(-0.05, 0.05, **_finite)),
    u=arrays(float, 48, elements=st.floats(-10.0, 10.0, **_finite)),
    coeffs=arrays(float, (2, 6), elements=st.floats(-10.0, 10.0, **_finite)),
)
def test_kernels_match_plain_einsum_on_drawn_meshes(jitter, u, coeffs):
    # n = 3 square, interior vertices moved by up to 0.15 h: every triangle
    # keeps a positive area.
    base = sd.unit_square_mesh(3, {"right"})
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[interior] += jitter
    mesh = sd.TriMesh(vertices, base.triangles, base.boundary_edges, base.boundary_tags)
    assert np.all(mesh.triangle_areas() > 0.0)
    _assert_pairs_close(_kernel_pairs(mesh, u, tuple(map(tuple, coeffs))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    jitter=arrays(float, (4, 2), elements=st.floats(-0.05, 0.05, **_finite)),
    sides=st.sets(st.sampled_from(["left", "right", "bottom", "top"]), max_size=3),
    data=st.data(),
)
def test_load_vectors_sum_in_the_oracles_order(jitter, sides, data):
    # Block magnitudes spread over e^-20..e^20, so that the order of the
    # additions shows in the last bits; both sums must agree exactly.
    base = sd.unit_square_mesh(3, sides)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[interior] += jitter
    space = sd.FunctionSpace(sd.TriMesh(vertices, base.triangles, base.boundary_edges, base.boundary_tags))

    def blocks(shape):
        mantissa = data.draw(arrays(float, shape, elements=st.floats(-1.0, 1.0, **_finite)))
        return mantissa * np.exp(data.draw(arrays(float, shape, elements=st.floats(-20.0, 20.0, **_finite))))

    triangle_blocks = blocks((base.num_triangles, 6, 2))
    np.testing.assert_array_equal(space.load_vector(triangle_blocks), oracle.load_vector(space, triangle_blocks))
    edges = space.neumann_edges
    edge_blocks = blocks((len(edges), 3, 2))
    np.testing.assert_array_equal(
        space.load_vector(edge_blocks, edges), oracle.load_vector(space, edge_blocks, edges)
    )


def _assert_canonical(matrix):
    """Sorted, duplicate-free column indices in every row."""
    for start, end in zip(matrix.indptr[:-1], matrix.indptr[1:]):
        assert np.all(np.diff(matrix.indices[start:end]) > 0)


def _renumbered(mesh, labels, order, turns):
    """The mesh with vertex v relabelled labels[v], the triangles taken in
    ``order`` and each triangle's vertices rotated by its ``turns``, which
    keeps its orientation."""
    vertices = np.empty_like(mesh.vertices)
    vertices[labels] = mesh.vertices
    triangles = labels[mesh.triangles[order]]
    triangles = np.take_along_axis(triangles, (np.arange(3) + turns[:, None]) % 3, axis=1)
    return sd.TriMesh(vertices, triangles, labels[mesh.boundary_edges], mesh.boundary_tags)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    jitter=arrays(float, (4, 2), elements=st.floats(-0.05, 0.05, **_finite)),
    sides=st.sets(st.sampled_from(["left", "right", "bottom", "top"]), max_size=3),
    labels=st.permutations(range(16)),
    order=st.permutations(range(18)),
    turns=arrays(int, 18, elements=st.integers(0, 2)),
    data=st.data(),
)
def test_matrices_sum_in_the_oracles_order(jitter, sides, labels, order, turns, data):
    # As for the load vectors: the fixed patterns sum each entry's element
    # contributions in element order, as the dense np.add.at oracle does,
    # also on vertex and triangle numberings that no generator produces.
    base = sd.unit_square_mesh(3, sides)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[interior] += jitter
    moved = sd.TriMesh(vertices, base.triangles, base.boundary_edges, base.boundary_tags)
    space = sd.FunctionSpace(_renumbered(moved, np.array(labels), np.array(order), turns))

    def blocks(shape):
        mantissa = data.draw(arrays(float, shape, elements=st.floats(-1.0, 1.0, **_finite)))
        return mantissa * np.exp(data.draw(arrays(float, shape, elements=st.floats(-20.0, 20.0, **_finite))))

    nt = base.num_triangles
    stiffness, pairing, mass = blocks((nt, 6, 6)), blocks((nt, 3, 6, 2)), blocks((nt, 3, 3))
    own_mass = space.det[:, None, None] * _REF_MASS  # the package's kernel
    for matrix, expected in (
        (space._topology.stiffness.matrix(stiffness), oracle.stiffness_matrix(space, stiffness)),
        (space._topology.pairing.matrix(np.moveaxis(pairing, -1, 0)), oracle.pairing_matrix(space, pairing)),
        (space._topology.mass.matrix(mass), oracle.mass_matrix(space, mass)),
        (pressure_mass_matrix(space), oracle.mass_matrix(space, own_mass)),
    ):
        _assert_canonical(matrix)
        np.testing.assert_array_equal(matrix.toarray(), expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    coeffs=arrays(float, (2, 6), elements=st.floats(-1e3, 1e3, **_finite)),
    points=st.integers(1, 12).flatmap(lambda k: arrays(float, (k, 2), elements=st.floats(-3.0, 3.0, **_finite))),
)
def test_quadratic_field_matches_monomial_stack(coeffs, points):
    c = tuple(map(tuple, coeffs))
    fast, stacked = sd.QuadraticField(coeffs=c), oracle.StackedQuadraticField(coeffs=c)
    value_scale, jacobian_scale = stacked.scales(points)
    for new, old, scale in (
        (fast.evaluate(points), stacked.evaluate(points), value_scale),
        (fast.gradient(points), stacked.gradient(points), jacobian_scale),
    ):
        assert new.shape == old.shape
        assert _max_abs(new - old) <= RTOL * _max_abs(scale)


class _CountingField:
    """Delegates to ``inner`` and records the points of every evaluation
    and the number of gradient evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"evaluate": [], "gradient": 0}

    def evaluate(self, points):
        self.calls["evaluate"].append(points)
        return self.inner.evaluate(points)

    def gradient(self, points):
        self.calls["gradient"] += 1
        return self.inner.gradient(points)


def test_shape_derivative_evaluates_the_field_once_at_the_vertices():
    mesh = sd.unit_square_mesh(4, {"right"})
    force, inner = TrigForce(), sd.QuadraticField(coeffs=COEFFS)
    system = sd.assemble(mesh, force)
    solution = sd.solve_stokes(system)
    counting = _CountingField(inner=inner)
    report = sd.stokes_shape_derivative(
        system, solution, sd.assemble_perturbation(system.space, counting, force), counting
    )
    assert [points is mesh.vertices for points in counting.calls["evaluate"]] == [True]
    assert counting.calls["gradient"] == 0
    plain = sd.stokes_shape_derivative(system, solution, sd.assemble_perturbation(system.space, inner, force), inner)
    assert report.L1 == plain.L1
