"""Mesh generators, transport under flows and the text format."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesh_oracle
import shapederiv as sd
from flow_oracle import negated
from shapederiv.flow import CutoffWindow
from shapederiv.mesh import DIRICHLET, NEUMANN, _edge_table


def test_unit_square_n1():
    mesh = sd.unit_square_mesh(1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert len(mesh.boundary_edges) == 4
    assert all(t == DIRICHLET for t in mesh.boundary_tags)


def test_unit_square_n2_right_neumann():
    mesh = sd.unit_square_mesh(2, {"right"})
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    neumann = mesh_oracle.edges_with_tag(mesh, NEUMANN)
    assert len(neumann) == 2
    for i, j in neumann:
        assert mesh.vertices[i, 0] == 1.0 and mesh.vertices[j, 0] == 1.0


def test_unit_square_area_partition():
    mesh = sd.unit_square_mesh(8)
    assert abs(mesh.triangle_areas().sum() - 1.0) <= 1e-12


def test_unit_square_rejects_bad_sides():
    with pytest.raises(ValueError):
        sd.unit_square_mesh(2, {"north"})


def test_outward_normals_point_outward():
    mesh = sd.unit_square_mesh(3, {"right", "top"})
    normals = mesh_oracle.outward_normals(mesh)
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]] + mesh.vertices[mesh.boundary_edges[:, 1]])
    center = np.array([0.5, 0.5])
    assert np.all(np.einsum("ei,ei->e", normals, mids - center) > 0)


def test_disk_ring1_is_hexagon_fan():
    mesh = sd.disk_mesh(1)
    assert mesh.num_vertices == 7
    assert mesh.num_triangles == 6
    assert all(t == DIRICHLET for t in mesh.boundary_tags)


def test_disk_ring2_boundary_count():
    mesh = sd.disk_mesh(2)
    boundary_vertices = set(mesh.boundary_edges.ravel().tolist())
    assert len(boundary_vertices) == 12
    assert all(t == DIRICHLET for t in mesh.boundary_tags)
    mesh.validate()


def test_disk_area_against_polygon_formula():
    # Oracle: area of the regular 24-gon inscribed in the unit circle.
    mesh = sd.disk_mesh(4)
    polygon_area = 12.0 * math.sin(math.pi / 12.0)
    assert mesh.triangle_areas().sum() == pytest.approx(polygon_area, abs=1e-12)
    assert abs(mesh.triangle_areas().sum() - math.pi) / math.pi < 0.02


def test_mesh_arrays_are_read_only():
    base = sd.unit_square_mesh(2, {"right"})
    vertices, triangles, edges = base.vertices.copy(), base.triangles.copy(), base.boundary_edges.copy()
    mesh = sd.TriMesh(vertices, triangles, edges, base.boundary_tags)
    for name in ("vertices", "triangles", "boundary_edges"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(mesh, name)[0] = 0
    assert triangles.flags.writeable and vertices.flags.writeable and edges.flags.writeable
    # The connectivity is the mesh's own: an edit of the caller's arrays
    # does not reach what is memoized on it.
    triangles[0, 0], edges[0, 0] = triangles[0, 1], edges[0, 1]
    assert np.array_equal(mesh.triangles, base.triangles)
    assert np.array_equal(mesh.boundary_edges, base.boundary_edges)
    assert np.shares_memory(mesh.vertices, vertices)


def _one_entry(array, value):
    """A float copy of ``array`` with its first entry set to ``value``."""
    array = array.astype(float)
    array[0, 0] = value
    return array


def _extra_column(array):
    return np.column_stack([array, array[:, 0]])


# case -> (the argument replaced, its replacement, the message).  The tags
# are checked here too: unchecked, a tuple one short fails in the assembly's
# topology build with an IndexError, and an unknown tag assembles as Neumann.
MALFORMED = {
    "nan-vertex": ("vertices", lambda m: _one_entry(m.vertices, np.nan), "vertex coordinates must be finite"),
    "inf-vertex": ("vertices", lambda m: _one_entry(m.vertices, np.inf), "vertex coordinates must be finite"),
    "3-column-vertices": ("vertices", lambda m: _extra_column(m.vertices),
                          re.escape("vertices must have shape (n, 2), not (9, 3)")),
    "4-column-triangles": ("triangles", lambda m: _extra_column(m.triangles),
                           re.escape("triangles must have shape (n, 3), not (8, 4)")),
    "3-column-edges": ("boundary_edges", lambda m: _extra_column(m.boundary_edges),
                       re.escape("boundary_edges must have shape (n, 2), not (8, 3)")),
    "fractional-triangle-index": ("triangles", lambda m: _one_entry(m.triangles, m.triangles[0, 0] + 0.3),
                                  "triangles must hold integer vertex indices"),
    "fractional-edge-index": ("boundary_edges", lambda m: _one_entry(m.boundary_edges, m.boundary_edges[0, 0] + 0.3),
                              "boundary_edges must hold integer vertex indices"),
    "nan-index": ("triangles", lambda m: _one_entry(m.triangles, np.nan), "triangles must hold integer vertex indices"),
    "tag-missing": ("boundary_tags", lambda m: m.boundary_tags[:-1], "each boundary edge needs exactly one tag"),
    "unknown-tag": ("boundary_tags", lambda m: ("X",) + m.boundary_tags[1:], re.escape("unknown boundary tags {'X'}")),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_arrays_raise_on_construction(case):
    name, replacement, message = MALFORMED[case]
    mesh = sd.unit_square_mesh(2)
    arrays = {"vertices": mesh.vertices, "triangles": mesh.triangles, "boundary_edges": mesh.boundary_edges,
              "boundary_tags": mesh.boundary_tags}
    arrays[name] = replacement(mesh)
    with pytest.raises(ValueError, match=message):
        sd.TriMesh(**arrays)


def test_integer_valued_float_indices_are_accepted():
    mesh = sd.unit_square_mesh(2)
    again = sd.TriMesh(mesh.vertices, mesh.triangles.astype(float), mesh.boundary_edges.astype(float),
                       mesh.boundary_tags)
    again.validate()
    assert again.triangles.dtype == mesh.triangles.dtype
    assert np.array_equal(again.triangles, mesh.triangles)


# The generators do not validate their output: these sweeps check that it
# is valid by construction.
@pytest.mark.parametrize("n", range(1, 25))
def test_unit_square_meshes_are_valid(n):
    for k in range(len(sd.mesh._SIDES) + 1):
        for sides in itertools.combinations(sd.mesh._SIDES, k):
            mesh = sd.unit_square_mesh(n, set(sides))
            assert np.all(mesh.triangle_areas() > 0.0)
            mesh.validate()


def test_disk_meshes_are_valid():
    for rings in range(1, 41):
        mesh = sd.disk_mesh(rings)
        assert np.all(mesh.triangle_areas() > 0.0)
        mesh.validate()


def test_transport_zero_field_is_identity():
    mesh = sd.unit_square_mesh(3, {"left"})
    moved = sd.transport_mesh(mesh, sd.ZeroField(), 0.5)
    np.testing.assert_array_equal(moved.vertices, mesh.vertices)
    np.testing.assert_array_equal(moved.triangles, mesh.triangles)
    assert moved.boundary_tags == mesh.boundary_tags


def test_transport_constant_field_translates():
    mesh = sd.unit_square_mesh(3)
    moved = sd.transport_mesh(mesh, sd.ConstantField(b=(2.0, -1.0)), 0.25)
    np.testing.assert_allclose(moved.vertices, mesh.vertices + np.array([0.5, -0.25]), atol=1e-13)
    np.testing.assert_allclose(moved.triangle_areas(), mesh.triangle_areas(), atol=1e-13)


def test_transport_affine_stretch_area():
    # Velocity (x1, 0): the flow stretches x1 by e^s, so does the total area.
    mesh = sd.unit_square_mesh(4)
    s = 1e-2
    moved = sd.transport_mesh(mesh, sd.AffineField(M=((1.0, 0.0), (0.0, 0.0))), s)
    assert moved.triangle_areas().sum() == pytest.approx(math.exp(s), abs=1e-6)


def test_transport_preserves_structure_and_reverses():
    mesh = sd.unit_square_mesh(4, {"top"})
    field = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))
    moved = sd.transport_mesh(mesh, field, 0.2)
    assert moved.num_vertices == mesh.num_vertices
    assert moved.num_triangles == mesh.num_triangles
    assert moved.boundary_tags == mesh.boundary_tags
    assert np.all(moved.triangle_areas() > 0)
    back = sd.transport_mesh(moved, negated(field), 0.2)
    assert np.abs(back.vertices - mesh.vertices).max() <= 1e-8


@pytest.mark.parametrize("field", [sd.RotationField(1.0), sd.AffineField(M=((0.4, 0.3), (0.2, -0.4)))],
                         ids=["rotation", "traceless-affine"])
def test_transport_divergence_free_preserves_area(field):
    mesh = sd.disk_mesh(2)
    moved = sd.transport_mesh(mesh, field, 0.2)
    assert abs(moved.triangle_areas().sum() - mesh.triangle_areas().sum()) <= 1e-9


def test_transport_blowup_raises_non_positive_jacobian():
    # d(x1)/ds = x1^2 blows up at s = 1 from x1 = 1: the right-side vertices
    # leave the plane before any triangle can flip.
    field = sd.QuadraticField(coeffs=((0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (0.0,) * 6))
    with pytest.raises(sd.NonPositiveJacobian):
        sd.transport_mesh(sd.unit_square_mesh(4), field, 2.0)


def test_transport_inverted_element():
    # A windowed swirl rotates the inner vertices past the frozen outer ones;
    # the straight-edged triangles between them fold once s is large enough.
    mesh = sd.unit_square_mesh(2)
    field = sd.RotationField(1.0, window=CutoffWindow(lo=(-0.1, -0.1), hi=(0.7, 0.7), ramp=0.25))
    with pytest.raises(sd.InvertedElement):
        sd.transport_mesh(mesh, field, 2.0)


def test_mesh_file_round_trip_bit_exact(tmp_path):
    mesh = sd.transport_mesh(
        sd.unit_square_mesh(3, {"right", "top"}),
        sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04)),
        0.17,
    )
    path = tmp_path / "mesh.txt"
    sd.write_mesh(path, mesh)
    again = sd.read_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)  # bit-exact
    assert np.array_equal(again.triangles, mesh.triangles)
    assert np.array_equal(again.boundary_edges, mesh.boundary_edges)
    assert again.boundary_tags == mesh.boundary_tags
    # Round-trip once more through a second file: identical bytes.
    path2 = tmp_path / "mesh2.txt"
    sd.write_mesh(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_mesh_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        sd.read_mesh(path)
    sd.write_mesh(path, sd.unit_square_mesh(1))
    good = path.read_text().splitlines()  # header, V 4, 4 rows, T 2, 2 rows, E 4, 4 rows
    for lines, where in [
        (good[:4], "block V expects 4 row(s), the file ends at line 4"),
        (good[:6], "end of file: expected section 'T <count>'"),
        (good[:8], "block T expects 2 row(s), the file ends at line 8"),
        (good[:8] + ["0 1 7"] + good[9:], "line 9: block T: vertex index out of range 0..3"),
        (good[:2] + ["0 inf"] + good[3:], "line 3: block V: values must be finite"),
    ]:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(where)):
            sd.read_mesh(path)


def test_validate_catches_flipped_triangle():
    mesh = sd.unit_square_mesh(1)
    flipped = sd.TriMesh(
        mesh.vertices, mesh.triangles[:, [0, 2, 1]], mesh.boundary_edges, mesh.boundary_tags
    )
    with pytest.raises(sd.InvertedElement):
        flipped.validate()


def test_validate_catches_wrong_boundary():
    mesh = sd.unit_square_mesh(2)
    wrong = sd.TriMesh(
        mesh.vertices, mesh.triangles, mesh.boundary_edges[:-1], mesh.boundary_tags[:-1]
    )
    with pytest.raises(ValueError):
        wrong.validate()


@pytest.mark.parametrize(
    "triangles,message",
    [
        # Both triangles are counterclockwise and lie above edge 0 -> 1: they
        # overlap, and each traverses that edge in the same direction.
        ([[0, 1, 2], [0, 1, 3]], "edge 0 -> 1 appears twice in the same direction"),
        ([[0, 1, 2], [1, 0, 4], [0, 1, 3]], "mesh is not edge-to-edge conforming"),
    ],
    ids=["overlap", "three-triangles"],
)
def test_validate_rejects_bad_edge_sharing(triangles, message):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.6, 0.5], [0.5, -1.0]])
    edges = mesh_oracle.boundary_edges(triangles)
    mesh = sd.TriMesh(verts, triangles, edges, "D" * len(edges))
    with pytest.raises(ValueError, match=re.escape(message)):
        mesh.validate()


def test_validate_checks_vertex_index_range():
    mesh = sd.unit_square_mesh(2)
    nv = mesh.num_vertices
    past_end = mesh.triangles.copy()
    past_end[0, 0] = nv
    shifted = sd.TriMesh(mesh.vertices, mesh.triangles - nv, mesh.boundary_edges - nv, mesh.boundary_tags)
    edge_past_end = mesh.boundary_edges.copy()
    edge_past_end[-1, 1] = nv
    for bad in (
        sd.TriMesh(mesh.vertices, past_end, mesh.boundary_edges, mesh.boundary_tags),
        shifted,  # negative indices would wrap around in numpy
        sd.TriMesh(mesh.vertices, mesh.triangles, edge_past_end, mesh.boundary_tags),
    ):
        with pytest.raises(ValueError, match=re.escape(f"vertex index out of range 0..{nv - 1}")):
            bad.validate()


def test_validate_rejects_a_vertex_in_no_triangle():
    # A vertex outside every triangle carries a pressure dof that nothing
    # pairs with: such a mesh used to pass and fail in the solve as a
    # rank-deficient pairing.  The check comes last, after the edge rules.
    mesh = sd.unit_square_mesh(4, {"right"})
    vertices = np.vstack([mesh.vertices, [0.5, 0.55]])
    stray = sd.TriMesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)
    with pytest.raises(ValueError, match=re.escape(f"vertex {mesh.num_vertices} belongs to no triangle")):
        stray.validate()


# --- the edge table against the loop oracles (tests/mesh_oracle.py) ---------


def assert_table_matches_oracle(mesh):
    _, keys, _, _, counts, boundary = _edge_table(mesh.triangles, mesh.num_vertices)
    expected = np.array(mesh_oracle.boundary_edges(mesh.triangles), dtype=int).reshape(-1, 2)
    assert np.array_equal(boundary, expected)
    oracle_counts = mesh_oracle.edge_counts(mesh.triangles)
    pairs = np.array(sorted(oracle_counts))
    assert np.array_equal(keys, pairs[:, 0] * mesh.num_vertices + pairs[:, 1])
    assert np.array_equal(counts, [oracle_counts[tuple(p)] for p in pairs.tolist()])


@pytest.mark.parametrize("n", range(1, 13))
def test_unit_square_matches_loop_oracle(n):
    for k in range(len(sd.mesh._SIDES) + 1):
        for sides in itertools.combinations(sd.mesh._SIDES, k):
            mesh = sd.unit_square_mesh(n, set(sides))
            vertices, triangles, edges, tags = mesh_oracle.unit_square(n, set(sides))
            assert np.array_equal(mesh.vertices, vertices)
            assert np.array_equal(mesh.triangles, triangles)
            assert np.array_equal(mesh.boundary_edges, edges)
            assert mesh.boundary_tags == tags
            assert all(type(tag) is str for tag in mesh.boundary_tags)
    assert_table_matches_oracle(mesh)


@pytest.mark.parametrize("rings", range(1, 9))
def test_disk_boundary_matches_loop_oracle(rings):
    mesh = sd.disk_mesh(rings)
    assert np.array_equal(mesh.boundary_edges, mesh_oracle.boundary_edges(mesh.triangles))
    assert_table_matches_oracle(mesh)


def test_shuffled_square_matches_loop_oracle():
    square = sd.unit_square_mesh(5, {"right", "top"})
    perm = np.random.default_rng(3).permutation(square.num_triangles)
    mesh = sd.TriMesh(square.vertices, square.triangles[perm], square.boundary_edges, square.boundary_tags)
    mesh.validate()
    assert_table_matches_oracle(mesh)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 4))
def test_boundary_is_invariant_under_renumbering_triangles(seed, rings):
    # Reordering the triangles and rotating each one's vertices keeps every
    # directed edge, so the boundary and the counts match the oracle still.
    mesh = sd.disk_mesh(rings)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 3, mesh.num_triangles)
    rotated = np.take_along_axis(mesh.triangles, (np.arange(3) + shift[:, None]) % 3, axis=1)
    moved = sd.TriMesh(mesh.vertices, rotated[rng.permutation(mesh.num_triangles)], mesh.boundary_edges, mesh.boundary_tags)
    moved.validate()
    assert_table_matches_oracle(moved)
    *_, boundary = _edge_table(moved.triangles, moved.num_vertices)
    assert np.array_equal(boundary, mesh.boundary_edges)
