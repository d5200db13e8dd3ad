"""Triangulated 2-d domains with tagged Dirichlet/Neumann boundaries.

Meshes are immutable values, their arrays read-only: generators build
them, ``transport_mesh`` maps the vertices through a velocity flow and
returns a new mesh with the same connectivity and tags, and hands it the
assembly topology that ``stokes_fem`` memoizes on a mesh.  The text
format (``tri-mesh v1``) stores coordinates with 17 significant digits so
write/read round-trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from ._textio import block_rows, block_sizes, float_block, numbered_lines
from .errors import InvertedElement
from .flow import QuadraticField, flow_points

__all__ = [
    "DIRICHLET",
    "NEUMANN",
    "TriMesh",
    "unit_square_mesh",
    "disk_mesh",
    "transport_mesh",
    "write_mesh",
    "read_mesh",
]

DIRICHLET = "D"
NEUMANN = "N"

_SIDES = ("left", "right", "bottom", "top")


def _edge_keys(pairs: np.ndarray, num_vertices: int) -> np.ndarray:
    """One integer per undirected edge of the vertex pairs (k, 2)."""
    return pairs.min(axis=1) * num_vertices + pairs.max(axis=1)


def _edge_table(triangles: np.ndarray, num_vertices: int) -> tuple[np.ndarray, ...]:
    """The local edges (01, 12, 20) of the triangles as directed vertex pairs;
    ``np.unique`` of their undirected keys (sorted keys, first appearance,
    inverse, counts); and the boundary: the edges of exactly one triangle,
    in its direction, sorted by (start, end).  The arrays are read-only, as
    a mesh memoizes them (``_edges``)."""
    local = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    keys, first, inverse, counts = np.unique(_edge_keys(local, num_vertices), return_index=True,
                                             return_inverse=True, return_counts=True)
    boundary = local[first[counts == 1]]
    table = local, keys, first, inverse, counts, boundary[np.lexsort(boundary.T[::-1])]
    for array in table:
        array.flags.writeable = False
    return table


def _index_array(name: str, ids, width: int) -> np.ndarray:
    """A copy of the (n, ``width``) array ``ids`` as integers; a value that is not one raises ValueError."""
    raw = np.asarray(ids)
    if raw.ndim != 2 or raw.shape[1] != width:
        raise ValueError(f"{name} must have shape (n, {width}), not {raw.shape}")
    with np.errstate(invalid="ignore"):  # NaN and out-of-range floats fail the comparison below
        copy = raw.astype(int) if raw.dtype.kind in "biuf" else None
    if copy is None or not np.array_equal(copy, raw):
        raise ValueError(f"{name} must hold integer vertex indices")
    return copy


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with CCW triangles and tagged boundary edges.

    ``boundary_edges[k]`` is a directed vertex pair tracing the boundary
    counterclockwise (domain on the left), and ``boundary_tags[k]`` is
    ``"D"`` or ``"N"``.  The outward normal of an edge is the unit tangent
    rotated clockwise by 90 degrees.

    The arrays are read-only.  ``triangles`` and ``boundary_edges`` are
    copies of the ones passed in, so that what is memoized on the mesh's
    connectivity cannot go stale; ``vertices`` is a view of the array
    passed in (converted where its dtype differs), and the caller's
    arrays stay writable.  Arrays of the wrong shape, coordinates that are
    not finite, indices that are not integers, and boundary tags that are
    not one ``"D"`` or ``"N"`` per edge raise ValueError here, at
    construction; ``validate`` checks the rest.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple[str, ...]

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float).view()
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError(f"vertices must have shape (n, 2), not {vertices.shape}")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        arrays = {"vertices": vertices,
                  "triangles": _index_array("triangles", self.triangles, 3),
                  "boundary_edges": _index_array("boundary_edges", self.boundary_edges, 2)}
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        tags = tuple(self.boundary_tags)
        if len(tags) != len(arrays["boundary_edges"]):
            raise ValueError("each boundary edge needs exactly one tag")
        bad = set(tags) - {DIRICHLET, NEUMANN}
        if bad:
            raise ValueError(f"unknown boundary tags {bad!r}")
        object.__setattr__(self, "boundary_tags", tags)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        a, b, c = (self.vertices[self.triangles[:, k]] for k in range(3))
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    def validate(self) -> None:
        """Check vertex indices, orientation, conformity, the boundary edges
        and that every vertex belongs to a triangle."""
        nv = self.num_vertices
        for name, ids in (("triangle", self.triangles), ("boundary edge", self.boundary_edges)):
            if ids.size and (ids.min() < 0 or ids.max() >= nv):
                raise ValueError(f"vertex index out of range 0..{nv - 1} in a {name}")
        areas = self.triangle_areas()
        if np.any(areas <= 0.0):
            raise InvertedElement("mesh contains a non-positively oriented triangle")
        # Conformity: an undirected edge bounds one triangle, or two that
        # traverse it in opposite directions, so its directions sum to 0.
        local, _, first, inverse, counts, boundary = _edges(self)
        if np.any(counts > 2):
            raise ValueError("mesh is not edge-to-edge conforming")
        overlap = np.abs(np.bincount(inverse, weights=np.sign(local[:, 1] - local[:, 0]))) == 2
        if np.any(overlap):
            i, j = local[first[overlap][0]]
            raise ValueError(f"edge {i} -> {j} appears twice in the same direction: triangles overlap")
        got = self.boundary_edges
        if not np.array_equal(boundary, got[np.lexsort(got.T[::-1])]):
            raise ValueError("boundary edges do not cover the topological boundary")
        unused = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=nv) == 0)
        if unused.size:
            raise ValueError(f"vertex {unused[0]} belongs to no triangle")


def unit_square_mesh(n: int, neumann_sides: set[str] | frozenset[str] = frozenset()) -> TriMesh:
    """Structured mesh of (0,1)^2 with n x n cells, each split into two triangles.

    ``neumann_sides`` is a subset of {left, right, bottom, top}; edges on
    the listed sides are tagged Neumann, all others Dirichlet.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bad = set(neumann_sides) - set(_SIDES)
    if bad:
        raise ValueError(f"unknown sides {sorted(bad)!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # Cell (i, j) with lower-left vertex a splits into triangles (a, a+1,
    # a+n+2) and (a, a+n+2, a+n+1); cells run row by row.
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    triangles = np.stack([a, a + 1, a + n + 2, a, a + n + 2, a + n + 1], axis=1).reshape(-1, 3)
    table = _edge_table(triangles, len(vertices))
    edges = table[-1]
    mx, my = (0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])).T
    side = np.select([my == 0.0, my == 1.0, mx == 0.0], ["bottom", "top", "left"], "right")
    tags = np.where(np.isin(side, sorted(neumann_sides)), NEUMANN, DIRICHLET).tolist()
    mesh = TriMesh(vertices, triangles, edges, tags)
    _memo(mesh, _EDGES, lambda _: table)
    return mesh


def disk_mesh(rings: int) -> TriMesh:
    """Polygonal unit disk: a center fan plus concentric rings, all Dirichlet.

    Ring k of ``rings`` carries 6k equally spaced vertices at radius
    k/rings, so the hull is a regular 6*rings-gon inscribed in the unit
    circle.
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
    verts = [(0.0, 0.0)]
    ring_start = [0]
    for k in range(1, rings + 1):
        ring_start.append(len(verts))
        r = k / rings
        mk = 6 * k
        for a in range(mk):
            theta = 2.0 * np.pi * a / mk
            verts.append((r * np.cos(theta), r * np.sin(theta)))
    vertices = np.array(verts)

    # Counterclockwise by construction: a triangle's two vertices on one ring run up in angle iff the third is inside it.
    tris: list[tuple[int, int, int]] = []
    # Center fan to ring 1.
    base1 = ring_start[1]
    for a in range(6):
        tris.append((0, base1 + a, base1 + (a + 1) % 6))
    # Bands between consecutive rings, triangulated by merging the two
    # angle-sorted vertex circles.
    for k in range(2, rings + 1):
        mi, mo = 6 * (k - 1), 6 * k
        bi, bo = ring_start[k - 1], ring_start[k]
        ai = ao = 0
        while ai < mi or ao < mo:
            angle_i = 2.0 * np.pi * (ai + 1) / mi
            angle_o = 2.0 * np.pi * (ao + 1) / mo
            if ao < mo and (ai == mi or angle_o <= angle_i + 1e-12):
                tris.append((bo + ao % mo, bo + (ao + 1) % mo, bi + ai % mi))
                ao += 1
            else:
                tris.append((bo + ao % mo, bi + (ai + 1) % mi, bi + ai % mi))
                ai += 1
    triangles = np.array(tris, dtype=int)
    table = _edge_table(triangles, len(vertices))
    mesh = TriMesh(vertices, triangles, table[-1], (DIRICHLET,) * len(table[-1]))
    _memo(mesh, _EDGES, lambda _: table)
    return mesh


_T = TypeVar("_T")
_TOPOLOGY = "_topology"  # a mesh's slot for the assembly topology, which ``transport_mesh`` hands on
_EDGES = "_edge_table"  # a mesh's slot for the ``_edge_table`` of its triangles


def _memo(owner, slot: str, build: Callable[..., _T]) -> _T:
    """``build(owner)``, built on first use and memoized in ``owner``'s
    ``__dict__`` under ``slot``, which works on frozen dataclasses too.
    The memo is one assignment, without a lock, so concurrent callers at
    worst build it twice.  ``functools.cached_property`` is not used: before
    Python 3.12 it holds one lock per class, which would make builds for
    different owners on different threads wait for each other."""
    memo = owner.__dict__.get(slot)
    if memo is None:
        memo = owner.__dict__[slot] = build(owner)
    return memo


def _edges(mesh: TriMesh) -> tuple[np.ndarray, ...]:
    """The ``_edge_table`` of the mesh's triangles, built once per mesh: by
    its generator, by ``validate`` or by the assembly topology."""
    return _memo(mesh, _EDGES, lambda m: _edge_table(m.triangles, m.num_vertices))


def transport_mesh(mesh: TriMesh, field: QuadraticField, s: float, steps: int = 64) -> TriMesh:
    """Move every vertex along the flow of ``field`` for parameter s, by
    ``flow_points``: an affine field without a window in closed form.

    Connectivity and boundary tags are preserved, so the moved mesh is
    handed the assembly topology memoized on ``mesh``, when there is one,
    and its assembly does not build it again.  Raises InvertedElement
    when a transported triangle flips, i.e. s is too large for this mesh.
    """
    points = flow_points(field, mesh.vertices, s, steps=steps)
    moved = TriMesh(points, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)
    if np.any(moved.triangle_areas() <= 0.0):
        raise InvertedElement(f"transport by s={s} flipped a triangle")
    if _TOPOLOGY in mesh.__dict__:
        moved.__dict__[_TOPOLOGY] = mesh.__dict__[_TOPOLOGY]
    return moved


_HEADER = "tri-mesh v1"


def write_mesh(path, mesh: TriMesh) -> None:
    """Write the text format: header, vertex, triangle and edge sections."""
    lines = [_HEADER, f"V {mesh.num_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"T {mesh.num_triangles}")
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    lines.append(f"E {len(mesh.boundary_edges)}")
    lines += [
        f"{i} {j} {tag}"
        for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags)
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> TriMesh:
    """Read the text format written by :func:`write_mesh`.

    A malformed file raises ValueError naming the section and the line.
    """
    lines = numbered_lines(path)
    if not lines or lines[0][1] != _HEADER:
        raise ValueError(f"{path}: expected header '{_HEADER}'")
    pos = 1

    def section(letter: str) -> tuple[int, int]:
        """Index of the first row and row count of the section."""
        nonlocal pos
        if pos >= len(lines) or lines[pos][1].split()[0] != letter:
            where = f"line {lines[pos][0]}" if pos < len(lines) else "end of file"
            raise ValueError(f"{path}, {where}: expected section '{letter} <count>'")
        (count,) = block_sizes(path, lines[pos], letter, 1)
        pos += 1 + count
        return pos - count, count

    start, nv = section("V")
    vertices = float_block(lines, start, path, "V", nv, 2)

    def indices(tokens: list[str]) -> list[int]:
        ids = [int(t) for t in tokens]
        if not all(0 <= i < nv for i in ids):
            raise ValueError(f"vertex index out of range 0..{nv - 1}")
        return ids

    start, nt = section("T")
    triangles = block_rows(lines, start, path, "T", nt, 3, indices)
    start, ne = section("E")
    edges = block_rows(lines, start, path, "E", ne, 3, lambda t: (*indices(t[:2]), t[2]))
    mesh = TriMesh(
        vertices,
        np.array(triangles, dtype=int).reshape(-1, 3),
        np.array([e[:2] for e in edges], dtype=int).reshape(-1, 2),
        tuple(e[2] for e in edges),
    )
    mesh.validate()
    return mesh
