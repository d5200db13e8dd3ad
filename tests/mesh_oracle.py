"""Reference edge bookkeeping by Python sets, dicts and per-triangle loops.

The mesh layer finds boundary edges, checks conformity and tags the unit
square's sides from one numpy edge table (``mesh._edge_table``).  These
are the loop versions it replaced, kept as oracles for the array code.
``edges_with_tag`` and ``outward_normals`` query a ``TriMesh`` for the
tests; no command of the package needs them.
"""

import numpy as np

from shapederiv.mesh import DIRICHLET, NEUMANN


def boundary_edges(triangles):
    """Directed edges that appear in exactly one triangle, sorted as tuples."""
    directed = set()
    for i, j, k in triangles:
        directed.update([(int(i), int(j)), (int(j), int(k)), (int(k), int(i))])
    return sorted(e for e in directed if (e[1], e[0]) not in directed)


def edge_counts(triangles):
    """Number of triangles per undirected edge, keyed by the sorted vertex pair."""
    counts = {}
    for i, j, k in triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            key = (int(min(a, b)), int(max(a, b)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def unit_square(n, neumann_sides=frozenset()):
    """Vertices, triangles, boundary edges and tags of the n x n unit square."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.array(tris, dtype=int)

    edges = boundary_edges(triangles)
    tags = []
    for i, j in edges:
        mx, my = 0.5 * (vertices[i] + vertices[j])
        if my == 0.0:
            side = "bottom"
        elif my == 1.0:
            side = "top"
        elif mx == 0.0:
            side = "left"
        else:
            side = "right"
        tags.append(NEUMANN if side in neumann_sides else DIRICHLET)
    return vertices, triangles, np.array(edges, dtype=int), tuple(tags)


def edges_with_tag(mesh, tag):
    """The boundary edges of ``mesh`` tagged ``tag``, in boundary order."""
    mask = np.array([t == tag for t in mesh.boundary_tags])
    return mesh.boundary_edges[mask]


def outward_normals(mesh):
    """Unit outward normal per boundary edge: the tangent rotated clockwise."""
    p = mesh.vertices[mesh.boundary_edges[:, 0]]
    q = mesh.vertices[mesh.boundary_edges[:, 1]]
    t = q - p
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    return n / np.linalg.norm(n, axis=1, keepdims=True)
