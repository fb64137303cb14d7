import itertools

import numpy as np
import pytest

from foldkin import build_surface, generate, surface_from_document


def surface_of(shape, *args, seed=0, jitter=True, **params):
    return surface_from_document(generate(shape, *args, seed=seed,
                                          jitter=jitter, **params))


def scaled(surface, factor):
    """The same surface with every coordinate multiplied by ``factor``."""
    return build_surface(surface.vertices * factor, surface.faces)


def two_triangles():
    """Two generic triangles sharing one edge."""
    verts = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.1],
        [0.5, 1.0, 0.0],
        [1.5, 1.1, 0.4],
    ]
    return build_surface(verts, [[0, 1, 2], [1, 3, 2]])


def two_panels(fold=0.6):
    """Two unit quads joined along x = 1, folded by ``fold`` radians."""
    c, s = np.cos(fold), np.sin(fold)
    verts = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0 + c, 0.0, s],
        [1.0 + c, 1.0, s],
    ]
    faces = [[0, 1, 2, 3], [1, 4, 5, 2]]
    return build_surface(verts, faces)


def square_hole_grid(n=4):
    """Flat n x n quad grid with the face nearest the center removed."""
    verts = [[float(i), float(j), 0.0]
             for j in range(n + 1) for i in range(n + 1)]

    def vid(i, j):
        return j * (n + 1) + i

    hole = (n // 2, n // 2)
    faces = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n) if (i, j) != hole]
    return build_surface(verts, faces)


# Two triangles sharing only vertex 0: two fans meet there, a pinch.
BOWTIE = {
    "vertices_coords": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0.1], [0, -1, 0.3]],
    "faces_vertices": [[0, 1, 2], [0, 3, 4]],
}


def moebius_band(k=6):
    """Vertices and faces of a triangulated Moebius strip: ``2k``
    triangles around a loop, closed with a half twist."""
    verts = []
    for i in range(k):
        angle = np.pi * i / k
        twist = angle / 2
        center = np.array([np.cos(2 * angle), np.sin(2 * angle), 0.0])
        arm = np.array([np.cos(2 * angle) * np.cos(twist),
                        np.sin(2 * angle) * np.cos(twist),
                        np.sin(twist)])
        verts.append(center + 0.4 * arm)
        verts.append(center - 0.4 * arm)
    faces = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        if i < k - 1:
            c, d = 2 * i + 2, 2 * i + 3
        else:
            c, d = 1, 0  # identify with a flip
        faces.append([a, b, c])
        faces.append([b, d, c])
    return np.array(verts), faces


def disjoint_union(*parts):
    """Vertices and faces of the ``(vertices, faces)`` parts side by
    side: each part's vertices are renumbered after the previous ones
    and moved 10 further along x."""
    verts, faces, offset = [], [], 0
    for i, (v, fs) in enumerate(parts):
        verts.append(np.asarray(v, dtype=float) + [10.0 * i, 0.0, 0.0])
        faces += [[offset + int(x) for x in cycle] for cycle in fs]
        offset += len(v)
    return np.vstack(verts), faces


def one_face():
    """A single triangle: no interior edge, so no hinge class and no loop."""
    return build_surface([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.0, 0.0]],
                         [[0, 1, 2]])


def octahedron(seed=0):
    """Closed triangulated sphere: the unit octahedron, vertices jittered."""
    jitter = 0.05 * np.random.default_rng(seed).normal(size=(6, 3))
    verts = np.vstack([np.eye(3), -np.eye(3)]) + jitter
    faces = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    return build_surface(verts, faces)


def quad_cube():
    """Closed sphere of six unit-square panels."""
    verts = [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    faces = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
             [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]]
    return build_surface(verts, faces)


def icosahedron_points(long):
    """The cyclic permutations of ``(0, +-1, +-long)``."""
    return np.array([np.roll([0.0, a, b * long], k) for k in range(3)
                     for a in (-1.0, 1.0) for b in (-1.0, 1.0)])


def flipped_icosahedron(long):
    """The regular icosahedron's faces with its 6 short-coordinate edges
    flipped, on :func:`icosahedron_points` ``(long)``.

    A short-coordinate edge joins two vertices that differ only in the
    sign of their coordinate of size 1.  Flipping it replaces the two
    triangles on it by the two on the other diagonal of their quad.
    ``long = 2`` is Jessen's orthogonal icosahedron, a shaky polyhedron
    with one hinge class; at the golden ratio the same faces sit on the
    regular icosahedron's vertices.
    """
    regular = icosahedron_points((1 + 5 ** 0.5) / 2)
    near = np.isclose(np.linalg.norm(regular[:, None] - regular[None], axis=2), 2.0)
    faces = [f for f in itertools.combinations(range(12), 3)
             if all(near[a, b] for a, b in itertools.combinations(f, 2))]
    for i, j in itertools.combinations(range(12), 2):
        if near[i, j] and np.count_nonzero(regular[i] != regular[j]) == 1:
            pair = [f for f in faces if i in f and j in f]
            c, d = (sum(f) - i - j for f in pair)
            faces = [f for f in faces if f not in pair] + [(c, d, i), (c, d, j)]
    return build_surface(icosahedron_points(long), faces)


def jessen():
    """Jessen's orthogonal icosahedron: one hinge class on a closed sphere."""
    return flipped_icosahedron(2.0)


# Generated surfaces the acceptance criteria run on, by name.
ACCEPTANCE_SURFACES = [
    ("chain", lambda: surface_of("chain", 5, seed=2)),
    ("grid", lambda: surface_of("grid", 3, 3, seed=2)),
    ("single_vertex", lambda: surface_of("single_vertex", 5, 0.5, seed=2)),
    ("annulus", lambda: surface_of("annulus", 2, 6, seed=2)),
    ("ring", lambda: surface_of("annulus", 1, 8, seed=2)),
    ("cylinder", lambda: surface_of("cylinder", 2, 6, seed=2)),
    ("torus", lambda: surface_of("torus", 4, 4, seed=2)),
    ("miura", lambda: surface_of("miura", 2, 3, seed=2)),
]

# The acceptance surfaces plus small hand-built ones, on which the
# library's routes are compared with the references in ``oracles``.
ORACLE_SURFACES = ACCEPTANCE_SURFACES + [
    (f"square_hole_{n}", lambda n=n: square_hole_grid(n)) for n in (3, 4, 5)
] + [("one_face", one_face), ("octahedron", octahedron), ("cube", quad_cube),
     ("jessen", jessen)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
