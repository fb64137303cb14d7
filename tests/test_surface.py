import numpy as np
import pytest

from foldkin import base_homology, build_surface, chain_structure
from foldkin.errors import (
    Degenerate,
    FoldkinError,
    IndexOutOfRange,
    InvalidParams,
    NonManifold,
    NonOrientable,
)

import oracles
from conftest import (
    BOWTIE,
    ORACLE_SURFACES,
    disjoint_union,
    moebius_band,
    square_hole_grid,
    surface_of,
    two_panels,
    two_triangles,
)


def grid_surface(rows, cols):
    verts = [[float(i), float(j), 0.0]
             for j in range(rows + 1) for i in range(cols + 1)]

    def vid(i, j):
        return j * (cols + 1) + i

    faces = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(rows) for i in range(cols)]
    return build_surface(verts, faces)


def test_two_triangles_counts():
    s = two_triangles()
    assert s.num_vertices == 4
    assert s.num_edges == 5
    assert s.num_faces == 2
    assert s.interior_edges() == [s.edges.index((1, 2))]
    assert s.interior_vertices() == []


def test_collinear_face_is_degenerate():
    verts = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    with pytest.raises(Degenerate):
        build_surface(verts, [[0, 1, 2]])


def test_nonplanar_quad_is_degenerate():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]]
    with pytest.raises(Degenerate):
        build_surface(verts, [[0, 1, 2, 3]])


def test_zero_length_edge_is_degenerate():
    verts = [[0, 0, 0], [0, 0, 0], [1, 1, 0]]
    with pytest.raises(Degenerate):
        build_surface(verts, [[0, 1, 2]])


def test_vertex_on_no_face_is_degenerate():
    # Two triangles and an unused vertex: not a surface, however the
    # vertices are numbered.
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.2], [5, 5, 5]]
    for lone, faces in ((4, [[0, 1, 2], [1, 3, 2]]), (0, [[1, 2, 3], [2, 4, 3]])):
        with pytest.raises(Degenerate, match=f"^vertex {lone} lies on no face$"):
            build_surface(verts, faces)


# Three triangles on edge (0, 1).
THREE_ON_AN_EDGE = ([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0.3], [0.5, 0.2, 1.1]],
                    [[0, 1, 2], [0, 1, 3], [0, 1, 4]])

TRIANGLE = ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.0, 0.2]], [[0, 1, 2]])


def test_three_faces_on_one_edge_is_nonmanifold():
    with pytest.raises(NonManifold, match=r"^edge \(0, 1\) lies in 3 faces$"):
        build_surface(*THREE_ON_AN_EDGE)


def test_pinched_vertex_is_nonmanifold():
    with pytest.raises(NonManifold, match="^the faces at vertex 0 form more than one fan"):
        build_surface(BOWTIE["vertices_coords"], BOWTIE["faces_vertices"])


def test_moebius_band_is_nonorientable():
    # The dual graph is one loop of 12 faces; the breadth-first fronts
    # from face 0 meet at faces 6 and 7, which share edge (7, 8).
    verts, faces = moebius_band()
    with pytest.raises(NonOrientable, match=r"^faces 6 and 7 induce the same "
                                            r"orientation on shared edge \(7, 8\)$"):
        build_surface(verts, faces)


def test_orientation_is_checked_before_the_spans():
    # A Moebius band beside a triangle with collinear corners.
    verts, faces = disjoint_union(moebius_band(),
                                  ([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [[0, 1, 2]]))
    with pytest.raises(NonOrientable):
        build_surface(verts, faces)


@pytest.mark.parametrize("cycle", [(0, 1.9, 2), (0, 1.0, 2), (False, True, 2), ("0", 1, 2)],
                         ids=["fraction", "float", "bool", "string"])
def test_vertex_ids_must_be_integers(cycle):
    with pytest.raises(IndexOutOfRange, match="^face 0 lists a vertex id that is not"):
        build_surface(TRIANGLE[0], [cycle])


def test_numpy_integer_vertex_ids_are_accepted():
    s = build_surface(TRIANGLE[0], np.array(TRIANGLE[1], dtype=np.int32))
    assert s.faces == [(0, 1, 2)]
    assert all(type(v) is int for v in s.faces[0])


def test_grid_3x3_hand_count():
    # Oracle: enumerate the incidences of a 3x3 quad grid directly.
    s = grid_surface(3, 3)
    assert s.num_vertices == 16
    assert s.num_faces == 9
    assert s.num_edges == 24
    # Horizontal edges away from the top/bottom boundary rows plus the
    # mirrored vertical count: 3 * 2 + 3 * 2 = 12 interior edges.
    assert len(s.interior_edges()) == 12
    # Grid-interior lattice points: (1..2) x (1..2).
    assert len(s.interior_vertices()) == 4
    assert sorted(s.interior_vertices()) == [5, 6, 9, 10]


def test_interior_edges_have_opposite_induced_signs():
    for s in (two_triangles(), grid_surface(3, 3), surface_of("torus", 4, 4)):
        for e in s.interior_edges():
            f, g = s.edge_faces[e]
            assert s.sign_ef[(e, f)] * s.sign_ef[(e, g)] == -1


def test_boundary_composition_is_integer_zero():
    for s in (two_triangles(), grid_surface(2, 3), surface_of("torus", 4, 4)):
        d1, d2 = oracles.signed_incidence_matrices(s)
        assert d1.dtype.kind == "i" and d2.dtype.kind == "i"
        assert np.abs(d1 @ d2).max() == 0


def test_base_homology_disk():
    assert base_homology(grid_surface(2, 2)) == (1, 0, 0)
    assert base_homology(two_triangles()) == (1, 0, 0)


def test_base_homology_square_hole_annulus():
    s = square_hole_grid(4)
    b0, b1, b2 = base_homology(s)
    # Oracle: one component, Euler characteristic fixes the rest.
    chi = s.num_vertices - s.num_edges + s.num_faces
    assert b0 == 1
    assert b2 == 0
    assert b0 - b1 + b2 == chi
    assert (b0, b1, b2) == (1, 1, 0)


def test_base_homology_torus():
    s = surface_of("torus", 5, 6)
    chi = s.num_vertices - s.num_edges + s.num_faces
    assert chi == 0
    # Oracle: brute-force ranks of the integer incidence matrices.
    d1, d2 = oracles.signed_incidence_matrices(s)
    r1 = np.linalg.matrix_rank(d1)
    r2 = np.linalg.matrix_rank(d2)
    expect = (s.num_vertices - r1, s.num_edges - r1 - r2, s.num_faces - r2)
    assert base_homology(s) == expect == (1, 2, 1)


def test_relabeling_preserves_homology(rng):
    s = square_hole_grid(3)
    reference = base_homology(s)
    for _ in range(5):
        perm = rng.permutation(s.num_vertices)
        verts = np.empty_like(s.vertices)
        verts[perm] = s.vertices
        faces = [[int(perm[v]) for v in cycle] for cycle in s.faces]
        assert base_homology(build_surface(verts, faces)) == reference


def test_face_cycles_are_reoriented_consistently():
    # Feed one reversed face; the builder must flip it back.
    verts = [[0, 0, 0], [1, 0, 0.1], [0.5, 1, 0], [1.5, 1, 0.3]]
    s = build_surface(verts, [[0, 1, 2], [1, 2, 3]])
    e = s.edges.index((1, 2))
    f, g = s.edge_faces[e]
    assert s.sign_ef[(e, f)] * s.sign_ef[(e, g)] == -1


def test_centroids():
    s = two_triangles()
    assert np.allclose(s.cell_centroids(0)[1], s.vertices[1])
    e = s.edges.index((1, 2))
    assert np.allclose(s.cell_centroids(1)[e],
                       0.5 * (s.vertices[1] + s.vertices[2]))
    assert np.allclose(s.cell_centroids(2)[0], s.vertices[[0, 1, 2]].mean(axis=0))


def test_face_referencing_missing_vertex():
    with pytest.raises(IndexOutOfRange):
        build_surface([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 99]])


# --- the topology walks ---

def _given(make):
    """A built surface's vertices and oriented faces, as new input."""
    s = make()
    return s.vertices, s.faces


CHAINS = [(f"chain_{n}", lambda n=n: surface_of("chain", n, seed=n)) for n in (1, 2, 40, 160)]

TOPOLOGY_INPUTS = [(name, lambda make=make: _given(make))
                   for name, make in ORACLE_SURFACES + CHAINS] + [
    ("two_triangles", lambda: _given(two_triangles)),
    ("two_panels", lambda: _given(two_panels)),
    ("moebius", moebius_band),
    ("bowtie", lambda: (BOWTIE["vertices_coords"], BOWTIE["faces_vertices"])),
    ("three_on_an_edge", lambda: THREE_ON_AN_EDGE),
    ("chain_and_ring", lambda: disjoint_union(_given(lambda: surface_of("chain", 2)),
                                              _given(lambda: surface_of("annulus", 1, 8)))),
    ("two_triangles_apart", lambda: disjoint_union(TRIANGLE, TRIANGLE)),
]


def _varied(vertices, faces, how):
    """The same surface given another way: some cycles reversed, every
    cycle started at another corner, or the vertices relabelled."""
    rng = np.random.default_rng(len(faces))
    faces = [list(c) for c in faces]
    if how == "reversed":
        faces = [c[::-1] if r else c for c, r in zip(faces, rng.random(len(faces)) < 0.5)]
    elif how == "rotated":
        faces = [c[k:] + c[:k] for c, k in zip(faces, rng.integers(0, 3, len(faces)))]
    elif how == "relabelled":
        label = rng.permutation(len(vertices))
        moved = np.empty_like(np.asarray(vertices, dtype=float))
        moved[label] = vertices
        vertices, faces = moved, [[int(label[v]) for v in c] for c in faces]
    return vertices, faces


def _outcome(call, *args):
    try:
        return call(*args)
    except FoldkinError as exc:
        return exc


@pytest.mark.parametrize("how", ["as_given", "reversed", "rotated", "relabelled"])
@pytest.mark.parametrize("make", [m for _, m in TOPOLOGY_INPUTS],
                         ids=[n for n, _ in TOPOLOGY_INPUTS])
def test_topology_matches_the_walks(make, how):
    vertices, faces = _varied(*make(), how)
    s = _outcome(build_surface, vertices, faces)
    want = _outcome(oracles.topology, len(vertices), faces)
    if isinstance(want, FoldkinError):
        # The dual forest meets a twist elsewhere than the depth-first
        # walk does, so only the orientation message may differ.
        assert type(s) is type(want)
        if not isinstance(want, NonOrientable):
            assert str(s) == str(want)
        return
    for name in ("edges", "edge_faces", "faces"):
        assert getattr(s, name) == want[name], name
    for name in ("interior_edge", "interior_vertex", "incidence_triples", "face_corners"):
        got = getattr(s, name)
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
    for kind, (upper, lower, sign) in want["incidences"].items():
        inc = s.incidences[kind]
        assert np.array_equal(inc.upper, upper), kind
        assert np.array_equal(inc.lower, lower), kind
        assert np.array_equal(inc.sign, sign), kind
    chain, walk = _outcome(chain_structure, s), _outcome(oracles.chain_walk, s)
    if isinstance(walk, InvalidParams):
        assert type(chain) is InvalidParams and str(chain) == str(walk)
    else:
        assert (chain.face_order, chain.hinge_order) == walk
