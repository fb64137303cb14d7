import numpy as np
import pytest

from foldkin import base_homology, build_surface
from foldkin.errors import Degenerate, IndexOutOfRange, NonManifold, NonOrientable

from conftest import BOWTIE, square_hole_grid, surface_of, two_triangles


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
    assert s.interior_edges() == [s.edge_index(1, 2)]
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


def test_three_faces_on_one_edge_is_nonmanifold():
    verts = [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0.3], [0.5, 0.2, 1.1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(NonManifold):
        build_surface(verts, faces)


def test_pinched_vertex_is_nonmanifold():
    with pytest.raises(NonManifold, match="^the faces at vertex 0 form more than one fan"):
        build_surface(BOWTIE["vertices_coords"], BOWTIE["faces_vertices"])


def test_moebius_band_is_nonorientable():
    # Triangulated Moebius strip: 6 outer triangles with a half twist.
    k = 6
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
    with pytest.raises(NonOrientable):
        build_surface(verts, faces)


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
        d1, d2 = s.signed_incidence_matrices()
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
    d1, d2 = s.signed_incidence_matrices()
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
    e = s.edge_index(1, 2)
    f, g = s.edge_faces[e]
    assert s.sign_ef[(e, f)] * s.sign_ef[(e, g)] == -1


def test_centroids():
    s = two_triangles()
    assert np.allclose(s.centroid((0, 1)), s.vertices[1])
    e = s.edge_index(1, 2)
    assert np.allclose(s.centroid((1, e)),
                       0.5 * (s.vertices[1] + s.vertices[2]))
    assert np.allclose(s.centroid((2, 0)), s.vertices[[0, 1, 2]].mean(axis=0))


def test_face_referencing_missing_vertex():
    with pytest.raises(IndexOutOfRange):
        build_surface([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 99]])
