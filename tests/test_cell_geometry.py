"""Per-cell geometry is built in array passes over every cell at once.

The stacked routes (edge triads, face centroids, the span check, face
normals and the braced truss) must give what the per-cell references in
``oracles`` give, one cell at a time, on faces of unequal cycle length,
and must not grow their decomposition count with the number of faces.
"""

import numpy as np
import pytest

from foldkin import (
    build_exact_sequence,
    build_surface,
    spatial_solution,
    spatial_to_truss,
    stiffen,
    truss_to_spatial,
)
from foldkin.errors import Degenerate

import oracles
from conftest import ORACLE_SURFACES, surface_of


def mixed_cycles():
    """A hexagon with a quad folded up from one side and a triangle from
    another, so the padded face layout sees cycles of 3, 4 and 6."""
    angles = np.arange(6) * np.pi / 3
    hexagon = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
    out = 0.5 * (hexagon[0] + hexagon[1])
    lift = 0.6 * out + [0.0, 0.0, 0.5]
    tip = 0.8 * (hexagon[2] + hexagon[3]) + [0.1, 0.0, -0.4]
    verts = np.vstack([hexagon, hexagon[1] + lift, hexagon[0] + lift, tip])
    return build_surface(verts, [[0, 1, 2, 3, 4, 5], [1, 0, 7, 6], [3, 2, 8]])


GEOMETRY_SURFACES = ORACLE_SURFACES + [("mixed_cycles", mixed_cycles)]


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("make", [m for _, m in GEOMETRY_SURFACES],
                         ids=[n for n, _ in GEOMETRY_SURFACES])
def test_stacked_geometry_matches_per_cell(make):
    s = make()
    corners, live = s.face_corners, s.face_live
    assert live.shape == corners.shape
    assert corners[live].tolist() == [v for cycle in s.faces for v in cycle]
    assert np.array_equal(corners, np.where(live, corners, corners[:, :1]))
    oracles.check_spans(s.vertices, s.edges, s.faces)
    assert relative_gap(s.edge_triads, oracles.edge_triads(s)) <= 1e-14
    assert relative_gap(s.face_centroids, oracles.face_centroids(s)) <= 1e-14

    per_face = np.array([oracles.face_normal(s.vertices[list(c)]) for c in s.faces])
    assert relative_gap(s.face_normals, per_face) <= 1e-14

    linkage = stiffen(s)
    points, bars, groups = oracles.stiffen(s)
    assert linkage.bars.tolist() == [list(bar) for bar in bars]
    assert [g[m].tolist() for g, m in zip(linkage.group, linkage.live)] == \
        [g.tolist() for g in groups]
    assert not linkage.corner_block[~linkage.live].any()
    assert relative_gap(linkage.points, points) <= 1e-14


def test_mixed_cycles_pad_to_the_longest():
    s = mixed_cycles()
    assert s.face_corners.shape == (3, 6)
    assert s.face_live.sum(axis=1).tolist() == [6, 4, 3]
    linkage = stiffen(s)
    assert linkage.group.shape == (3, 7)
    assert linkage.live.tolist() == [[True] * 7, [True] * 5 + [False] * 2,
                                     [True] * 4 + [False] * 3]


def test_mixed_cycles_fit_through_their_padded_groups(rng):
    # The padding of the smaller groups has zero blocks and reads zero
    # velocities, so a spatial solution passes the agreement and fit
    # gates there and comes back.
    s = mixed_cycles()
    seq, linkage = build_exact_sequence(s), stiffen(s)
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    truss = spatial_to_truss(seq, linkage, spatial_solution(seq, values))
    back = truss_to_spatial(seq, linkage, truss)
    assert np.abs(back.coefficients - values).max() <= 1e-9 * max(1.0, np.abs(values).max())


# Each surface has valid faces before the failing cell, so the message
# must name the first failing cell, not the first cell.
SPAN_FAILURES = [
    ("zero_length_edge",
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.2], [1, 1, 0.2]],
     [[0, 1, 2], [1, 3, 2], [3, 4, 2]],
     "edge 6 = (3, 4) has zero length"),
    ("collinear_face",
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 2, 0]],
     [[0, 1, 2], [1, 3, 2]],
     "face 1 has collinear vertices"),
    # Its second singular value passes the absolute cutoff but is below
    # RANK_TOL times the first: no plane is well defined.
    ("thin_face",
     [[0, 0, 0], [1, 0, 0], [0.5, 0.75e-9, 0], [0.5, -0.4, 0]],
     [[0, 3, 1], [0, 1, 2]],
     "face 1 has collinear vertices"),
    ("non_planar_face",
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0.3], [2, 1, -0.4]],
     [[0, 1, 2], [1, 3, 4, 2]],
     "face 1 is not planar (affine rank 3)"),
]


@pytest.mark.parametrize("verts, faces, message",
                         [case[1:] for case in SPAN_FAILURES],
                         ids=[case[0] for case in SPAN_FAILURES])
def test_span_check_names_the_first_failing_cell(verts, faces, message):
    with pytest.raises(Degenerate) as raised:
        build_surface(verts, faces)
    assert str(raised.value) == message
    edges = sorted({(min(a, b), max(a, b)) for c in faces
                    for a, b in zip(c, c[1:] + c[:1])})
    with pytest.raises(Degenerate) as per_cell:
        oracles.check_spans(np.asarray(verts, dtype=float), edges, faces)
    assert str(per_cell.value) == message


def test_geometry_decompositions_do_not_grow_with_face_count(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for shape in [("grid", 4, 4), ("grid", 12, 12), ("chain", 40)]:
        s = surface_of(*shape)
        calls.clear()
        surface = build_surface(s.vertices, s.faces)
        counts.append(len(calls))
        stiffen(surface)
        counts.append(len(calls))
    # The span check's decomposition is the only one; stiffen reads the
    # normals it left on the surface.
    assert counts == [1, 1] * 3
