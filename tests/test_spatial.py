import numpy as np
import pytest

from foldkin import (
    axis_projection,
    cross_matrix,
    hinge_twist,
    orthonormal_triad,
    point_velocity_blocks,
    transfer_matrix,
)
from foldkin.errors import ZeroAxis

import oracles


def projection(axis):
    return axis_projection(orthonormal_triad(axis))


def test_cross_matrix_zero():
    assert np.array_equal(cross_matrix([0, 0, 0]), np.zeros((3, 3)))


def test_cross_matrix_layout():
    m = cross_matrix([1, 0, 0])
    expect = np.zeros((3, 3))
    expect[1, 2] = -1.0
    expect[2, 1] = 1.0
    assert np.array_equal(m, expect)


def test_cross_matrix_matches_cross_product(rng):
    w, a = rng.normal(size=(2, 100, 3))
    stacked = cross_matrix(w)
    assert stacked.shape == (100, 3, 3)
    for m, wi, ai in zip(stacked, w, a):
        assert np.array_equal(m, cross_matrix(wi))
        assert np.abs(m @ ai - np.cross(wi, ai)).max() < 1e-14


def test_cross_matrix_antisymmetric(rng):
    for _ in range(20):
        m = cross_matrix(rng.normal(size=3))
        assert np.array_equal(m.T, -m)


def test_rigid_transfer_same_point_is_identity():
    op = transfer_matrix([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.array_equal(op, np.eye(6))


def test_rigid_transfer_unit_case():
    out = transfer_matrix([0, 0, 0], [1, 0, 0]) @ np.array([0, 0, 1, 0, 0, 0])
    assert np.allclose(out[:3], [0, 0, 1])
    assert np.allclose(out[3:], [0, 1, 0])


def test_rigid_transfer_composition(rng):
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 3))
        lhs = transfer_matrix(b, c) @ transfer_matrix(a, b)
        rhs = transfer_matrix(a, c)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_rigid_transfer_inverse(rng):
    for _ in range(100):
        a, b = rng.normal(size=(2, 3))
        prod = transfer_matrix(a, b) @ transfer_matrix(b, a)
        assert np.abs(prod - np.eye(6)).max() < 1e-13


def test_rigid_transfer_broadcasts(rng):
    a = rng.normal(size=(3, 1, 3))
    b = rng.normal(size=(1, 4, 3))
    stacked = transfer_matrix(a, b)
    assert stacked.shape == (3, 4, 6, 6)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(stacked[i, j], transfer_matrix(a[i, 0], b[0, j]))


def test_hinge_embedding_x_axis():
    assert np.array_equal(hinge_twist([1, 0, 0]), [1, 0, 0, 0, 0, 0])


def test_hinge_embedding_zero_rate():
    assert np.array_equal(hinge_twist([0, 1, 0]) * 0.0, np.zeros(6))


def test_hinge_embedding_scales():
    # The twist is a unit rotation whatever the axis length; rates scale it.
    assert np.array_equal(hinge_twist([0, 5, 0]), [0, 1, 0, 0, 0, 0])
    assert np.array_equal(hinge_twist([0, 1, 0]) * 2.0, [0, 2, 0, 0, 0, 0])


def test_hinge_embedding_zero_axis():
    with pytest.raises(ZeroAxis):
        hinge_twist([0, 0, 0])
    with pytest.raises(ZeroAxis):
        orthonormal_triad([0, 0, 0])


def test_orthonormal_triad(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        l, m, n = orthonormal_triad(axis)
        basis = np.stack([l, m, n])
        assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-12
        assert np.abs(np.cross(l, m) - n).max() < 1e-12


def test_orthonormal_triad_broadcasts(rng):
    # Ties in |l_i| take the first index, as the per-axis rule does.
    axes = np.vstack([rng.normal(size=(40, 3)),
                      [[1, 1, 0], [0, 1, 1], [1, 1, 1], [0, 0, 2], [-1, 0, 1]]])
    stacked = orthonormal_triad(axes.reshape(5, 9, 3))
    assert stacked.shape == (5, 9, 3, 3)
    per_axis = np.array([oracles.triad(a) for a in axes])
    assert np.abs(stacked.reshape(-1, 3, 3) - per_axis).max() <= 1e-15
    l, m, n = orthonormal_triad(axes[0])
    assert np.array_equal(np.stack([l, m, n]), stacked[0, 0])


def test_edge_projection_kills_axis(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        p = projection(axis)
        assert np.abs(p @ np.concatenate([axis, np.zeros(3)])).max() < 1e-13


def test_edge_projection_preserves_linear_norm(rng):
    for _ in range(50):
        axis = rng.normal(size=3)
        beta = rng.normal(size=3)
        out = projection(axis) @ np.concatenate([np.zeros(3), beta])
        assert abs(np.linalg.norm(out) - np.linalg.norm(beta)) < 1e-13


def test_edge_projection_rank_and_rows(rng):
    for _ in range(50):
        p = projection(rng.normal(size=3))
        assert p.shape == (5, 6)
        s = np.linalg.svd(p, compute_uv=False)
        assert (s > 1e-9).sum() == 5
        assert np.abs(p @ p.T - np.eye(5)).max() < 1e-12


def test_projection_annihilates_embedding(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        assert np.abs(projection(axis) @ hinge_twist(axis)).max() < 1e-13


def test_edge_projection_deterministic():
    a = projection([3.0, -1.0, 0.2])
    b = projection([3.0, -1.0, 0.2])
    assert np.array_equal(a, b)


def test_velocity_at_point_pure_translation(rng):
    beta = rng.normal(size=3)
    block = point_velocity_blocks(rng.normal(size=3))
    assert np.allclose(block @ np.concatenate([np.zeros(3), beta]), beta)


def test_velocity_at_point_unit_rotation():
    block = point_velocity_blocks([1, 0, 0])
    assert np.allclose(block @ np.array([0, 0, 1, 0, 0, 0]), [0, 1, 0])


def test_velocity_at_point_matches_transfer(rng):
    anchors, points = rng.normal(size=(2, 100, 3))
    vecs = rng.normal(size=(100, 6))
    blocks = point_velocity_blocks(points - anchors)
    assert blocks.shape == (100, 3, 6)
    for block, anchor, point, vec in zip(blocks, anchors, points, vecs):
        via_transfer = (transfer_matrix(anchor, point) @ vec)[3:]
        assert np.array_equal(block, point_velocity_blocks(point - anchor))
        assert np.abs(block @ vec - via_transfer).max() < 1e-13
