"""Spatial (screw) vector algebra on bare arrays.

A spatial velocity is a 6-vector ``[omega, beta]`` pairing an angular and
a linear velocity, always understood relative to a frame anchored at some
point in space.  Each screw-algebra formula the models use is defined
here once, as a function of plain arrays:

* :func:`cross_matrix` - the 3x3 matrix of ``w x .``;
* :func:`point_velocity_blocks` - the 3x6 block ``[-[r]x, I]`` giving the
  velocity of the point at lever arm ``r`` from the anchor;
* :func:`transfer_matrix` - the 6x6 operator moving a spatial velocity
  from one anchor point to another, whose linear rows are that block;
* :func:`orthonormal_triad` and :func:`axis_projection` - the 5x6
  projection that forgets rotation about a hinge axis;
* :func:`hinge_twist` - the unit twist of a hinge, rotation about its
  axis.

All six broadcast over leading axes, so a stack of points, edge
vectors, triads or axes costs one call: :func:`orthonormal_triad` turns
every edge vector of a surface into its triad at once.  Frame rotations
are fixed to the identity throughout; only anchor points differ between
frames, which is all first-order analysis requires.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroAxis

_AXIS_TOL = 1e-12


def cross_matrix(omega) -> np.ndarray:
    """Antisymmetric matrix with ``cross_matrix(w) @ a == cross(w, a)``.

    ``omega`` of shape ``(..., 3)`` gives shape ``(..., 3, 3)``.
    """
    w = np.asarray(omega, dtype=float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def point_velocity_blocks(levers) -> np.ndarray:
    """Blocks ``[-[r]x, I]`` mapping a spatial velocity to the velocity
    ``beta + omega x r`` of the point at lever arm ``r`` from its anchor.

    ``levers`` of shape ``(..., 3)`` gives shape ``(..., 3, 6)``.
    """
    r = np.asarray(levers, dtype=float)
    out = np.zeros(r.shape[:-1] + (3, 6))
    out[..., :3] = -cross_matrix(r)
    out[..., 3:] = np.eye(3)
    return out


def transfer_matrix(from_point, to_point) -> np.ndarray:
    """Operator sending ``[w, b]`` at ``from_point`` to
    ``[w, w x (to - from) + b]`` at ``to_point``: the angular part is
    kept and the linear part is the velocity of the new anchor point.

    Points of shape ``(..., 3)`` broadcast to shape ``(..., 6, 6)``.
    """
    lever = np.asarray(to_point, dtype=float) - np.asarray(from_point, dtype=float)
    out = np.zeros(lever.shape[:-1] + (6, 6))
    out[..., :3, :3] = np.eye(3)
    out[..., 3:, :] = point_velocity_blocks(lever)
    return out


def _unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.sqrt(axis[..., None, :] @ axis[..., :, None])[..., 0]
    if np.any(n < _AXIS_TOL):
        raise ZeroAxis("hinge axis has zero length")
    return axis / n


def hinge_twist(axis) -> np.ndarray:
    """Unit twist ``[l, 0]`` of a hinge turning at unit rate about the
    unit axis ``l`` through the anchor point.

    Axes of shape ``(..., 3)`` give twists of shape ``(..., 6)``.
    """
    unit = _unit_axis(axis)
    return np.concatenate([unit, np.zeros_like(unit)], axis=-1)


def orthonormal_triad(axis) -> np.ndarray:
    """Deterministic right-handed orthonormal triad, rows ``l, m, n``.

    ``m`` comes from the standard basis vector least aligned with the
    axis (the first one on a tie), made orthonormal; ``n = l x m``.  The
    choice is a fixed rule so that projection matrices are reproducible
    across runs.  Axes of shape ``(..., 3)`` give triads of shape
    ``(..., 3, 3)``, so ``l, m, n = orthonormal_triad(axis)`` unpacks one.
    """
    l = _unit_axis(axis)
    k = np.argmin(np.abs(l), axis=-1)[..., None]
    m = np.eye(3)[k[..., 0]] - np.take_along_axis(l, k, axis=-1) * l
    m = m / np.sqrt(m[..., None, :] @ m[..., :, None])[..., 0]
    return np.stack([l, m, np.cross(l, m)], axis=-2)


def axis_projection(triad) -> np.ndarray:
    """5x6 projection killing exactly the twist of the triad's axis.

    Rows are orthonormal: the angular part of the image is expressed in
    the two triad directions ``m, n`` orthogonal to the axis, and the
    linear part is passed through unchanged.  ``triad`` holds the rows
    ``l, m, n``; a stack of shape ``(..., 3, 3)`` gives ``(..., 5, 6)``.
    """
    t = np.asarray(triad, dtype=float)
    out = np.zeros(t.shape[:-2] + (5, 6))
    out[..., :2, :3] = t[..., 1:, :]
    out[..., 2:, 3:] = np.eye(3)
    return out
