"""Rank-revealing linear algebra helpers.

All rank decisions in the package go through this module, and all of
them use one cutoff: a singular value counts as nonzero when it exceeds
:data:`RANK_TOL` times the largest singular value of the same matrix.
The cutoff is a constant, not a parameter, so every dimension, rank and
verdict foldkin reports rests on the same decision.  Functions that
accept a stack of matrices ``(..., m, n)`` apply the cutoff to each
matrix of the stack on its own.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


def _keep(s: np.ndarray, scale: float) -> np.ndarray:
    """Mask of the singular values above ``RANK_TOL * max(largest, scale)``;
    ``s`` is sorted descending along its last axis."""
    return s > RANK_TOL * np.maximum(s[..., :1], scale)


def svd_rank(a, *, scale: float = 0.0) -> int:
    """Numerical rank with a relative singular-value cutoff.

    ``scale`` optionally anchors the cutoff: singular values must exceed
    ``RANK_TOL * max(largest, scale)``.  Pass the natural magnitude of a
    meaningful entry (for maps between orthonormal bases, 1.0) so that a
    matrix that should be zero, but carries rounding noise, reports rank
    zero instead of spurious full rank.
    """
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(_keep(s, scale)))


def nullspace(a, *, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``.

    A matrix with zero rows has full kernel, so the identity is returned.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    rank = int(np.sum(_keep(s, scale)))
    if m >= n:
        # Economy decomposition already carries all right singular vectors.
        return vh[rank:].T.copy()
    if rank == 0:
        return np.eye(n)
    # Wide matrix: the kernel is the orthogonal complement of the row
    # space; a complete QR of the (SVD-determined) row-space basis
    # produces it without decomposing an n-by-n matrix.
    q, _ = np.linalg.qr(vh[:rank].T, mode="complete")
    return q[:, rank:]


def stacked_svd(a):
    """Full decomposition ``u, keep, vh`` of every matrix in a stack.

    ``keep[..., i]`` says whether singular value ``i`` counts as nonzero:
    the kept columns of ``u`` span the range, and the rows of ``vh``
    past the kept ones span the kernel.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return u, _keep(s, 0.0), vh


def pseudoinverse(a, *, scale: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the shared cutoff policy; a
    stack ``(..., m, n)`` gives a stack ``(..., n, m)``."""
    a = _as_matrix(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2] + (a.shape[-1], a.shape[-2]))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = _keep(s, scale)
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (np.swapaxes(vh, -1, -2) * inv[..., None, :]) @ np.swapaxes(u, -1, -2)


def subspace_residual(basis_a: np.ndarray, basis_b: np.ndarray):
    """Operator-norm distance between the projectors of two subspaces.

    Both arguments are matrices whose columns are orthonormal or zero;
    zero columns add nothing, so a stack of subspaces of different
    dimensions fits one array.  The result is 0 exactly when the
    subspaces coincide and 1 when one contains a direction orthogonal to
    the other; a stack gives one distance per matrix.
    """
    pa = basis_a @ np.swapaxes(basis_a, -1, -2)
    pb = basis_b @ np.swapaxes(basis_b, -1, -2)
    return np.abs(np.linalg.eigvalsh(pa - pb)).max(axis=-1, initial=0.0)
