"""Dense reference routes that the library no longer runs.

Each function here decomposes a whole assembled matrix where the library
reads the same answer off a smaller structure.  Tests compare the two.
"""

import numpy as np

from foldkin import CosheafMap, homology_basis, induced_map
from foldkin.linalg import RANK_TOL, nullspace


def rigid_h1(seq):
    """Harmonic degree-1 basis of the rigid complex, in its own chains."""
    return homology_basis(seq.rigid, 1)


def rigid_h2(seq):
    """Kernel of the rigid face boundary."""
    return homology_basis(seq.rigid, 2)


def spatial_h2(seq):
    """Kernel of the spatial face boundary."""
    return homology_basis(seq.spatial, 2)


def truss_kernel(linkage):
    """Kernel of the whole bar-length Jacobian."""
    return nullspace(linkage.matrix)


def loop_obstruction_matrix(seq):
    """Map induced by the hinge embedding, hinge classes to the classes
    of :func:`rigid_h1`."""
    return induced_map(seq.iota, 1, seq.hinge_h1(), rigid_h1(seq))


def column_space(a, *, scale=0.0):
    """Orthonormal basis (columns) of the range of ``a`` under the
    library's rank cutoff, anchored like ``linalg.svd_rank``."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > RANK_TOL * max(s[0], scale)].copy()


def identity_map(cosheaf):
    return CosheafMap(source=cosheaf, target=cosheaf,
                      components=tuple(np.eye(n) for n in cosheaf.stalk_sizes))
