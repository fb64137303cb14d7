"""The four first-order kinematic models of an origami surface.

* hinge model: one angular rate per interior edge, three constraints per
  interior vertex (rates weighted by hinge axes must cancel);
* spatial model: a 6-dof spatial velocity per face, five constraints per
  interior edge (everything but rotation about the shared hinge);
* rigid-body model: 6-dof per face with all six constrained per interior
  edge, leaving only global motions: the exact sequence's middle term,
  built only as the tests' reference (``maps`` certifies by formula);
* truss model: three velocity components per vertex of the stiffened
  linkage, one length-preservation constraint per bar.

Each of the first three is a cosheaf; its builder returns the assembled
chain complex, which holds the cosheaf.  The boundary matrix is the
model's constraint Jacobian and the relevant homology space is its
solution set, built in ``maps.ExactSequence`` (which also fixes the
frame of the rigid model's global motions).  Boundary (non-interior)
edges and vertices carry zero stalks on the constraint side; faces
always carry full stalks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cosheaf import (
    ChainComplex,
    Cosheaf,
    assemble_chain_complex,
    constant_cosheaf,
)
from .errors import DegenerateFace, WellDefinednessViolation
from .linalg import pseudoinverse, svd_rank
from .spatial import axis_projection, point_velocity_blocks, transfer_matrix
from .surface import INCIDENCE_DIMS, OrigamiSurface


def _constraint_support(surface: OrigamiSurface) -> tuple:
    """Interior vertices and edges carry constraints; every face moves."""
    return surface.interior_vertex, surface.interior_edge, True


def _transfers(surface: OrigamiSurface, kind: str) -> np.ndarray:
    """Transfer operators from upper to lower cell centroids, one per
    incidence of ``kind``."""
    up, lo = INCIDENCE_DIMS[kind]
    inc = surface.incidences[kind]
    return transfer_matrix(surface.cell_centroids(up)[inc.upper],
                           surface.cell_centroids(lo)[inc.lower])


def build_hinge_model(surface: OrigamiSurface) -> ChainComplex:
    """Hinge cosheaf: R per interior edge, R^3 per interior vertex.

    The edge-to-vertex extension sends the unit rate to the hinge axis,
    so the assembled vertex boundary block at (v, e) is ``sign * l_e``.
    Both endpoints of an edge receive the same axis vector.
    """
    axes = surface.edge_triads[surface.incidences["ev"].upper, 0]
    return assemble_chain_complex(Cosheaf(
        surface, (3, 1, 0), _constraint_support(surface), {"ev": axes[:, :, None]}))


def build_spatial_model(surface: OrigamiSurface) -> ChainComplex:
    """Spatial cosheaf: R^6 per face, R^5 per interior edge, R^3 per
    interior vertex.

    The face-to-edge extension transfers the face velocity to the edge
    midpoint and projects out rotation about the hinge axis.  The
    edge-to-vertex extension keeps the induced point velocity: edge
    coordinates are angular along the two triad complements of the axis,
    then linear, and the axis component of the angular velocity drops
    because the vertex lies on the hinge line.
    """
    ev, fe, fv = (surface.incidences[kind] for kind in INCIDENCE_DIMS)
    proj = axis_projection(surface.edge_triads)
    lever_ev = surface.vertices[ev.lower] - surface.edge_midpoints[ev.upper]
    lever_fv = surface.vertices[fv.lower] - surface.face_centroids[fv.upper]
    extensions = {
        "ev": point_velocity_blocks(lever_ev) @ np.swapaxes(proj[ev.upper], 1, 2),
        "fe": proj[fe.lower] @ _transfers(surface, "fe"),
        "fv": point_velocity_blocks(lever_fv),
    }
    return assemble_chain_complex(Cosheaf(
        surface, (3, 5, 6), _constraint_support(surface), extensions))


def build_rigid_model(surface: OrigamiSurface) -> ChainComplex:
    """Rigid-body cosheaf: R^6 on faces, interior edges, and interior
    vertices, with invertible transfer operators as extensions."""
    extensions = {kind: _transfers(surface, kind) for kind in INCIDENCE_DIMS}
    return assemble_chain_complex(Cosheaf(
        surface, (6, 6, 6), _constraint_support(surface), extensions))


def build_constant_model(surface: OrigamiSurface, dim: int) -> ChainComplex:
    """Constant cosheaf on all cells; its homology is ``dim`` copies of
    the base homology of the surface."""
    return assemble_chain_complex(constant_cosheaf(surface, dim))


# --- stiffened linkage / truss model ---

@dataclass
class StiffenedLinkage:
    """Surface braced into a pin-jointed truss.

    One apex vertex is added above each face centroid, the apex of face
    ``f`` being point ``num_vertices + f``, and the vertex set of each
    face plus its apex is joined into a complete graph.  Bars
    are deduplicated: ``bars`` holds each bar's ends ``u < v`` over the
    extended vertex ids, sorted, and ``directions`` its unit axis from
    ``u`` to ``v``.  Together they are the length-preservation Jacobian,
    row ``+axis`` at ``v`` and ``-axis`` at ``u``, which :meth:`stretch`
    applies; it is never formed.

    The face groups (vertices in cycle order, then the apex) are laid
    out once, padded to the largest: each ``live`` entry of ``group`` is
    a corner.  A face's spatial velocity gives a corner the velocity
    ``corner_block @ nu``, which is how spatial solutions are read off at
    truss points and fitted back; padding has zero blocks, which change
    no fit.  The fits' pseudoinverse and each point's first corner are
    computed on first use and kept, so every conversion after the first
    does only the work of its own vector.
    """

    surface: OrigamiSurface
    points: np.ndarray                   # (|V'|, 3); originals first
    bars: np.ndarray                     # (|E'|, 2) int, u < v
    directions: np.ndarray               # (|E'|, 3) unit axes from u to v
    group: np.ndarray                    # (F, k) extended vertex ids, padded
    live: np.ndarray                     # (F, k) bool, real corners
    corner_block: np.ndarray             # (F, k, 3, 6) [-[r]x, I], r from centroid

    @property
    def num_points(self) -> int:
        return len(self.points)

    @cached_property
    def fit_inverse(self) -> np.ndarray:
        """The stacked pseudoinverse of the faces' rigid fits, the corner
        blocks as one ``(F, 3k, 6)`` stack."""
        return pseudoinverse(self.corner_block.reshape(len(self.group), -1, 6))

    @cached_property
    def _first_corner(self) -> np.ndarray:
        """Each point's first corner, in point order, as a position in
        the flat ``(F * k)`` layout."""
        corners = np.flatnonzero(self.live)
        return corners[np.unique(self.group.flat[corners], return_index=True)[1]]

    def stretch(self, y: np.ndarray) -> np.ndarray:
        """Bar-length rates of truss velocities ``y``: the Jacobian
        times ``y``, for one vector ``(3 |V'|,)`` or one per column."""
        at = y.reshape(self.num_points, 3, -1)
        delta = at.take(self.bars[:, 1], axis=0) - at.take(self.bars[:, 0], axis=0)
        return (self.directions[:, None] @ delta).reshape((len(self.bars),) + y.shape[1:])


def stiffen(surface: OrigamiSurface) -> StiffenedLinkage:
    """Build the stiffened linkage: its points, bars and corners.

    The apex of a face sits one mean-incident-edge-length above the face
    centroid along the surface's face normal, guaranteeing it leaves the
    face plane by a scale-proportional margin; nothing is decomposed
    here.  All faces are braced in one array pass: a face's group is
    its row of the surface's padded face layout with its apex after its
    last real corner.
    """
    edge_ends = surface.vertices[np.array(surface.edges)]
    lengths = np.linalg.norm(edge_ends[:, 1] - edge_ends[:, 0], axis=1)
    fe = surface.incidences["fe"]
    mean_length = np.bincount(fe.upper, lengths[fe.lower]) / np.bincount(fe.upper)
    points = np.vstack([surface.vertices, surface.face_centroids
                        + mean_length[:, None] * surface.face_normals])

    # The face's vertices and its apex form a complete graph, which
    # holds the face's edges.
    corners = surface.face_corners
    nf, k = corners.shape
    sizes = surface.face_live.sum(axis=1)
    group = np.hstack([corners, corners[:, :1]])
    group[np.arange(nf), sizes] = surface.num_vertices + np.arange(nf)
    live = np.arange(k + 1) <= sizes[:, None]
    i, j = np.triu_indices(group.shape[1], 1)
    both = live[:, i] & live[:, j]
    pairs = np.stack([group[:, i][both], group[:, j][both]], axis=1)
    bars = np.unique(np.sort(pairs, axis=1), axis=0)
    axis = points[bars[:, 1]] - points[bars[:, 0]]
    axis = axis / np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]

    corner_block = np.where(live[:, :, None, None], point_velocity_blocks(
        points[group] - surface.face_centroids[:, None]), 0.0)
    return StiffenedLinkage(surface=surface, points=points, bars=bars, directions=axis,
                            group=group, live=live, corner_block=corner_block)


def corner_velocities(linkage: StiffenedLinkage,
                      values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate face spatial velocities at the truss corners.

    ``values`` holds six rows per face and one column per motion.
    Returns the velocity every corner receives from its own face, in the
    face groups' layout ``(F, k, 3, motions)`` (zero on the padding), and
    the truss vectors, shape ``(3 * points, motions)``, in which each
    point takes the velocity of its first corner: its first incident
    face, or its own face for an apex.  On solution cycles all corners of
    a point agree.
    """
    motions = values.shape[1]
    at_corner = np.einsum("fcij,fjk->fcik", linkage.corner_block,
                          values.reshape(-1, 6, motions))
    # Every point has a corner, and the first corners are in point order.
    first = at_corner.reshape(-1, 3, motions)[linkage._first_corner]
    return at_corner, first.reshape(-1, motions)


def _certify_groups(linkage: StiffenedLinkage):
    """Raise :class:`DegenerateFace` unless every face group of ``n``
    points has Jacobian rank ``3n - 6`` on those points.  Rows are filled
    from ``directions``, signed by slot (no change of rank); a bar missing
    from ``bars`` leaves a zero row, and padding to the largest group adds
    zero rows and columns.  One stack of singular values decides."""
    group, live = linkage.group, linkage.live
    i, j = np.triu_indices(group.shape[1], 1)
    keys = linkage.bars @ [linkage.num_points, 1]
    want = (np.minimum(group[:, i], group[:, j]) * linkage.num_points
            + np.maximum(group[:, i], group[:, j]))
    rows = np.searchsorted(keys, want).clip(max=len(keys) - 1)
    found = (keys[rows] == want) & live[:, i] & live[:, j]
    axes = linkage.directions[rows] * found[:, :, None]
    blocks = np.zeros((len(group), len(i), group.shape[1], 3))
    blocks[:, np.arange(len(i)), i] = -axes
    blocks[:, np.arange(len(i)), j] = axes
    rank = svd_rank(blocks.reshape(len(group), len(i), -1))
    need = 3 * live.sum(axis=1) - 6
    bad = np.flatnonzero(rank != need)
    if bad.size:
        f = bad[0]
        raise DegenerateFace(
            f"truss group of face {f} has rank {rank[f]}, want {need[f]}")


def eta_image(linkage: StiffenedLinkage, spatial_basis: np.ndarray) -> np.ndarray:
    """Truss image of ``spatial_basis``, an orthonormal basis of spatial
    solutions: the map η of the truss/hinge isomorphism, certified.

    Every bar lies in one face group.  When each group is
    infinitesimally rigid (certified first) a bar-preserving motion
    moves each face rigidly and two faces on an edge turn about it, so
    the truss kernel is exactly this image and η is injective; a spatial
    solution gives each vertex one velocity because the faces around it
    form one fan (a pinch raises :class:`NonManifold`).  No bar may
    stretch, relative to the largest entry the product can reach,
    ``max|directions| * max|corner_block| * max|basis|``; the lever arms
    carry the coordinate size (policy in :mod:`foldkin.cosheaf`).
    """
    _certify_groups(linkage)
    if spatial_basis.shape[1] == 0:
        return np.zeros((3 * linkage.num_points, 0))
    _, image = corner_velocities(linkage, spatial_basis)
    reach = (np.abs(linkage.directions).max() * np.abs(linkage.corner_block).max()
             * np.abs(spatial_basis).max())
    residual = np.abs(linkage.stretch(image)).max() / reach
    if residual > 1e-8:
        raise WellDefinednessViolation(
            f"spatial basis maps outside the truss kernel ({residual:.3e})")
    return image


def truss_kernel(linkage: StiffenedLinkage, spatial_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of motions preserving every bar
    length: the thin QR of :func:`eta_image`."""
    return np.linalg.qr(eta_image(linkage, spatial_basis))[0]
