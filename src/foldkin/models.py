"""The four first-order kinematic models of an origami surface.

* hinge model: one angular rate per interior edge, three constraints per
  interior vertex (rates weighted by hinge axes must cancel);
* spatial model: a 6-dof spatial velocity per face, five constraints per
  interior edge (everything but rotation about the shared hinge);
* rigid-body model: 6-dof per face with all six constrained per interior
  edge, leaving only global motions;
* truss model: three velocity components per vertex of the stiffened
  linkage, one length-preservation constraint per bar.

Each of the first three is a cosheaf; its builder returns the assembled
chain complex, which holds the cosheaf.  The boundary matrix is the
model's constraint Jacobian and the relevant homology space is its
solution set.  Boundary (non-interior) edges and vertices carry zero stalks on the
constraint side; faces always carry full stalks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cosheaf import (
    ChainComplex,
    Cosheaf,
    CosheafMap,
    assemble_chain_complex,
    constant_cosheaf,
)
from .errors import DegenerateFace, WellDefinednessViolation
from .linalg import RANK_TOL, pseudoinverse, svd_rank
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


def constant_rigid_isomorphism(rigid: ChainComplex) -> CosheafMap:
    """Isomorphism from an origin-anchored constant cosheaf onto the
    rigid-body cosheaf.

    The component at a cell transfers a spatial velocity from the origin
    to the cell centroid.  The constant side is supported on the same
    cells as the rigid model so every component is invertible.
    """
    surface = rigid.cosheaf.surface
    const = constant_cosheaf(surface, 6, support=rigid.cosheaf.support)
    comps = tuple(transfer_matrix(np.zeros(3), surface.cell_centroids(d))
                  for d in range(3))
    return CosheafMap(source=const, target=rigid.cosheaf,
                      components=comps).validate()


# --- stiffened linkage / truss model ---

@dataclass
class StiffenedLinkage:
    """Surface braced into a pin-jointed truss.

    One apex vertex is added above each face centroid and the vertex set
    of each face plus its apex is joined into a complete graph.  Bars
    are deduplicated: ``bars`` holds each bar's ends ``u < v`` over the
    extended vertex ids, sorted, and ``directions`` its unit axis from
    ``u`` to ``v``.  Together they are the length-preservation Jacobian,
    row ``+axis`` at ``v`` and ``-axis`` at ``u``, which :meth:`stretch`
    applies; it is never formed.

    A corner is one point of one face's group (its vertices in cycle
    order, then its apex); corners are listed face by face, and
    ``corner_slot`` is a corner's place in its group.  A face's
    spatial velocity gives the corner point the velocity
    ``corner_block @ nu``, which is how spatial solutions are read off
    at truss points and fitted back.  What depends on the linkage alone,
    the rigid-fit stack, its pseudoinverse and each point's first
    corner, is computed on first use and kept, so every conversion
    after the first does only the work of its own vector.
    """

    surface: OrigamiSurface
    points: np.ndarray                   # (|V'|, 3); originals first
    bars: np.ndarray                     # (|E'|, 2) int, u < v
    directions: np.ndarray               # (|E'|, 3) unit axes from u to v
    apex_of_face: list[int]              # face index -> extended vertex id
    corner_face: np.ndarray              # (C,) face of each corner
    corner_point: np.ndarray             # (C,) extended vertex id
    corner_slot: np.ndarray              # (C,) place in the face's group
    corner_block: np.ndarray             # (C, 3, 6) [-[r]x, I], r from centroid

    @property
    def num_points(self) -> int:
        return len(self.points)

    @cached_property
    def fit_blocks(self) -> np.ndarray:
        """The faces' corner blocks as one ``(F, 3k, 6)`` stack of rigid
        fits, ``k`` the largest group: a smaller face's rows are padded
        with zero rows, which change neither its fit nor its residual."""
        a = np.zeros((self.surface.num_faces, self.corner_slot.max() + 1, 3, 6))
        a[self.corner_face, self.corner_slot] = self.corner_block
        return a.reshape(len(a), -1, 6)

    @cached_property
    def fit_inverse(self) -> np.ndarray:
        """The stacked pseudoinverse of :attr:`fit_blocks`."""
        return pseudoinverse(self.fit_blocks)

    @cached_property
    def _first_corner(self) -> np.ndarray:
        """Each point's first corner, in point order."""
        return np.unique(self.corner_point, return_index=True)[1]

    def stretch(self, y: np.ndarray) -> np.ndarray:
        """Bar-length rates of truss velocities ``y``: the Jacobian
        times ``y``, for one vector ``(3 |V'|,)`` or one per column."""
        at = y.reshape(self.num_points, 3, -1)
        delta = at.take(self.bars[:, 1], axis=0) - at.take(self.bars[:, 0], axis=0)
        return (self.directions[:, None] @ delta).reshape((len(self.bars),) + y.shape[1:])


def _face_normals(points: np.ndarray, live: np.ndarray,
                  centers: np.ndarray) -> np.ndarray:
    """Unit normals of the best-fit planes of a stack of faces, oriented
    by the cycle sense.

    ``points`` holds each face's corners in cycle order, ``(F, k, 3)``,
    padded as in the surface's face layout (repeats of the first
    corner, false in ``live``); ``centers`` are the face centroids.
    Raises :class:`DegenerateFace` naming the first face whose corners
    span no plane.
    """
    rel = np.where(live[:, :, None], points - centers[:, None], 0.0)
    _, s, vh = np.linalg.svd(rel, full_matrices=False)
    bad = np.flatnonzero(s[:, 1] <= RANK_TOL * s[:, 0])
    if bad.size:
        raise DegenerateFace(f"face {bad[0]} has no well-defined plane")
    # Newell orientation: make the normal agree with the cycle sense.  A
    # padded cycle closes on its first corner, so padding adds no term.
    newell = np.cross(points, np.roll(points, -1, axis=1)).sum(axis=1)
    normal = vh[:, 2]
    normal = np.where(np.sum(normal * newell, axis=1, keepdims=True) < 0, -normal, normal)
    return normal / np.linalg.norm(normal, axis=1, keepdims=True)


def _face_groups(surface: OrigamiSurface) -> tuple[np.ndarray, np.ndarray]:
    """Each face's group as a padded ``(F, k + 1)`` array of extended
    vertex ids: the face layout with the face's apex after its last
    real corner, and the mask of real entries."""
    corners = surface.face_corners
    nf, k = corners.shape
    sizes = surface.face_live.sum(axis=1)
    group = np.hstack([corners, corners[:, :1]])
    group[np.arange(nf), sizes] = surface.num_vertices + np.arange(nf)
    return group, np.arange(k + 1) <= sizes[:, None]


def stiffen(surface: OrigamiSurface) -> StiffenedLinkage:
    """Build the stiffened linkage: its points, bars and corners.

    The apex of a face sits one mean-incident-edge-length above the face
    centroid along the face normal, guaranteeing it leaves the face
    plane by a scale-proportional margin.  All faces are braced in one
    array pass: a face's group is its row of the surface's padded face
    layout with its apex added.
    """
    edge_ends = surface.vertices[np.array(surface.edges)]
    lengths = np.linalg.norm(edge_ends[:, 1] - edge_ends[:, 0], axis=1)
    fe = surface.incidences["fe"]
    mean_length = np.bincount(fe.upper, lengths[fe.lower]) / np.bincount(fe.upper)
    normals = _face_normals(surface.vertices[surface.face_corners], surface.face_live,
                            surface.face_centroids)
    points = np.vstack([surface.vertices,
                        surface.face_centroids + mean_length[:, None] * normals])

    # The face's vertices and its apex form a complete graph, which
    # holds the face's edges.
    group, live = _face_groups(surface)
    i, j = np.triu_indices(group.shape[1], 1)
    both = live[:, i] & live[:, j]
    pairs = np.stack([group[:, i][both], group[:, j][both]], axis=1)
    bars = np.unique(np.sort(pairs, axis=1), axis=0)
    axis = points[bars[:, 1]] - points[bars[:, 0]]
    axis = axis / np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]

    corner_face, corner_slot = np.nonzero(live)
    corner_point = group[live]
    corner_block = point_velocity_blocks(points[corner_point]
                                         - surface.face_centroids[corner_face])
    return StiffenedLinkage(surface=surface, points=points, bars=bars, directions=axis,
                            apex_of_face=list(range(surface.num_vertices, len(points))),
                            corner_face=corner_face, corner_point=corner_point,
                            corner_slot=corner_slot, corner_block=corner_block)


def corner_velocities(linkage: StiffenedLinkage,
                      values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate face spatial velocities at the truss corners.

    ``values`` holds six rows per face and one column per motion.
    Returns the velocity every corner receives from its own face, shape
    ``(corners, 3, motions)``, and the truss vectors, shape
    ``(3 * points, motions)``, in which each point takes the velocity of
    its first corner: its first incident face, or its own face for an
    apex.  On solution cycles all corners of a point agree.
    """
    motions = values.shape[1]
    at_corner = np.einsum("cij,cjk->cik", linkage.corner_block,
                          values.reshape(-1, 6, motions)[linkage.corner_face])
    first = linkage._first_corner
    at_point = np.zeros((linkage.num_points, 3, motions))
    at_point[linkage.corner_point[first]] = at_corner[first]
    return at_corner, at_point.reshape(-1, motions)


def _certify_groups(linkage: StiffenedLinkage):
    """Raise :class:`DegenerateFace` unless every face group of ``n``
    points has Jacobian rank ``3n - 6`` on those points.  Rows are filled
    from ``directions``, signed by slot (no change of rank); a bar missing
    from ``bars`` leaves a zero row, and padding to the largest group adds
    zero rows and columns.  One stack of singular values decides."""
    group, live = _face_groups(linkage.surface)
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
