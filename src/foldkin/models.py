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

import numpy as np

from .cosheaf import (
    ChainComplex,
    Cosheaf,
    CosheafMap,
    assemble_chain_complex,
    constant_cosheaf,
)
from .errors import DegenerateFace
from .linalg import RANK_TOL, nullspace
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
    are deduplicated.  ``matrix`` is the length-preservation Jacobian:
    one row per bar, three columns per vertex of the extended complex,
    row entries ``+l_e`` at the head and ``-l_e`` at the tail.

    A corner is one point of one face's group (its vertices in cycle
    order, then its apex); corners are listed face by face.  A face's
    spatial velocity gives the corner point the velocity
    ``corner_block @ nu``, which is how spatial solutions are read off
    at truss points and fitted back.
    """

    surface: OrigamiSurface
    points: np.ndarray                   # (|V'|, 3); originals first
    bars: list[tuple[int, int]]          # u < v over extended ids
    apex_of_face: list[int]              # face index -> extended vertex id
    matrix: np.ndarray                   # (|E'|, 3 |V'|)
    corner_face: np.ndarray              # (C,) face of each corner
    corner_point: np.ndarray             # (C,) extended vertex id
    corner_block: np.ndarray             # (C, 3, 6) [-[r]x, I], r from centroid

    @property
    def num_points(self) -> int:
        return len(self.points)

    def apex_slice(self, f: int) -> slice:
        a = self.apex_of_face[f]
        return slice(3 * a, 3 * a + 3)


def _face_normal(points: np.ndarray) -> np.ndarray:
    """Unit normal of the best-fit plane, oriented by the cycle sense."""
    center = points.mean(axis=0)
    rel = points - center
    _, s, vh = np.linalg.svd(rel, full_matrices=False)
    if s.size < 2 or s[1] <= RANK_TOL * s[0]:
        raise DegenerateFace("face has no well-defined plane")
    normal = vh[2] if vh.shape[0] > 2 else np.cross(vh[0], vh[1])
    # Newell orientation: make the normal agree with the cycle sense.
    newell = np.cross(points, np.roll(points, -1, axis=0)).sum(axis=0)
    if np.dot(normal, newell) < 0:
        normal = -normal
    return normal / np.linalg.norm(normal)


def stiffen(surface: OrigamiSurface) -> StiffenedLinkage:
    """Build the stiffened linkage and its constraint matrix.

    The apex of a face sits one mean-incident-edge-length above the face
    centroid along the face normal, guaranteeing it leaves the face
    plane by a scale-proportional margin.
    """
    nv = surface.num_vertices
    apexes, groups, pairs = [], [], [np.array(surface.edges)]
    for f, cycle in enumerate(surface.faces):
        pts = surface.vertices[list(cycle)]
        normal = _face_normal(pts)
        lengths = [np.linalg.norm(surface.edge_vector(e))
                   for e in surface.face_edges(f)]
        apexes.append(surface.face_centroids[f] + float(np.mean(lengths)) * normal)
        group = np.array(list(cycle) + [nv + f])
        groups.append(group)
        # The face's vertices and its apex form a complete graph.
        i, j = np.triu_indices(len(group), 1)
        pairs.append(np.sort(np.stack([group[i], group[j]], axis=1), axis=1))
    points = np.vstack([surface.vertices] + apexes)
    apex_of_face = list(range(nv, len(points)))
    ends = np.unique(np.concatenate(pairs), axis=0)
    bars = [tuple(bar) for bar in ends.tolist()]
    axis = points[ends[:, 1]] - points[ends[:, 0]]
    axis = axis / np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]
    m = np.zeros((len(bars), 3 * len(points)))
    m[np.arange(len(bars))[:, None, None], 3 * ends[:, :, None] + np.arange(3)] = \
        np.stack([-axis, axis], axis=1)

    corner_face = np.repeat(np.arange(surface.num_faces),
                            [len(group) for group in groups])
    corner_point = np.concatenate(groups)
    corner_block = point_velocity_blocks(points[corner_point]
                                         - surface.face_centroids[corner_face])
    return StiffenedLinkage(surface=surface, points=points, bars=bars,
                            apex_of_face=apex_of_face, matrix=m,
                            corner_face=corner_face, corner_point=corner_point,
                            corner_block=corner_block)


def truss_kernel(linkage: StiffenedLinkage) -> np.ndarray:
    """Orthonormal basis (columns) of motions preserving every bar length."""
    return nullspace(linkage.matrix)
