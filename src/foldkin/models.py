"""The four first-order kinematic models of an origami surface.

* hinge model: one angular rate per interior edge, three constraints per
  interior vertex (rates weighted by hinge axes must cancel);
* spatial model: a 6-dof spatial velocity per face, five constraints per
  interior edge (everything but rotation about the shared hinge);
* rigid-body model: 6-dof per face with all six constrained per interior
  edge, leaving only global motions;
* truss model: three velocity components per vertex of the stiffened
  linkage, one length-preservation constraint per bar.

Each of the first three is a cosheaf; its boundary matrix is the model's
constraint Jacobian and the relevant homology space is its solution set.
Boundary (non-interior) edges and vertices carry zero stalks on the
constraint side; faces always carry full stalks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cosheaf import (
    ChainComplex,
    Cosheaf,
    CosheafMap,
    SubspaceBasis,
    assemble_chain_complex,
    constant_cosheaf,
    homology_basis,
)
from .errors import DegenerateFace
from .linalg import DEFAULT_TOL, nullspace
from .spatial import axis_projection, point_velocity_blocks, transfer_matrix
from .surface import Cell, OrigamiSurface


@dataclass
class ModelBundle:
    """A model's cosheaf together with its assembled chain complex."""

    name: str
    surface: OrigamiSurface
    cosheaf: Cosheaf
    complex: ChainComplex

    def homology(self, degree: int, tol: float = DEFAULT_TOL) -> SubspaceBasis:
        return homology_basis(self.complex, degree, tol)


def _bundle(name, surface, stalks, exts) -> ModelBundle:
    cosheaf = Cosheaf(surface=surface, stalk_dims=stalks, extensions=exts)
    return ModelBundle(name=name, surface=surface, cosheaf=cosheaf,
                       complex=assemble_chain_complex(cosheaf))


def build_hinge_model(surface: OrigamiSurface) -> ModelBundle:
    """Hinge cosheaf: R per interior edge, R^3 per interior vertex.

    The edge-to-vertex extension sends the unit rate to the hinge axis,
    so the assembled vertex boundary block at (v, e) is ``sign * l_e``.
    Both endpoints of an edge receive the same axis vector.
    """
    stalks: dict[Cell, int] = {}
    exts: dict[tuple[Cell, Cell], np.ndarray] = {}
    for e in surface.interior_edges():
        stalks[(1, e)] = 1
    for v in surface.interior_vertices():
        stalks[(0, v)] = 3
    for e in surface.interior_edges():
        axis = surface.edge_axis(e)
        for v in surface.edges[e]:
            if surface.interior_vertex[v]:
                exts[((1, e), (0, v))] = axis.reshape(3, 1)
    return _bundle("hinge", surface, stalks, exts)


def edge_projection_matrix(surface: OrigamiSurface, e: int) -> np.ndarray:
    """5x6 projection at an edge, rows from the surface's cached triad.

    Single source of truth: the spatial model's extensions and the
    rigid-to-spatial quotient components must agree bitwise.
    """
    return axis_projection(surface.edge_frame(e))


def _spatial_edge_to_vertex(surface, e, v) -> np.ndarray:
    """3x5 map from edge stalk coordinates to vertex velocity.

    Edge coordinates are (angular along the two triad complements of the
    axis, then linear); the axis component of the angular velocity drops
    because the vertex lies on the hinge line.
    """
    r = surface.vertices[v] - surface.centroid((1, e))
    return point_velocity_blocks(r) @ edge_projection_matrix(surface, e).T


def build_spatial_model(surface: OrigamiSurface) -> ModelBundle:
    """Spatial cosheaf: R^6 per face, R^5 per interior edge, R^3 per
    interior vertex.

    The face-to-edge extension transfers the face velocity to the edge
    midpoint and projects out rotation about the hinge axis; the
    edge-to-vertex extension keeps the induced point velocity.
    """
    stalks: dict[Cell, int] = {}
    exts: dict[tuple[Cell, Cell], np.ndarray] = {}
    for f in range(surface.num_faces):
        stalks[(2, f)] = 6
    for e in surface.interior_edges():
        stalks[(1, e)] = 5
    for v in surface.interior_vertices():
        stalks[(0, v)] = 3

    for e in surface.interior_edges():
        proj = edge_projection_matrix(surface, e)
        p_e = surface.centroid((1, e))
        for f in surface.edge_faces[e]:
            psi = transfer_matrix(surface.centroid((2, f)), p_e)
            exts[((2, f), (1, e))] = proj @ psi
        for v in surface.edges[e]:
            if surface.interior_vertex[v]:
                exts[((1, e), (0, v))] = _spatial_edge_to_vertex(surface, e, v)

    for f, cycle in enumerate(surface.faces):
        for v in cycle:
            if surface.interior_vertex[v]:
                exts[((2, f), (0, v))] = point_velocity_blocks(
                    surface.vertices[v] - surface.centroid((2, f)))
    return _bundle("spatial", surface, stalks, exts)


def build_rigid_model(surface: OrigamiSurface) -> ModelBundle:
    """Rigid-body cosheaf: R^6 on faces, interior edges, and interior
    vertices, with invertible transfer operators as extensions."""
    stalks: dict[Cell, int] = {}
    exts: dict[tuple[Cell, Cell], np.ndarray] = {}
    for f in range(surface.num_faces):
        stalks[(2, f)] = 6
    for e in surface.interior_edges():
        stalks[(1, e)] = 6
    for v in surface.interior_vertices():
        stalks[(0, v)] = 6

    def link(upper: Cell, lower: Cell):
        exts[(upper, lower)] = transfer_matrix(
            surface.centroid(upper), surface.centroid(lower))

    for e in surface.interior_edges():
        for f in surface.edge_faces[e]:
            link((2, f), (1, e))
        for v in surface.edges[e]:
            if surface.interior_vertex[v]:
                link((1, e), (0, v))
    for f, cycle in enumerate(surface.faces):
        for v in cycle:
            if surface.interior_vertex[v]:
                link((2, f), (0, v))
    return _bundle("rigid", surface, stalks, exts)


def build_constant_model(surface: OrigamiSurface, dim: int) -> ModelBundle:
    """Constant cosheaf on all cells; its homology is ``dim`` copies of
    the base homology of the surface."""
    cosheaf = constant_cosheaf(surface, dim)
    return ModelBundle(name=f"constant{dim}", surface=surface, cosheaf=cosheaf,
                       complex=assemble_chain_complex(cosheaf))


def constant_rigid_isomorphism(rigid: ModelBundle) -> CosheafMap:
    """Isomorphism from an origin-anchored constant cosheaf onto the
    rigid-body cosheaf.

    The component at a cell transfers a spatial velocity from the origin
    to the cell centroid.  The constant side is supported on the same
    cells as the rigid model so every component is invertible.
    """
    surface = rigid.surface
    support = set(rigid.cosheaf.stalk_dims)
    const = constant_cosheaf(surface, 6, support=support)
    comps = {cell: transfer_matrix(np.zeros(3), surface.centroid(cell))
             for cell in support}
    return CosheafMap(source=const, target=rigid.cosheaf,
                      components=comps).validate()


def pinned(cosheaf: Cosheaf, cells: set[Cell]) -> Cosheaf:
    """Copy of a cosheaf with the stalks over ``cells`` forced to zero.

    Used to fix a face of a chain in space: its column block disappears
    from every boundary matrix.
    """
    stalks = {c: d for c, d in cosheaf.stalk_dims.items() if c not in cells}
    exts = {pair: m for pair, m in cosheaf.extensions.items()
            if pair[0] not in cells and pair[1] not in cells}
    return Cosheaf(surface=cosheaf.surface, stalk_dims=stalks, extensions=exts)


def pinned_map(phi: CosheafMap, source: Cosheaf, target: Cosheaf,
               cells: set[Cell]) -> CosheafMap:
    comps = {c: m for c, m in phi.components.items() if c not in cells}
    return CosheafMap(source=source, target=target, components=comps)


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


def _face_normal(points: np.ndarray, tol: float) -> np.ndarray:
    """Unit normal of the best-fit plane, oriented by the cycle sense."""
    center = points.mean(axis=0)
    rel = points - center
    _, s, vh = np.linalg.svd(rel, full_matrices=False)
    if s.size < 2 or s[1] <= tol * s[0]:
        raise DegenerateFace("face has no well-defined plane")
    normal = vh[2] if vh.shape[0] > 2 else np.cross(vh[0], vh[1])
    # Newell orientation: make the normal agree with the cycle sense.
    newell = np.zeros(3)
    k = len(points)
    for i in range(k):
        a, b = points[i], points[(i + 1) % k]
        newell += np.cross(a, b)
    if np.dot(normal, newell) < 0:
        normal = -normal
    return normal / np.linalg.norm(normal)


def stiffen(surface: OrigamiSurface, tol: float = DEFAULT_TOL) -> StiffenedLinkage:
    """Build the stiffened linkage and its constraint matrix.

    The apex of a face sits one mean-incident-edge-length above the face
    centroid along the face normal, guaranteeing it leaves the face
    plane by a scale-proportional margin.
    """
    nv = surface.num_vertices
    points = [surface.vertices[v] for v in range(nv)]
    apex_of_face = []
    corner_point: list[int] = []
    bar_set: set[tuple[int, int]] = set(surface.edges)

    for f, cycle in enumerate(surface.faces):
        pts = surface.vertices[list(cycle)]
        normal = _face_normal(pts, tol)
        lengths = [np.linalg.norm(surface.edge_vector(e))
                   for e in surface.face_edges(f)]
        apex = surface.centroid((2, f)) + float(np.mean(lengths)) * normal
        apex_id = len(points)
        points.append(apex)
        apex_of_face.append(apex_id)
        group = list(cycle) + [apex_id]
        corner_point.extend(group)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                bar_set.add((min(a, b), max(a, b)))

    points = np.asarray(points)
    bars = sorted(bar_set)
    m = np.zeros((len(bars), 3 * len(points)))
    for row, (u, v) in enumerate(bars):
        axis = points[v] - points[u]
        axis = axis / np.linalg.norm(axis)
        m[row, 3 * v:3 * v + 3] = axis
        m[row, 3 * u:3 * u + 3] = -axis

    corner_face = np.repeat(np.arange(surface.num_faces),
                            [len(cycle) + 1 for cycle in surface.faces])
    corner_point = np.asarray(corner_point)
    centroids = np.array([surface.centroid((2, f))
                          for f in range(surface.num_faces)])
    corner_block = point_velocity_blocks(points[corner_point]
                                         - centroids[corner_face])
    return StiffenedLinkage(surface=surface, points=points, bars=bars,
                            apex_of_face=apex_of_face, matrix=m,
                            corner_face=corner_face, corner_point=corner_point,
                            corner_block=corner_block)


def truss_kernel(linkage: StiffenedLinkage,
                 tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of motions preserving every bar length."""
    basis = nullspace(linkage.matrix, tol)
    return SubspaceBasis(ambient_dim=linkage.matrix.shape[1],
                         basis=basis, tol=tol)
