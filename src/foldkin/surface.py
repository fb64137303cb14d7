"""Oriented cellular origami surfaces.

A surface is a 2-complex of vertices, edges, and faces realized in R^3.
Faces are input as vertex cycles; edges are derived from face boundaries
and oriented from the lower to the higher vertex id.  Construction
reorients faces so that every interior edge receives opposite induced
orientations from its two faces, flags interior cells, lists every
incidence as index arrays, assigns centroid coordinates to every cell,
and validates the span condition on cells (edges have nonzero length,
faces are planar and not collinear).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, IndexOutOfRange, NonManifold, NonOrientable
from .linalg import RANK_TOL, svd_rank
from .spatial import orthonormal_triad

# Cell handles are (dim, index) pairs, e.g. (1, 4) is edge number 4.
Cell = tuple[int, int]

# Incidence kinds by name: (dimension of the upper cell, of the lower cell).
INCIDENCE_DIMS = {"ev": (1, 0), "fe": (2, 1), "fv": (2, 0)}


def _face_directed_edges(cycle):
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


@dataclass(frozen=True)
class Incidences:
    """One incidence kind as parallel arrays, one entry per cell pair.

    Edge-vertex pairs run edge by edge, lower endpoint first; face-edge
    and face-vertex pairs run face by face in cycle order, so the
    face-edge pair at position ``i`` is the edge leaving the corner of
    the face-vertex pair at position ``i``.
    """

    upper: np.ndarray                       # index of the higher cell
    lower: np.ndarray                       # index of the cell below it
    sign: np.ndarray                        # orientation sign; 1 for fv


@dataclass
class OrigamiSurface:
    """Validated oriented origami surface.

    Not meant to be constructed directly; use :func:`build_surface`.
    Immutable after construction and safe to share across threads.
    """

    vertices: np.ndarray                    # (nv, 3) positions
    edges: list[tuple[int, int]]            # ordered u < v
    faces: list[tuple[int, ...]]            # oriented vertex cycles
    edge_faces: list[list[int]]             # face ids incident to each edge
    interior_edge: np.ndarray               # bool per edge
    interior_vertex: np.ndarray             # bool per vertex
    sign_ve: dict[tuple[int, int], int]     # (vertex, edge) -> +-1
    sign_ef: dict[tuple[int, int], int]     # (edge, face) -> +-1
    incidences: dict[str, Incidences]       # keyed by INCIDENCE_DIMS
    incidence_triples: np.ndarray           # (T, 3) ev, fe, fv positions
    edge_triads: np.ndarray                 # (E, 3, 3) rows l, m, n
    edge_midpoints: np.ndarray              # (E, 3)
    face_centroids: np.ndarray              # (F, 3)
    _edge_index: dict[tuple[int, int], int] = field(default_factory=dict)

    # --- counts ---

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def num_cells(self, dim: int) -> int:
        return (self.num_vertices, self.num_edges, self.num_faces)[dim]

    def interior_edges(self) -> list[int]:
        return [e for e in range(self.num_edges) if self.interior_edge[e]]

    def interior_vertices(self) -> list[int]:
        return [v for v in range(self.num_vertices) if self.interior_vertex[v]]

    def edge_index(self, u: int, v: int) -> int:
        return self._edge_index[(min(u, v), max(u, v))]

    # --- geometry ---

    def cell_centroids(self, dim: int) -> np.ndarray:
        """Centroids of all cells of one dimension, shape ``(n, 3)``."""
        return (self.vertices, self.edge_midpoints, self.face_centroids)[dim]

    def centroid(self, cell: Cell) -> np.ndarray:
        return self.cell_centroids(cell[0])[cell[1]]

    def edge_vector(self, e: int) -> np.ndarray:
        u, v = self.edges[e]
        return self.vertices[v] - self.vertices[u]

    def edge_axis(self, e: int) -> np.ndarray:
        return self.edge_triads[e, 0]

    def face_edges(self, f: int) -> list[int]:
        return [self.edge_index(a, b) for a, b in _face_directed_edges(self.faces[f])]

    # --- base topology ---

    def signed_incidence_matrices(self):
        """Integer boundary matrices of the underlying complex.

        Returns ``(d1, d2)`` with ``d1`` of shape (V, E) and ``d2`` of
        shape (E, F); ``d1 @ d2`` vanishes identically.
        """
        d1 = np.zeros((self.num_vertices, self.num_edges), dtype=int)
        d2 = np.zeros((self.num_edges, self.num_faces), dtype=int)
        for d, kind in ((d1, "ev"), (d2, "fe")):
            inc = self.incidences[kind]
            d[inc.lower, inc.upper] = inc.sign
        return d1, d2


def _derive_edges(faces):
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for f, cycle in enumerate(faces):
        for a, b in _face_directed_edges(cycle):
            key = (min(a, b), max(a, b))
            edge_faces.setdefault(key, []).append(f)
    edges = sorted(edge_faces)
    return edges, [edge_faces[e] for e in edges]


def _orient_faces(faces, edges, edge_faces, edge_index):
    """Flip face cycles to a consistent global orientation.

    The first face of each connected component keeps its input
    orientation.  Raises :class:`NonOrientable` when no consistent
    choice exists.
    """

    def traversal(cycle, e):
        u, v = edges[e]
        for a, b in _face_directed_edges(cycle):
            if (a, b) == (u, v):
                return 1
            if (a, b) == (v, u):
                return -1
        raise KeyError

    oriented = [tuple(c) for c in faces]
    state = [0] * len(faces)  # 0 unseen, 1 fixed
    face_edge_ids = [
        [edge_index[(min(a, b), max(a, b))] for a, b in _face_directed_edges(c)]
        for c in oriented
    ]
    for start in range(len(faces)):
        if state[start]:
            continue
        state[start] = 1
        queue = [start]
        while queue:
            f = queue.pop()
            for e in face_edge_ids[f]:
                for g in edge_faces[e]:
                    if g == f:
                        continue
                    same = traversal(oriented[f], e) == traversal(oriented[g], e)
                    if state[g] == 0:
                        if same:
                            oriented[g] = tuple(reversed(oriented[g]))
                        state[g] = 1
                        queue.append(g)
                    elif same:
                        raise NonOrientable(
                            f"faces {f} and {g} induce the same orientation "
                            f"on shared edge {edges[e]}"
                        )
    return oriented


def _check_spans(vertices, edges, faces):
    """Affine span condition: edges have rank 1, faces rank exactly 2."""
    scale = float(np.max(np.abs(vertices - vertices.mean(axis=0)))) or 1.0
    cutoff = RANK_TOL * scale
    for e, (u, v) in enumerate(edges):
        if np.linalg.norm(vertices[v] - vertices[u]) <= cutoff:
            raise Degenerate(f"edge {e} = {edges[e]} has zero length")
    for f, cycle in enumerate(faces):
        pts = vertices[list(cycle)]
        rel = pts[1:] - pts[0]
        s = np.linalg.svd(rel, compute_uv=False)
        rank = int(np.sum(s > cutoff))
        if rank < 2:
            raise Degenerate(f"face {f} has collinear vertices")
        if rank > 2:
            raise Degenerate(f"face {f} is not planar (affine rank {rank})")


def _interior_vertices(nv, edge_index, faces):
    """Walk the faces around each vertex, joining two faces when they
    share an edge there.  The walk must reach every face at the vertex:
    faces that form several fans meet only at the vertex, a pinch, and
    raise :class:`NonManifold`.  The vertex is interior when its fan
    closes: every edge at it lies in two faces."""
    # Each face at a vertex contributes the two of its edges meeting there.
    corners = [[] for _ in range(nv)]
    for cycle in faces:
        ids = [edge_index[tuple(sorted(p))] for p in _face_directed_edges(cycle)]
        for i, v in enumerate(cycle):
            corners[v].append((ids[i - 1], ids[i]))
    interior = np.zeros(nv, dtype=bool)
    for v, pairs in enumerate(corners):
        if not pairs:
            continue
        faces_at = {}
        for k, pair in enumerate(pairs):
            for e in pair:
                faces_at.setdefault(e, []).append(k)
        seen, stack = {0}, [0]
        while stack:
            for e in pairs[stack.pop()]:
                fresh = [k for k in faces_at[e] if k not in seen]
                seen.update(fresh)
                stack.extend(fresh)
        if len(seen) < len(pairs):
            raise NonManifold(f"the faces at vertex {v} form more than one fan")
        interior[v] = all(len(ks) == 2 for ks in faces_at.values())
    return interior


def build_surface(vertices, faces) -> OrigamiSurface:
    """Build and validate an origami surface from positions and face cycles.

    Parameters
    ----------
    vertices : (n, 3) array of vertex positions.
    faces : sequence of vertex-id cycles, each with at least 3 distinct ids.

    Raises
    ------
    NonManifold, NonOrientable, Degenerate, IndexOutOfRange
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise Degenerate("vertex array must have shape (n, 3)")
    if not np.all(np.isfinite(vertices)):
        raise Degenerate("vertex positions must be finite")
    faces = [tuple(int(v) for v in cycle) for cycle in faces]
    if not faces:
        raise Degenerate("surface needs at least one face")
    nv = len(vertices)
    for f, cycle in enumerate(faces):
        if len(cycle) < 3 or len(set(cycle)) != len(cycle):
            raise Degenerate(f"face {f} must list at least 3 distinct vertices")
        if any(v < 0 or v >= nv for v in cycle):
            raise IndexOutOfRange(f"face {f} references a missing vertex")

    edges, edge_faces = _derive_edges(faces)
    for i, fs in enumerate(edge_faces):
        if len(fs) > 2:
            raise NonManifold(f"edge {edges[i]} lies in {len(fs)} faces")

    edge_index = {e: i for i, e in enumerate(edges)}
    faces = _orient_faces(faces, edges, edge_faces, edge_index)
    _check_spans(vertices, edges, faces)

    incidences, triples = _incidence_arrays(edges, edge_index, faces)
    sign_ve, sign_ef = (
        dict(zip(zip(inc.lower.tolist(), inc.upper.tolist()), inc.sign.tolist()))
        for inc in (incidences["ev"], incidences["fe"]))

    interior_edge = np.array([len(fs) == 2 for fs in edge_faces])
    interior_vertex = _interior_vertices(nv, edge_index, faces)
    ends = vertices[np.array(edges)]
    return OrigamiSurface(
        vertices=vertices,
        edges=edges,
        faces=faces,
        edge_faces=edge_faces,
        interior_edge=interior_edge,
        interior_vertex=interior_vertex,
        sign_ve=sign_ve,
        sign_ef=sign_ef,
        incidences=incidences,
        incidence_triples=triples,
        edge_triads=np.array([orthonormal_triad(v - u) for u, v in ends]),
        edge_midpoints=0.5 * (ends[:, 0] + ends[:, 1]),
        face_centroids=np.array([vertices[list(c)].mean(axis=0) for c in faces]),
        _edge_index=edge_index,
    )


def _incidence_arrays(edges, edge_index, faces):
    """The ev, fe and fv incidences, ordered as :class:`Incidences` says,
    and every vertex < edge < face chain as positions in those three."""
    pairs = np.array(edges)
    ev = Incidences(upper=np.repeat(np.arange(len(edges)), 2),
                    lower=pairs.reshape(-1), sign=np.tile([-1, 1], len(edges)))
    sizes = np.array([len(c) for c in faces])
    corner = np.arange(sizes.sum())
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    nxt = first + (corner - first + 1) % np.repeat(sizes, sizes)
    face = np.repeat(np.arange(len(faces)), sizes)
    start = np.concatenate(faces)
    end = start[nxt]
    edge = np.array([edge_index[(min(a, b), max(a, b))]
                     for a, b in zip(start.tolist(), end.tolist())])
    forward = start < end
    fe = Incidences(upper=face, lower=edge, sign=np.where(forward, 1, -1))
    fv = Incidences(upper=face, lower=start, sign=np.ones_like(face))
    # A face-edge pair leaves its own corner and enters the next one; the
    # edge's lower endpoint is whichever of the two has the smaller id.
    low = np.where(forward, corner, nxt)
    high = np.where(forward, nxt, corner)
    triples = np.concatenate([np.stack([2 * edge, corner, low], axis=1),
                              np.stack([2 * edge + 1, corner, high], axis=1)])
    return {"ev": ev, "fe": fe, "fv": fv}, triples


def base_homology(surface: OrigamiSurface):
    """Dimensions ``(dim H0, dim H1, dim H2)`` of real cellular homology.

    Computed from the signed incidence matrices; degree 2 is the kernel
    of the face boundary map.
    """
    d1, d2 = surface.signed_incidence_matrices()
    r1 = svd_rank(d1)
    r2 = svd_rank(d2)
    b0 = surface.num_vertices - r1
    b1 = surface.num_edges - r1 - r2
    b2 = surface.num_faces - r2
    return b0, b1, b2
