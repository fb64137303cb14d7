"""Oriented cellular origami surfaces.

A surface is a 2-complex of vertices, edges, and faces realized in R^3.
Faces are input as vertex cycles; edges are derived from face boundaries
and oriented from the lower to the higher vertex id.  Construction
reorients faces so that every interior edge receives opposite induced
orientations from its two faces, flags interior cells, assigns centroid
coordinates to every cell, and validates the span condition on cells
(edges have nonzero length, faces are planar and not collinear).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, IndexOutOfRange, NonManifold, NonOrientable
from .linalg import DEFAULT_TOL, svd_rank
from .spatial import orthonormal_triad

# Cell handles are (dim, index) pairs, e.g. (1, 4) is edge number 4.
Cell = tuple[int, int]


def _face_directed_edges(cycle):
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


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
    vertex_edges: list[list[int]]           # edge ids incident to each vertex
    interior_edge: np.ndarray               # bool per edge
    interior_vertex: np.ndarray             # bool per vertex
    sign_ve: dict[tuple[int, int], int]     # (vertex, edge) -> +-1
    sign_ef: dict[tuple[int, int], int]     # (edge, face) -> +-1
    tol: float = DEFAULT_TOL
    _edge_index: dict[tuple[int, int], int] = field(default_factory=dict)
    _face_centroids: np.ndarray | None = None
    _edge_frames: dict[int, tuple] = field(default_factory=dict)

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

    def interior_edges(self) -> list[int]:
        return [e for e in range(self.num_edges) if self.interior_edge[e]]

    def interior_vertices(self) -> list[int]:
        return [v for v in range(self.num_vertices) if self.interior_vertex[v]]

    def edge_index(self, u: int, v: int) -> int:
        return self._edge_index[(min(u, v), max(u, v))]

    # --- geometry ---

    def centroid(self, cell: Cell) -> np.ndarray:
        dim, idx = cell
        if dim == 0:
            return self.vertices[idx]
        if dim == 1:
            u, v = self.edges[idx]
            return 0.5 * (self.vertices[u] + self.vertices[v])
        return self._face_centroids[idx]

    def edge_vector(self, e: int) -> np.ndarray:
        u, v = self.edges[e]
        return self.vertices[v] - self.vertices[u]

    def edge_axis(self, e: int) -> np.ndarray:
        return self.edge_frame(e)[0]

    def edge_frame(self, e: int):
        """Deterministic orthonormal triad along edge ``e`` (precomputed
        at construction so shared surfaces stay read-only)."""
        return self._edge_frames[e]

    # --- incidence iteration ---

    def face_edges(self, f: int) -> list[int]:
        return [self.edge_index(a, b) for a, b in _face_directed_edges(self.faces[f])]

    def incidences_ev(self):
        """(edge cell, vertex cell) pairs, edge above vertex."""
        for e, (u, v) in enumerate(self.edges):
            yield (1, e), (0, u)
            yield (1, e), (0, v)

    def incidences_fe(self):
        for f in range(self.num_faces):
            for e in self.face_edges(f):
                yield (2, f), (1, e)

    def incidences_fv(self):
        for f, cycle in enumerate(self.faces):
            for v in cycle:
                yield (2, f), (0, v)

    def incidence_sign(self, upper: Cell, lower: Cell) -> int:
        if upper[0] == 1 and lower[0] == 0:
            return self.sign_ve[(lower[1], upper[1])]
        if upper[0] == 2 and lower[0] == 1:
            return self.sign_ef[(lower[1], upper[1])]
        raise KeyError(f"no codimension-1 incidence {upper} > {lower}")

    def triples(self):
        """All (vertex, edge, face) incidence chains."""
        for f in range(self.num_faces):
            for e in self.face_edges(f):
                u, v = self.edges[e]
                yield (0, u), (1, e), (2, f)
                yield (0, v), (1, e), (2, f)

    # --- base topology ---

    def signed_incidence_matrices(self):
        """Integer boundary matrices of the underlying complex.

        Returns ``(d1, d2)`` with ``d1`` of shape (V, E) and ``d2`` of
        shape (E, F); ``d1 @ d2`` vanishes identically.
        """
        d1 = np.zeros((self.num_vertices, self.num_edges), dtype=int)
        for e, (u, v) in enumerate(self.edges):
            d1[u, e] = self.sign_ve[(u, e)]
            d1[v, e] = self.sign_ve[(v, e)]
        d2 = np.zeros((self.num_edges, self.num_faces), dtype=int)
        for f in range(self.num_faces):
            for e in self.face_edges(f):
                d2[e, f] = self.sign_ef[(e, f)]
        return d1, d2


def _derive_edges(faces):
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for f, cycle in enumerate(faces):
        for a, b in _face_directed_edges(cycle):
            key = (min(a, b), max(a, b))
            edge_faces.setdefault(key, []).append(f)
    edges = sorted(edge_faces)
    return edges, [edge_faces[e] for e in edges]


def _orient_faces(faces, edges, edge_faces):
    """Flip face cycles to a consistent global orientation.

    The first face of each connected component keeps its input
    orientation.  Raises :class:`NonOrientable` when no consistent
    choice exists.
    """
    edge_ids = {e: i for i, e in enumerate(edges)}

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
        [edge_ids[(min(a, b), max(a, b))] for a, b in _face_directed_edges(c)]
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


def _check_spans(vertices, edges, faces, tol):
    """Affine span condition: edges have rank 1, faces rank exactly 2."""
    scale = float(np.max(np.abs(vertices - vertices.mean(axis=0)))) or 1.0
    cutoff = tol * scale
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


def _interior_vertices(nv, edges, vertex_edges, edge_faces, faces):
    """A vertex is interior when its edge/face link closes into one cycle."""
    interior = np.zeros(nv, dtype=bool)
    edge_key = {tuple(sorted(e)): i for i, e in enumerate(edges)}
    # For each face, the two boundary edges meeting at each of its vertices.
    links: dict[int, list[tuple[int, int]]] = {v: [] for v in range(nv)}
    for f, cycle in enumerate(faces):
        cyc_edges = [edge_key[tuple(sorted(p))] for p in _face_directed_edges(cycle)]
        k = len(cycle)
        for i, v in enumerate(cycle):
            e_in = cyc_edges[(i - 1) % k]
            e_out = cyc_edges[i]
            links[v].append((e_in, e_out))
    for v in range(nv):
        local = vertex_edges[v]
        if not local or any(len(edge_faces[e]) != 2 for e in local):
            continue
        # Walk the link graph: nodes are edges at v, each incident face
        # joins the two edges it contributes.  Interior means one closed
        # cycle covering all local edges.
        degree = {e: 0 for e in local}
        adj = {e: [] for e in local}
        ok = True
        for e_in, e_out in links[v]:
            if e_in not in adj or e_out not in adj:
                ok = False
                break
            adj[e_in].append(e_out)
            adj[e_out].append(e_in)
            degree[e_in] += 1
            degree[e_out] += 1
        if not ok or any(d != 2 for d in degree.values()):
            continue
        seen = {local[0]}
        stack = [local[0]]
        while stack:
            e = stack.pop()
            for nb in adj[e]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        interior[v] = len(seen) == len(local)
    return interior


def build_surface(vertices, faces, tol: float = DEFAULT_TOL) -> OrigamiSurface:
    """Build and validate an origami surface from positions and face cycles.

    Parameters
    ----------
    vertices : (n, 3) array of vertex positions.
    faces : sequence of vertex-id cycles, each with at least 3 distinct ids.
    tol : relative tolerance for the numerical span checks.

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

    faces = _orient_faces(faces, edges, edge_faces)
    _check_spans(vertices, edges, faces, tol)

    edge_index = {e: i for i, e in enumerate(edges)}
    vertex_edges = [[] for _ in range(nv)]
    sign_ve = {}
    for i, (u, v) in enumerate(edges):
        vertex_edges[u].append(i)
        vertex_edges[v].append(i)
        sign_ve[(u, i)] = -1
        sign_ve[(v, i)] = 1

    sign_ef = {}
    for f, cycle in enumerate(faces):
        for a, b in _face_directed_edges(cycle):
            e = edge_index[(min(a, b), max(a, b))]
            sign_ef[(e, f)] = 1 if a < b else -1

    interior_edge = np.array([len(fs) == 2 for fs in edge_faces])
    interior_vertex = _interior_vertices(nv, edges, vertex_edges, edge_faces, faces)
    face_centroids = np.array([vertices[list(c)].mean(axis=0) for c in faces])
    edge_frames = {i: orthonormal_triad(vertices[v] - vertices[u])
                   for i, (u, v) in enumerate(edges)}

    return OrigamiSurface(
        vertices=vertices,
        edges=edges,
        faces=faces,
        edge_faces=edge_faces,
        vertex_edges=vertex_edges,
        interior_edge=interior_edge,
        interior_vertex=interior_vertex,
        sign_ve=sign_ve,
        sign_ef=sign_ef,
        tol=tol,
        _edge_index=edge_index,
        _face_centroids=face_centroids,
        _edge_frames=edge_frames,
    )


def base_homology(surface: OrigamiSurface, tol: float | None = None):
    """Dimensions ``(dim H0, dim H1, dim H2)`` of real cellular homology.

    Computed from the signed incidence matrices; degree 2 is the kernel
    of the face boundary map.
    """
    tol = surface.tol if tol is None else tol
    d1, d2 = surface.signed_incidence_matrices()
    r1 = svd_rank(d1, tol)
    r2 = svd_rank(d2, tol)
    b0 = surface.num_vertices - r1
    b1 = surface.num_edges - r1 - r2
    b2 = surface.num_faces - r2
    return b0, b1, b2
