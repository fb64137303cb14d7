"""Oriented cellular origami surfaces.

A surface is a 2-complex of vertices, edges, and faces realized in R^3.
Faces are input as vertex cycles; edges are derived from face boundaries
and oriented from the lower to the higher vertex id.  Construction
reorients faces so that every interior edge receives opposite induced
orientations from its two faces, flags interior cells, lists every
incidence as index arrays, assigns centroids to cells and normals to
faces, and validates the span condition on cells (edges have nonzero
length, faces are planar and not collinear, every vertex is on a face).

Topology is read off the incidence arrays with two graph routines, and
no walk of its own.  The corners are listed face by face; the edges are
their distinct vertex pairs, from one sort.  The dual graph has the
faces as nodes and the interior edges as links, and its breadth-first
forest (:func:`_dual_forest`) carries each face's flip from its
component's lowest-index face; the surface keeps that forest
(``dual_forest``) for the tree lifts.  Two corners at a vertex are
linked when their faces share an interior edge there; the components of
that graph (:func:`_free_components`) are the vertex's fans, and more
than one is a pinch.  The same two routines order serial chains and
count the components behind base and support homology; the forest also
splits the support complex into a tree and a cotree
(:func:`loop_cocycles`).

Per-cell geometry is computed in array passes, not cell by cell.  Edge
triads come from one broadcast :func:`spatial.orthonormal_triad` call.
Faces have cycles of different lengths, so their corners are laid out
once as a padded ``(F, k)`` array, ``k`` the longest cycle: row ``f``
lists face ``f``'s vertex ids in cycle order, and the slots past its
own cycle repeat its first vertex and are false in a live mask.
Repeating the first corner closes each padded cycle on itself, so a
cyclic sum over a row sees exactly the real corners.  The centroids and
the span check read this layout, and the span check's one decomposition
yields the normals that :func:`models.stiffen` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, IndexOutOfRange, NonManifold, NonOrientable
from .linalg import RANK_TOL
from .spatial import orthonormal_triad

# Incidence kinds by name: (dimension of the upper cell, of the lower cell).
INCIDENCE_DIMS = {"ev": (1, 0), "fe": (2, 1), "fv": (2, 0)}


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
    face_corners: np.ndarray                # (F, k) vertex ids, padded
    face_live: np.ndarray                   # (F, k) bool, real corners
    edge_triads: np.ndarray                 # (E, 3, 3) rows l, m, n
    edge_midpoints: np.ndarray              # (E, 3)
    face_centroids: np.ndarray              # (F, 3)
    face_normals: np.ndarray                # (F, 3) unit, Newell-oriented
    dual_forest: tuple                      # (links, side, bounds), no roots

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
        return np.flatnonzero(self.interior_edge).tolist()

    def interior_vertices(self) -> list[int]:
        return np.flatnonzero(self.interior_vertex).tolist()

    # --- geometry ---

    def cell_centroids(self, dim: int) -> np.ndarray:
        """Centroids of all cells of one dimension, shape ``(n, 3)``."""
        return (self.vertices, self.edge_midpoints, self.face_centroids)[dim]

    # --- base topology ---

    def dual_links(self) -> np.ndarray:
        """The links of the dual graph, whose nodes are the faces: for
        each interior edge in edge order, the positions in the ``fe``
        incidences of its two faces."""
        return _dual_links(self.incidences["fe"].lower, self.interior_edge)


def _face_layout(fv: Incidences):
    """The padded face layout: corner vertex ids ``(F, k)`` in cycle
    order, each row padded with its first vertex, and the live mask."""
    sizes = np.bincount(fv.upper)
    first = np.cumsum(sizes) - sizes
    slot = np.arange(len(fv.upper)) - first[fv.upper]
    live = np.arange(sizes.max()) < sizes[:, None]
    corners = np.repeat(fv.lower[first, None], live.shape[1], axis=1)
    corners[fv.upper, slot] = fv.lower
    return corners, live


def _check_spans(vertices, edges, edge_vectors, corners, live, centroids):
    """Affine span condition: edges have rank 1, faces rank exactly 2.
    Returns the faces' unit normals, oriented by the cycle sense (Newell).

    One stacked decomposition of the corners about their centroids, the
    padding zeroed, decides every face: two singular values above the
    cutoff, the second not below ``RANK_TOL`` times the first.  Its third
    right singular vectors are the normals.  The first failing edge is
    reported, then the first failing face."""
    scale = float(np.max(np.abs(vertices - vertices.mean(axis=0)))) or 1.0
    cutoff = RANK_TOL * scale
    short = np.flatnonzero(np.linalg.norm(edge_vectors, axis=1) <= cutoff)
    if short.size:
        e = short[0]
        raise Degenerate(f"edge {e} = {edges[e]} has zero length")
    pts = vertices[corners]
    _, s, vh = np.linalg.svd(np.where(live[:, :, None], pts - centroids[:, None], 0.0),
                             full_matrices=False)
    rank = np.sum(s > cutoff, axis=1)
    bad = np.flatnonzero((rank != 2) | (s[:, 1] <= RANK_TOL * s[:, 0]))
    if bad.size:
        f = bad[0]
        if rank[f] <= 2:
            raise Degenerate(f"face {f} has collinear vertices")
        raise Degenerate(f"face {f} is not planar (affine rank {rank[f]})")
    newell = np.cross(pts, np.roll(pts, -1, axis=1)).sum(axis=1)
    normal = vh[:, 2]
    normal = np.where(np.sum(normal * newell, axis=1, keepdims=True) < 0, -normal, normal)
    return normal / np.linalg.norm(normal, axis=1, keepdims=True)


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
    faces = [tuple(cycle) for cycle in faces]
    if not faces:
        raise Degenerate("surface needs at least one face")
    nv = len(vertices)
    for f, cycle in enumerate(faces):
        if len(cycle) < 3 or len(set(cycle)) != len(cycle):
            raise Degenerate(f"face {f} must list at least 3 distinct vertices")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in cycle):
            raise IndexOutOfRange(f"face {f} lists a vertex id that is not an integer")
        if any(v < 0 or v >= nv for v in cycle):
            raise IndexOutOfRange(f"face {f} references a missing vertex")
    faces = [tuple(map(int, cycle)) for cycle in faces]

    edges, edge_faces, faces, interior_edge, forest, incidences, triples = \
        _oriented_incidences(nv, faces)
    corners, live = _face_layout(incidences["fv"])
    ends = vertices[incidences["ev"].lower.reshape(-1, 2)]
    edge_vectors = ends[:, 1] - ends[:, 0]
    corner_sum = np.where(live[:, :, None], vertices[corners], 0.0).sum(axis=1)
    centroids = corner_sum / live.sum(axis=1)[:, None]
    normals = _check_spans(vertices, edges, edge_vectors, corners, live, centroids)

    sign_ve, sign_ef = (
        dict(zip(zip(inc.lower.tolist(), inc.upper.tolist()), inc.sign.tolist()))
        for inc in (incidences["ev"], incidences["fe"]))

    interior_vertex = _vertex_fans(nv, incidences, triples, interior_edge)
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
        face_corners=corners,
        face_live=live,
        edge_triads=orthonormal_triad(edge_vectors),
        edge_midpoints=0.5 * (ends[:, 0] + ends[:, 1]),
        face_centroids=centroids,
        face_normals=normals,
        dual_forest=forest,
    )


def _oriented_incidences(nv, faces):
    """Edges, the faces on each edge, the oriented face cycles, the
    interior-edge mask, dual forest, incidences and triples of ``faces``.

    The corners are listed face by face in cycle order.  The edges are
    the distinct sorted vertex pairs of consecutive corners, from one
    sort whose inverse is the edge each corner leaves by.  A face's flip
    is its parent's in the dual forest (:func:`_dual_forest`, no roots),
    toggled when the two run their shared edge the same way, so each
    component's lowest-index face keeps its cycle; turned faces keep
    their places, so the forest is that of the oriented surface.  Raises
    :class:`NonManifold` at an edge in more than two faces, then
    :class:`NonOrientable` at a dual link whose faces still run their
    edge the same way.
    """
    sizes = np.array([len(c) for c in faces])
    corner = np.arange(sizes.sum())
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    size = np.repeat(sizes, sizes)
    slot = corner - first
    nxt = first + (slot + 1) % size
    face = np.repeat(np.arange(len(faces)), sizes)
    start = np.concatenate(faces)
    end = start[nxt]
    keys, edge, counts = np.unique(np.minimum(start, end) * nv + np.maximum(start, end),
                                   return_inverse=True, return_counts=True)
    pairs = np.stack([keys // nv, keys % nv], axis=1)
    edges = list(map(tuple, pairs.tolist()))
    crowded = np.flatnonzero(counts > 2)
    if crowded.size:
        e = crowded[0]
        raise NonManifold(f"edge {edges[e]} lies in {counts[e]} faces")
    grouped = face[np.argsort(edge, kind="stable")].tolist()
    stops = np.cumsum(counts).tolist()
    edge_faces = [grouped[stop - n:stop] for stop, n in zip(stops, counts.tolist())]

    interior = counts == 2
    links = _dual_links(edge, interior)
    linked = face[links]
    forward = start < end
    same = forward[links[:, 0]] == forward[links[:, 1]]
    tree, side, levels = _dual_forest(linked, np.zeros(len(faces), dtype=bool))
    child, parent = linked[tree, side], linked[tree, 1 - side]
    flip = np.zeros(len(faces), dtype=bool)
    for lo, hi in zip(levels[:-1], levels[1:]):
        flip[child[lo:hi]] = flip[parent[lo:hi]] ^ same[tree[lo:hi]]
    clash = np.flatnonzero(same ^ flip[linked[:, 0]] ^ flip[linked[:, 1]])
    if clash.size:
        (f, g), e = linked[clash[0]], edge[links[clash[0], 0]]
        raise NonOrientable(f"faces {f} and {g} induce the same orientation "
                            f"on shared edge {edges[e]}")
    # A turned cycle lists its corners backwards, so its corner at slot
    # j is the input's at -1 - j and leaves by the input's edge at -2 - j.
    turned = flip[face]
    start = start[np.where(turned, first + size - 1 - slot, corner)]
    edge = edge[np.where(turned, first + (size - 2 - slot) % size, corner)]
    faces = [c[::-1] if r else c for c, r in zip(faces, flip.tolist())]
    return (edges, edge_faces, faces, interior, (tree, side, levels),
            *_incidence_arrays(pairs, face, start, nxt, edge))


def _incidence_arrays(pairs, face, start, nxt, edge):
    """The ev, fe and fv incidences, ordered as :class:`Incidences` says,
    and every vertex < edge < face chain as positions in those three:
    with ``n`` face-edge pairs, rows ``i`` and ``n + i`` are the chains
    through pair ``i`` and its edge's lower and upper end.

    ``pairs`` holds the edges' sorted vertex pairs; ``face``, ``start``,
    ``nxt`` and ``edge`` give each corner's face, vertex, the position
    of the next corner of its cycle and the edge it leaves by."""
    ev = Incidences(upper=np.repeat(np.arange(len(pairs)), 2),
                    lower=pairs.reshape(-1), sign=np.tile([-1, 1], len(pairs)))
    forward = start < start[nxt]
    fe = Incidences(upper=face, lower=edge, sign=np.where(forward, 1, -1))
    fv = Incidences(upper=face, lower=start, sign=np.ones_like(face))
    # A face-edge pair leaves its own corner and enters the next one; the
    # edge's lower endpoint is whichever of the two has the smaller id.
    corner = np.arange(len(start))
    low = np.where(forward, corner, nxt)
    high = np.where(forward, nxt, corner)
    triples = np.concatenate([np.stack([2 * edge, corner, low], axis=1),
                              np.stack([2 * edge + 1, corner, high], axis=1)])
    return {"ev": ev, "fe": fe, "fv": fv}, triples


def _dual_links(edge, interior):
    """The links of the dual graph: for each interior edge in edge
    order, the positions in ``edge`` (the edge of each face-edge pair)
    of its two faces."""
    inner = np.flatnonzero(interior[edge])
    return inner[np.argsort(edge[inner], kind="stable")].reshape(-1, 2)


def _vertex_fans(nv, incidences, triples, interior_edge):
    """Interior-vertex mask; raises :class:`Degenerate` at a vertex on
    no face, then :class:`NonManifold` at a pinch.

    Two corners (``fv`` incidences) at a vertex are linked when their
    faces share an interior edge there: the corners at one end of the
    edge, in the triples of a dual link's two face-edge pairs.  The
    components of that graph (:func:`_free_components`) are the fans.
    A vertex whose corners form more than one fan is a pinch: its faces
    meet only at the vertex.  A vertex is interior when no boundary edge
    touches it.
    """
    ev, fe, fv = incidences["ev"], incidences["fe"], incidences["fv"]
    at_end = triples[:, 2].reshape(2, -1)
    links = at_end[:, _dual_links(fe.lower, interior_edge)].reshape(-1, 2)
    num = len(fv.lower)
    labels, _ = _free_components(num, links, np.zeros(num, dtype=bool))
    fans = np.bincount(fv.lower[labels == np.arange(num)], minlength=nv)
    lone = np.flatnonzero(fans == 0)
    if lone.size:
        raise Degenerate(f"vertex {lone[0]} lies on no face")
    pinch = np.flatnonzero(fans > 1)
    if pinch.size:
        raise NonManifold(f"the faces at vertex {pinch[0]} form more than one fan")
    interior = np.ones(nv, dtype=bool)
    interior[ev.lower[~interior_edge[ev.upper]]] = False
    return interior


def _free_components(num_nodes: int, ends: np.ndarray, blocked: np.ndarray):
    """Components of the graph with links ``ends`` ``(L, 2)``: each
    node's label (the lowest node id of its component) and the labels of
    the components that hold no node of the bool mask ``blocked``.

    Every round hooks the larger label at each end of a link onto the
    smaller one, then follows labels until each names itself; rounds
    repeat until no link joins two labels."""
    labels = np.arange(num_nodes)
    while True:
        a, b = labels[ends[:, 0]], labels[ends[:, 1]]
        split = a != b
        if not split.any():
            break
        np.minimum.at(labels, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
    hit = np.zeros(num_nodes, dtype=bool)
    hit[labels[blocked]] = True
    return labels, np.flatnonzero((labels == np.arange(num_nodes)) & ~hit)


def _dual_forest(face: np.ndarray, roots: np.ndarray):
    """Breadth-first spanning forest of the dual graph whose links join
    the face pairs ``face`` (one row per link), grown from the faces in
    the bool mask ``roots``; once those are exhausted, each component
    still unreached is rooted at its lowest-index face.

    A face at depth ``k + 1`` hangs from the lowest-index link joining
    it to depth ``k``; roots have depth 0.  Returns ``(links, side,
    bounds)``: the tree links sorted by the depth of their child face,
    then by index; the column (0 or 1) of each link's child in ``face``;
    and the bounds of each depth, so the links into depth ``k + 1`` are
    ``links[bounds[k]:bounds[k + 1]]``.

    It is the one walk over the dual graph.  With no roots it carries
    the face flips of :func:`build_surface`, which keeps it as the tree
    of :func:`maps._tree_lift`; rooted at one end of a path it orders
    :func:`maps.chain_structure`.
    """
    neighbours = [[] for _ in roots]
    for link, (f, g) in enumerate(face.tolist()):
        neighbours[f].append((link, g, 1))
        neighbours[g].append((link, f, 0))
    seen = roots.tolist()
    tree, frontier, level = [], np.flatnonzero(roots).tolist(), 0
    while frontier or not all(seen):
        if not frontier:
            frontier, level = [seen.index(False)], 0
            seen[frontier[0]] = True
        reached = {}
        for f in frontier:
            for link, g, side in neighbours[f]:
                if not seen[g] and (g not in reached or link < reached[g][0]):
                    reached[g] = (link, side)
        for g in reached:
            seen[g] = True
        tree += [(level, link, side) for link, side in reached.values()]
        frontier, level = list(reached), level + 1
    tree = np.array(sorted(tree), dtype=int).reshape(-1, 3)
    bounds = np.flatnonzero(np.diff(tree[:, 0], prepend=-1, append=-1))
    return tree[:, 1], tree[:, 2], bounds


def constant_homology(surface: OrigamiSurface, support=(True, True, True)):
    """Ranks ``(r1, r2)`` of the boundary maps of the constant ``R^1``
    complex on the cells in the bool masks ``support``, and its 2-cycles,
    read off component counts.

    Faces are oriented consistently, so a face chain is a 2-cycle
    exactly when it takes one value on each component of the dual graph
    (faces, linked by the supported interior edges) and 0 on a component
    holding an unsupported face or a face with a supported boundary edge.
    The cycles are the indicators of the other, free, components, as
    ``(faces, k)`` 0/1 columns; ``r2`` is the supported faces less their
    count.  Likewise a vertex chain orthogonal to every edge boundary is
    constant on each component of the graph of vertices and supported
    edges, and 0 on a component holding an unsupported vertex, so ``r1``
    is the supported vertices less the components with none.
    """
    vs, es, fs = (np.broadcast_to(mask, (surface.num_cells(d),))
                  for d, mask in enumerate(support))
    fe = surface.incidences["fe"]
    links = surface.dual_links()
    links = links[es[fe.lower[links[:, 0]]]]
    open_face = ~fs
    open_face[fe.upper[es[fe.lower] & ~surface.interior_edge[fe.lower]]] = True
    labels, free = _free_components(surface.num_faces, fe.upper[links], open_face)
    ends = surface.incidences["ev"].lower.reshape(-1, 2)[es]
    _, closed = _free_components(surface.num_vertices, ends, ~vs)
    return (int(vs.sum()) - len(closed), int(fs.sum()) - len(free),
            (labels[:, None] == free).astype(float))


def loop_cocycles(surface: OrigamiSurface, support) -> np.ndarray:
    """Integer degree-1 cocycles of the constant ``R^1`` complex on the
    cells in the bool masks ``support``, one per generator of its degree-1
    homology, by a tree-cotree split (Eppstein, SODA 2003).  The
    supported edges must be interior edges, as in the rigid model.

    The primal forest (:func:`_dual_forest` over the vertex graph) spans
    the supported vertices from the unsupported ones, which stand
    together for one node, the boundary.  The cotree spans the faces over
    the supported edges the forest left out, grown from the unsupported
    faces, which again stand for one node.  Each supported edge left out
    of both is one generator.  Its cocycle is its fundamental cycle in
    the cotree, signed so that it vanishes on the boundary of every
    supported face.  The loop a leftover edge closes through the forest
    meets its own cocycle once and no other, so pairing with the
    cocycles reads off every class.  Returns 0/±1 columns over the
    supported edges in edge order, one per leftover edge in edge order.
    """
    vs, es, fs = (np.broadcast_to(mask, (surface.num_cells(d),))
                  for d, mask in enumerate(support))
    edges = np.flatnonzero(es)
    tree, _, _ = _dual_forest(surface.incidences["ev"].lower.reshape(-1, 2)[edges], ~vs)
    spare = es.copy()
    spare[edges[tree]] = False
    fe = surface.incidences["fe"]
    links = surface.dual_links()
    links = links[spare[fe.lower[links[:, 0]]]]
    edge, face, sign = fe.lower[links[:, 0]], fe.upper[links], fe.sign[links]
    cotree, side, bounds = _dual_forest(face, ~fs)
    spare[edge[cotree]] = False
    left = np.flatnonzero(spare[edge])
    if not left.size:
        return np.zeros((len(edges), 0))
    # The cochain of leftover edge j is its first face's sign there, so
    # that face needs -1 from its cotree links and the other +1.  Faces
    # are oriented consistently, so a cotree link carries its child
    # face's sign times what the child's subtree needs in all; the
    # subtrees are summed deepest level first.
    loops = np.arange(len(left))
    need = np.zeros((surface.num_faces, len(left)))
    need[face[left, 0], loops] -= 1.0
    need[face[left, 1], loops] += 1.0
    child, parent = face[cotree, side], face[cotree, 1 - side]
    for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
        np.add.at(need, parent[lo:hi], need[child[lo:hi]])
    cochains = np.zeros((surface.num_edges, len(left)))
    cochains[edge[left], loops] = sign[left, 0]
    cochains[edge[cotree]] = sign[cotree, side][:, None] * need[child]
    return cochains[edges]


def base_square_vanishes(surface: OrigamiSurface) -> bool:
    """Whether the integer boundaries of the surface compose to zero.

    ``d1 @ d2`` is read off the vertex < edge < face triples: at every
    face-vertex incidence, the products of the ``ev`` and ``fe`` signs
    over the triples through it must sum to 0.  The signs are integers,
    so the check is exact.
    """
    ev, fe, fv = surface.incidence_triples.T
    signs = surface.incidences["ev"].sign[ev] * surface.incidences["fe"].sign[fe]
    return not np.bincount(fv, weights=signs).any()


def base_homology(surface: OrigamiSurface):
    """Dimensions ``(dim H0, dim H1, dim H2)`` of real cellular homology.

    Read off :func:`constant_homology` on every cell: ``b0`` counts the
    components, ``b2`` the closed ones, and ``b1 = b0 + b2 - chi``.
    """
    r1, r2, _ = constant_homology(surface)
    return (surface.num_vertices - r1, surface.num_edges - r1 - r2,
            surface.num_faces - r2)
