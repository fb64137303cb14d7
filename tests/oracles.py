"""Reference routes that the library no longer runs.

Each dense route decomposes a whole assembled matrix where the library
reads the same answer off a smaller structure.  The kernel of the whole
hinge ``d1`` stands for the hinge cycles glued from vertex stars, and
the harmonic degree-1 basis of the support complex for its integer loop
cocycles from a tree-cotree split.  The dense bar Jacobian
stands for the linkage's bar ends and unit axes, and the truss kernel
decomposed whole for the certified η image; the Gram floor with an SVD
rank of η stands for the floor alone.  The generic connecting
map and the per-face boundary product stand for the tree-lift θ and the
incidence-triple ``d1 @ d2``; the integer incidence matrices and their
decompositions stand for the component counts of base and support
homology.  Each per-cell route builds one cell's
geometry at a time where the library runs one array pass over every
cell.  The level-by-level tree lift, grown from any roots, rescans
every dual link at each level where the library steps the forest that
surface construction kept; rooted at a chain's base, it stands for the
free lift less the global motion carrying the base.  The dense chain
operators form every ``(6n, 6n)`` product, and ``d_pinv`` from all of
the inverse, where the library writes and checks a few block rows at a
time and ``d_pinv`` from the inverse's two block diagonals.  The topology walks answer each graph
question of surface construction with a walk of its own: a depth-first
orientation, a fan walk around every vertex, an edge dict and an
adjacency-dict chain walk, and they list the incidences one cell at a
time; the library reads all of it off the sorted corner arrays, the
dual forest and one component labelling.  The pseudoinverse of θ
takes hinge classes to spatial motions where the library reads the
tree lifts less their global-motion part.  The rigid-fit pseudoinverse
and the first-corner index are taken afresh on every call where a linkage
keeps them.  The validated
constant-to-rigid isomorphism carries the global motions where the
library moves them from the origin to the face centroids with the tree
lifts' one transfer per face.  The rigid model, with the generic
embedding and quotient maps validated on it and the generic stalk-wise
verifier run on them, stands for the one triad certificate of the
sequence.  The recursive
formatter checks every value's type where canonical JSON joins a list
of plain floats at once.  The unit-anchored rank and pseudoinverse
stand for the anchor that ``linalg.svd_rank`` and ``pseudoinverse`` no
longer take, where the analysis reads the class maps' ranks off the
loop obstruction's kernel.  Tests compare the two.  The exact hinge
rank alone shares no code with foldkin: it reduces an integer matrix
modulo two primes.
"""

import json
import math

import numpy as np

from foldkin import (
    CosheafMap,
    assemble_chain_complex,
    build_rigid_model,
    connecting_map,
    constant_cosheaf,
    homology_basis,
    induced_map,
)
from foldkin.analysis import GRAM_RELATIVE_FLOOR
from foldkin.errors import (
    Degenerate,
    DegenerateFace,
    FoldkinError,
    InvalidParams,
    NonManifold,
    NonOrientable,
)
from foldkin.linalg import RANK_TOL, nullspace, pseudoinverse, svd_rank
from foldkin.maps import OBSTRUCTION_TOL, _hinge_lines, chain_structure
from foldkin.spatial import (
    axis_projection,
    hinge_twist,
    point_velocity_blocks,
    transfer_matrix,
)


def _iota_map(hinge, rigid):
    # An edge stalk holds a hinge rate; it enters as the hinge twist.  A
    # vertex stalk holds an angular velocity; it enters as [omega, 0].
    twists = hinge_twist(hinge.surface.edge_triads[:, 0])[:, :, None]
    return CosheafMap(source=hinge, target=rigid,
                      components=(np.eye(6, 3), twists, np.zeros((6, 0))))


def _pi_map(rigid, spatial):
    # Vertices keep the velocity of the anchor point itself: zero lever
    # arm.  Edges forget rotation about the hinge axis.
    return CosheafMap(source=rigid, target=spatial,
                      components=(point_velocity_blocks(np.zeros(3)),
                                  axis_projection(rigid.surface.edge_triads),
                                  np.eye(6)))


def sequence_maps(seq):
    """The sequence's rigid middle term and its embedding and quotient
    maps, both validated: ``(rigid, iota, pi)``."""
    rigid = build_rigid_model(seq.surface)
    return (rigid, _iota_map(seq.hinge, rigid).validate(),
            _pi_map(rigid, seq.spatial).validate())


def hinge_h1(seq):
    """Kernel of the whole hinge boundary ``d1``, one SVD."""
    return homology_basis(seq.hinge, 1)


def rigid_h1(seq):
    """Harmonic degree-1 basis of the rigid complex, in its own chains."""
    return homology_basis(sequence_maps(seq)[0], 1)


def rigid_h2(seq):
    """Kernel of the rigid face boundary."""
    return homology_basis(sequence_maps(seq)[0], 2)


def spatial_h2(seq):
    """Kernel of the spatial face boundary."""
    return homology_basis(seq.spatial, 2)


def bar_jacobian(linkage):
    """The bar-length Jacobian as one dense matrix: a row per bar,
    ``-axis`` at its first end and ``+axis`` at its second."""
    ends, axis = linkage.bars, linkage.directions
    m = np.zeros((len(ends), 3 * linkage.num_points))
    m[np.arange(len(ends))[:, None, None], 3 * ends[:, :, None] + np.arange(3)] = \
        np.stack([-axis, axis], axis=1)
    return m


def truss_kernel(linkage):
    """Kernel of the whole bar-length Jacobian."""
    return nullspace(bar_jacobian(linkage))


def eta_full_rank(image):
    """The η verdict by two decisions: the Gram floor of the analysis
    and an SVD rank of the image equal to its column count."""
    if not image.shape[1]:
        return True
    eigs = np.linalg.eigvalsh(image.T @ image)
    return bool(eigs[0] >= GRAM_RELATIVE_FLOOR * max(eigs[-1], 1e-300)
                and svd_rank(image) == image.shape[1])


def hinge_to_spatial_matrix(seq):
    """Pseudoinverse of the connecting map, hinge classes to the
    minimum-norm spatial classes mapping onto them; the cutoff is
    anchored at 1, the size of a map between orthonormal bases."""
    return unit_pinv(seq.spatial_to_hinge_matrix())


def hinge_to_spatial(seq, rates):
    """The θ⁺ class route of a hinge conversion: ``(obstruction,
    obstructed, values)``, the loop obstruction of the rates' class and,
    unless it is obstructed, ``spatial_h2 @ θ⁺ @ hinge_h1ᵀ @ rates``
    (else None)."""
    coords = seq.hinge_h1().T @ rates
    obstruction = seq.loop_obstruction_matrix() @ coords
    norm = np.linalg.norm(rates)
    obstructed = bool(norm > 0 and np.linalg.norm(obstruction) > OBSTRUCTION_TOL * norm)
    if obstructed:
        return obstruction, obstructed, None
    return obstruction, obstructed, seq.spatial_h2() @ hinge_to_spatial_matrix(seq) @ coords


def rigid_fit(linkage):
    """The padded ``(F, 3k, 6)`` rigid-fit stack of the live corner
    blocks, zero rows elsewhere, and its pseudoinverse, built afresh."""
    a = np.zeros(linkage.corner_block.shape)
    a[linkage.live] = linkage.corner_block[linkage.live]
    a = a.reshape(len(a), -1, 6)
    return a, pseudoinverse(a)


def first_corner(linkage):
    """Each truss point's first corner, as a position in the flat face
    group layout, found by one scan of the live corners."""
    first = {}
    for c, (point, live) in enumerate(zip(linkage.group.ravel().tolist(),
                                          linkage.live.ravel().tolist())):
        if live:
            first.setdefault(point, c)
    return np.array([first[p] for p in range(linkage.num_points)])


def loop_obstruction_matrix(seq):
    """Map induced by the hinge embedding, hinge classes to the classes
    of :func:`rigid_h1`."""
    rigid, iota, _ = sequence_maps(seq)
    return induced_map(iota, 1, seq.hinge_h1(), homology_basis(rigid, 1))


def theta(seq):
    """Connecting homomorphism by lift / boundary / restrict, spatial
    classes to hinge classes."""
    _, iota, pi = sequence_maps(seq)
    return connecting_map(iota, pi, 2, seq.spatial_h2(), seq.hinge_h1())


def tree_lift(surface, roots, rates):
    """The tree lift stepped level by level, each level found by scanning
    every dual link for one seen and one unseen face."""
    fe = surface.incidences["fe"]
    pairs = surface.dual_links()
    edge, face, sign = fe.lower[pairs[:, 0]], fe.upper[pairs], fe.sign[pairs]
    steps = _hinge_lines(surface, edge)[:, :, None] * rates[edge][:, None, :]
    nu = np.zeros((surface.num_faces, 6, rates.shape[1]))
    seen = np.array(roots, dtype=bool)
    while not seen.all():
        links = np.flatnonzero(seen[face[:, 0]] != seen[face[:, 1]])
        if not links.size:
            seen[np.argmin(seen)] = True
            continue
        side = (~seen[face[links, 1]]).astype(int)
        child, first = np.unique(face[links, side], return_index=True)
        links, side = links[first], side[first]
        nu[child] = (nu[face[links, 1 - side]]
                     + sign[links, side][:, None, None] * steps[links])
        seen[child] = True
    return transfer_matrix(np.zeros(3), surface.face_centroids) @ nu


def serial_chain_operators(surface):
    """The serial-chain operators as dense ``(6n, 6n)`` matrices, checked
    with the whole block-row product: ``(accumulate, accumulate_inverse,
    d, d_pinv, inverse_gap)``."""
    chain = chain_structure(surface)
    n = chain.num_hinges
    if n == 0:
        raise InvalidParams("chain needs at least one hinge")
    faces = chain.face_order
    hinges = np.array(chain.hinge_order)
    p_face = surface.face_centroids[faces]
    p_edge = surface.edge_midpoints[hinges]
    blocks = transfer_matrix(p_edge[None, :], p_face[1:, None])
    blocks[np.triu_indices(n, 1)] = 0.0
    psi = blocks.transpose(0, 2, 1, 3).reshape(6 * n, 6 * n)
    diag = transfer_matrix(p_face[1:], p_edge)
    sub = -transfer_matrix(p_face[1:-1], p_edge[1:])
    idx = np.arange(n)
    psi_inv = np.zeros((n, 6, n, 6))
    psi_inv[idx, :, idx] = diag
    psi_inv[idx[1:], :, idx[:-1]] = sub
    psi_inv = psi_inv.reshape(6 * n, 6 * n)
    # Each hinge turns the face after it by its sign there.
    fe = surface.incidences["fe"]
    signs = dict(zip(zip(fe.lower.tolist(), fe.upper.tolist()), fe.sign.tolist()))
    twists = hinge_twist(surface.edge_triads[hinges, 0]) * np.array(
        [signs[e, f] for e, f in zip(hinges.tolist(), faces[1:])])[:, None]
    d = np.einsum("rjb,jb->rj", psi.reshape(6 * n, n, 6), twists)
    d_pinv = np.einsum("ia,iajb->ijb", twists, psi_inv.reshape(n, 6, n, 6)).reshape(n, 6 * n)
    rows = psi.reshape(n, 6, 6 * n)
    product = diag @ rows
    product[1:] += sub @ rows[:-1]
    product = product.reshape(6 * n, 6 * n)
    product[np.diag_indices(6 * n)] -= 1.0
    inverse_gap = float(np.max(np.abs(product)))
    if inverse_gap > 1e-12 * max(1.0, np.max(np.abs(psi))):
        raise FoldkinError(f"chain operator inverse failed ({inverse_gap:.3e})")
    return psi, psi_inv, d, d_pinv, inverse_gap


def square_residual(cc):
    """Relative magnitude of ``d1 @ d2``, formed one face's column block
    at a time from the rows where that block of ``d2`` is nonzero."""
    if cc.d1.size == 0 or cc.d2.size == 0:
        return 0.0
    n = cc.stalk_sizes[2]
    reach = cc.d2.reshape(len(cc.d2), -1, n).any(axis=2).T
    worst = max(np.abs(cc.d1[:, rows] @ cc.d2[rows, n * f:n * f + n]).max(initial=0.0)
                for f, rows in enumerate(map(np.flatnonzero, reach)))
    scale = max(np.max(np.abs(cc.d1)), np.max(np.abs(cc.d2)), 1.0)
    return worst / scale


def signed_incidence_matrices(surface):
    """Integer boundary matrices ``(d1, d2)`` of the underlying complex,
    ``d1`` of shape (V, E) and ``d2`` of shape (E, F)."""
    d1 = np.zeros((surface.num_vertices, surface.num_edges), dtype=int)
    d2 = np.zeros((surface.num_edges, surface.num_faces), dtype=int)
    for d, kind in ((d1, "ev"), (d2, "fe")):
        inc = surface.incidences[kind]
        d[inc.lower, inc.upper] = inc.sign
    return d1, d2


def base_homology(surface):
    """Betti numbers from the ranks of :func:`signed_incidence_matrices`."""
    d1, d2 = signed_incidence_matrices(surface)
    r1, r2 = svd_rank(d1), svd_rank(d2)
    return (surface.num_vertices - r1, surface.num_edges - r1 - r2,
            surface.num_faces - r2)


def support_h(seq, degree):
    """Harmonic basis of the support complex in one degree."""
    support = assemble_chain_complex(
        constant_cosheaf(seq.surface, 1, support=seq.spatial.support))
    return homology_basis(support, degree)


def _unit_svd(a):
    """``u, s, keep, vh`` of ``a``, ``keep`` marking the singular values
    above ``RANK_TOL * max(largest, 1)``: the cutoff anchored at 1, the
    size of a meaningful entry of a map between orthonormal bases."""
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    return u, s, s > RANK_TOL * max(s.max(initial=0.0), 1.0), vh


def unit_rank(a):
    """Rank of ``a`` under the cutoff anchored at 1."""
    return int(_unit_svd(a)[2].sum())


def unit_pinv(a):
    """Pseudoinverse of ``a`` under the cutoff anchored at 1."""
    u, s, keep, vh = _unit_svd(a)
    return (vh[keep].T / s[keep]) @ u[:, keep].T


def column_space(a, *, scale=0.0):
    """Orthonormal basis (columns) of the range of ``a`` under the
    library's rank cutoff, anchored like ``linalg.nullspace``."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > RANK_TOL * max(s[0], scale)].copy()


def constant_rigid_isomorphism(rigid):
    """Isomorphism from an origin-anchored constant cosheaf onto the
    rigid-body cosheaf, validated: the component at a cell transfers a
    spatial velocity from the origin to the cell centroid.  The constant
    side is supported on the rigid model's cells, so every component is
    invertible."""
    surface = rigid.surface
    const = constant_cosheaf(surface, 6, support=rigid.support)
    comps = tuple(transfer_matrix(np.zeros(3), surface.cell_centroids(d))
                  for d in range(3))
    return CosheafMap(source=const, target=rigid, components=comps).validate()


def identity_map(cosheaf):
    return CosheafMap(source=cosheaf, target=cosheaf,
                      components=tuple(np.eye(n) for n in cosheaf.stalk_sizes))


# --- per-cell geometry ---

def triad(axis):
    """Rows ``l, m, n`` of one edge's triad: ``m`` from the standard basis
    vector at the first index of the smallest ``|l_i|``, ``n = l x m``."""
    l = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = int(np.argmin(np.abs(l)))
    seed = np.zeros(3)
    seed[k] = 1.0
    m = seed - l[k] * l
    m = m / np.linalg.norm(m)
    return np.array([l, m, np.cross(l, m)])


def edge_triads(surface):
    """One :func:`triad` per edge."""
    return np.array([triad(surface.vertices[v] - surface.vertices[u])
                     for u, v in surface.edges])


def face_centroids(surface):
    """The mean of each face's corners, one face at a time."""
    return np.array([surface.vertices[list(c)].mean(axis=0) for c in surface.faces])


def check_spans(vertices, edges, faces):
    """Affine span condition, one edge and then one face at a time:
    edges have rank 1, faces rank exactly 2, with a second singular
    value not below ``RANK_TOL`` times the first."""
    scale = float(np.max(np.abs(vertices - vertices.mean(axis=0)))) or 1.0
    cutoff = RANK_TOL * scale
    for e, (u, v) in enumerate(edges):
        if np.linalg.norm(vertices[v] - vertices[u]) <= cutoff:
            raise Degenerate(f"edge {e} = {edges[e]} has zero length")
    for f, cycle in enumerate(faces):
        pts = vertices[list(cycle)]
        s = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        rank = int(np.sum(s > cutoff))
        if rank < 2 or (rank == 2 and s[1] <= RANK_TOL * s[0]):
            raise Degenerate(f"face {f} has collinear vertices")
        if rank > 2:
            raise Degenerate(f"face {f} is not planar (affine rank {rank})")


def face_normal(points):
    """Unit normal of one face's best-fit plane, oriented by the cycle
    sense (Newell)."""
    rel = points - points.mean(axis=0)
    _, s, vh = np.linalg.svd(rel, full_matrices=False)
    if s[1] <= RANK_TOL * s[0]:
        raise DegenerateFace("face has no well-defined plane")
    normal = vh[2]
    newell = np.cross(points, np.roll(points, -1, axis=0)).sum(axis=0)
    if np.dot(normal, newell) < 0:
        normal = -normal
    return normal / np.linalg.norm(normal)


def stiffen(surface):
    """The stiffened linkage's points, bars and face groups (each face's
    cycle, then its apex), one face at a time: ``(points, bars, groups)``."""
    nv = surface.num_vertices
    apexes, groups, pairs = [], [], [np.array(surface.edges)]
    for f, cycle in enumerate(surface.faces):
        pts = surface.vertices[list(cycle)]
        lengths = [np.linalg.norm(pts[(i + 1) % len(cycle)] - pts[i])
                   for i in range(len(cycle))]
        apexes.append(pts.mean(axis=0) + float(np.mean(lengths)) * face_normal(pts))
        group = np.array(list(cycle) + [nv + f])
        groups.append(group)
        i, j = np.triu_indices(len(group), 1)
        pairs.append(np.sort(np.stack([group[i], group[j]], axis=1), axis=1))
    points = np.vstack([surface.vertices] + apexes)
    bars = [tuple(bar) for bar in np.unique(np.concatenate(pairs), axis=0).tolist()]
    return points, bars, groups


# --- topology walks ---

def face_directed_edges(cycle):
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def derive_edges(faces):
    """Sorted edges and, per edge, the faces on it in face order."""
    edge_faces = {}
    for f, cycle in enumerate(faces):
        for a, b in face_directed_edges(cycle):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(f)
    edges = sorted(edge_faces)
    return edges, [edge_faces[e] for e in edges]


def orient_faces(faces, edges, edge_faces, edge_index):
    """Flip face cycles to a consistent global orientation by a
    depth-first walk; the first face of each component keeps its cycle.
    Raises :class:`NonOrientable` when no consistent choice exists."""

    def traversal(cycle, e):
        u, v = edges[e]
        for a, b in face_directed_edges(cycle):
            if (a, b) == (u, v):
                return 1
            if (a, b) == (v, u):
                return -1
        raise KeyError

    oriented = [tuple(c) for c in faces]
    state = [0] * len(faces)  # 0 unseen, 1 fixed
    face_edge_ids = [
        [edge_index[(min(a, b), max(a, b))] for a, b in face_directed_edges(c)]
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


def interior_vertices(nv, edge_index, faces):
    """Walk the faces around each vertex, joining two faces when they
    share an edge there.  Faces that form several fans raise
    :class:`NonManifold`; the vertex is interior when every edge at it
    lies in two faces."""
    corners = [[] for _ in range(nv)]
    for cycle in faces:
        ids = [edge_index[tuple(sorted(p))] for p in face_directed_edges(cycle)]
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


def incidence_arrays(edges, faces):
    """The ev, fe and fv incidences as ``(upper, lower, sign)`` rows and
    the vertex < edge < face triples, one cell at a time."""
    index = {e: i for i, e in enumerate(edges)}
    ev = [(e, v, s) for e, pair in enumerate(edges) for v, s in zip(pair, (-1, 1))]
    fe, fv, low, high = [], [], [], []
    for f, cycle in enumerate(faces):
        for i, (a, b) in enumerate(face_directed_edges(cycle)):
            here = len(fv)
            there = here - i + (i + 1) % len(cycle)
            e = index[(min(a, b), max(a, b))]
            fe.append((f, e, 1 if a < b else -1))
            fv.append((f, a, 1))
            low.append((2 * e, here, here if a < b else there))
            high.append((2 * e + 1, here, there if a < b else here))
    rows = {"ev": ev, "fe": fe, "fv": fv}
    return {kind: np.array(r).T for kind, r in rows.items()}, np.array(low + high)


def topology(nv, faces):
    """Everything :func:`foldkin.build_surface` derives from the face
    cycles alone, by the walks, with its checks in its order (the span
    check aside)."""
    faces = [tuple(int(v) for v in cycle) for cycle in faces]
    edges, edge_faces = derive_edges(faces)
    for i, fs in enumerate(edge_faces):
        if len(fs) > 2:
            raise NonManifold(f"edge {edges[i]} lies in {len(fs)} faces")
    edge_index = {e: i for i, e in enumerate(edges)}
    faces = orient_faces(faces, edges, edge_faces, edge_index)
    incidences, triples = incidence_arrays(edges, faces)
    k = max(len(c) for c in faces)
    return {
        "edges": edges,
        "edge_faces": edge_faces,
        "faces": faces,
        "interior_edge": np.array([len(fs) == 2 for fs in edge_faces]),
        "interior_vertex": interior_vertices(nv, edge_index, faces),
        "incidences": incidences,
        "incidence_triples": triples,
        "face_corners": np.array([list(c) + [c[0]] * (k - len(c)) for c in faces]),
    }


def chain_walk(surface):
    """Face and hinge order of a chain surface, walked from the end with
    the smaller face index along an adjacency dict."""
    interior = surface.interior_edges()
    adjacency = {f: [] for f in range(surface.num_faces)}
    for e in interior:
        f, g = surface.edge_faces[e]
        adjacency[f].append((g, e))
        adjacency[g].append((f, e))
    degrees = {f: len(nbrs) for f, nbrs in adjacency.items()}
    ends = sorted(f for f, d in degrees.items() if d <= 1)
    if surface.num_faces == 1:
        return [0], []
    if len(ends) != 2 or any(d > 2 for d in degrees.values()):
        raise InvalidParams("surface is not a serial chain")
    face_order = [ends[0]]
    hinge_order = []
    prev = None
    while True:
        here = face_order[-1]
        step = [(g, e) for g, e in adjacency[here] if g != prev]
        if not step:
            break
        nxt, e = step[0]
        face_order.append(nxt)
        hinge_order.append(e)
        prev = here
    if len(face_order) != surface.num_faces:
        raise InvalidParams("chain dual graph is not connected")
    return face_order, hinge_order


def canonical_json(value):
    """Canonical JSON by recursion with an ``isinstance`` chain on every
    value: numpy values normalised to Python ones, sorted keys, floats
    at 17 significant digits."""
    if isinstance(value, np.bool_):
        value = bool(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value} is not a JSON number")
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}"
                        for k, v in items)
        return "{" + body + "}"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


# --- exact ranks ---

PRIMES = (2147483647, 2147483629)


def exact_hinge_h1(surface):
    """The exact dimension of the hinge solutions, from the surface's
    stored vertices and face cycles alone; no foldkin code runs.

    Every float is a dyadic rational, so one power of two scales the
    coordinates to integers.  The hinge ``d1`` built from unnormalised
    edge vectors is then an integer matrix: at each interior vertex, the
    vector to the other end of each interior edge.  Scaling a column by
    its edge's length keeps the rank of the unit-axis ``d1``.  Its rank
    modulo a prime is never above the rank ``r`` over the rationals, and
    equals it unless the prime divides every ``r x r`` minor; the larger
    of the ranks modulo two 31-bit primes is taken.

    The answer is exact for the stored floats, not for the shape they
    were rounded from.  Rounded geometry can be exactly rigid where the
    intended shape moves: on ``miura 3 4`` this gives 0 and foldkin 1.
    Compare only on fixtures whose coordinates are exactly representable.
    """
    faces = [[int(v) for v in f] for f in surface.faces]
    sides = {}
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            key = (min(a, b), max(a, b))
            sides[key] = sides.get(key, 0) + 1
    boundary = {v for edge, n in sides.items() if n == 1 for v in edge}
    interior = sorted(edge for edge, n in sides.items() if n == 2)
    vertices = sorted({v for f in faces for v in f} - boundary)
    ratios = [[x.as_integer_ratio() for x in p] for p in surface.vertices.tolist()]
    scale = max(d for p in ratios for _, d in p)
    coords = [[n * (scale // d) for n, d in p] for p in ratios]
    row = {v: 3 * k for k, v in enumerate(vertices)}
    ranks = []
    for p in PRIMES:
        m = np.zeros((3 * len(vertices), len(interior)), dtype=np.int64)
        for col, (a, b) in enumerate(interior):
            for here, there in ((a, b), (b, a)):
                if here in row:
                    m[row[here]:row[here] + 3, col] = [
                        (coords[there][i] - coords[here][i]) % p for i in range(3)]
        ranks.append(_rank_mod(m, p))
    return len(interior) - max(ranks)


def _rank_mod(m, p):
    """Rank of the int64 matrix ``m`` (entries in ``[0, p)``) over the
    integers modulo the prime ``p``, by row reduction of ``m`` in place;
    products of two entries stay below 2**62."""
    rank = 0
    for c in range(m.shape[1]):
        rows = rank + np.flatnonzero(m[rank:, c])
        if not rows.size:
            continue
        m[[rank, rows[0]]] = m[[rows[0], rank]]
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), p - 2, p) % p
        rows = rows[1:]
        m[rows, c:] = (m[rows, c:] - np.outer(m[rows, c], m[rank, c:])) % p
        rank += 1
    return rank
