"""Generic cellular cosheaf machinery.

A cosheaf assigns a vector-space stalk to every cell of a surface and a
linear extension map to every incidence, functorial under composition.
Extension maps times incidence signs are its boundaries, so a
:class:`Cosheaf` is its own chain complex.
:func:`glued_cycles` finds ``ker d1`` from the stars of the vertices,
glued patch by patch; the package runs it only on the hinge model.
A cosheaf map is a stalk-wise family of matrices commuting with the
extension maps.  Three generic routines are references that the tests
compare with, and the package runs none of them: :func:`homology_basis`,
one SVD of a whole complex; :func:`verify_exact_sequence`, which
certifies a short exact sequence of cosheaf maps cell by cell, where
the package certifies its own from the edge triads
(``maps.build_exact_sequence``); and :func:`connecting_map`, the usual
lift / boundary / restrict recipe, where the package reads its
connecting map off the tree lifts (``maps.ExactSequence``).

Layout.  A cosheaf has one stalk size per cell dimension and a support
mask per dimension: supported cells carry a stalk of that size, the
others the zero stalk.  Extension maps are stored as one stack per
incidence kind (``ev``, ``fe``, ``fv``), parallel to the surface's
incidence arrays, and the components of a cosheaf map as one stack per
cell dimension; entries that touch an unsupported cell are zero.  The
chain space of a dimension lists the stalks of its supported cells in
index order, the package's layout for every chain (six entries per face
on the spatial model); :meth:`Cosheaf.restrict` picks the stalks over
given cells.  The models mask only constraint cells: every face carries
its stalk.

Residual policy.  A check compares a matrix product with the value it
should equal.  Its residual is the largest entry of the difference,
divided by the larger of two magnitudes: the largest entry the product
can reach (the product of its factors' largest entries) and the largest
entry of the other side.  Residuals are then dimensionless, so a uniform
scaling of the surface changes no verdict.  The functoriality and
naturality checks and the two gates of :func:`connecting_map` follow it.
Each check has one fixed bound, defined together below:
:data:`FUNCTORIALITY_TOL`, :data:`NATURALITY_TOL`, :data:`COMPLEX_TOL`
for ``d1 @ d2``, for the cycles of :func:`cycle_residuals` and for the
glued cycles and their orthonormality in :func:`glued_cycles`,
:data:`EXACTNESS_TOL` for the stalk-wise exactness residuals and the
triad certificate, and :data:`LIFT_TOL` for the lift and pull-back
gates of the connecting map.  Rank decisions use ``linalg.RANK_TOL``; no function
here takes a tolerance argument.

Homology spaces are represented by harmonic bases: plain arrays whose
orthonormal columns span ``ker(boundary)`` intersected with the
orthogonal complement of the incoming image.  A class's coordinates are
``basis.T @ chain`` and its cycle ``basis @ coords``.

Boundaries and cosheaf maps stay blocks.  A :class:`Cosheaf` keeps
one signed block per incidence and applies its boundaries from them
(:class:`IncidenceMap`); a :class:`CosheafMap` applies one block per
cell.  The library forms no dense boundary; only the references do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ExactnessViolation,
    FunctorialityViolation,
    LiftFailure,
    NaturalityViolation,
    ShapeMismatch,
)
from .linalg import (
    nullspace,
    pseudoinverse,
    stacked_svd,
    subspace_residual,
)
from .surface import INCIDENCE_DIMS, OrigamiSurface

FUNCTORIALITY_TOL = 1e-12
NATURALITY_TOL = 1e-12
COMPLEX_TOL = 1e-11
EXACTNESS_TOL = 1e-9
LIFT_TOL = 1e-6


def _magnitude(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _relative_gap(left, right, bound, axis=None):
    """Residual of ``left`` against ``right`` under the module's policy;
    ``bound`` is the largest entry the product ``left`` can reach.  With
    ``axis=0``, one residual per column."""
    scale = np.maximum(bound, np.abs(right).max(axis=axis, initial=0.0))
    gap = np.abs(left - right).max(axis=axis, initial=0.0)
    return gap / np.where(scale > 0, scale, 1.0)


def _stack(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` broadcast to a stack of matrices; a single matrix stands
    for every entry."""
    value = np.asarray(value, dtype=float)
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ShapeMismatch(
            f"{what} have shape {value.shape}, want {shape}") from None


def _scatter(shape: tuple, rows: np.ndarray, cols: np.ndarray,
             blocks: np.ndarray) -> np.ndarray:
    """Dense matrix holding ``blocks[i]`` at rows ``rows[i]`` and columns
    ``cols[i]``; the blocks do not overlap."""
    m = np.zeros(shape)
    m[rows[:, :, None], cols[:, None, :]] += blocks
    return m


@dataclass
class Cosheaf:
    """A cosheaf and its chain complex: stalks, extensions, boundaries.

    ``stalk_sizes[d]`` is the stalk dimension on the supported cells of
    dimension ``d``, and ``support[d]`` a bool mask over those cells
    (``True`` for all of them).  ``extensions[kind]`` stacks one
    ``(lower size, upper size)`` matrix per incidence of that kind, in
    the surface's order; one matrix stands for all incidences, and a
    missing kind for zeros.  Extensions touching an unsupported cell are
    set to zero.  ``blocks`` stacks the incidence sign times the ``ev``
    and ``fe`` extensions: the blocks of ``d1`` (edge chains to vertex
    chains) and ``d2`` (face chains to edge chains), which :meth:`apply`
    applies.  The dense ``d1`` and ``d2`` are formed on first read and
    kept; only the references (:func:`homology_basis`, the tests) read
    them.
    """

    surface: OrigamiSurface
    stalk_sizes: tuple[int, int, int]
    support: tuple = (True, True, True)
    extensions: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        surface = self.surface
        self.support = tuple(
            np.broadcast_to(np.asarray(mask, dtype=bool), (surface.num_cells(d),))
            for d, mask in enumerate(self.support))
        exts = {}
        for kind, (up, lo) in INCIDENCE_DIMS.items():
            inc = surface.incidences[kind]
            shape = (len(inc.upper), self.stalk_sizes[lo], self.stalk_sizes[up])
            live = self.support[up][inc.upper] & self.support[lo][inc.lower]
            exts[kind] = np.where(
                live[:, None, None],
                _stack(self.extensions.get(kind, 0.0), shape, f"{kind} extensions"),
                0.0)
        self.extensions = exts
        # Rank of every cell among the supported cells of its dimension.
        self._rank = tuple(np.cumsum(mask) - 1 for mask in self.support)
        self._maps = {}

    def dim(self, degree: int) -> int:
        return self.stalk_sizes[degree] * int(np.count_nonzero(self.support[degree]))

    def _coordinates(self, dim: int, cells) -> np.ndarray:
        """Chain-space coordinates of the stalks over supported ``cells``
        of dimension ``dim``, one row per cell; a cell outside the
        support has no stalk and raises :class:`ShapeMismatch`."""
        n = self.stalk_sizes[dim]
        cells = np.asarray(cells, dtype=int)
        if not self.support[dim][cells].all():
            raise ShapeMismatch(f"no stalk over unsupported cells of dimension {dim}")
        return self._rank[dim][cells][:, None] * n + np.arange(n)

    def restrict(self, dim: int, chains: np.ndarray, cells) -> np.ndarray:
        """Rows of ``chains`` (chains of dimension ``dim``, one per
        column) that hold the stalks over supported ``cells``, cell by
        cell in the given order."""
        return chains[self._coordinates(dim, cells).ravel()]

    def functoriality_residual(self) -> float:
        """Relative mismatch of composed against direct extension maps
        over every vertex < edge < face chain."""
        triples = self.surface.incidence_triples
        ev, fe, fv = (self.extensions[kind][triples[:, i]]
                      for i, kind in enumerate(INCIDENCE_DIMS))
        return float(_relative_gap(ev @ fe, fv, _magnitude(ev) * _magnitude(fe)))

    @cached_property
    def blocks(self) -> dict[str, np.ndarray]:
        return {kind: self.surface.incidences[kind].sign[:, None, None]
                * self.extensions[kind] for kind in ("ev", "fe")}

    def _map(self, degree: int) -> IncidenceMap:
        if degree not in self._maps:
            kind = ("ev", "fe")[degree - 1]
            self._maps[degree] = IncidenceMap(kind, self.blocks[kind], self, self)
        return self._maps[degree]

    def apply(self, degree: int, chains) -> np.ndarray:
        """Boundary of ``chains`` (degree 1 or 2): one chain, or one per
        column."""
        return self._map(degree).apply(chains)

    @cached_property
    def d1(self) -> np.ndarray:
        return self._map(1).dense()

    @cached_property
    def d2(self) -> np.ndarray:
        return self._map(2).dense()

    def boundary(self, degree: int) -> np.ndarray:
        """The dense ``d1`` or ``d2``."""
        return getattr(self, f"d{degree}")

    def square_residual(self) -> float:
        """Relative magnitude of ``d1 @ d2``, read off the blocks over the
        surface's vertex < edge < face triples.

        Nothing sits outside a block, so every nonzero of the product
        sits at a vertex of a face, and its block there is the sum, over
        the triples through that face-vertex incidence, of the edge's two
        blocks multiplied: that is the whole product.  The scale is the
        largest block entry, or 1.0 if that is larger.
        """
        b1, b2 = self.blocks["ev"], self.blocks["fe"]
        ev, fe, fv = self.surface.incidence_triples.T
        product = np.zeros((len(self.surface.incidences["fv"].upper),
                            b1.shape[1], b2.shape[2]))
        np.add.at(product, fv, b1[ev] @ b2[fe])
        return _magnitude(product) / max(_magnitude(b1), _magnitude(b2), 1.0)


def constant_cosheaf(surface: OrigamiSurface, dim: int,
                     support: tuple = (True, True, True)) -> Cosheaf:
    """Cosheaf with the same stalk ``R^dim`` on every cell and identity
    extensions.  ``support`` optionally restricts the nonzero stalks."""
    eye = np.eye(dim)
    return Cosheaf(surface, (dim, dim, dim), support,
                   {kind: eye for kind in INCIDENCE_DIMS})


def _live_coordinates(kind: str, lower: Cosheaf, upper: Cosheaf):
    """The incidences of ``kind`` whose cells both carry a stalk, as a
    bool mask, with the row coordinates (in ``lower``) and column
    coordinates (in ``upper``) of their blocks."""
    up, lo = INCIDENCE_DIMS[kind]
    inc = upper.surface.incidences[kind]
    live = upper.support[up][inc.upper] & lower.support[lo][inc.lower]
    return (live, lower._coordinates(lo, inc.lower[live]),
            upper._coordinates(up, inc.upper[live]))


class IncidenceMap:
    """The map from the chains of ``upper`` to those of ``lower`` with
    ``blocks[i]`` at incidence ``i`` of ``kind``, kept as its blocks.

    Columns are the chains of ``upper`` in the kind's upper dimension,
    rows the chains of ``lower`` in its lower dimension; incidences
    touching a cell outside either support are left out.
    :meth:`apply` multiplies by the map without forming it, and
    :meth:`dense` forms it.
    """

    def __init__(self, kind: str, blocks: np.ndarray, lower: Cosheaf, upper: Cosheaf):
        up, lo = INCIDENCE_DIMS[kind]
        live, self.rows, self.cols = _live_coordinates(kind, lower, upper)
        self.blocks = blocks[live]
        self.shape = (lower.dim(lo), upper.dim(up))

    def dense(self) -> np.ndarray:
        return _scatter(self.shape, self.rows, self.cols, self.blocks)

    @cached_property
    def _entries(self):
        """Row, column and value of every nonzero block entry, flat."""
        nonzero = self.blocks != 0
        shape = self.blocks.shape
        return (np.broadcast_to(self.rows[:, :, None], shape)[nonzero],
                np.broadcast_to(self.cols[:, None, :], shape)[nonzero],
                self.blocks[nonzero])

    @cached_property
    def _by_lower_cell(self):
        """Blocks and their column coordinates sorted by lower cell, the
        start of each cell's run, and the row coordinates of each run."""
        order = np.argsort(self.rows[:, 0], kind="stable")
        rows = self.rows[order]
        starts = np.flatnonzero(np.r_[True, rows[1:, 0] != rows[:-1, 0]])
        return self.blocks[order], self.cols[order], starts, rows[starts]

    def apply(self, chains) -> np.ndarray:
        """The map times ``chains``: one chain, or one per column.

        One chain is a weighted count over the nonzero entries; a column
        block takes one product per block and sums each lower cell's run."""
        chains = np.asarray(chains, dtype=float)
        if len(chains) != self.shape[1]:
            raise ShapeMismatch(f"chains have {len(chains)} rows, want {self.shape[1]}")
        if chains.ndim == 1:
            rows, cols, values = self._entries
            return np.bincount(rows, values * chains[cols], minlength=self.shape[0])
        out = np.zeros((self.shape[0],) + chains.shape[1:])
        if len(self.blocks) and out.size:
            blocks, cols, starts, rows = self._by_lower_cell
            out[rows] = np.add.reduceat(blocks @ chains[cols], starts, axis=0)
        return out


def assemble_chain_complex(cosheaf: Cosheaf) -> Cosheaf:
    """``cosheaf``, checked to be a chain complex: raises
    :class:`FunctorialityViolation` when composed extensions disagree
    with the direct ones.  Its boundary blocks are formed on first
    apply."""
    residual = cosheaf.functoriality_residual()
    if residual > FUNCTORIALITY_TOL:
        raise FunctorialityViolation(
            f"worst relative composition residual {residual:.3e}")
    return cosheaf


def cycle_residuals(cosheaf: Cosheaf, chains: np.ndarray) -> np.ndarray:
    """Relative residual of ``d2 @ chains``, one per column of face
    chains, under the module's policy (the largest entry of ``d2`` is
    its largest block entry): zero exactly on cycles."""
    return _boundary_residuals(cosheaf, 2, chains)


def _boundary_residuals(cosheaf: Cosheaf, degree: int, chains: np.ndarray) -> np.ndarray:
    image = cosheaf.apply(degree, chains)
    column = np.abs(chains).max(axis=0, initial=0.0)
    return _relative_gap(image, np.zeros_like(image),
                         _magnitude(cosheaf.blocks[("ev", "fe")[degree - 1]]) * column, axis=0)


# Patches of at most this many vertices are decomposed whole.  Chosen by
# timing: see :func:`glued_cycles`.
LEAF_VERTICES = 40


class _VertexStars:
    """The live ``d1`` blocks of a complex grouped by vertex, and the
    graph of vertices joined by edges with two live ends.  Vertices and
    edges are numbered by their rank among the supported ones."""

    def __init__(self, cosheaf: Cosheaf):
        incidences = cosheaf._map(1)
        self.vertex_size, self.edge_size = cosheaf.stalk_sizes[:2]
        self.vertex = incidences.rows[:, 0] // self.vertex_size
        self.edge = incidences.cols[:, 0] // self.edge_size
        self.blocks = incidences.blocks
        self.num_vertices = cosheaf.dim(0) // self.vertex_size

    @cached_property
    def neighbours(self) -> list[list[int]]:
        by_edge = np.argsort(self.edge, kind="stable")
        twice = np.flatnonzero(self.edge[by_edge][1:] == self.edge[by_edge][:-1])
        neighbours = [[] for _ in range(self.num_vertices)]
        for u, v in zip(self.vertex[by_edge[twice]].tolist(),
                        self.vertex[by_edge[twice + 1]].tolist()):
            neighbours[u].append(v)
            neighbours[v].append(u)
        return neighbours

    def coordinates(self, edges: np.ndarray) -> np.ndarray:
        return (edges[:, None] * self.edge_size + np.arange(self.edge_size)).ravel()

    def leaf(self, patch: np.ndarray):
        """The edges of the stars of ``patch`` (sorted vertex ranks) and
        an orthonormal basis of their chains with no boundary at the
        patch's vertices: the kernel of the patch's own block."""
        inside = np.zeros(self.num_vertices, dtype=bool)
        inside[patch] = True
        live = np.flatnonzero(inside[self.vertex])
        edges, col = np.unique(self.edge[live], return_inverse=True)
        block = np.zeros((len(patch), self.vertex_size, len(edges), self.edge_size))
        block[np.searchsorted(patch, self.vertex[live]), :, col] = self.blocks[live]
        return edges, nullspace(block.reshape(len(patch) * self.vertex_size, -1))

    def glue(self, one, two):
        """The patch of two disjoint patches ``(edges, basis)``: chains
        whose restrictions are combinations ``K1 c1`` and ``K2 c2`` of
        the two bases that agree on the shared edges, so ``(c1, c2)``
        spans the kernel of ``[K1[shared], -K2[shared]]``, then one thin
        QR.  The bases are orthonormal, so that kernel's cutoff is
        anchored at 1."""
        (e1, k1), (e2, k2) = one, two
        edges = np.union1d(e1, e2)
        _, s1, s2 = np.intersect1d(e1, e2, assume_unique=True, return_indices=True)
        n = nullspace(np.hstack([k1[self.coordinates(s1)], -k2[self.coordinates(s2)]]),
                      scale=1.0)
        glued = np.zeros((len(edges) * self.edge_size, n.shape[1]))
        glued[self.coordinates(np.searchsorted(edges, e2))] = k2 @ n[k1.shape[1]:]
        glued[self.coordinates(np.searchsorted(edges, e1))] = k1 @ n[:k1.shape[1]]
        return edges, np.linalg.qr(glued)[0]

    def halves(self, patch: np.ndarray):
        """``patch`` cut in two by breadth-first levels of its own graph.

        The walk starts from the lowest vertex, then again from the
        lowest vertex of the level it reached last (a vertex near the
        rim); a component it cannot reach starts afresh at its lowest
        vertex.  The cut falls at the level boundary nearest half the
        patch."""
        inside = set(patch.tolist())
        first = self._levels(inside, int(patch[0]))
        levels = self._levels(inside, min(first[-1]))
        seen = {v for level in levels for v in level}
        for v in patch.tolist():
            if v not in seen:
                more = self._levels(inside, v)
                seen.update(u for level in more for u in level)
                levels += more
        ends = np.cumsum([len(level) for level in levels])
        ends = ends[ends < len(patch)]
        cut = int(ends[np.argmin(np.abs(2 * ends - len(patch)))])
        order = np.array([v for level in levels for v in level])
        return np.sort(order[:cut]), np.sort(order[cut:])

    def _levels(self, inside: set, start: int) -> list[list[int]]:
        """Breadth-first levels from ``start`` over the vertices in ``inside``."""
        seen, frontier, levels = {start}, [start], []
        while frontier:
            levels.append(frontier)
            reached = []
            for v in frontier:
                for w in self.neighbours[v]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        reached.append(w)
            frontier = reached
        return levels

    def kernel(self, patch: np.ndarray):
        if len(patch) <= LEAF_VERTICES:
            return self.leaf(patch)
        return self.glue(*map(self.kernel, self.halves(patch)))


def glued_cycles(cosheaf: Cosheaf) -> np.ndarray:
    """Orthonormal basis of ``ker d1``, glued from the stars of the
    vertices without forming ``d1``.

    A patch is a set of vertices; its chains are those on the edges at
    its vertices, and its kernel the chains with no boundary there.  The
    vertices are halved by breadth-first levels of their graph (nested
    dissection, George 1973), recursively, down to patches of at most
    :data:`LEAF_VERTICES`, each decomposed whole; two halves are glued
    by a Mayer-Vietoris step over their shared edges
    (:meth:`_VertexStars.glue`).  The split is combinatorial, so rigid
    motions and scaling cannot change it.  Edges with no supported end
    are free columns.  A complex with at most :data:`LEAF_VERTICES`
    vertices is one patch.  The leaf size was chosen by timing with one
    BLAS thread: 40 was the fastest on ``grid 12 12`` among 8 to 64 (6.8
    ms, against 20 ms for one SVD of the whole ``d1``), and a sheet of
    up to 40 interior vertices takes one SVD of its whole block.

    The basis is certified: its relative ``d1`` residual (policy above)
    must be within :data:`COMPLEX_TOL` and ``basis.T @ basis`` within
    :data:`COMPLEX_TOL` of the identity; either failure raises
    :class:`ExactnessViolation`.
    """
    dim = cosheaf.dim(1)
    if not cosheaf.dim(0) or not dim:
        return np.eye(dim)
    stars = _VertexStars(cosheaf)
    edges, k = stars.kernel(np.arange(stars.num_vertices))
    free = np.ones(dim // stars.edge_size, dtype=bool)
    free[edges] = False
    free = np.flatnonzero(free)
    basis = np.zeros((dim, k.shape[1] + len(free) * stars.edge_size))
    basis[stars.coordinates(edges), :k.shape[1]] = k
    basis[stars.coordinates(free), k.shape[1]:] = np.eye(len(free) * stars.edge_size)
    residuals = _boundary_residuals(cosheaf, 1, basis)
    if residuals.max(initial=0.0) > COMPLEX_TOL:
        worst = int(np.argmax(residuals))
        raise ExactnessViolation(f"glued column {worst} is not a cycle "
                                 f"(relative residual {residuals[worst]:.3e})")
    gap = _magnitude(basis.T @ basis - np.eye(basis.shape[1]))
    if gap > COMPLEX_TOL:
        raise ExactnessViolation(f"glued basis is not orthonormal ({gap:.3e})")
    return basis


def homology_basis(cosheaf: Cosheaf, degree: int) -> np.ndarray:
    """Harmonic orthonormal basis of homology in one degree.

    The basis spans ``ker(boundary_degree)`` intersected with the
    orthogonal complement of ``im(boundary_{degree+1})``, which equals
    the joint kernel of the outgoing boundary map and the transpose of
    the incoming one; a single decomposition of the stacked operator
    yields it.  Degree 2 is simply the kernel of the face boundary map.
    """
    if degree >= 2:
        return nullspace(cosheaf.d2)
    if degree == 1:
        return nullspace(np.vstack([cosheaf.d1, cosheaf.d2.T]))
    return nullspace(cosheaf.d1.T)


@dataclass
class CosheafMap:
    """Stalk-wise linear map between two cosheaves over one surface.

    ``components[d]`` stacks one ``(target size, source size)`` matrix
    per cell of dimension ``d``; one matrix stands for every cell.
    Components at cells outside the support of either cosheaf are set to
    zero, and a stack of the wrong shape raises :class:`ShapeMismatch`.
    Components must satisfy naturality: mapping then extending equals
    extending then mapping, on every incidence; :meth:`validate` holds
    the residual to :data:`NATURALITY_TOL`.
    """

    source: Cosheaf
    target: Cosheaf
    components: tuple

    def __post_init__(self):
        comps, live = [], []
        for d, comp in enumerate(self.components):
            cells = self.source.support[d] & self.target.support[d]
            shape = (len(cells), self.target.stalk_sizes[d],
                     self.source.stalk_sizes[d])
            comps.append(np.where(
                cells[:, None, None],
                _stack(comp, shape, f"dimension-{d} components"), 0.0))
            live.append(np.flatnonzero(cells))
        self.components = tuple(comps)
        self._live = tuple(live)

    def naturality_residual(self) -> float:
        """Worst relative mismatch, over the three incidence kinds, of
        mapping then extending against extending then mapping."""
        worst = 0.0
        for kind, (up, lo) in INCIDENCE_DIMS.items():
            inc = self.source.surface.incidences[kind]
            lower = self.components[lo][inc.lower]
            upper = self.components[up][inc.upper]
            src = self.source.extensions[kind]
            tgt = self.target.extensions[kind]
            bound = max(_magnitude(lower) * _magnitude(src),
                        _magnitude(tgt) * _magnitude(upper))
            worst = max(worst, float(_relative_gap(lower @ src, tgt @ upper, bound)))
        return worst

    def validate(self):
        residual = self.naturality_residual()
        if residual > NATURALITY_TOL:
            raise NaturalityViolation(f"naturality residual {residual:.3e}")
        return self

    def apply(self, degree: int, chains) -> np.ndarray:
        """:meth:`block_matrix` times ``chains`` (one chain, or one per
        column), one block product per cell."""
        chains = np.asarray(chains, dtype=float)
        if len(chains) != self.source.dim(degree):
            raise ShapeMismatch(f"chains have {len(chains)} rows, "
                                f"want {self.source.dim(degree)}")
        cells = self._live[degree]
        columns = chains.reshape(len(chains), int(np.prod(chains.shape[1:])))
        out = np.zeros((self.target.dim(degree), columns.shape[1]))
        out[self.target._coordinates(degree, cells)] = (
            self.components[degree][cells]
            @ columns[self.source._coordinates(degree, cells)])
        return out.reshape(out.shape[:1] + chains.shape[1:])

    def block_matrix(self, degree: int) -> np.ndarray:
        """Map between chain spaces in one degree (block diagonal)."""
        cells = self._live[degree]
        return _scatter(
            (self.target.dim(degree), self.source.dim(degree)),
            self.target._coordinates(degree, cells),
            self.source._coordinates(degree, cells),
            self.components[degree][cells])

    def block_pseudoinverse(self, degree: int) -> np.ndarray:
        """Pseudoinverse of :meth:`block_matrix`.

        The chain map is block diagonal, so the pseudoinverse is the
        assembly of per-cell pseudoinverses, taken as one stack; this
        avoids decomposing one large dense matrix.
        """
        cells = self._live[degree]
        return _scatter(
            (self.source.dim(degree), self.target.dim(degree)),
            self.source._coordinates(degree, cells),
            self.target._coordinates(degree, cells),
            pseudoinverse(self.components[degree][cells]))


def verify_exact_sequence(iota: CosheafMap, pi: CosheafMap) -> float:
    """Certify stalk-wise exactness of ``0 -> F -> G -> Q -> 0`` and
    return the worst residual.

    Per cell: the first map is injective, the second surjective, their
    composition vanishes, and the image of the first equals the kernel
    of the second (as subspaces, compared by projector distance).  A
    cell's residual is the larger of the last two.  Cells with zero
    stalks in all three cosheaves are skipped.  Each map is decomposed
    once per cell dimension, as one stack.  A cell that fails a rank or
    has a residual above :data:`EXACTNESS_TOL` raises
    :class:`ExactnessViolation`, naming the failing cell (``(dimension,
    index)``) with the largest residual.
    """
    if iota.target is not pi.source:
        raise ShapeMismatch("maps do not share the middle cosheaf")
    cells, residuals, failed = [], [], []
    for dim in (0, 1, 2):
        df, dg, dq = (c.stalk_sizes[dim] * c.support[dim]
                      for c in (iota.source, iota.target, pi.target))
        live = np.flatnonzero(df + dg + dq)
        a = iota.components[dim][live]
        b = pi.components[dim][live]
        u_a, keep_a, _ = stacked_svd(a)
        _, keep_b, vh_b = stacked_svd(b)
        rank_b = keep_b.sum(axis=-1)
        image = u_a[..., :keep_a.shape[-1]] * keep_a[:, None, :]
        # Rows of vh past the rank span the kernel, inside G's stalk only.
        in_kernel = ((np.arange(vh_b.shape[-1]) >= rank_b[:, None])
                     & (dg[live, None] > 0))
        kernel = np.swapaxes(vh_b, -1, -2) * in_kernel[:, None, :]
        residual = np.maximum(np.abs(b @ a).max(axis=(1, 2), initial=0.0),
                              subspace_residual(image, kernel))
        cells.append(np.column_stack([np.full(len(live), dim), live]))
        residuals.append(residual)
        failed.append((keep_a.sum(axis=-1) != df[live]) | (rank_b != dq[live])
                      | (residual > EXACTNESS_TOL))
    residuals, bad = np.concatenate(residuals), np.flatnonzero(np.concatenate(failed))
    if bad.size:
        worst = bad[np.argmax(residuals[bad])]
        d, i = np.concatenate(cells)[worst]
        raise ExactnessViolation(f"sequence fails at cell {(int(d), int(i))}: "
                                 f"residual {residuals[worst]:.3e}")
    return float(residuals.max(initial=0.0))


def induced_map(phi: CosheafMap, degree: int, source_basis: np.ndarray,
                target_basis: np.ndarray) -> np.ndarray:
    """Matrix of the map induced on homology, in harmonic bases.

    Harmonic target bases are orthogonal to the incoming image, so the
    class of a mapped cycle is read off by plain projection.
    """
    return target_basis.T @ phi.apply(degree, source_basis)


def connecting_map(iota: CosheafMap, pi: CosheafMap, degree: int,
                   source_basis: np.ndarray, target_basis: np.ndarray,
                   lift_offsets: np.ndarray | None = None) -> np.ndarray:
    """Connecting homomorphism of a short exact sequence of cosheaves.

    All cycles of ``source_basis`` (quotient homology in ``degree``) at
    once: lift through ``pi`` by least squares, apply the boundary map
    of the middle cosheaf (``pi.source``), pull back through ``iota``, and project onto
    ``target_basis`` (harmonic sub-cosheaf homology one degree down).
    The result does not depend on the choice of lift; ``lift_offsets``
    (columns added to the lifts, one per basis cycle) exists to let
    tests exercise that.  A lift or pull-back that misses by more than
    :data:`LIFT_TOL` names the first basis cycle it fails on.
    """
    pi_block = pi.block_matrix(degree)
    iota_block = iota.block_matrix(degree - 1)
    boundary = pi.source.boundary(degree)
    cycles = source_basis

    def column_size(m):
        return np.abs(m).max(axis=0, initial=0.0)

    lifts = pi.block_pseudoinverse(degree) @ cycles
    if lift_offsets is not None:
        lifts = lifts + lift_offsets
    gaps = _relative_gap(pi_block @ lifts, cycles,
                         _magnitude(pi_block) * column_size(lifts), axis=0)
    bad = np.flatnonzero(gaps > LIFT_TOL)
    if bad.size:
        raise LiftFailure(
            f"cycle {bad[0]} not in the image of the quotient map")
    dlifts = boundary @ lifts
    pulled = iota.block_pseudoinverse(degree - 1) @ dlifts
    bound = np.maximum(_magnitude(iota_block) * column_size(pulled),
                       _magnitude(boundary) * column_size(lifts))
    gaps = _relative_gap(iota_block @ pulled, dlifts, bound, axis=0)
    bad = np.flatnonzero(gaps > LIFT_TOL)
    if bad.size:
        raise ExactnessViolation(
            f"boundary of lifted cycle {bad[0]} is not in the sub-cosheaf image")
    return target_basis.T @ pulled
