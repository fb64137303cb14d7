"""Generic cellular cosheaf machinery.

A cosheaf assigns a vector-space stalk to every cell of a surface and a
linear extension map to every incidence, functorial under composition.
Extension maps assemble with incidence signs into boundary matrices; the
resulting chain complex has numerical homology computed by SVD.  A
cosheaf map is a stalk-wise family of matrices commuting with the
extension maps; short exact sequences of such maps carry a connecting
homomorphism between homology spaces, evaluated here by the usual
lift / boundary / restrict recipe.

Layout.  A cosheaf has one stalk size per cell dimension and a support
mask per dimension: supported cells carry a stalk of that size, the
others the zero stalk.  Extension maps are stored as one stack per
incidence kind (``ev``, ``fe``, ``fv``), parallel to the surface's
incidence arrays, and the components of a cosheaf map as one stack per
cell dimension; entries that touch an unsupported cell are zero.  The
chain space of a dimension lists the stalks of its supported cells in
index order.  Only this module knows that order; other modules reach
chains through :meth:`Cosheaf.restrict`, :func:`scatter_incidences`
and the assembled matrices.

Residual policy.  A check compares a matrix product with the value it
should equal.  Its residual is the largest entry of the difference,
divided by the larger of two magnitudes: the largest entry the product
can reach (the product of its factors' largest entries) and the largest
entry of the other side.  Residuals are then dimensionless, so a uniform
scaling of the surface changes no verdict.  The functoriality and
naturality checks and the two gates of :func:`connecting_map` follow it.
Each check has one fixed bound, defined together below:
:data:`FUNCTORIALITY_TOL`, :data:`NATURALITY_TOL`, :data:`COMPLEX_TOL`
for ``d1 @ d2``, :data:`EXACTNESS_TOL` for the stalk-wise exactness
residuals, and :data:`LIFT_TOL` for the lift and pull-back gates of the
connecting map.  Rank decisions use ``linalg.RANK_TOL``; no function
here takes a tolerance argument.

Homology spaces are represented by harmonic bases: plain arrays whose
orthonormal columns span ``ker(boundary)`` intersected with the
orthogonal complement of the incoming image.  A class's coordinates are
``basis.T @ chain`` and its cycle ``basis @ coords``.  All matrices are
dense; meshes of interest are small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .surface import INCIDENCE_DIMS, Cell, OrigamiSurface

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
    """Stalk sizes, supports and stacked extension maps.

    ``stalk_sizes[d]`` is the stalk dimension on the supported cells of
    dimension ``d``, and ``support[d]`` a bool mask over those cells
    (``True`` for all of them).  ``extensions[kind]`` stacks one
    ``(lower size, upper size)`` matrix per incidence of that kind, in
    the surface's order; one matrix stands for all incidences, and a
    missing kind for zeros.  Extensions touching an unsupported cell are
    set to zero.
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

    def chain_dim(self, dim: int) -> int:
        return self.stalk_sizes[dim] * int(np.count_nonzero(self.support[dim]))

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

    def pinned(self, dim: int, cells) -> Cosheaf:
        """Copy with the stalks over ``cells`` of dimension ``dim`` forced
        to zero, so their blocks leave every assembled matrix.  Used to
        fix a face of a chain in space."""
        support = list(self.support)
        support[dim] = support[dim].copy()
        support[dim][cells] = False
        return Cosheaf(self.surface, self.stalk_sizes, tuple(support),
                       self.extensions)

    def functoriality_residual(self) -> float:
        """Relative mismatch of composed against direct extension maps
        over every vertex < edge < face chain."""
        triples = self.surface.incidence_triples
        ev, fe, fv = (self.extensions[kind][triples[:, i]]
                      for i, kind in enumerate(INCIDENCE_DIMS))
        return float(_relative_gap(ev @ fe, fv, _magnitude(ev) * _magnitude(fe)))


def constant_cosheaf(surface: OrigamiSurface, dim: int,
                     support: tuple = (True, True, True)) -> Cosheaf:
    """Cosheaf with the same stalk ``R^dim`` on every cell and identity
    extensions.  ``support`` optionally restricts the nonzero stalks."""
    eye = np.eye(dim)
    return Cosheaf(surface, (dim, dim, dim), support,
                   {kind: eye for kind in INCIDENCE_DIMS})


def scatter_incidences(kind: str, blocks: np.ndarray, lower: Cosheaf,
                       upper: Cosheaf) -> np.ndarray:
    """Matrix with ``blocks[i]`` at incidence ``i`` of ``kind``.

    Columns are the chains of ``upper`` in the kind's upper dimension,
    rows the chains of ``lower`` in its lower dimension; incidences
    touching a cell outside either support are left out.
    """
    up, lo = INCIDENCE_DIMS[kind]
    inc = upper.surface.incidences[kind]
    live = upper.support[up][inc.upper] & lower.support[lo][inc.lower]
    return _scatter((lower.chain_dim(lo), upper.chain_dim(up)),
                    lower._coordinates(lo, inc.lower[live]),
                    upper._coordinates(up, inc.upper[live]), blocks[live])


@dataclass
class ChainComplex:
    """Assembled boundary matrices of a cosheaf.

    ``d1`` maps edge chains to vertex chains and ``d2`` maps face chains
    to edge chains; ``d1 @ d2`` vanishes to :data:`COMPLEX_TOL` relative.
    """

    cosheaf: Cosheaf
    d1: np.ndarray
    d2: np.ndarray

    def dim(self, degree: int) -> int:
        return self.cosheaf.chain_dim(degree)

    def boundary(self, degree: int) -> np.ndarray:
        if degree == 1:
            return self.d1
        if degree == 2:
            return self.d2
        return np.zeros((0, self.dim(0)))

    def pinned(self, dim: int, cells) -> ChainComplex:
        """Complex of the cosheaf pinned over ``cells`` of dimension
        ``dim`` (see :meth:`Cosheaf.pinned`)."""
        return assemble_chain_complex(self.cosheaf.pinned(dim, cells))

    def square_residual(self) -> float:
        """Relative magnitude of ``d1 @ d2``."""
        if self.d1.size == 0 or self.d2.size == 0:
            return 0.0
        prod = self.d1 @ self.d2
        scale = max(np.max(np.abs(self.d1)), np.max(np.abs(self.d2)), 1.0)
        return float(np.max(np.abs(prod))) / scale


def assemble_chain_complex(cosheaf: Cosheaf) -> ChainComplex:
    """Assemble signed block boundary matrices from a cosheaf.

    The block at incidence ``(upper, lower)`` is the surface incidence
    sign times the extension map.  Raises
    :class:`FunctorialityViolation` when composed extensions disagree
    with the direct ones.
    """
    residual = cosheaf.functoriality_residual()
    if residual > FUNCTORIALITY_TOL:
        raise FunctorialityViolation(
            f"worst relative composition residual {residual:.3e}")
    d1, d2 = (scatter_incidences(
        kind, cosheaf.surface.incidences[kind].sign[:, None, None]
        * cosheaf.extensions[kind], cosheaf, cosheaf) for kind in ("ev", "fe"))
    return ChainComplex(cosheaf=cosheaf, d1=d1, d2=d2)


def homology_basis(cc: ChainComplex, degree: int) -> np.ndarray:
    """Harmonic orthonormal basis of homology in one degree.

    The basis spans ``ker(boundary_degree)`` intersected with the
    orthogonal complement of ``im(boundary_{degree+1})``, which equals
    the joint kernel of the outgoing boundary map and the transpose of
    the incoming one; a single decomposition of the stacked operator
    yields it.  Degree 2 is simply the kernel of the face boundary map.
    """
    if degree >= 2:
        return nullspace(cc.d2)
    if degree == 1:
        return nullspace(np.vstack([cc.d1, cc.d2.T]))
    return nullspace(cc.d1.T)


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

    def block_matrix(self, degree: int) -> np.ndarray:
        """Map between chain spaces in one degree (block diagonal)."""
        cells = self._live[degree]
        return _scatter(
            (self.target.chain_dim(degree), self.source.chain_dim(degree)),
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
            (self.source.chain_dim(degree), self.target.chain_dim(degree)),
            self.source._coordinates(degree, cells),
            self.target._coordinates(degree, cells),
            pseudoinverse(self.components[degree][cells]))


@dataclass
class CellExactness:
    cell: Cell
    injective: bool
    surjective: bool
    composition_residual: float
    image_kernel_residual: float

    @property
    def ok(self) -> bool:
        return self.injective and self.surjective


@dataclass
class ExactnessReport:
    """Stalk-wise exactness, one array entry per checked cell.

    Cells are vertices, then edges, then faces, each in index order;
    ``cells`` holds ``(dimension, index)`` rows.  The arrays are the
    record; :attr:`entries` and :meth:`worst_cell` read
    :class:`CellExactness` views off them.
    """

    cells: np.ndarray
    injective: np.ndarray
    surjective: np.ndarray
    composition_residual: np.ndarray
    image_kernel_residual: np.ndarray

    def _entry(self, k: int) -> CellExactness:
        d, i = self.cells[k]
        return CellExactness((int(d), int(i)), bool(self.injective[k]),
                             bool(self.surjective[k]),
                             float(self.composition_residual[k]),
                             float(self.image_kernel_residual[k]))

    @property
    def entries(self) -> list[CellExactness]:
        return [self._entry(k) for k in range(len(self.cells))]

    def _residuals(self) -> np.ndarray:
        return np.maximum(self.composition_residual, self.image_kernel_residual)

    @property
    def ok(self) -> bool:
        return (bool(np.all(self.injective & self.surjective))
                and self.max_residual <= EXACTNESS_TOL)

    @property
    def max_residual(self) -> float:
        return float(np.max(self._residuals(), initial=0.0))

    def worst_cell(self) -> CellExactness | None:
        residuals = self._residuals()
        bad = np.flatnonzero(~(self.injective & self.surjective)
                             | (residuals > EXACTNESS_TOL))
        if not bad.size:
            return None
        return self._entry(bad[np.argmax(residuals[bad])])


def verify_exact_sequence(iota: CosheafMap, pi: CosheafMap) -> ExactnessReport:
    """Check stalk-wise exactness of ``0 -> F -> G -> Q -> 0``.

    Per cell: the first map is injective, the second surjective, their
    composition vanishes, and the image of the first equals the kernel
    of the second (as subspaces, compared by projector distance).  Cells
    with zero stalks in all three cosheaves are skipped.  Each map is
    decomposed once per cell dimension, as one stack.
    """
    if iota.target is not pi.source:
        raise ShapeMismatch("maps do not share the middle cosheaf")
    columns = []
    for dim in (0, 1, 2):
        df, dg, dq = (c.stalk_sizes[dim] * c.support[dim]
                      for c in (iota.source, iota.target, pi.target))
        cells = np.flatnonzero(df + dg + dq)
        a = iota.components[dim][cells]
        b = pi.components[dim][cells]
        u_a, keep_a, _ = stacked_svd(a)
        _, keep_b, vh_b = stacked_svd(b)
        rank_b = keep_b.sum(axis=-1)
        image = u_a[..., :keep_a.shape[-1]] * keep_a[:, None, :]
        # Rows of vh past the rank span the kernel, inside G's stalk only.
        in_kernel = ((np.arange(vh_b.shape[-1]) >= rank_b[:, None])
                     & (dg[cells, None] > 0))
        kernel = np.swapaxes(vh_b, -1, -2) * in_kernel[:, None, :]
        columns.append((
            np.column_stack([np.full(len(cells), dim), cells]),
            keep_a.sum(axis=-1) == df[cells],
            rank_b == dq[cells],
            np.abs(b @ a).max(axis=(1, 2), initial=0.0),
            subspace_residual(image, kernel)))
    return ExactnessReport(*(np.concatenate(col) for col in zip(*columns)))


def induced_map(phi: CosheafMap, degree: int, source_basis: np.ndarray,
                target_basis: np.ndarray) -> np.ndarray:
    """Matrix of the map induced on homology, in harmonic bases.

    Harmonic target bases are orthogonal to the incoming image, so the
    class of a mapped cycle is read off by plain projection.
    """
    return target_basis.T @ phi.block_matrix(degree) @ source_basis


def connecting_map(iota: CosheafMap, pi: CosheafMap, degree: int,
                   source_basis: np.ndarray, target_basis: np.ndarray,
                   middle_complex: ChainComplex,
                   lift_offsets: np.ndarray | None = None) -> np.ndarray:
    """Connecting homomorphism of a short exact sequence of cosheaves.

    All cycles of ``source_basis`` (quotient homology in ``degree``) at
    once: lift through ``pi`` by least squares, apply the boundary map
    of ``middle_complex``, pull back through ``iota``, and project onto
    ``target_basis`` (harmonic sub-cosheaf homology one degree down).
    The result does not depend on the choice of lift; ``lift_offsets``
    (columns added to the lifts, one per basis cycle) exists to let
    tests exercise that.  A lift or pull-back that misses by more than
    :data:`LIFT_TOL` names the first basis cycle it fails on.
    """
    pi_block = pi.block_matrix(degree)
    iota_block = iota.block_matrix(degree - 1)
    boundary = middle_complex.boundary(degree)
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
