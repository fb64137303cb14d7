"""Conversions between the hinge, spatial, and truss models.

The hinge, rigid-body, and spatial cosheaves fit into a short exact
sequence: hinge data embeds into full rigid-body data, and spatial data
is the quotient.  Its connecting homomorphism turns spatial solutions
into hinge solutions; the least-squares pseudoinverse goes the other
way, defined exactly on hinge solutions whose loop obstruction
vanishes.  A separate evaluation map turns spatial solutions into truss
solutions (vertex velocities) and a per-face rigid fit inverts it.

Spatial solutions are never found by decomposing the spatial boundary.
The exact sequence says what they are: the global motions plus the
lifts of the hinge classes that have no loop obstruction.  A lift turns
the faces along a spanning tree of the dual graph by the hinge rates.
The same fact fixes the connecting homomorphism on those solutions: it
is 0 on a global motion and ``n`` on the lift of the hinge class
``hinge_h1 @ n``, so it too is never computed by lifting a cycle.

Also here: the closed-form block operators of a serial chain (the
lower-triangular accumulation operator, its bidiagonal inverse, and the
hinge-to-body matrix with its left inverse).  They are an independent
reference: a chain is a dual tree with one path, so the tree lift with
the base face pinned must reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cosheaf import (
    COMPLEX_TOL,
    ChainComplex,
    Cosheaf,
    CosheafMap,
    ExactnessReport,
    IncidenceMap,
    assemble_chain_complex,
    constant_cosheaf,
    cycle_residuals,
    homology_basis,
    verify_exact_sequence,
)
from .errors import (
    ExactnessViolation,
    FoldkinError,
    InvalidParams,
    NonRigidMotion,
    NotACycle,
    WellDefinednessViolation,
)
from .linalg import nullspace, pseudoinverse, svd_rank
from .models import (
    StiffenedLinkage,
    build_hinge_model,
    build_rigid_model,
    build_spatial_model,
    constant_rigid_isomorphism,
    corner_velocities,
)
from .spatial import axis_projection, hinge_twist, point_velocity_blocks, transfer_matrix
from .surface import OrigamiSurface, _dual_forest, constant_homology

CYCLE_TOL = 1e-7
OBSTRUCTION_TOL = 1e-8
AGREEMENT_TOL = 1e-10
FIT_TOL = 1e-7


@dataclass
class ModelSolution:
    """A coefficient vector over one model's degree-of-freedom cells.

    hinge: one rate per interior edge (surface edge order);
    spatial: six values per face;
    truss: three values per vertex of the stiffened linkage.
    ``residual`` is the constraint residual of the owning model.
    """

    model: str
    coefficients: np.ndarray
    residual: float


@dataclass
class ConversionReport:
    """Outcome of a hinge -> spatial (-> truss) conversion."""

    input: ModelSolution
    obstruction: np.ndarray
    obstructed: bool
    spatial: ModelSolution | None = None
    truss: ModelSolution | None = None
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.obstructed


def _iota_map(hinge: Cosheaf, rigid: Cosheaf) -> CosheafMap:
    # An edge stalk holds a hinge rate; it enters as the hinge twist.  A
    # vertex stalk holds an angular velocity; it enters as [omega, 0].
    twists = hinge_twist(hinge.surface.edge_triads[:, 0])[:, :, None]
    return CosheafMap(source=hinge, target=rigid,
                      components=(np.eye(6, 3), twists, np.zeros((6, 0))))


def _pi_map(rigid: Cosheaf, spatial: Cosheaf) -> CosheafMap:
    # Vertices keep the velocity of the anchor point itself: zero lever
    # arm.  Edges forget rotation about the hinge axis.
    return CosheafMap(source=rigid, target=spatial,
                      components=(point_velocity_blocks(np.zeros(3)),
                                  axis_projection(rigid.surface.edge_triads),
                                  np.eye(6)))


@dataclass
class ExactSequence:
    """Verified hinge -> rigid -> spatial sequence with cached homology.

    ``hinge``, ``rigid`` and ``spatial`` are the models' chain
    complexes; each homology method returns an orthonormal basis array.
    Only the hinge complex is decomposed, and the support complex's
    degree 1 where it is nonzero.  Rigid homology is read off the
    support complex, the constant ``R^1`` complex on the rigid model's
    cells: the rigid cosheaf is six copies of it through
    :func:`models.constant_rigid_isomorphism`, which moves spatial
    velocities from the origin to cell centroids.  The support complex
    is an integer complex, so its homology is counted
    (:meth:`_support_h`).
    :meth:`rigid_h2` is a basis of rigid chains, but :meth:`rigid_h1`,
    like the rows of :meth:`loop_obstruction_matrix`, is in the
    origin-anchored constant frame.  Spatial homology is built from the
    other two (:meth:`spatial_h2`), and the connecting map
    (:meth:`spatial_to_hinge_matrix`) is the direct per-edge formula,
    certified by the value that construction fixes for it.  Every
    result, the connecting map's pseudoinverse
    (:meth:`hinge_to_spatial_matrix`) included, is computed on first use
    and kept, so a conversion after the first decomposes nothing.
    """

    surface: OrigamiSurface
    hinge: ChainComplex
    rigid: ChainComplex
    spatial: ChainComplex
    iota: CosheafMap
    pi: CosheafMap
    report: ExactnessReport
    _cache: dict = field(default_factory=dict)

    def hinge_h1(self) -> np.ndarray:
        return self._cached("hinge_h1",
                            lambda: homology_basis(self.hinge, 1))

    def spatial_h2(self) -> np.ndarray:
        """Spatial solutions: the thin QR of the global motions
        (:meth:`rigid_h2`; the quotient map is the identity on faces)
        next to the tree lifts of the unobstructed hinge classes.

        The sequence is verified exact at every cell, so its long exact
        sequence makes ``dim = dim rigid_h2 + dim ker(loop obstruction)``
        a theorem; nothing enters degree 1 of the hinge complex from
        above.  At run time the columns are certified to be spatial
        cycles (relative ``d2`` residual within :data:`COMPLEX_TOL`) and
        independent (full rank under ``linalg.RANK_TOL``); either failure
        raises :class:`ExactnessViolation` naming the worst column,
        counted from the global motions through the lifts.  Pinned faces
        stay fixed: they root the tree, and the pinned model has no
        global motion.
        """
        return self._cached("spatial_h2", lambda: self._lifts()[0])

    def _lifts(self):
        """``(basis, R, image)``: the orthonormal :meth:`spatial_h2`, the
        triangular factor ``R`` of the unit-scaled chains
        ``[rigid_h2 | lifts] / D``, and ``[0 | N] / D``, the value the
        exact sequence gives the connecting map on them.  ``N`` holds
        the lifted classes' coordinates in :meth:`hinge_h1` and ``D``
        the chains' column norms."""
        return self._cached("lifts", self._spatial_h2)

    def _spatial_h2(self):
        faces = self.spatial.cosheaf.support[2]
        h1 = self.hinge_h1()
        kernel = nullspace(self.loop_obstruction_matrix(), scale=1.0)
        classes = h1 @ kernel
        rates = np.zeros((self.surface.num_edges, classes.shape[1]))
        rates[self.hinge.cosheaf.support[1]] = classes
        lifts = _tree_lift(self.surface, ~faces, rates)[faces]
        chains = np.hstack([self.rigid_h2(),
                            lifts.reshape(self.spatial.dim(2), classes.shape[1])])
        residuals = cycle_residuals(self.spatial, chains)
        if residuals.max(initial=0.0) > COMPLEX_TOL:
            worst = int(np.argmax(residuals))
            raise ExactnessViolation(
                f"spatial basis column {worst} is not a cycle "
                f"(relative residual {residuals[worst]:.3e})")
        # Lifts grow with the coordinates and global motions do not; unit
        # columns keep the rank decision free of that scale.
        size = np.linalg.norm(chains, axis=0)
        size = np.where(size > 0, size, 1.0)
        basis, r = np.linalg.qr(chains / size)
        if svd_rank(r) < r.shape[1]:
            worst = int(np.argmin(np.abs(np.diag(r))))
            raise ExactnessViolation(
                f"spatial basis column {worst} depends on the others")
        # A global motion folds no hinge; the lift of ``hinge_h1 @ n``
        # folds them at the rates of class ``n``.
        image = np.hstack([np.zeros((len(kernel), self.rigid_h2().shape[1])),
                           kernel]) / size
        return basis, r, image

    def _support_h(self, degree: int) -> np.ndarray:
        """Harmonic basis of the support complex in degree 1 or 2."""
        z1, cycles = self._cached("support_h", self._support_homology)
        return z1 if degree == 1 else cycles / np.sqrt(cycles.sum(axis=0))

    def _support_homology(self):
        """``Z1`` of the support complex and its integer 2-cycles, from
        component counts (:func:`surface.constant_homology`).  The
        2-cycles are the 0/1 indicators of the free dual components,
        certified exactly: their integer boundary is 0.  Degree 1 is
        decomposed only when its counted dimension is nonzero, and must
        have that dimension; either failure raises
        :class:`ExactnessViolation`."""
        cells = self.rigid.cosheaf.support
        support = assemble_chain_complex(constant_cosheaf(self.surface, 1, support=cells))
        r1, r2, cycles = constant_homology(self.surface, cells)
        z2 = cycles[cells[2]]
        if np.any(support.apply(2, z2)):
            raise ExactnessViolation("a counted support 2-cycle has a boundary")
        n1 = support.dim(1) - r1 - r2
        z1 = homology_basis(support, 1) if n1 else np.zeros((support.dim(1), 0))
        if z1.shape[1] != n1:
            raise ExactnessViolation(
                f"support degree 1 has dimension {z1.shape[1]}, counted {n1}")
        return z1, z2

    def rigid_h1(self) -> np.ndarray:
        """Degree-1 rigid homology, ``kron(Z1, I6)`` for the support
        complex's harmonic basis ``Z1``: orthonormal and harmonic, shaped
        like rigid 1-chains, but in the origin-anchored constant frame."""
        return self._cached("rigid_h1",
                            lambda: np.kron(self._support_h(1), np.eye(6)))

    def rigid_h2(self) -> np.ndarray:
        """Degree-2 rigid homology: the constant classes ``kron(Z2, I6)``
        carried onto rigid chains by the isomorphism, then orthonormalised.
        Nothing enters degree 2, so this spans the face boundary's kernel.
        The 0/1 indicators stand for ``Z2``: they carry each face's
        transfer exactly, unrounded by a normalisation."""
        return self._cached("rigid_h2", self._rigid_h2)

    def _rigid_h2(self) -> np.ndarray:
        cycles = self._cached("support_h", self._support_homology)[1]
        if not cycles.shape[1]:
            return np.zeros((self.rigid.dim(2), 0))
        chains = constant_rigid_isomorphism(self.rigid).apply(2, np.kron(cycles, np.eye(6)))
        return np.linalg.qr(chains)[0]

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def spatial_to_hinge_matrix(self) -> np.ndarray:
        """Connecting homomorphism, spatial classes to hinge classes.

        Evaluated by the direct per-edge formula (:meth:`_theta_direct`)
        and certified by the construction of :meth:`spatial_h2`: with
        ``chains / D = basis @ R``, ``theta @ R`` must equal ``[0 | N] / D``
        (see :meth:`_lifts`) within ``1e-10``, or
        :class:`ExactnessViolation` is raised.  Every factor of
        ``theta @ R`` (orthonormal class bases, unit hinge axes, the
        unit columns of ``R``) has entries of at most 1, so under the
        ``cosheaf`` residual policy this absolute bound is already
        relative.  ``theta`` itself is returned, not ``[0 | N] / D``
        solved against ``R``: that solve would amplify rounding by the
        condition number of ``R``.
        """
        return self._cached("theta", self._theta)

    def hinge_to_spatial_matrix(self) -> np.ndarray:
        """Pseudoinverse of :meth:`spatial_to_hinge_matrix`, hinge classes
        to the minimum-norm spatial classes mapping onto them; the
        cutoff is anchored at 1, the size of a map between orthonormal
        bases."""
        return self._cached("theta_pinv", lambda: pseudoinverse(
            self.spatial_to_hinge_matrix(), scale=1.0))

    def _theta(self) -> np.ndarray:
        theta = self._theta_direct()
        _, r, image = self._lifts()
        gap = float(np.max(np.abs(theta @ r - image), initial=0.0))
        if gap > 1e-10:
            raise ExactnessViolation(
                f"connecting homomorphism disagrees with the direct formula by {gap:.3e}")
        return theta

    def _theta_direct(self) -> np.ndarray:
        """Direct evaluation: rate at an edge is the signed axis
        component of the angular velocity of either incident face."""
        surface = self.surface
        fe = surface.incidences["fe"]
        blocks = np.zeros((len(fe.upper), 1, 6))
        blocks[:, 0, :3] = fe.sign[:, None] * surface.edge_triads[fe.lower, 0]
        rates = IncidenceMap("fe", blocks, self.hinge.cosheaf,
                             self.spatial.cosheaf).apply(self.spatial_h2())
        return self.hinge_h1().T @ rates

    def loop_obstruction_matrix(self) -> np.ndarray:
        """Induced map from hinge classes to rigid-body classes in
        degree 1, in the frame of :meth:`rigid_h1`.

        Through the isomorphism a unit rate on hinge ``e`` becomes its
        line coordinates ``[l_e, m_e x l_e]`` (axis, midpoint), so the
        six rows of a base loop are the net angular velocity and moment
        about the origin that a hinge class accumulates around it.
        Nonzero output means the loop does not close."""
        return self._cached("iota_star", self._loop_obstruction)

    def _loop_obstruction(self) -> np.ndarray:
        lines = _hinge_lines(self.surface, self.rigid.cosheaf.support[1])
        loops, classes = self._support_h(1), self.hinge_h1()
        return np.einsum("ea,ei,ej->aij", loops, lines, classes).reshape(
            6 * loops.shape[1], classes.shape[1])


def _hinge_lines(surface: OrigamiSurface, edges) -> np.ndarray:
    """Line coordinates ``[l_e, m_e x l_e]`` of the hinges ``edges``: the
    unit twist about each hinge axis, seen from the origin."""
    return np.einsum("eij,ej->ei",
                     transfer_matrix(surface.edge_midpoints[edges], np.zeros(3)),
                     hinge_twist(surface.edge_triads[edges, 0]))


def _tree_lift(surface: OrigamiSurface, roots: np.ndarray,
               rates: np.ndarray) -> np.ndarray:
    """Face velocities that turn each tree hinge of the dual graph at its
    given rate; ``rates`` holds one row per edge id and one column per
    motion.  Returns shape ``(faces, 6, motions)``, anchored at the
    face centroids.

    The dual graph has the faces as nodes and the interior edges as
    links.  Its breadth-first spanning forest (:func:`surface._dual_forest`)
    grows from the faces in the bool mask ``roots``; a component without
    one is rooted at its lowest-index face.  Roots stand still.  Stepping
    across tree edge ``e`` from face ``f`` to face ``g`` adds
    ``s_ge * rate_e`` times the hinge's line coordinates, in the origin
    frame; one transfer per face then moves each velocity to its
    centroid.  The forest is found once; then all faces of one level
    are stepped at once, one gather-add per level.  Rates on edges
    outside the tree are not read: a hinge class lifts to a cycle
    exactly when it closes around every loop.
    """
    fe = surface.incidences["fe"]
    pairs = surface.dual_links()
    edge, face, sign = fe.lower[pairs[:, 0]], fe.upper[pairs], fe.sign[pairs]
    links, side, bounds = _dual_forest(face, np.asarray(roots, dtype=bool))
    child, parent, edge = face[links, side], face[links, 1 - side], edge[links]
    turns = _hinge_lines(surface, edge)[:, :, None] * rates[edge][:, None, :]
    turns *= sign[links, side][:, None, None]
    nu = np.zeros((surface.num_faces, 6, rates.shape[1]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        nu[child[start:stop]] = nu[parent[start:stop]] + turns[start:stop]
    return transfer_matrix(np.zeros(3), surface.face_centroids) @ nu


def build_exact_sequence(surface: OrigamiSurface) -> ExactSequence:
    """Build the three cosheaf models and verify the sequence joining
    them: naturality of both maps on every incidence and stalk-wise
    exactness at every cell."""
    return _verified_sequence(build_hinge_model(surface), build_rigid_model(surface),
                              build_spatial_model(surface))


def _verified_sequence(hinge: ChainComplex, rigid: ChainComplex,
                       spatial: ChainComplex) -> ExactSequence:
    """The one constructor of every sequence, free or pinned."""
    iota = _iota_map(hinge.cosheaf, rigid.cosheaf).validate()
    pi = _pi_map(rigid.cosheaf, spatial.cosheaf).validate()
    report = verify_exact_sequence(iota, pi)
    if not report.ok:
        worst = report.worst_cell()
        raise ExactnessViolation(
            f"sequence fails at cell {worst.cell}: "
            f"residual {max(worst.composition_residual, worst.image_kernel_residual):.3e}")
    return ExactSequence(surface=hinge.cosheaf.surface, hinge=hinge, rigid=rigid,
                         spatial=spatial, iota=iota, pi=pi, report=report)


# --- solution constructors ---

def _require_finite(model: str, values: np.ndarray):
    # NaN fails every comparison, so no later gate would reject it.
    if not np.isfinite(values).all():
        raise NotACycle(f"{model} vector has non-finite entries")


def hinge_solution(seq: ExactSequence, rates) -> ModelSolution:
    rates = np.asarray(rates, dtype=float)
    n = len(seq.surface.interior_edges())
    if rates.shape != (n,):
        raise NotACycle(f"expected {n} hinge rates, got shape {rates.shape}")
    _require_finite("hinge", rates)
    residual = float(np.max(np.abs(seq.hinge.apply(1, rates)), initial=0.0))
    return ModelSolution(model="hinge", coefficients=rates, residual=residual)


def spatial_solution(seq: ExactSequence, values) -> ModelSolution:
    values = np.asarray(values, dtype=float)
    n = 6 * seq.surface.num_faces
    if values.shape != (n,):
        raise NotACycle(f"expected {n} spatial values, got shape {values.shape}")
    _require_finite("spatial", values)
    residual = float(np.max(np.abs(seq.spatial.apply(2, values)), initial=0.0))
    return ModelSolution(model="spatial", coefficients=values, residual=residual)


def _require_cycle(sol: ModelSolution, cycle_tol: float):
    _require_finite(sol.model, sol.coefficients)
    scale = max(1.0, float(np.max(np.abs(sol.coefficients), initial=0.0)))
    if sol.residual > cycle_tol * scale:
        raise NotACycle(
            f"{sol.model} vector violates its constraints "
            f"(residual {sol.residual:.3e})")


# --- hinge -> spatial ---

def hinge_to_spatial(seq: ExactSequence, sol: ModelSolution,
                     cycle_tol: float = CYCLE_TOL) -> ConversionReport:
    """Least-squares spatial realization of a hinge solution.

    Projects the input onto hinge homology, evaluates the loop
    obstruction, and (when it vanishes relative to the input size)
    returns the minimum-norm spatial class mapping back onto the input.
    The output lies in the orthogonal complement of the global-motion
    classes.
    """
    _require_cycle(sol, cycle_tol)
    rates = sol.coefficients
    coords = seq.hinge_h1().T @ rates
    obstruction = seq.loop_obstruction_matrix() @ coords
    norm = float(np.linalg.norm(rates))
    obstructed = norm > 0 and float(np.linalg.norm(obstruction)) > OBSTRUCTION_TOL * norm
    report = ConversionReport(input=sol, obstruction=obstruction,
                              obstructed=obstructed)
    if obstructed:
        return report
    theta = seq.spatial_to_hinge_matrix()
    q = seq.hinge_to_spatial_matrix() @ coords
    values = seq.spatial_h2() @ q
    report.spatial = spatial_solution(seq, values)
    back = theta @ q
    report.residuals["round_trip"] = float(
        np.linalg.norm(back - coords) / max(1.0, np.linalg.norm(coords)))
    return report


# --- spatial <-> truss ---

def spatial_to_truss(linkage: StiffenedLinkage, sol: ModelSolution,
                     cycle_tol: float = CYCLE_TOL) -> ModelSolution:
    """Evaluate a spatial solution as vertex velocities of the truss.

    Every vertex takes the velocity induced by its first incident face;
    for a true solution all incident faces agree, which is asserted.
    Apex vertices take the velocity induced by their own face.
    """
    _require_cycle(sol, cycle_tol)
    scale = max(1.0, float(np.max(np.abs(sol.coefficients), initial=0.0)))
    at_corner, y = corner_velocities(linkage, sol.coefficients[:, None])
    y = y[:, 0]
    gaps = np.abs(at_corner[:, :, 0]
                  - y.reshape(-1, 3)[linkage.corner_point]).max(axis=1)
    bad = np.flatnonzero(gaps > AGREEMENT_TOL * scale)
    if bad.size:
        c = bad[0]
        raise WellDefinednessViolation(
            f"vertex {linkage.corner_point[c]} velocity differs across faces "
            f"by {gaps[c]:.3e}")
    residual = float(np.max(np.abs(linkage.stretch(y)), initial=0.0))
    return ModelSolution(model="truss", coefficients=y, residual=residual)


def truss_to_spatial(seq: ExactSequence, linkage: StiffenedLinkage,
                     sol: ModelSolution,
                     cycle_tol: float = CYCLE_TOL) -> ModelSolution:
    """Recover face spatial velocities from truss vertex velocities.

    Each face's velocity is the least-squares rigid fit to the observed
    velocities of its vertices and apex; a poor fit means the motion
    warps the face and is rejected.  The assembled result is checked to
    satisfy the spatial constraints.
    """
    y = np.asarray(sol.coefficients, dtype=float)
    if y.shape != (3 * linkage.num_points,):
        raise NotACycle(
            f"expected {3 * linkage.num_points} coordinates, got {y.shape}")
    _require_finite("truss", y)
    residual = float(np.max(np.abs(linkage.stretch(y)), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(y), initial=0.0)))
    if residual > cycle_tol * scale:
        raise NotACycle(f"truss vector stretches a bar (residual {residual:.3e})")

    # One fit per face, all in one stack laid out as the linkage's
    # ``fit_blocks``.
    a = linkage.fit_blocks
    b = np.zeros((len(a), a.shape[1] // 3, 3))
    b[linkage.corner_face, linkage.corner_slot] = y.reshape(-1, 3)[linkage.corner_point]
    b = b.reshape(len(a), -1, 1)
    fits = linkage.fit_inverse @ b
    errs = np.abs(a @ fits - b).max(axis=(1, 2))
    bad = np.flatnonzero(errs > FIT_TOL * scale)
    if bad.size:
        f = bad[0]
        raise NonRigidMotion(
            f"face {f} velocities admit no rigid fit (residual {errs[f]:.3e})")

    out = spatial_solution(seq, fits.ravel())
    if out.residual > cycle_tol * scale:
        raise NotACycle(
            f"recovered face velocities violate the spatial constraints "
            f"(residual {out.residual:.3e})")
    return out


def hinge_to_truss(seq: ExactSequence, linkage: StiffenedLinkage,
                   sol: ModelSolution,
                   cycle_tol: float = CYCLE_TOL) -> ConversionReport:
    """Full hinge -> spatial -> truss pipeline with residual report."""
    report = hinge_to_spatial(seq, sol, cycle_tol=cycle_tol)
    if report.obstructed or report.spatial is None:
        return report
    report.truss = spatial_to_truss(linkage, report.spatial, cycle_tol=cycle_tol)
    report.residuals["truss"] = report.truss.residual
    return report


# --- serial chains ---

@dataclass
class SerialChain:
    """Face/hinge ordering of a chain surface, base face first."""

    surface: OrigamiSurface
    face_order: list[int]
    hinge_order: list[int]

    @property
    def num_hinges(self) -> int:
        return len(self.hinge_order)


def chain_structure(surface: OrigamiSurface) -> SerialChain:
    """Discover the path ordering of a chain surface.

    The dual graph (faces joined by interior edges) must be a path: two
    faces of degree at most 1 and none above 2.  The end with the
    smaller face index becomes the fixed base, and the dual forest
    (:func:`surface._dual_forest`) rooted there lists the faces and
    hinges in path order, one per depth; it must reach every face.
    """
    if surface.num_faces == 1:
        return SerialChain(surface, [0], [])
    fe = surface.incidences["fe"]
    pairs = surface.dual_links()
    face = fe.upper[pairs]
    degree = np.bincount(face.reshape(-1), minlength=surface.num_faces)
    ends = np.flatnonzero(degree <= 1)
    if len(ends) != 2 or degree.max() > 2:
        raise InvalidParams("surface is not a serial chain")
    links, side, _ = _dual_forest(face, np.arange(surface.num_faces) == ends[0])
    if len(links) != surface.num_faces - 1:
        raise InvalidParams("chain dual graph is not connected")
    return SerialChain(surface, [int(ends[0])] + face[links, side].tolist(),
                       fe.lower[pairs[links, 0]].tolist())


@dataclass
class SerialChainOperators:
    """Closed-form block operators of a serial chain.

    ``accumulate`` is the lower-triangular operator collecting hinge
    contributions from base to tip, ``accumulate_inverse`` its block
    bidiagonal inverse, ``d`` the hinge-rates-to-body-velocities matrix
    and ``d_pinv`` its left inverse.  The two ``(6n, 6n)`` operators are
    views of ``(n, 6, n, 6)`` block arrays, written in place.
    ``inverse_gap`` is the largest entry of
    ``accumulate_inverse @ accumulate - I``, formed a few block rows at a
    time when the operators were verified.
    """

    chain: SerialChain
    accumulate: np.ndarray          # (6n, 6n)
    accumulate_inverse: np.ndarray  # (6n, 6n)
    d: np.ndarray                   # (6n, n)
    d_pinv: np.ndarray              # (n, 6n)
    inverse_gap: float


def serial_chain_operators(surface: OrigamiSurface) -> SerialChainOperators:
    """Assemble and verify the serial-chain block operators.

    The accumulation operator is written block row by block row into its
    ``(n, 6, n, 6)`` layout, in chunks of about ``sqrt(n)`` block rows,
    and the inverse is checked chunk by chunk as it is written, so no
    temporary is as large as an operator.  ``d`` is written from the same
    chunks, and ``d_pinv @ d`` from the two block diagonals of ``d_pinv``.
    """
    chain = chain_structure(surface)
    n = chain.num_hinges
    if n == 0:
        raise InvalidParams("chain needs at least one hinge")
    faces = chain.face_order
    hinges = np.array(chain.hinge_order)
    p_face = surface.face_centroids[faces]
    p_edge = surface.edge_midpoints[hinges]

    # The inverse is block bidiagonal: diagonal blocks ``diag``, and
    # ``sub[i]`` at block (i + 1, i).
    diag = transfer_matrix(p_face[1:], p_edge)
    sub = -transfer_matrix(p_face[1:-1], p_edge[1:])
    idx = np.arange(n)
    psi_inv = np.zeros((n, 6, n, 6))
    psi_inv[idx, :, idx] = diag
    psi_inv[idx[1:], :, idx[:-1]] = sub

    # Block (i, j): hinge e_{j+1} seen from body f_{i+1}, zero for j > i.
    # Block row i of psi_inv @ psi is diag[i] @ (block row i of psi)
    # + sub[i - 1] @ (block row i - 1); both vanish right of block i.
    # d = psi @ iota takes the same blocks, iota holding one twist each.
    twists = hinge_twist(surface.edge_triads[hinges, 0])
    psi = np.zeros((n, 6, n, 6))
    d = np.zeros((n, 6, n))
    size = inverse_gap = 0.0
    step = int(np.ceil(np.sqrt(n)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        blocks = transfer_matrix(p_edge[:hi], p_face[lo + 1:hi + 1, None])
        blocks[idx[:hi] > idx[lo:hi, None]] = 0.0
        psi[lo:hi, :, :hi] = blocks.transpose(0, 2, 1, 3)
        d[lo:hi, :, :hi] = np.einsum("iajb,jb->iaj", psi[lo:hi, :, :hi], twists[:hi])
        size = max(size, np.abs(blocks).max())
        first = max(lo, 1)
        product = diag[lo:hi] @ psi[lo:hi, :, :hi].reshape(hi - lo, 6, 6 * hi)
        product[first - lo:] += (sub[first - 1:hi - 1]
                                 @ psi[first - 1:hi - 1, :, :hi].reshape(-1, 6, 6 * hi))
        product.reshape(hi - lo, 6, hi, 6)[idx[:hi - lo], :, idx[lo:hi]] -= np.eye(6)
        inverse_gap = max(inverse_gap, float(np.abs(product).max()))
    if inverse_gap > 1e-12 * max(1.0, size):
        raise FoldkinError(f"chain operator inverse failed ({inverse_gap:.3e})")

    # Row i of d_pinv @ d reads block rows i - 1 and i of d, d_pinv's two
    # block diagonals.  Laid flat, those are runs of 12 entries 6n + 6
    # apart, so the entries between them are one strided view; each would
    # add at most 6n |entry| max |d|.
    d_pinv = np.einsum("ia,iajb->ijb", twists, psi_inv)
    product = np.einsum("ib,ibk->ik", d_pinv[idx, idx], d)
    product[1:] += np.einsum("ib,ibk->ik", d_pinv[idx[1:], idx[:-1]], d[:-1])
    product[idx, idx] -= 1.0
    off = d_pinv.reshape(-1)[6:].reshape(n - 1, 6 * n + 6)[:, :6 * n - 6]
    reach = np.abs(d).max()
    gap = (np.abs(product).max()
           + 6 * n * max(off.max(initial=0.0), -off.min(initial=0.0)) * reach)
    if gap > 1e-11 * max(1.0, reach):
        raise FoldkinError(f"chain left inverse failed ({gap:.3e})")
    return SerialChainOperators(chain=chain, accumulate=psi.reshape(6 * n, 6 * n),
                                accumulate_inverse=psi_inv.reshape(6 * n, 6 * n),
                                d=d.reshape(6 * n, n), d_pinv=d_pinv.reshape(n, 6 * n),
                                inverse_gap=inverse_gap)


def propagate_chain(ops: SerialChainOperators, rates) -> np.ndarray:
    """Turn the chain's hinges at ``rates`` (in chain hinge order) with
    the base face pinned: the tree lift of the rates, whose dual tree is
    the chain itself.

    Returns stacked spatial velocities of the moving bodies in chain
    order, for comparison against ``ops.d @ rates``.
    """
    chain = ops.chain
    surface = chain.surface
    per_edge = np.zeros((surface.num_edges, 1))
    per_edge[chain.hinge_order, 0] = rates
    base = np.zeros(surface.num_faces, dtype=bool)
    base[chain.face_order[0]] = True
    return _tree_lift(surface, base, per_edge)[chain.face_order[1:]].ravel()


def pinned_chain_connecting_matrix(surface: OrigamiSurface,
                                   ops: SerialChainOperators):
    """Connecting homomorphism of the chain sequence with the base face
    pinned, expressed directly in hinge-rate and stacked-body-velocity
    coordinates for comparison with the closed-form left inverse.

    The three models are built once and pinned, and only the pinned
    sequence is built and verified, like any other: naturality,
    stalk-wise exactness, the spatial cycle and rank certificates and
    the certificate of theta against the tree lifts.  The free sequence
    would add only the base face's cells to the exactness check, where
    the hinge model has no stalk and the quotient map is the identity.
    Returns ``(theta, cycles)`` where ``cycles`` columns are pinned
    spatial cycles over the moving bodies in chain order and ``theta``
    takes those cycles (its columns) to hinge rates in chain order.
    """
    chain = ops.chain
    base = [chain.face_order[0]]
    pinned = _verified_sequence(*(build(surface).pinned(2, base) for build in (
        build_hinge_model, build_rigid_model, build_spatial_model)))
    rates = pinned.hinge_h1() @ pinned.spatial_to_hinge_matrix()
    # Hinge rows in chain hinge order, cycle rows as the moving bodies in
    # chain order.
    return (pinned.hinge.cosheaf.restrict(1, rates, chain.hinge_order),
            pinned.spatial.cosheaf.restrict(2, pinned.spatial_h2(), chain.face_order[1:]))
