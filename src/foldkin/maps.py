"""Conversions between the hinge, spatial, and truss models.

The hinge, rigid-body, and spatial cosheaves fit into a short exact
sequence: hinge data embeds into full rigid-body data, and spatial data
is the quotient.  Both maps are formulas, so an :class:`ExactSequence`
holds only the hinge and spatial models and one triad certificate
(:func:`build_exact_sequence`).  Its connecting
homomorphism turns spatial solutions into hinge solutions; the other
way, a hinge solution whose loop obstruction vanishes is realised by
its tree lift less its global-motion part.  A separate
evaluation map turns spatial solutions into truss solutions (vertex
velocities) and a per-face rigid fit inverts it.

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
reference: a chain is a dual tree with one path, so the tree lift must
reproduce them.  The chain pinned at its base is the free chain modulo
the global motions, which the connecting map kills, so it is read off
the free sequence less the motion that carries the base (:func:`_based`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cosheaf import (
    COMPLEX_TOL,
    EXACTNESS_TOL,
    Cosheaf,
    IncidenceMap,
    cycle_residuals,
    glued_cycles,
)
from .errors import (
    ExactnessViolation,
    FoldkinError,
    InvalidParams,
    NonRigidMotion,
    NotACycle,
    WellDefinednessViolation,
)
from .linalg import nullspace, svd_rank
from .models import (
    StiffenedLinkage,
    build_hinge_model,
    build_spatial_model,
    corner_velocities,
)
from .spatial import hinge_twist, transfer_matrix
from .surface import OrigamiSurface, _dual_forest, constant_homology, loop_cocycles

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
    ``residual`` is the constraint residual of the owning model, as the
    constructor or conversion that returned it measured it; no
    conversion reads it from its input (see :func:`_measured`).
    """

    model: str
    coefficients: np.ndarray
    residual: float


@dataclass
class ConversionReport:
    """Outcome of a hinge -> spatial (-> truss) conversion."""

    obstruction: np.ndarray
    obstructed: bool
    spatial: ModelSolution | None = None
    truss: ModelSolution | None = None
    residuals: dict = field(default_factory=dict)


@dataclass
class ExactSequence:
    """Certified hinge -> rigid -> spatial sequence with cached homology.

    ``hinge`` and ``spatial`` are the outer models' cosheaves; the
    rigid middle term and its two maps are formulas, never built, and
    ``exactness_residual`` certified them (:func:`build_exact_sequence`).
    No whole complex is decomposed: hinge classes are glued from the
    vertex stars, rigid classes read off the integer support complex on
    the spatial model's cells (which are the rigid model's; the rigid
    cosheaf is six copies of it moved from the origin to the cell
    centroids, a frame chosen in this module alone), and spatial classes
    and the connecting map built from those two.  A hinge class converts
    through the tree lifts that the spatial classes are built from
    (:meth:`_realisation`), never through the connecting map.  Every
    result is computed on first use and kept, so a conversion after the
    first decomposes nothing.
    """

    surface: OrigamiSurface
    hinge: Cosheaf
    spatial: Cosheaf
    exactness_residual: float
    _cache: dict = field(default_factory=dict)

    def hinge_h1(self) -> np.ndarray:
        """Hinge solutions: nothing enters degree 1 of the hinge complex,
        so its homology is ``ker d1``, glued from the vertex stars and
        certified (:func:`cosheaf.glued_cycles`)."""
        return self._cached("hinge_h1", lambda: glued_cycles(self.hinge))

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
        counted from the global motions through the lifts.
        """
        return self._cached("spatial_h2", lambda: self._lifts()[0])

    def _lifts(self):
        """``(basis, R, image, L, N)``: the orthonormal :meth:`spatial_h2`,
        the triangular factor ``R`` of the unit-scaled chains
        ``[rigid_h2 | L] / D``, and ``[0 | N] / D``, the value the exact
        sequence gives the connecting map on them.  ``L`` holds the
        unscaled tree lifts, ``N`` the lifted classes' coordinates in
        :meth:`hinge_h1` (an orthonormal basis of the loop obstruction's
        kernel) and ``D`` the chains' column norms."""
        return self._cached("lifts", self._spatial_h2)

    def _spatial_h2(self):
        kernel = nullspace(self.loop_obstruction_matrix(), scale=1.0)
        classes = self.hinge_h1() @ kernel
        rates = np.zeros((self.surface.num_edges, classes.shape[1]))
        rates[self.hinge.support[1]] = classes
        lifts = _tree_lift(self.surface, rates).reshape(self.spatial.dim(2), classes.shape[1])
        chains = np.hstack([self.rigid_h2(), lifts])
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
        return basis, r, image, lifts, kernel

    def loop_cocycles(self) -> np.ndarray:
        """Integer cocycles of the support complex, one per independent
        loop (:func:`surface.loop_cocycles`): 0/±1 columns over the rigid
        model's edges.  Pairing a cycle with them reads off its class."""
        return self._cached("support_h", self._support_homology)[0]

    def _support_homology(self):
        """The loop cocycles of the support complex and its integer
        2-cycles.  The ranks come from component counts
        (:func:`surface.constant_homology`) and the 2-cycles are the 0/1
        indicators of the free dual components; the cocycles come from a
        tree-cotree split.  Each is certified exactly, straight from the
        live ``fe`` incidences: the 2-cycles have integer boundary 0, the
        cocycles vanish on every face boundary, and there is one cocycle
        per counted dimension of degree 1, the supported edges less
        ``r1 + r2``.  Each failure raises :class:`ExactnessViolation`."""
        cells = self.spatial.support
        r1, r2, cycles = constant_homology(self.surface, cells)
        loops = loop_cocycles(self.surface, cells)
        fe = self.surface.incidences["fe"]
        live = cells[1][fe.lower] & cells[2][fe.upper]
        edge, face, sign = fe.lower[live], fe.upper[live], fe.sign[live, None]
        edges = np.zeros((self.surface.num_edges, cycles.shape[1]))
        np.add.at(edges, edge, sign * cycles[face])
        if np.any(edges):
            raise ExactnessViolation("a counted support 2-cycle has a boundary")
        # A loop cocycle has one row per supported edge, in edge order.
        faces = np.zeros((self.surface.num_faces, loops.shape[1]))
        np.add.at(faces, face, sign * loops[np.cumsum(cells[1])[edge] - 1])
        if np.any(faces):
            raise ExactnessViolation("a support cocycle does not vanish on a face boundary")
        n1 = np.count_nonzero(cells[1]) - r1 - r2
        if loops.shape[1] != n1:
            raise ExactnessViolation(
                f"support degree 1 has dimension {loops.shape[1]}, counted {n1}")
        return loops, cycles

    def rigid_h1(self) -> np.ndarray:
        """Degree-1 rigid classes as cochains, ``kron(C, I6)`` for the
        :meth:`loop_cocycles` ``C``: integer, shaped like rigid 1-chains,
        in the origin-anchored constant frame."""
        return self._cached("rigid_h1", lambda: np.kron(self.loop_cocycles(), np.eye(6)))

    def rigid_h2(self) -> np.ndarray:
        """Degree-2 rigid homology: the constant classes ``kron(Z2, I6)``,
        global motions at the origin, moved to the face centroids as
        :func:`_tree_lift` moves its lifts, then orthonormalised.  Nothing
        enters degree 2, so this spans the face boundary's kernel.  The
        0/1 indicators stand for ``Z2``: they carry each face's transfer
        exactly, unrounded by a normalisation."""
        return self._cached("rigid_h2", self._rigid_h2)

    def _rigid_h2(self) -> np.ndarray:
        cycles = self._cached("support_h", self._support_homology)[1]
        motions = np.kron(cycles, np.eye(6)).reshape(len(cycles), 6, -1)
        chains = transfer_matrix(np.zeros(3), self.surface.face_centroids) @ motions
        return np.linalg.qr(chains.reshape(self.spatial.dim(2), -1))[0]

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

    def _realisation(self) -> np.ndarray:
        """Hinge class coordinates to their minimum-norm spatial motions,
        ``(I - G G^T) L N^T`` for ``L`` and ``N`` of :meth:`_lifts` and the
        global motions ``G`` (:meth:`rigid_h2`): the tree lift of a class
        in the span of ``N`` less its global-motion part.  The connecting
        map takes the lift to the class and vanishes exactly on the global
        motions, so this is the preimage its pseudoinverse gives, and a
        class off that span loses its obstructed part."""
        def realisation():
            _, _, _, lifts, kernel = self._lifts()
            rigid = self.rigid_h2()
            return (lifts - rigid @ (rigid.T @ lifts)) @ kernel.T
        return self._cached("realisation", realisation)

    def _axis_map(self) -> IncidenceMap:
        """Spatial 2-chains to hinge 1-chains by the per-edge formula: the
        rate at an edge is the signed axis component of the angular
        velocity of either incident face."""
        def axis_map():
            fe = self.surface.incidences["fe"]
            blocks = np.zeros((len(fe.upper), 1, 6))
            blocks[:, 0, :3] = fe.sign[:, None] * self.surface.edge_triads[fe.lower, 0]
            return IncidenceMap("fe", blocks, self.hinge, self.spatial)
        return self._cached("axis_map", axis_map)

    def _theta(self) -> np.ndarray:
        theta = self._theta_direct()
        _, r, image, _, _ = self._lifts()
        gap = float(np.max(np.abs(theta @ r - image), initial=0.0))
        if gap > 1e-10:
            raise ExactnessViolation(
                f"connecting homomorphism disagrees with the direct formula by {gap:.3e}")
        return theta

    def _theta_direct(self) -> np.ndarray:
        """Direct evaluation: the :meth:`_axis_map` of the spatial classes,
        in hinge class coordinates."""
        return self.hinge_h1().T @ self._axis_map().apply(self.spatial_h2())

    def loop_obstruction_matrix(self) -> np.ndarray:
        """Induced map from hinge classes to rigid-body classes in
        degree 1, in the frame of :meth:`rigid_h1`.

        Through the isomorphism a unit rate on hinge ``e`` becomes its
        line coordinates ``[l_e, m_e x l_e]`` (axis, midpoint), so the
        six rows of a loop cocycle are the net angular velocity and
        moment about the origin that a hinge class accumulates across
        it, that is around the loop it counts.  The cocycles are a basis
        of the classes' duals, so this map has the rank and the kernel
        of the map into any other basis of the loops.  Nonzero output
        means a loop does not close."""
        return self._cached("iota_star", self._loop_obstruction)

    def _loop_obstruction(self) -> np.ndarray:
        lines = _hinge_lines(self.surface, self.spatial.support[1])
        loops, classes = self.loop_cocycles(), self.hinge_h1()
        return np.einsum("ea,ei,ej->aij", loops, lines, classes).reshape(
            6 * loops.shape[1], classes.shape[1])


def _hinge_lines(surface: OrigamiSurface, edges) -> np.ndarray:
    """Line coordinates ``[l_e, m_e x l_e]`` of the hinges ``edges``: the
    unit twist about each hinge axis, seen from the origin."""
    return np.einsum("eij,ej->ei",
                     transfer_matrix(surface.edge_midpoints[edges], np.zeros(3)),
                     hinge_twist(surface.edge_triads[edges, 0]))


def _tree_lift(surface: OrigamiSurface, rates: np.ndarray) -> np.ndarray:
    """Face velocities that turn each tree hinge of the dual graph at its
    given rate; ``rates`` holds one row per edge id and one column per
    motion.  Returns shape ``(faces, 6, motions)``, anchored at the
    face centroids.

    The dual graph has the faces as nodes and the interior edges as
    links.  Its tree is the breadth-first spanning forest that
    :func:`surface.build_surface` oriented the faces with and kept
    (``surface.dual_forest``): each component is rooted at its
    lowest-index face, which stands still.  Stepping across tree edge
    ``e`` from face ``f`` to face ``g`` adds ``s_ge * rate_e`` times the
    hinge's line coordinates, in the origin frame; one transfer per face
    then moves each velocity to its centroid.  All faces of one level
    are stepped at once, one gather-add per level.  Rates on edges
    outside the tree are not read: a hinge class lifts to a cycle
    exactly when it closes around every loop.
    """
    fe = surface.incidences["fe"]
    pairs = surface.dual_links()
    edge, face, sign = fe.lower[pairs[:, 0]], fe.upper[pairs], fe.sign[pairs]
    links, side, bounds = surface.dual_forest
    child, parent, edge = face[links, side], face[links, 1 - side], edge[links]
    turns = _hinge_lines(surface, edge)[:, :, None] * rates[edge][:, None, :]
    turns *= sign[links, side][:, None, None]
    nu = np.zeros((surface.num_faces, 6, rates.shape[1]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        nu[child[start:stop]] = nu[parent[start:stop]] + turns[start:stop]
    return transfer_matrix(np.zeros(3), surface.face_centroids) @ nu


def _based(surface: OrigamiSurface, nu: np.ndarray, base: int) -> np.ndarray:
    """Face velocities ``nu`` (``(faces, 6, motions)``, at the centroids)
    of a connected surface less the global motion that carries face
    ``base``, one transfer per face: exactly ``nu`` if ``base`` is still."""
    centroids = surface.face_centroids
    return nu - transfer_matrix(centroids[base], centroids) @ nu[base]


def build_exact_sequence(surface: OrigamiSurface) -> ExactSequence:
    """Build the hinge and spatial models and certify the sequence
    joining them through the rigid model by one value: the largest entry
    of ``T T^T - I`` over the interior edges' triads ``T``.  Above
    :data:`cosheaf.EXACTNESS_TOL` it raises :class:`ExactnessViolation`
    naming the worst edge as cell ``(1, e)``.

    The maps are formulas.  At a vertex they are ``eye(6, 3)`` and
    ``[0 | I]``, entries 0 and 1, so exactness holds exactly; at a face,
    no columns and ``I6``.  At an edge the hinge twist ``[l, 0]`` and the
    axis projection compose to ``[m.l, n.l, 0]``, and image equals kernel
    exactly when the triad rows are orthonormal.  The quotient is natural
    on ``fe`` and ``fv`` bit for bit: :func:`models.build_spatial_model`
    defines those extensions as the quotient after the rigid transfer.
    On ``ev`` both maps are natural exactly when each interior vertex
    lies on its hinge line, which the spatial model's functoriality check
    already holds.  The rigid model and :func:`cosheaf.verify_exact_sequence`
    are the tests' reference.
    """
    hinge, spatial = build_hinge_model(surface), build_spatial_model(surface)
    edges = np.flatnonzero(hinge.support[1])
    triads = surface.edge_triads[edges]
    gaps = np.abs(triads @ triads.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2), initial=0.0)
    residual = float(gaps.max(initial=0.0))
    if residual > EXACTNESS_TOL:
        raise ExactnessViolation(f"sequence fails at cell {(1, int(edges[np.argmax(gaps)]))}: "
                                 f"residual {residual:.3e}")
    return ExactSequence(surface=surface, hinge=hinge, spatial=spatial,
                         exactness_residual=residual)


# --- solution constructors ---

def _measured(model: str, values: np.ndarray, constraints,
              cycle_tol: float = np.inf) -> ModelSolution:
    """The one gate of every vector a constructor or conversion reads:
    raise :class:`NotACycle` unless ``values`` is finite and its residual,
    the largest entry of ``constraints(values)``, is at most ``cycle_tol``
    times ``max(1, max |values|)``.  Returns the solution with that
    residual."""
    values = np.asarray(values, dtype=float)
    # NaN fails every comparison, so no later gate would reject it.
    if not np.isfinite(values).all():
        raise NotACycle(f"{model} vector has non-finite entries")
    residual = float(np.abs(constraints(values)).max(initial=0.0))
    # The scale is at least 1, so a residual within ``cycle_tol`` passes.
    if residual > cycle_tol and residual > cycle_tol * np.abs(values).max(initial=1.0):
        raise NotACycle(f"{model} vector violates its constraints (residual {residual:.3e})")
    return ModelSolution(model=model, coefficients=values, residual=residual)


def hinge_solution(seq: ExactSequence, rates) -> ModelSolution:
    return _solution("hinge", seq.hinge, 1, rates, "hinge rates")


def spatial_solution(seq: ExactSequence, values) -> ModelSolution:
    return _solution("spatial", seq.spatial, 2, values, "spatial values")


def _solution(model: str, cosheaf: Cosheaf, degree: int, values, what: str) -> ModelSolution:
    """``values`` as a chain of ``cosheaf`` in ``degree``, measured."""
    values = np.asarray(values, dtype=float)
    if values.shape != (cosheaf.dim(degree),):
        raise NotACycle(f"expected {cosheaf.dim(degree)} {what}, got shape {values.shape}")
    return _measured(model, values, partial(cosheaf.apply, degree))


# --- hinge -> spatial ---

def hinge_to_spatial(seq: ExactSequence, sol: ModelSolution,
                     cycle_tol: float = CYCLE_TOL) -> ConversionReport:
    """Minimum-norm spatial realization of a hinge solution.

    Measures the input against the hinge constraints, projects it onto
    hinge homology and evaluates the loop obstruction.  When that
    vanishes relative to the input size, the class's tree lift less its
    global-motion part is returned (:meth:`ExactSequence._realisation`),
    so the output lies in the orthogonal complement of the global
    motions.  ``round_trip`` reads the output's hinge rates back by the
    per-edge axis formula and compares them with the input rates.
    """
    rates = _measured("hinge", sol.coefficients, partial(seq.hinge.apply, 1),
                      cycle_tol).coefficients
    coords = seq.hinge_h1().T @ rates
    obstruction = seq.loop_obstruction_matrix() @ coords
    norm = float(np.linalg.norm(rates))
    obstructed = norm > 0 and float(np.linalg.norm(obstruction)) > OBSTRUCTION_TOL * norm
    report = ConversionReport(obstruction=obstruction, obstructed=obstructed)
    if obstructed:
        return report
    report.spatial = spatial_solution(seq, seq._realisation() @ coords)
    back = seq._axis_map().apply(report.spatial.coefficients)
    report.residuals["round_trip"] = float(np.linalg.norm(back - rates) / max(1.0, norm))
    return report


# --- spatial <-> truss ---

def spatial_to_truss(seq: ExactSequence, linkage: StiffenedLinkage,
                     sol: ModelSolution) -> ModelSolution:
    """Evaluate a spatial solution as vertex velocities of the truss.

    Every vertex takes the velocity induced by its first incident face;
    for a true solution all incident faces agree, which is asserted.
    Apex vertices take the velocity induced by their own face.
    """
    return _truss_velocities(linkage, _measured(
        "spatial", sol.coefficients, partial(seq.spatial.apply, 2), CYCLE_TOL))


def _truss_velocities(linkage: StiffenedLinkage, sol: ModelSolution) -> ModelSolution:
    """:func:`spatial_to_truss` of a solution already measured."""
    scale = np.abs(sol.coefficients).max(initial=1.0)
    at_corner, y = corner_velocities(linkage, sol.coefficients[:, None])
    y = y[:, 0]
    gaps = np.where(linkage.live, np.abs(at_corner[..., 0]
                                         - y.reshape(-1, 3)[linkage.group]).max(axis=2), 0.0)
    bad = np.flatnonzero(gaps > AGREEMENT_TOL * scale)
    if bad.size:
        c = bad[0]
        raise WellDefinednessViolation(
            f"vertex {linkage.group.flat[c]} velocity differs across faces "
            f"by {gaps.flat[c]:.3e}")
    residual = float(np.max(np.abs(linkage.stretch(y)), initial=0.0))
    return ModelSolution(model="truss", coefficients=y, residual=residual)


def truss_to_spatial(seq: ExactSequence, linkage: StiffenedLinkage,
                     sol: ModelSolution) -> ModelSolution:
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
    _measured("truss", y, linkage.stretch, CYCLE_TOL)
    scale = np.abs(y).max(initial=1.0)

    # One fit per face, all in one stack laid out as the face groups; the
    # padding's zero blocks fit zero velocities.
    a = linkage.corner_block.reshape(len(linkage.group), -1, 6)
    b = np.where(linkage.live[:, :, None], y.reshape(-1, 3)[linkage.group], 0.0)
    b = b.reshape(len(a), -1, 1)
    fits = linkage.fit_inverse @ b
    errs = np.abs(a @ fits - b).max(axis=(1, 2))
    bad = np.flatnonzero(errs > FIT_TOL * scale)
    if bad.size:
        f = bad[0]
        raise NonRigidMotion(
            f"face {f} velocities admit no rigid fit (residual {errs[f]:.3e})")
    return _measured("spatial", fits.ravel(), partial(seq.spatial.apply, 2), CYCLE_TOL)


def hinge_to_truss(seq: ExactSequence, linkage: StiffenedLinkage,
                   sol: ModelSolution,
                   cycle_tol: float = CYCLE_TOL) -> ConversionReport:
    """Full hinge -> spatial -> truss pipeline with residual report; the
    spatial motion is not measured again."""
    report = hinge_to_spatial(seq, sol, cycle_tol=cycle_tol)
    if report.spatial is None:
        return report
    report.truss = _truss_velocities(linkage, report.spatial)
    report.residuals["truss"] = report.truss.residual
    return report


# --- serial chains ---

@dataclass
class SerialChain:
    """Face/hinge ordering of a chain surface, base face first, and each
    hinge's ``fe`` sign on the face after it, which it turns that way."""

    surface: OrigamiSurface
    face_order: list[int]
    hinge_order: list[int]
    hinge_sign: list[int]

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
        return SerialChain(surface, [0], [], [])
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
                       fe.lower[pairs[links, 0]].tolist(),
                       fe.sign[pairs[links, side]].tolist())


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
    chunks, ``d_pinv`` from the inverse's two block diagonals only, and
    ``d_pinv @ d`` is checked from those diagonals.
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
    # d = psi @ iota takes the same blocks, iota holding one twist each,
    # turned by the hinge's sign on the face it moves.
    twists = hinge_twist(surface.edge_triads[hinges, 0]) * np.array(chain.hinge_sign)[:, None]
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

    # d_pinv = iota^T psi_inv has psi_inv's two block diagonals, each
    # block row a twist times a block.  Row i of d_pinv @ d reads block
    # rows i - 1 and i of d.  Laid flat, the two diagonals are runs of 12
    # entries 6n + 6 apart, so the entries between them, which nothing
    # writes, are one strided view; each would add at most
    # 6n |entry| max |d|.
    d_pinv = np.zeros((n, n, 6))
    d_pinv[idx, idx] = np.einsum("ia,iab->ib", twists, diag)
    d_pinv[idx[1:], idx[:-1]] = np.einsum("ia,iab->ib", twists[1:], sub)
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
    the chain itself, less the global motion that carries the base
    (:func:`_based`).

    Returns stacked spatial velocities of the moving bodies in chain
    order, for comparison against ``ops.d @ rates``.
    """
    chain = ops.chain
    surface = chain.surface
    per_edge = np.zeros((surface.num_edges, 1))
    per_edge[chain.hinge_order, 0] = rates
    lift = _based(surface, _tree_lift(surface, per_edge), chain.face_order[0])
    return lift[chain.face_order[1:]].ravel()


def pinned_chain_connecting_matrix(surface: OrigamiSurface,
                                   ops: SerialChainOperators):
    """Connecting homomorphism of the chain sequence with the base face
    pinned, expressed directly in hinge-rate and stacked-body-velocity
    coordinates for comparison with the closed-form left inverse.

    Only the free sequence is built, with all of its certificates.  Its
    :meth:`ExactSequence.spatial_h2` columns past the global motions,
    less the motion that carries the base (:func:`_based`), are the
    pinned cycles; theta vanishes on global motions, so theta of those
    columns is their hinge rates.
    Returns ``(theta, cycles)`` where ``cycles`` columns are pinned
    spatial cycles over the moving bodies in chain order and ``theta``
    takes those cycles (its columns) to hinge rates in chain order.
    """
    chain = ops.chain
    seq = build_exact_sequence(surface)
    motions = seq.rigid_h2().shape[1]
    rates = seq.hinge_h1() @ seq.spatial_to_hinge_matrix()[:, motions:]
    cycles = _based(surface, seq.spatial_h2()[:, motions:].reshape(surface.num_faces, 6, -1),
                    chain.face_order[0])
    return (seq.hinge.restrict(1, rates, chain.hinge_order),
            cycles[chain.face_order[1:]].reshape(-1, cycles.shape[2]))
