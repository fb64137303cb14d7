"""Conversions between the hinge, spatial, and truss models.

The hinge, rigid-body, and spatial cosheaves fit into a short exact
sequence: hinge data embeds into full rigid-body data, and spatial data
is the quotient.  Its connecting homomorphism turns spatial solutions
into hinge solutions; the least-squares pseudoinverse goes the other
way, defined exactly on hinge solutions whose loop obstruction
vanishes.  A separate evaluation map turns spatial solutions into truss
solutions (vertex velocities) and a per-face rigid fit inverts it.

Also here: the closed-form block operators of a serial chain (the
lower-triangular accumulation operator, its bidiagonal inverse, and the
hinge-to-body matrix with its left inverse), which reproduce the
connecting homomorphism when the base face is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cosheaf import (
    Cosheaf,
    CosheafMap,
    ExactnessReport,
    SubspaceBasis,
    assemble_chain_complex,
    connecting_map,
    homology_basis,
    induced_map,
    scatter_incidences,
    verify_exact_sequence,
)
from .errors import (
    DegenerateHinge,
    ExactnessViolation,
    FoldkinError,
    InvalidParams,
    NonRigidMotion,
    NotACycle,
    WellDefinednessViolation,
)
from .linalg import DEFAULT_TOL, pseudoinverse
from .models import (
    ModelBundle,
    StiffenedLinkage,
    build_hinge_model,
    build_rigid_model,
    build_spatial_model,
)
from .spatial import axis_projection, hinge_twist, point_velocity_blocks, transfer_matrix
from .surface import OrigamiSurface

OBSTRUCTION_TOL = 1e-8


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
    """Verified hinge -> rigid -> spatial sequence with cached homology."""

    surface: OrigamiSurface
    hinge: ModelBundle
    rigid: ModelBundle
    spatial: ModelBundle
    iota: CosheafMap
    pi: CosheafMap
    report: ExactnessReport
    tol: float
    _cache: dict = field(default_factory=dict)

    def hinge_h1(self) -> SubspaceBasis:
        return self._cached("hinge_h1",
                            lambda: self.hinge.homology(1, self.tol))

    def spatial_h2(self) -> SubspaceBasis:
        return self._cached("spatial_h2",
                            lambda: self.spatial.homology(2, self.tol))

    def rigid_h1(self) -> SubspaceBasis:
        return self._cached("rigid_h1",
                            lambda: self.rigid.homology(1, self.tol))

    def rigid_h2(self) -> SubspaceBasis:
        return self._cached("rigid_h2",
                            lambda: self.rigid.homology(2, self.tol))

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def spatial_to_hinge_matrix(self) -> np.ndarray:
        """Connecting homomorphism, spatial classes to hinge classes.

        Computed by lift / boundary / restrict and cross-checked against
        the direct per-edge formula ``sign * <axis, omega_face>``.
        """
        return self._cached("theta", self._theta)

    def _theta(self) -> np.ndarray:
        theta = connecting_map(
            self.iota, self.pi, degree=2, tol=self.tol,
            source_basis=self.spatial_h2(), target_basis=self.hinge_h1(),
            quotient_complex=self.spatial.complex,
            middle_complex=self.rigid.complex)
        direct = self._theta_direct()
        if theta.size and np.max(np.abs(theta - direct)) > 1e-10:
            raise ExactnessViolation(
                "connecting homomorphism disagrees with the direct formula "
                f"by {np.max(np.abs(theta - direct)):.3e}")
        return theta

    def _theta_direct(self) -> np.ndarray:
        """Direct evaluation: rate at an edge is the signed axis
        component of the angular velocity of either incident face."""
        surface = self.surface
        fe = surface.incidences["fe"]
        blocks = np.zeros((len(fe.upper), 1, 6))
        blocks[:, 0, :3] = fe.sign[:, None] * surface.edge_triads[fe.lower, 0]
        block = scatter_incidences("fe", blocks, self.hinge.cosheaf,
                                   self.spatial.cosheaf)
        return self.hinge_h1().basis.T @ block @ self.spatial_h2().basis

    def loop_obstruction_matrix(self) -> np.ndarray:
        """Induced map from hinge classes to rigid-body classes in
        degree 1; nonzero output means accumulated motion around a
        homology loop."""
        return self._cached("iota_star", lambda: induced_map(
            self.iota, 1,
            source_basis=self.hinge_h1(), target_basis=self.rigid_h1(),
            tol=self.tol))


def build_exact_sequence(surface: OrigamiSurface,
                         tol: float = DEFAULT_TOL,
                         hinge: ModelBundle | None = None,
                         rigid: ModelBundle | None = None,
                         spatial: ModelBundle | None = None) -> ExactSequence:
    """Build the three cosheaf models and verify the sequence joining
    them: naturality of both maps on every incidence and stalk-wise
    exactness at every cell."""
    hinge = hinge or build_hinge_model(surface)
    rigid = rigid or build_rigid_model(surface)
    spatial = spatial or build_spatial_model(surface)
    iota = _iota_map(hinge.cosheaf, rigid.cosheaf).validate()
    pi = _pi_map(rigid.cosheaf, spatial.cosheaf).validate()
    report = verify_exact_sequence(iota, pi, tol)
    if not report.ok:
        worst = report.worst_cell()
        raise ExactnessViolation(
            f"sequence fails at cell {worst.cell}: "
            f"residual {max(worst.composition_residual, worst.image_kernel_residual):.3e}")
    return ExactSequence(surface=surface, hinge=hinge, rigid=rigid,
                         spatial=spatial, iota=iota, pi=pi,
                         report=report, tol=tol)


# --- solution constructors ---

def hinge_solution(seq: ExactSequence, rates) -> ModelSolution:
    rates = np.asarray(rates, dtype=float)
    n = len(seq.surface.interior_edges())
    if rates.shape != (n,):
        raise NotACycle(f"expected {n} hinge rates, got shape {rates.shape}")
    d1 = seq.hinge.complex.d1
    residual = float(np.max(np.abs(d1 @ rates), initial=0.0))
    return ModelSolution(model="hinge", coefficients=rates, residual=residual)


def spatial_solution(seq: ExactSequence, values) -> ModelSolution:
    values = np.asarray(values, dtype=float)
    n = 6 * seq.surface.num_faces
    if values.shape != (n,):
        raise NotACycle(f"expected {n} spatial values, got shape {values.shape}")
    d2 = seq.spatial.complex.d2
    residual = float(np.max(np.abs(d2 @ values), initial=0.0))
    return ModelSolution(model="spatial", coefficients=values, residual=residual)


def _require_cycle(sol: ModelSolution, tol: float):
    scale = max(1.0, float(np.max(np.abs(sol.coefficients), initial=0.0)))
    if sol.residual > tol * scale:
        raise NotACycle(
            f"{sol.model} vector violates its constraints "
            f"(residual {sol.residual:.3e})")


# --- hinge -> spatial ---

def hinge_to_spatial(seq: ExactSequence, sol: ModelSolution,
                     cycle_tol: float = 1e-7,
                     obstruction_tol: float = OBSTRUCTION_TOL) -> ConversionReport:
    """Least-squares spatial realization of a hinge solution.

    Projects the input onto hinge homology, evaluates the loop
    obstruction, and (when it vanishes relative to the input size)
    returns the minimum-norm spatial class mapping back onto the input.
    The output lies in the orthogonal complement of the global-motion
    classes.
    """
    _require_cycle(sol, cycle_tol)
    rates = sol.coefficients
    h1 = seq.hinge_h1()
    coords = h1.project_coords(rates)
    obstruction = seq.loop_obstruction_matrix() @ coords
    norm = float(np.linalg.norm(rates))
    obstructed = norm > 0 and float(np.linalg.norm(obstruction)) > obstruction_tol * norm
    report = ConversionReport(input=sol, obstruction=obstruction,
                              obstructed=obstructed)
    if obstructed:
        return report
    theta = seq.spatial_to_hinge_matrix()
    q = pseudoinverse(theta, seq.tol, scale=1.0) @ coords
    values = seq.spatial_h2().embed(q)
    report.spatial = spatial_solution(seq, values)
    back = theta @ q
    report.residuals["round_trip"] = float(
        np.linalg.norm(back - coords) / max(1.0, np.linalg.norm(coords)))
    return report


# --- spatial <-> truss ---

def corner_velocities(linkage: StiffenedLinkage,
                      values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate face spatial velocities at the truss corners.

    ``values`` holds six rows per face and one column per motion.
    Returns the velocity every corner receives from its own face, shape
    ``(corners, 3, motions)``, and the truss vectors, shape
    ``(3 * points, motions)``, in which each point takes the velocity of
    its first corner: its first incident face, or its own face for an
    apex.  On solution cycles all corners of a point agree.
    """
    motions = values.shape[1]
    at_corner = np.einsum("cij,cjk->cik", linkage.corner_block,
                          values.reshape(-1, 6, motions)[linkage.corner_face])
    _, first = np.unique(linkage.corner_point, return_index=True)
    at_point = np.zeros((linkage.num_points, 3, motions))
    at_point[linkage.corner_point[first]] = at_corner[first]
    return at_corner, at_point.reshape(-1, motions)


def spatial_to_truss(seq: ExactSequence, linkage: StiffenedLinkage,
                     sol: ModelSolution,
                     cycle_tol: float = 1e-7,
                     agreement_tol: float = 1e-10) -> ModelSolution:
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
    bad = np.flatnonzero(gaps > agreement_tol * scale)
    if bad.size:
        c = bad[0]
        raise WellDefinednessViolation(
            f"vertex {linkage.corner_point[c]} velocity differs across faces "
            f"by {gaps[c]:.3e}")
    residual = float(np.max(np.abs(linkage.matrix @ y), initial=0.0))
    return ModelSolution(model="truss", coefficients=y, residual=residual)


def truss_to_spatial(seq: ExactSequence, linkage: StiffenedLinkage,
                     sol: ModelSolution,
                     cycle_tol: float = 1e-7,
                     fit_tol: float = 1e-7) -> ModelSolution:
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
    residual = float(np.max(np.abs(linkage.matrix @ y), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(y), initial=0.0)))
    if residual > cycle_tol * scale:
        raise NotACycle(f"truss vector stretches a bar (residual {residual:.3e})")

    # Corners are listed face by face, so each face's rows are one run.
    runs = np.flatnonzero(np.diff(linkage.corner_face)) + 1
    observed = y.reshape(-1, 3)[linkage.corner_point]
    values = np.zeros(6 * seq.surface.num_faces)
    for f, (blocks, rhs) in enumerate(zip(np.split(linkage.corner_block, runs),
                                          np.split(observed, runs))):
        a = blocks.reshape(-1, 6)
        b = rhs.ravel()
        fit, *_ = np.linalg.lstsq(a, b, rcond=None)
        err = float(np.max(np.abs(a @ fit - b), initial=0.0))
        if err > fit_tol * scale:
            raise NonRigidMotion(
                f"face {f} velocities admit no rigid fit (residual {err:.3e})")
        values[6 * f:6 * f + 6] = fit

    out = spatial_solution(seq, values)
    if out.residual > cycle_tol * scale:
        raise NotACycle(
            f"recovered face velocities violate the spatial constraints "
            f"(residual {out.residual:.3e})")
    return out


def hinge_to_truss(seq: ExactSequence, linkage: StiffenedLinkage,
                   sol: ModelSolution,
                   cycle_tol: float = 1e-7,
                   obstruction_tol: float = OBSTRUCTION_TOL) -> ConversionReport:
    """Full hinge -> spatial -> truss pipeline with residual report."""
    report = hinge_to_spatial(seq, sol, cycle_tol=cycle_tol,
                              obstruction_tol=obstruction_tol)
    if report.obstructed or report.spatial is None:
        return report
    report.truss = spatial_to_truss(seq, linkage, report.spatial,
                                    cycle_tol=cycle_tol)
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

    The dual graph (faces joined by interior edges) must be a path; the
    endpoint with the smaller face index becomes the fixed base.
    """
    interior = surface.interior_edges()
    adjacency = {f: [] for f in range(surface.num_faces)}
    for e in interior:
        f, g = surface.edge_faces[e]
        adjacency[f].append((g, e))
        adjacency[g].append((f, e))
    degrees = {f: len(nbrs) for f, nbrs in adjacency.items()}
    ends = sorted(f for f, d in degrees.items() if d <= 1)
    if surface.num_faces == 1:
        return SerialChain(surface, [0], [])
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
    return SerialChain(surface, face_order, hinge_order)


@dataclass
class SerialChainOperators:
    """Closed-form block operators of a serial chain.

    ``accumulate`` is the lower-triangular operator collecting hinge
    contributions from base to tip, ``accumulate_inverse`` its block
    bidiagonal inverse, ``d`` the hinge-rates-to-body-velocities matrix
    and ``d_pinv`` its left inverse.
    """

    chain: SerialChain
    accumulate: np.ndarray          # (6n, 6n)
    accumulate_inverse: np.ndarray  # (6n, 6n)
    hinge_matrix: np.ndarray        # (6n, n) block diagonal axis embeddings
    d: np.ndarray                   # (6n, n)
    d_pinv: np.ndarray              # (n, 6n)


def serial_chain_operators(surface: OrigamiSurface,
                           tol: float = DEFAULT_TOL) -> SerialChainOperators:
    """Assemble and verify the serial-chain block operators."""
    chain = chain_structure(surface)
    n = chain.num_hinges
    if n == 0:
        raise InvalidParams("chain needs at least one hinge")
    faces = chain.face_order
    hinges = chain.hinge_order
    p_face = np.array([surface.centroid((2, f)) for f in faces])
    p_edge = np.array([surface.centroid((1, e)) for e in hinges])

    for e in hinges:
        if np.linalg.norm(surface.edge_vector(e)) == 0.0:
            raise DegenerateHinge(f"hinge {e} has zero length")

    # Block (i, j): hinge e_{j+1} seen from body f_{i+1}, zero for j > i.
    blocks = transfer_matrix(p_edge[None, :], p_face[1:, None])
    blocks[np.triu_indices(n, 1)] = 0.0
    psi = blocks.transpose(0, 2, 1, 3).reshape(6 * n, 6 * n)

    diag = np.arange(n)
    psi_inv = np.zeros((n, 6, n, 6))
    psi_inv[diag, :, diag] = transfer_matrix(p_face[1:], p_edge)
    psi_inv[diag[1:], :, diag[:-1]] = -transfer_matrix(p_face[1:-1], p_edge[1:])
    psi_inv = psi_inv.reshape(6 * n, 6 * n)

    iota = np.zeros((n, 6, n))
    iota[diag, :, diag] = hinge_twist(surface.edge_triads[hinges, 0])
    iota = iota.reshape(6 * n, n)

    d = psi @ iota
    d_pinv = iota.T @ psi_inv

    gap = np.max(np.abs(psi_inv @ psi - np.eye(6 * n)))
    if gap > 1e-12 * max(1.0, np.max(np.abs(psi))):
        raise FoldkinError(f"chain operator inverse failed ({gap:.3e})")
    gap = np.max(np.abs(d_pinv @ d - np.eye(n)))
    if gap > 1e-11 * max(1.0, np.max(np.abs(d))):
        raise FoldkinError(f"chain left inverse failed ({gap:.3e})")
    return SerialChainOperators(chain=chain, accumulate=psi,
                                accumulate_inverse=psi_inv,
                                hinge_matrix=iota, d=d, d_pinv=d_pinv)


def propagate_chain(ops: SerialChainOperators, rates) -> np.ndarray:
    """Propagate hinge rates body by body along the chain recurrence.

    Returns stacked spatial velocities of the moving bodies (the base is
    fixed at zero), for comparison against ``ops.d @ rates``.
    """
    chain = ops.chain
    surface = chain.surface
    rates = np.asarray(rates, dtype=float)
    n = chain.num_hinges
    nu = np.zeros(6)
    out = np.zeros(6 * n)
    for i in range(n):
        f_prev = chain.face_order[i]
        f_next = chain.face_order[i + 1]
        e = chain.hinge_order[i]
        p_prev = surface.centroid((2, f_prev))
        p_next = surface.centroid((2, f_next))
        p_e = surface.centroid((1, e))
        step = transfer_matrix(p_prev, p_next) @ nu
        hinge = transfer_matrix(p_e, p_next) @ (
            hinge_twist(surface.edge_axis(e)) * rates[i])
        nu = step + hinge
        out[6 * i:6 * i + 6] = nu
    return out


def pinned_chain_connecting_matrix(surface: OrigamiSurface,
                                   ops: SerialChainOperators,
                                   tol: float = DEFAULT_TOL):
    """Connecting homomorphism of the chain sequence with the base face
    pinned, expressed directly in hinge-rate and stacked-body-velocity
    coordinates for comparison with the closed-form left inverse.

    Returns ``(theta_fn, basis)`` where ``basis`` columns are pinned
    spatial cycles over the moving bodies in chain order and
    ``theta_fn`` is the matrix taking those cycles (its columns) to
    hinge rates in chain order.
    """
    chain = ops.chain
    base = [chain.face_order[0]]
    hinge_p, rigid_p, spatial_p = (
        build(surface).cosheaf.pinned(2, base)
        for build in (build_hinge_model, build_rigid_model, build_spatial_model))
    iota = _iota_map(hinge_p, rigid_p).validate()
    pi = _pi_map(rigid_p, spatial_p).validate()
    spatial_cc = assemble_chain_complex(spatial_p)
    rigid_cc = assemble_chain_complex(rigid_p)
    hinge_cc = assemble_chain_complex(hinge_p)
    basis = homology_basis(spatial_cc, 2, tol)
    hinge_basis = homology_basis(hinge_cc, 1, tol)
    theta = connecting_map(iota, pi, degree=2, tol=tol,
                           source_basis=basis, target_basis=hinge_basis,
                           quotient_complex=spatial_cc,
                           middle_complex=rigid_cc)
    # Re-express in chain coordinates: hinge rows in chain hinge order,
    # spatial basis rows as the moving bodies in chain order.
    return (hinge_p.restrict(1, hinge_basis.basis @ theta, chain.hinge_order),
            spatial_p.restrict(2, basis.basis, chain.face_order[1:]))
