import dataclasses
import sys

import numpy as np
import pytest

from foldkin import (
    CosheafMap,
    ExactSequence,
    base_homology,
    ModelSolution,
    build_exact_sequence,
    build_surface,
    chain_structure,
    generate,
    hinge_solution,
    hinge_to_spatial,
    hinge_to_truss,
    hinge_twist,
    induced_map,
    pinned_chain_connecting_matrix,
    propagate_chain,
    serial_chain_operators,
    spatial_solution,
    spatial_to_truss,
    stiffen,
    surface_from_document,
    transfer_matrix,
    truss_to_spatial,
)
from foldkin import cosheaf, maps
from foldkin.analysis import analyze_surface
from foldkin.cosheaf import cycle_residuals
from foldkin.maps import _verified_sequence
from foldkin.models import eta_image, truss_kernel
from foldkin.errors import (
    Degenerate,
    ExactnessViolation,
    FoldkinError,
    InvalidParams,
    NaturalityViolation,
    NonRigidMotion,
    NotACycle,
    WellDefinednessViolation,
)
from foldkin.linalg import nullspace, subspace_residual, svd_rank

import oracles
from conftest import (
    ORACLE_SURFACES,
    disjoint_union,
    jessen,
    one_face,
    scaled,
    square_hole_grid,
    surface_of,
    two_panels,
)

LEDGER_SURFACES = [
    ("two_panels", lambda: two_panels()),
    ("fan4", lambda: surface_of("single_vertex", 4, 0.5)),
    ("grid", lambda: surface_of("grid", 2, 3)),
    ("chain", lambda: surface_of("chain", 3)),
    ("ring", lambda: surface_of("annulus", 1, 8)),
    ("square_hole", lambda: square_hole_grid(3)),
    ("torus", lambda: surface_of("torus", 4, 4)),
    ("miura", lambda: surface_of("miura", 2, 2)),
]


@pytest.fixture(params=LEDGER_SURFACES, ids=[n for n, _ in LEDGER_SURFACES])
def any_surface(request):
    return request.param[1]()


# --- exact sequence level ---

def test_sequence_residuals_tiny(any_surface):
    seq = build_exact_sequence(any_surface)
    assert seq.report.max_residual < 1e-12
    assert seq.iota.naturality_residual() < 1e-12
    assert seq.pi.naturality_residual() < 1e-12


def test_exactness_at_spatial_classes(any_surface):
    # Image of the rigid classes equals the kernel of the connecting map.
    seq = build_exact_sequence(any_surface)
    pi_star = induced_map(seq.pi, 2, source_basis=seq.rigid_h2(),
                          target_basis=seq.spatial_h2())
    theta = seq.spatial_to_hinge_matrix()
    assert subspace_residual(oracles.column_space(pi_star, scale=1.0),
                             nullspace(theta, scale=1.0)) < 1e-8


def test_exactness_at_hinge_classes(any_surface):
    seq = build_exact_sequence(any_surface)
    theta = seq.spatial_to_hinge_matrix()
    iota_star = seq.loop_obstruction_matrix()
    assert subspace_residual(oracles.column_space(theta, scale=1.0),
                             nullspace(iota_star, scale=1.0)) < 1e-8


def test_dimension_ledgers(any_surface):
    seq = build_exact_sequence(any_surface)
    h2s = seq.spatial_h2().shape[1]
    iota_star = seq.loop_obstruction_matrix()
    assert nullspace(iota_star, scale=1.0).shape[1] == h2s - 6
    assert truss_kernel_dim(any_surface) == h2s


def truss_kernel_dim(surface):
    return oracles.truss_kernel(stiffen(surface)).shape[1]


# Rigid homology is read off the support complex; the dense
# decomposition of the rigid complex is the reference.
@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_rigid_homology_matches_the_dense_route(make):
    seq = build_exact_sequence(make())
    dense_h2 = oracles.rigid_h2(seq)
    assert seq.rigid_h1().shape == oracles.rigid_h1(seq).shape
    assert seq.rigid_h2().shape == dense_h2.shape
    assert subspace_residual(seq.rigid_h2(), dense_h2) < 1e-12
    got = seq.loop_obstruction_matrix()
    dense = oracles.loop_obstruction_matrix(seq)
    assert got.shape == dense.shape
    assert svd_rank(got, scale=1.0) == svd_rank(dense, scale=1.0)
    # The two matrices differ by a change of row basis, so the
    # unobstructed hinge classes, their common kernel, agree.
    assert subspace_residual(nullspace(got, scale=1.0),
                             nullspace(dense, scale=1.0)) < 1e-12


COUNTED_SEQUENCES = [
    (name, lambda make=make: build_exact_sequence(make())) for name, make in ORACLE_SURFACES
] + [(f"pinned_chain_{n}", lambda n=n: pinned_chain_sequence(n)) for n in (1, 2, 40)]


@pytest.mark.parametrize("make", [m for _, m in COUNTED_SEQUENCES],
                         ids=[n for n, _ in COUNTED_SEQUENCES])
def test_counted_support_homology_matches_the_decomposition(make):
    # The support complex's homology and the Betti numbers are read off
    # component counts; the SVDs of the integer matrices are the
    # reference.
    seq = make()
    for degree in (1, 2):
        got, want = seq._support_h(degree), oracles.support_h(seq, degree)
        assert got.shape == want.shape
        assert np.abs(got.T @ got - np.eye(got.shape[1])).max(initial=0.0) < 1e-12
        assert subspace_residual(got, want) < 1e-12
    assert base_homology(seq.surface) == oracles.base_homology(seq.surface)


@pytest.mark.parametrize("fault, message", [
    (lambda r1, r2, cycles: (r1, r2, np.vstack([0 * cycles[:1], cycles[1:]])),
     "has a boundary"),
    (lambda r1, r2, cycles: (r1, r2 - 1, cycles), "dimension 1, counted 2"),
], ids=["cycle", "count"])
def test_counted_support_homology_is_certified(monkeypatch, fault, message):
    # A counted 2-cycle with a boundary, or a degree-1 count that the
    # decomposition does not confirm, is a fault, not a dimension.
    count = maps.constant_homology
    monkeypatch.setattr(maps, "constant_homology",
                        lambda surface, support: fault(*count(surface, support)))
    seq = build_exact_sequence(square_hole_grid(3))
    with pytest.raises(ExactnessViolation, match=message):
        seq.rigid_h2()


def assert_spatial_basis_matches_the_dense_route(seq):
    basis, dense = seq.spatial_h2(), oracles.spatial_h2(seq)
    assert basis.shape == dense.shape
    assert subspace_residual(basis, dense) < 1e-12
    assert cycle_residuals(seq.spatial, basis).max(initial=0.0) <= 1e-12


# Spatial homology and the truss kernel are built from hinge classes;
# the dense kernels of the spatial boundary and of the bar-length
# Jacobian are the reference.
@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_spatial_and_truss_bases_match_the_dense_route(make):
    surface = make()
    seq = build_exact_sequence(surface)
    assert_spatial_basis_matches_the_dense_route(seq)
    linkage = stiffen(surface)
    kernel, dense = truss_kernel(linkage, seq.spatial_h2()), oracles.truss_kernel(linkage)
    assert kernel.shape == dense.shape
    assert subspace_residual(kernel, dense) < 1e-12


def pinned_chain_sequence(n):
    s = surface_of("chain", n)
    seq = build_exact_sequence(s)
    base = [chain_structure(s).face_order[0]]
    return _verified_sequence(*(cc.pinned(2, base)
                                for cc in (seq.hinge, seq.rigid, seq.spatial)))


@pytest.mark.parametrize("n", [1, 2, 40])
def test_pinned_chain_spatial_basis_matches_the_dense_route(n):
    assert_spatial_basis_matches_the_dense_route(pinned_chain_sequence(n))


def two_sheets():
    """Two disjoint ``grid 2 2`` sheets, the second moved clear of the first."""
    s = surface_of("grid", 2, 2)
    nv = s.num_vertices
    return build_surface(np.vstack([s.vertices, s.vertices + [10.0, 0.0, 0.0]]),
                         list(s.faces) + [tuple(v + nv for v in f) for f in s.faces])


LIFT_SURFACES = ORACLE_SURFACES + [
    (f"chain_{n}", lambda n=n: surface_of("chain", n)) for n in (1, 2, 40, 160)
] + [("two_sheets", two_sheets)]


@pytest.mark.parametrize("roots", ["no_root", "one_face", "two_faces"])
@pytest.mark.parametrize("make", [m for _, m in LIFT_SURFACES],
                         ids=[n for n, _ in LIFT_SURFACES])
def test_tree_lift_matches_the_level_loop(make, roots, rng):
    # The forest is found once, then stepped level by level; the oracle
    # rescans every link per level.  Both pick the same tree link for
    # each face, so the lifts agree bit for bit.
    s = make()
    mask = np.zeros(s.num_faces, dtype=bool)
    mask[{"no_root": [], "one_face": [0],
          "two_faces": [s.num_faces // 2, s.num_faces - 1]}[roots]] = True
    rates = rng.normal(size=(s.num_edges, 3))
    lift = maps._tree_lift(s, mask, rates)
    assert lift.shape == (s.num_faces, 6, 3)
    assert np.array_equal(lift, oracles.tree_lift(s, mask, rates))


def test_tree_lift_roots_a_free_component_at_its_lowest_face(rng):
    s = two_sheets()
    half = s.num_faces // 2
    pinned = np.zeros(s.num_faces, dtype=bool)
    pinned[0] = True
    lift = maps._tree_lift(s, pinned, rng.normal(size=(s.num_edges, 2)))
    still = np.flatnonzero(np.abs(lift).max(axis=(1, 2)) == 0)
    assert still.tolist() == [0, half]


def test_spatial_basis_certificate_names_a_column_that_is_no_cycle(monkeypatch):
    # A lift that turns one face too far is no cycle.
    def bent(surface, roots, rates):
        nu = tree_lift(surface, roots, rates)
        nu[-1] += 1e-3
        return nu

    tree_lift = maps._tree_lift
    monkeypatch.setattr(maps, "_tree_lift", bent)
    seq = build_exact_sequence(surface_of("single_vertex", 4, 0.5))
    with pytest.raises(ExactnessViolation, match="^spatial basis column 6 is not a cycle"):
        seq.spatial_h2()


def test_spatial_basis_certificate_names_a_dependent_column(monkeypatch):
    # A zero lift is a cycle, but it adds no motion.
    monkeypatch.setattr(maps, "_tree_lift",
                        lambda surface, roots, rates: np.zeros((surface.num_faces, 6,
                                                                rates.shape[1])))
    seq = build_exact_sequence(surface_of("single_vertex", 4, 0.5))
    with pytest.raises(ExactnessViolation, match="^spatial basis column 6 depends"):
        seq.spatial_h2()


def test_rigid_dims_stay_topological_at_large_scale():
    # The dense decompositions of the rigid complex reported (1, 7) here.
    seq = build_exact_sequence(scaled(surface_of("grid", 12, 12), 1e4))
    assert (seq.rigid_h1().shape[1], seq.rigid_h2().shape[1]) == (0, 6)


def test_theta_rank(any_surface):
    seq = build_exact_sequence(any_surface)
    theta = seq.spatial_to_hinge_matrix()
    assert svd_rank(theta, scale=1.0) == seq.spatial_h2().shape[1] - 6


def test_theta_annihilates_global_motions(rng):
    seq = build_exact_sequence(two_panels())
    theta = seq.spatial_to_hinge_matrix()
    for _ in range(20):
        vec = rng.normal(size=6)
        chain = np.concatenate([
            transfer_matrix(np.zeros(3), seq.surface.centroid((2, f))) @ vec
            for f in range(seq.surface.num_faces)])
        coords = seq.spatial_h2().T @ chain
        # Global motions are cycles, so projection loses nothing.
        assert np.allclose(seq.spatial_h2() @ coords, chain, atol=1e-9)
        assert np.abs(theta @ coords).max() < 1e-10


def test_theta_pseudoinverse_projectors(any_surface):
    from foldkin.linalg import pseudoinverse

    seq = build_exact_sequence(any_surface)
    theta = seq.spatial_to_hinge_matrix()
    pinv = pseudoinverse(theta)
    image = oracles.column_space(theta)
    assert np.abs(theta @ pinv @ image - image).max(initial=0.0) < 1e-9
    kernel = nullspace(theta)
    expect = np.eye(theta.shape[1]) - kernel @ kernel.T
    assert np.abs(pinv @ theta - expect).max() < 1e-9


# theta is the direct formula, certified by the tree lifts; the generic
# lift / boundary / restrict connecting map is the reference.
@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES]
                         + [lambda n=n: pinned_chain_sequence(n) for n in (1, 2, 40)]
                         + [lambda f=f: scaled(surface_of("grid", 12, 12), f)
                            for f in (1e-3, 1e6)],
                         ids=[n for n, _ in ORACLE_SURFACES]
                         + [f"pinned_chain_{n}" for n in (1, 2, 40)]
                         + [f"grid_12_12-{f:g}" for f in (1e-3, 1e6)])
def test_theta_matches_the_connecting_map(make):
    made = make()
    seq = made if isinstance(made, ExactSequence) else build_exact_sequence(made)
    theta, reference = seq.spatial_to_hinge_matrix(), oracles.theta(seq)
    assert theta.shape == reference.shape
    assert np.abs(theta - reference).max(initial=0.0) <= 1e-10


def test_theta_certificate_sees_lifts_out_of_class_order(monkeypatch):
    # Reversed lift columns are still independent cycles, but column j
    # no longer lifts hinge class j, so theta @ R misses [0 | N] / D.
    tree_lift = maps._tree_lift
    monkeypatch.setattr(maps, "_tree_lift",
                        lambda *args: tree_lift(*args)[:, :, ::-1])
    seq = build_exact_sequence(surface_of("chain", 4, seed=2))
    assert seq.spatial_h2().shape[1] == 6 + 4
    with pytest.raises(ExactnessViolation, match="direct formula"):
        seq.spatial_to_hinge_matrix()


def test_runtime_path_runs_no_connecting_map(monkeypatch):
    # The connecting map is a test oracle: analysis and the pinned chain
    # run without it, wherever a module holds it.
    def forbidden(*args, **kwargs):
        raise AssertionError("connecting_map called")

    original = cosheaf.connecting_map
    for name, module in list(sys.modules.items()):
        if name == "foldkin" or name.startswith("foldkin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    for surface in (surface_of("grid", 8, 8), surface_of("torus", 6, 6), jessen()):
        assert analyze_surface(surface).all_ok
    s = surface_of("chain", 10)
    theta, cycles = pinned_chain_connecting_matrix(s, serial_chain_operators(s))
    assert theta.shape == (10, 10)


# --- hinge -> spatial ---

def test_hinge_to_spatial_round_trip_on_sheets(rng):
    for make in (lambda: surface_of("grid", 2, 2),
                 lambda: surface_of("single_vertex", 5, 0.4),
                 lambda: surface_of("chain", 4)):
        s = make()
        seq = build_exact_sequence(s)
        h1 = seq.hinge_h1()
        rates = h1 @ rng.normal(size=h1.shape[1])
        report = hinge_to_spatial(seq, hinge_solution(seq, rates))
        assert not report.obstructed
        theta = seq.spatial_to_hinge_matrix()
        back = h1 @ (theta @ (seq.spatial_h2().T @ report.spatial.coefficients))
        assert np.abs(back - rates).max() < 1e-9 * max(1, np.abs(rates).max())


def test_hinge_to_spatial_zero_maps_to_zero():
    seq = build_exact_sequence(two_panels())
    rates = np.zeros(len(seq.surface.interior_edges()))
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert not report.obstructed
    assert np.abs(report.spatial.coefficients).max() == 0.0


def test_hinge_to_spatial_output_orthogonal_to_global(rng):
    seq = build_exact_sequence(surface_of("grid", 2, 2))
    h1 = seq.hinge_h1()
    rates = h1 @ rng.normal(size=h1.shape[1])
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    pi_star = induced_map(seq.pi, 2, source_basis=seq.rigid_h2(),
                          target_basis=seq.spatial_h2())
    coords = seq.spatial_h2().T @ report.spatial.coefficients
    assert np.abs(pi_star.T @ coords).max() < 1e-9


def test_obstructed_cycle_rejected_on_ring(rng):
    s = surface_of("annulus", 1, 8)
    seq = build_exact_sequence(s)
    iota_star = seq.loop_obstruction_matrix()
    assert svd_rank(iota_star) > 0
    # A hinge class with nonzero loop obstruction: any row-space vector.
    row_space = oracles.column_space(iota_star.T)
    coords = row_space[:, 0]
    rates = seq.hinge_h1() @ coords
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert report.obstructed
    assert report.obstruction.shape == (6,)
    assert np.linalg.norm(report.obstruction) > 1e-6
    assert report.spatial is None


def test_unobstructed_cycle_converts_on_ring(rng):
    s = surface_of("annulus", 1, 8)
    seq = build_exact_sequence(s)
    kernel = nullspace(seq.loop_obstruction_matrix(), scale=1.0)
    assert kernel.shape[1] > 0
    rates = seq.hinge_h1() @ (kernel @ rng.normal(size=kernel.shape[1]))
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert not report.obstructed
    assert report.residuals["round_trip"] < 1e-9


def test_non_cycle_input_rejected(rng):
    s = surface_of("single_vertex", 4, 0.5)
    seq = build_exact_sequence(s)
    rates = rng.normal(size=4)
    rates += 1.0  # almost surely violates the vertex constraints
    sol = hinge_solution(seq, rates)
    if sol.residual > 1e-7 * np.abs(rates).max():
        with pytest.raises(NotACycle):
            hinge_to_spatial(seq, sol)


# --- spatial <-> truss ---

def test_translation_maps_to_uniform_vertex_velocity(rng):
    s = two_panels()
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    beta = rng.normal(size=3)
    values = np.concatenate([np.concatenate([np.zeros(3), beta])
                             for _ in range(s.num_faces)])
    sol = spatial_solution(seq, values)
    truss = spatial_to_truss(linkage, sol)
    expect = np.tile(beta, linkage.num_points)
    assert np.abs(truss.coefficients - expect).max() < 1e-12
    assert truss.residual < 1e-12


def test_fold_mode_fixes_hinge_line(rng):
    # The two-panel fold about the shared edge leaves that edge's
    # endpoints stationary once the global part anchored there is gone.
    s = two_panels()
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    e = s.interior_edges()[0]
    u, v = s.edges[e]
    axis = s.edge_axis(e)
    anchor = s.centroid((1, e))
    # Rotation of panel g about the hinge line; panel f stays put.
    f, g = s.edge_faces[e]
    values = np.zeros(6 * s.num_faces)
    omega = axis
    values[6 * g:6 * g + 3] = omega
    values[6 * g + 3:6 * g + 6] = np.cross(omega, s.centroid((2, g)) - anchor)
    sol = spatial_solution(seq, values)
    assert sol.residual < 1e-12
    truss = spatial_to_truss(linkage, sol)
    assert truss.residual < 1e-12
    for vertex in (u, v):
        assert np.abs(truss.coefficients[3 * vertex:3 * vertex + 3]).max() < 1e-12


def test_spatial_basis_maps_to_truss_kernel_basis(any_surface):
    seq = build_exact_sequence(any_surface)
    linkage = stiffen(any_surface)
    kernel = oracles.truss_kernel(linkage)
    basis = seq.spatial_h2()
    images = []
    for j in range(basis.shape[1]):
        sol = spatial_solution(seq, basis[:, j])
        out = spatial_to_truss(linkage, sol)
        assert out.residual < 1e-9
        images.append(out.coefficients)
    image = np.column_stack(images)
    assert svd_rank(image) == kernel.shape[1] == basis.shape[1]
    assert np.abs(image - eta_image(linkage, basis)).max() < 1e-12


def test_spatial_to_truss_rejects_disagreeing_faces(rng):
    # A random face vector is no cycle: incident faces move a shared
    # vertex differently, which the agreement check must catch even when
    # the cycle check is switched off.
    s = surface_of("grid", 2, 2)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    sol = spatial_solution(seq, rng.normal(size=6 * s.num_faces))
    with pytest.raises(WellDefinednessViolation):
        spatial_to_truss(linkage, sol, cycle_tol=np.inf)


def test_truss_round_trip(rng, any_surface):
    seq = build_exact_sequence(any_surface)
    linkage = stiffen(any_surface)
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    sol = spatial_solution(seq, values)
    truss = spatial_to_truss(linkage, sol)
    back = truss_to_spatial(seq, linkage, truss)
    scale = max(1.0, np.abs(values).max())
    assert np.abs(back.coefficients - values).max() < 1e-9 * scale


def test_truss_to_spatial_uniform_translation(rng):
    s = surface_of("grid", 2, 2)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    beta = rng.normal(size=3)
    y = np.tile(beta, linkage.num_points)
    sol = truss_to_spatial(seq, linkage, ModelSolution("truss", y, 0.0))
    for f in range(s.num_faces):
        assert np.abs(sol.coefficients[6 * f:6 * f + 3]).max() < 1e-12
        assert np.allclose(sol.coefficients[6 * f + 3:6 * f + 6], beta)


def test_truss_to_spatial_rejects_warping(rng):
    s = two_panels()
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    y = np.zeros(3 * linkage.num_points)
    y[0] = 1.0  # move one vertex only: stretches its bars
    with pytest.raises((NonRigidMotion, NotACycle)):
        truss_to_spatial(seq, linkage, ModelSolution("truss", y, 0.0))


def test_truss_to_spatial_names_the_face_that_fails_its_fit(rng):
    # Moving one apex off a rigid motion warps only its own face.  With
    # the bar check switched off, the fit gate must name that face.
    s = surface_of("grid", 2, 3)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    basis = seq.spatial_h2()
    y = spatial_to_truss(linkage, spatial_solution(
        seq, basis @ rng.normal(size=basis.shape[1]))).coefficients
    for f in (0, 3, s.num_faces - 1):
        bent = y.copy()
        bent.reshape(-1, 3)[linkage.apex_of_face[f]] += 0.1
        with pytest.raises(NonRigidMotion, match=f"^face {f} velocities "):
            truss_to_spatial(seq, linkage, ModelSolution("truss", bent, 0.0),
                             cycle_tol=np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_conversions_reject_non_finite_vectors(bad):
    # NaN fails every comparison and infinity overflows the scales, so
    # neither may reach a residual gate.
    s = surface_of("single_vertex", 4, 0.5)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    rates = seq.hinge_h1()[:, 0].copy()
    rates[0] = bad
    with pytest.raises(NotACycle, match="^hinge vector has non-finite"):
        hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
    values = np.zeros(6 * s.num_faces)
    values[0] = bad
    with pytest.raises(NotACycle, match="^spatial vector has non-finite"):
        spatial_to_truss(linkage, spatial_solution(seq, values))
    y = np.zeros(3 * linkage.num_points)
    y[4] = bad
    for truss in (y, np.full_like(y, bad)):
        with pytest.raises(NotACycle, match="^truss vector has non-finite"):
            truss_to_spatial(seq, linkage, ModelSolution("truss", truss, 0.0))
    # Hand-built solutions skip the constructors' check.
    with pytest.raises(NotACycle, match="^hinge vector has non-finite"):
        hinge_to_truss(seq, linkage, ModelSolution("hinge", rates, 0.0))
    with pytest.raises(NotACycle, match="^spatial vector has non-finite"):
        spatial_to_truss(linkage, ModelSolution("spatial", values, 0.0))


# --- per-sheet caches ---

@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_cached_conversion_data_matches_the_fresh_route(make):
    s = make()
    seq, linkage = build_exact_sequence(s), stiffen(s)
    a, inverse = oracles.rigid_fit(linkage)
    assert np.array_equal(seq.hinge_to_spatial_matrix(), oracles.hinge_to_spatial_matrix(seq))
    assert np.array_equal(linkage.fit_blocks, a)
    assert np.array_equal(linkage.fit_inverse, inverse)
    assert np.array_equal(linkage._first_corner, oracles.first_corner(linkage))


@pytest.mark.parametrize("spec", [("grid", 4, 4), ("miura", 3, 4), ("single_vertex", 12)],
                         ids=lambda spec: "_".join(map(str, spec)))
def test_conversions_after_the_first_decompose_nothing(monkeypatch, rng, spec):
    # θ's pseudoinverse and the rigid-fit stack are kept on the sequence
    # and the linkage, so a later request decomposes nothing, wherever a
    # module holds the SVD.
    s = surface_of(*spec)
    seq, linkage = build_exact_sequence(s), stiffen(s)
    classes = seq.hinge_h1()
    first = hinge_to_truss(seq, linkage, hinge_solution(seq, classes[:, 0]))
    truss_to_spatial(seq, linkage, first.truss)
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name in ("numpy.linalg", "foldkin") or name.startswith("foldkin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    report = hinge_to_truss(seq, linkage, hinge_solution(
        seq, classes @ rng.normal(size=classes.shape[1])))
    assert not report.obstructed
    back = truss_to_spatial(seq, linkage, report.truss)
    assert np.abs(back.coefficients - report.spatial.coefficients).max() < 1e-9
    assert calls == []


def test_a_replaced_linkage_fits_afresh(rng):
    s = surface_of("grid", 3, 3)
    seq, linkage = build_exact_sequence(s), stiffen(s)
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    truss = spatial_to_truss(linkage, spatial_solution(seq, values))
    truss_to_spatial(seq, linkage, truss)
    # Doubling every corner block halves the fitted velocities.
    doubled = dataclasses.replace(linkage, corner_block=2 * linkage.corner_block)
    a, inverse = oracles.rigid_fit(doubled)
    assert np.array_equal(doubled.fit_blocks, a)
    assert np.array_equal(doubled.fit_inverse, inverse)
    assert np.array_equal(doubled.fit_blocks, 2 * linkage.fit_blocks)
    back = truss_to_spatial(seq, doubled, truss, cycle_tol=np.inf)
    assert np.abs(2 * back.coefficients - values).max() < 1e-9


# --- full pipeline ---

def test_hinge_to_truss_pipeline_on_fan(rng):
    s = surface_of("single_vertex", 4, 0.5)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    h1 = seq.hinge_h1()
    assert h1.shape[1] == 1
    rates = h1[:, 0]
    report = hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
    assert not report.obstructed
    assert report.truss is not None
    assert np.abs(linkage.stretch(report.truss.coefficients)).max() < 1e-9


def test_hinge_to_truss_zero():
    s = surface_of("single_vertex", 4, 0.5)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    rates = np.zeros(len(s.interior_edges()))
    report = hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
    assert np.abs(report.truss.coefficients).max() == 0.0


def test_hinge_to_truss_obstructed_ring():
    s = surface_of("annulus", 1, 8)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    iota_star = seq.loop_obstruction_matrix()
    coords = oracles.column_space(iota_star.T)[:, 0]
    rates = seq.hinge_h1() @ coords
    report = hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
    assert report.obstructed
    assert report.truss is None


def test_pipeline_injective_on_obstruction_free_classes(rng, any_surface):
    seq = build_exact_sequence(any_surface)
    linkage = stiffen(any_surface)
    kernel = nullspace(seq.loop_obstruction_matrix(), scale=1.0)
    if kernel.shape[1] == 0:
        pytest.skip("no obstruction-free classes on this surface")
    images = []
    for j in range(kernel.shape[1]):
        rates = seq.hinge_h1() @ kernel[:, j]
        report = hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
        assert not report.obstructed
        images.append(report.truss.coefficients)
    gram = np.array(images) @ np.array(images).T
    eigs = np.linalg.eigvalsh(gram)
    assert eigs[0] > 1e-12 * eigs[-1]


def test_scaling_leaves_dimensions_unchanged():
    s = two_panels()
    reference = build_exact_sequence(s)
    dims = (reference.hinge_h1().shape[1], reference.spatial_h2().shape[1],
            reference.rigid_h1().shape[1], reference.rigid_h2().shape[1])
    for scale in (1e-3, 1e3):
        scaled = build_surface(s.vertices * scale, [list(c) for c in s.faces])
        seq = build_exact_sequence(scaled)
        assert (seq.hinge_h1().shape[1], seq.spatial_h2().shape[1],
                seq.rigid_h1().shape[1], seq.rigid_h2().shape[1]) == dims


def test_model_dimensions_invariant_under_relabeling(rng):
    s = two_panels()
    reference = build_exact_sequence(s)
    dims = (reference.hinge_h1().shape[1], reference.spatial_h2().shape[1],
            reference.rigid_h1().shape[1])
    for _ in range(5):
        perm = rng.permutation(s.num_vertices)
        verts = np.empty_like(s.vertices)
        verts[perm] = s.vertices
        faces = [[int(perm[v]) for v in cycle] for cycle in s.faces]
        seq = build_exact_sequence(build_surface(verts, faces))
        assert (seq.hinge_h1().shape[1], seq.spatial_h2().shape[1],
                seq.rigid_h1().shape[1]) == dims


# --- serial chains ---

def test_single_hinge_chain_operator():
    s = surface_of("chain", 1)
    ops = serial_chain_operators(s)
    chain = ops.chain
    e = chain.hinge_order[0]
    f = chain.face_order[1]
    expect = transfer_matrix(s.centroid((1, e)), s.centroid((2, f))) \
        @ hinge_twist(s.edge_axis(e))[:, None]
    assert ops.d.shape == (6, 1)
    assert np.abs(ops.d - expect).max() < 1e-13


def test_chain_recurrence_matches_operator(rng):
    for n in (2, 5, 40, 160):
        s = surface_of("chain", n, seed=11)
        ops = serial_chain_operators(s)
        rates = rng.normal(size=n)
        stepped = propagate_chain(ops, rates)
        direct = ops.d @ rates
        assert np.abs(stepped - direct).max() < 1e-12 * max(1, np.abs(direct).max())


def test_chain_inverse_identities():
    for n in (1, 4, 7, 40, 160):
        s = surface_of("chain", n, seed=23)
        ops = serial_chain_operators(s)
        n6 = 6 * n
        assert np.abs(ops.accumulate_inverse @ ops.accumulate
                      - np.eye(n6)).max() < 1e-12
        assert np.abs(ops.d_pinv @ ops.d - np.eye(n)).max() < 1e-11


def test_chain_left_inverse_is_connecting_map():
    for n, seed in ((1, 0), (3, 5), (5, 9)):
        s = surface_of("chain", n, seed=seed)
        ops = serial_chain_operators(s)
        theta, cycles = pinned_chain_connecting_matrix(s, ops)
        via_ops = ops.d_pinv @ cycles
        assert theta.shape == via_ops.shape == (n, n)
        assert np.abs(theta - via_ops).max() < 1e-9


def test_pinned_chain_runs_the_sequence_checks(monkeypatch):
    # The pinned sequence is built and verified like the free one, so a
    # direct formula that disagrees with the connecting map is caught.
    s = surface_of("chain", 4, seed=2)
    ops = serial_chain_operators(s)
    direct = ExactSequence._theta_direct
    with monkeypatch.context() as patch:
        patch.setattr(ExactSequence, "_theta_direct", lambda seq: direct(seq) + 1e-6)
        with pytest.raises(ExactnessViolation, match="direct formula"):
            pinned_chain_connecting_matrix(s, ops)
    # The pinned sequence is the only one verified, so its naturality
    # and exactness checks must run: a quotient map that is off at the
    # hinges, and a hinge embedding that is zero (natural, but not
    # injective), are both caught.
    pi_map = maps._pi_map

    def skewed_pi(rigid, spatial):
        pi = pi_map(rigid, spatial)
        return CosheafMap(source=rigid, target=spatial,
                          components=(pi.components[0], pi.components[1] * (1 + 1e-6),
                                      pi.components[2]))

    with monkeypatch.context() as patch:
        patch.setattr(maps, "_pi_map", skewed_pi)
        with pytest.raises(NaturalityViolation, match="naturality residual"):
            pinned_chain_connecting_matrix(s, ops)
    with monkeypatch.context() as patch:
        patch.setattr(maps, "_iota_map", lambda hinge, rigid: CosheafMap(
            source=hinge, target=rigid,
            components=(np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((6, 0)))))
        with pytest.raises(ExactnessViolation, match="^sequence fails at cell"):
            pinned_chain_connecting_matrix(s, ops)


def test_pinned_chain_verifies_one_sequence(monkeypatch):
    # The free sequence is neither built nor verified.
    faces = []
    verify = maps.verify_exact_sequence

    def recording(iota, pi):
        faces.append(iota.target.support[2])
        return verify(iota, pi)

    monkeypatch.setattr(maps, "verify_exact_sequence", recording)
    monkeypatch.setattr(maps, "build_exact_sequence", None)
    s = surface_of("chain", 6, seed=4)
    ops = serial_chain_operators(s)
    pinned_chain_connecting_matrix(s, ops)
    assert len(faces) == 1
    assert not faces[0][ops.chain.face_order[0]]


@pytest.mark.parametrize("n", [1, 2, 40, 160])
def test_chain_operators_match_the_dense_construction(n):
    s = surface_of("chain", n, seed=n)
    ops = serial_chain_operators(s)
    psi, psi_inv, d, d_pinv, gap = oracles.serial_chain_operators(s)
    for got, want in ((ops.accumulate, psi), (ops.accumulate_inverse, psi_inv),
                      (ops.d, d), (ops.d_pinv, d_pinv)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert ops.inverse_gap == gap


@pytest.mark.parametrize("block", [0, 6, 7, 38])
def test_chain_inverse_certificate_sees_a_faulty_sub_block(monkeypatch, block):
    # n = 40 checks its inverse seven block rows at a time, so blocks 6
    # and 7 sit at the seam of the first two chunks.
    n = 40
    s = surface_of("chain", n, seed=3)
    transfer = maps.transfer_matrix

    def faulty(from_point, to_point):
        out = transfer(from_point, to_point)
        if out.shape == (n - 1, 6, 6):  # the sub-diagonal blocks
            out[block, 4, 1] += 1e-9
        return out

    monkeypatch.setattr(maps, "transfer_matrix", faulty)
    with pytest.raises(FoldkinError, match="^chain operator inverse failed"):
        serial_chain_operators(s)


def test_chain_left_inverse_certificate_sees_a_faulty_entry(monkeypatch):
    # d_pinv[i, j, b] is entry b of block j in row i.  Blocks i - 1 and i
    # enter the product; a fault of either sign anywhere else, at either
    # edge of the band or in a corner, must still be seen.
    einsum = np.einsum
    n = 40
    for k, entry in enumerate([(3, 5, 0), (3, 4, 5), (5, 3, 0), (0, 1, 0), (0, n - 1, 5),
                               (n - 1, 0, 0), (n - 1, n - 3, 5), (7, 7, 2), (7, 6, 3)]):
        def faulty(subscripts, *operands, **kwargs):
            out = einsum(subscripts, *operands, **kwargs)
            if subscripts == "ia,iajb->ijb":  # d_pinv
                out[entry] += (-1) ** k * 1e-9
            return out

        with monkeypatch.context() as patch:
            patch.setattr(np, "einsum", faulty)
            with pytest.raises(FoldkinError, match="^chain left inverse failed"):
                serial_chain_operators(surface_of("chain", n, seed=3))


def test_collapsed_hinge_is_rejected_as_degenerate():
    # A hinge of zero length never reaches the chain operators: building
    # the surface rejects its edge first.
    doc = generate("chain", 5, seed=1)
    s = surface_from_document(doc)
    u, v = s.edges[chain_structure(s).hinge_order[2]]
    doc.vertices_coords[v] = list(doc.vertices_coords[u])
    with pytest.raises(Degenerate, match=rf"^edge \d+ = \({u}, {v}\) has zero length"):
        surface_from_document(doc)


def test_chain_structure_requires_path():
    with pytest.raises(InvalidParams, match="^surface is not a serial chain$"):
        chain_structure(surface_of("grid", 2, 2))


@pytest.mark.parametrize("parts", [
    # Two ends and no face of degree 3, but the ring is a second component.
    lambda: [surface_of("chain", 2), surface_of("annulus", 1, 8)],
    lambda: 2 * [one_face()],
], ids=["chain_and_ring", "two_triangles"])
def test_chain_structure_requires_one_component(parts):
    s = build_surface(*disjoint_union(*((p.vertices, p.faces) for p in parts())))
    with pytest.raises(InvalidParams, match="^chain dual graph is not connected$"):
        chain_structure(s)


def test_chain_solutions_live_in_hinge_space():
    s = surface_of("chain", 4)
    seq = build_exact_sequence(s)
    # No interior vertices: every rate vector is a valid hinge solution.
    assert seq.hinge_h1().shape[1] == 4
