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
    verify_exact_sequence,
)
from foldkin import cosheaf, linalg, maps
from foldkin import surface as surface_module
from foldkin.analysis import analyze_surface
from foldkin.cosheaf import cycle_residuals
from foldkin.models import eta_image, truss_kernel
from foldkin.errors import (
    Degenerate,
    ExactnessViolation,
    FoldkinError,
    FunctorialityViolation,
    InvalidParams,
    NaturalityViolation,
    NonRigidMotion,
    NotACycle,
    WellDefinednessViolation,
)
from foldkin.linalg import nullspace, subspace_residual, svd_rank
from foldkin.surface import constant_homology

import oracles
from conftest import (
    ORACLE_SURFACES,
    disjoint_union,
    flipped_icosahedron,
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
    _, iota, pi = oracles.sequence_maps(seq)
    assert seq.exactness_residual < 1e-12
    assert iota.naturality_residual() < 1e-12
    assert pi.naturality_residual() < 1e-12


# The sequence is certified from the edge triads and the spatial model's
# functoriality; each fault on interior edge 9 of grid 4 4 must raise.
# ``change`` takes the edge's value and its triad rows l, m, n.  A scaled
# axis leaves the axis projection, and so every model, as it was: the
# triad certificate alone sees it.
@pytest.mark.parametrize("field, change, error, message", [
    ("edge_triads", lambda t, l, m, n: np.array([(1 + 1e-6) * l, m, n]),
     ExactnessViolation, r"^sequence fails at cell \(1, 9\): residual 2\.000e-06$"),
    ("edge_triads", lambda t, l, m, n: np.array([l, m + 1e-6 * l, n]),
     FunctorialityViolation, "^worst relative composition residual 5.000e-07$"),
    ("edge_midpoints", lambda p, l, m, n: p + 1e-6 * m,
     FunctorialityViolation, "^worst relative composition residual 1.000e-06$"),
], ids=["scaled_axis", "tilted_m", "midpoint_off_hinge"])
def test_faulted_triads_and_midpoints_fail_the_sequence(field, change, error, message):
    s = surface_of("grid", 4, 4)
    assert s.interior_edge[9]
    values = getattr(s, field).copy()
    values[9] = change(values[9], *s.edge_triads[9])
    with pytest.raises(error, match=message):
        build_exact_sequence(dataclasses.replace(s, **{field: values}))


def test_exactness_at_spatial_classes(any_surface):
    # Image of the rigid classes equals the kernel of the connecting map.
    seq = build_exact_sequence(any_surface)
    pi_star = induced_map(oracles.sequence_maps(seq)[2], 2, source_basis=seq.rigid_h2(),
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
    kernel = nullspace(dense, scale=1.0)
    assert subspace_residual(nullspace(got, scale=1.0), kernel) < 1e-12
    # So do the verdicts, on unobstructed classes and on obstructed ones
    # (the complement of the kernel), and the obstruction's length.
    h1 = seq.hinge_h1()
    for coords, obstructed in ((kernel, False), (oracles.column_space(dense.T, scale=1.0), True)):
        for c in coords.T:
            report = hinge_to_spatial(seq, hinge_solution(seq, h1 @ c))
            assert report.obstructed is obstructed
            assert report.obstruction.shape == (len(dense),)


COUNTED_SEQUENCES = [
    (name, lambda make=make: build_exact_sequence(make())) for name, make in ORACLE_SURFACES
] + [(f"pinned_chain_{n}", lambda n=n: pinned_chain_sequence(n)) for n in (1, 2, 40)]


@pytest.mark.parametrize("make", [m for _, m in COUNTED_SEQUENCES],
                         ids=[n for n, _ in COUNTED_SEQUENCES])
def test_counted_support_homology_matches_the_decomposition(make):
    # The support complex's 2-cycles and the Betti numbers are read off
    # component counts, and its loops off a tree-cotree split; the SVDs
    # of the integer matrices are the reference.
    seq = make()
    cycles = seq._support_homology()[1]
    got, want = cycles / np.sqrt(cycles.sum(axis=0)), oracles.support_h(seq, 2)
    assert got.shape == want.shape
    assert subspace_residual(got, want) < 1e-12
    # One integer cocycle per harmonic loop: it vanishes exactly on the
    # integer face boundaries, and pairing with the harmonic cycles is
    # invertible, so the cocycles read off every class.
    loops, harmonic = seq.loop_cocycles(), oracles.support_h(seq, 1)
    assert loops.shape == harmonic.shape
    assert set(np.unique(loops)) <= {-1.0, 0.0, 1.0}
    _, d2 = oracles.signed_incidence_matrices(seq.surface)
    vs, es, fs = oracles.sequence_maps(seq)[0].support
    assert not (loops.T @ d2[es][:, fs]).any()
    assert svd_rank(loops.T @ harmonic) == loops.shape[1]
    assert seq.rigid_h1().shape == (6 * len(loops), 6 * loops.shape[1])
    assert base_homology(seq.surface) == oracles.base_homology(seq.surface)


@pytest.mark.parametrize("make", [m for _, m in COUNTED_SEQUENCES],
                         ids=[n for n, _ in COUNTED_SEQUENCES])
def test_global_motions_match_the_constant_rigid_isomorphism(make):
    # The global motions are moved from the origin to the face centroids
    # by the tree lift's transfer; the validated isomorphism is the
    # reference, bit for bit.
    seq = make()
    rigid = oracles.sequence_maps(seq)[0]
    z2 = constant_homology(seq.surface, rigid.support)[2]
    got = seq.rigid_h2()
    phi = oracles.constant_rigid_isomorphism(rigid)
    want = np.linalg.qr(phi.apply(2, np.kron(z2, np.eye(6))))[0]
    assert np.array_equal(got, want)


def _drop_last_entry(loops):
    return np.where(np.arange(loops.size).reshape(loops.shape)
                    == np.flatnonzero(loops)[-1], 0.0, loops)


@pytest.mark.parametrize("name, fault, message", [
    ("constant_homology",
     lambda counts: (*counts[:2], np.vstack([0 * counts[2][:1], counts[2][1:]])),
     "has a boundary"),
    ("constant_homology", lambda counts: (counts[0], counts[1] - 1, counts[2]),
     "dimension 1, counted 2"),
    ("loop_cocycles", _drop_last_entry, "does not vanish on a face boundary"),
], ids=["cycle", "count", "cocycle"])
def test_counted_support_homology_is_certified(monkeypatch, name, fault, message):
    # A counted 2-cycle with a boundary, a degree-1 count that the loops
    # do not confirm, or a cocycle missing one cotree link, is a fault,
    # not a dimension.
    original = getattr(maps, name)
    monkeypatch.setattr(maps, name,
                        lambda surface, support: fault(original(surface, support)))
    seq = build_exact_sequence(square_hole_grid(3))
    with pytest.raises(ExactnessViolation, match=message):
        seq.rigid_h2()


def relabeled(surface, seed=5):
    """The same surface with its vertex ids permuted."""
    perm = np.random.default_rng(seed).permutation(surface.num_vertices)
    verts = np.empty_like(surface.vertices)
    verts[perm] = surface.vertices
    return build_surface(verts, [[int(perm[v]) for v in c] for c in surface.faces])


# Hinge homology is glued from vertex stars; the dense kernel of the
# whole hinge boundary is the reference.  The degenerate sheets have
# vertices whose axes span less than they generically would.
HINGE_SURFACES = ORACLE_SURFACES + [
    (f"{shape}_{a}_{b}", lambda shape=shape, a=a, b=b: surface_of(shape, a, b))
    for shape, a, b in (("grid", 16, 16), ("torus", 16, 16), ("annulus", 8, 32),
                        ("miura", 20, 20))
] + [
    ("flat_vertex", lambda: surface_of("single_vertex", 4, 0.0, jitter=False)),
    ("miura_10_10", lambda: surface_of("miura", 10, 10)),
    ("flat_grid_6_6", lambda: surface_of("grid", 6, 6, jitter=False)),
    ("flat_grid_12_12", lambda: surface_of("grid", 12, 12, jitter=False)),
    ("square_hole_12", lambda: square_hole_grid(12)),
] + [(f"icosahedron_{long:g}", lambda long=long: flipped_icosahedron(long))
     for long in (1.5, 2.5)
] + [(f"grid_12_12-{f:g}", lambda f=f: scaled(surface_of("grid", 12, 12), f))
     for f in (1e-3, 1e-1, 1e3, 1e6)
] + [(f"torus_16_16-{f:g}", lambda f=f: scaled(surface_of("torus", 16, 16), f))
     for f in (1e-3, 1e6)
] + [("grid_12_12-relabeled", lambda: relabeled(surface_of("grid", 12, 12))),
     ("torus_8_8-relabeled", lambda: relabeled(surface_of("torus", 8, 8)))]


@pytest.mark.parametrize("make", [m for _, m in HINGE_SURFACES],
                         ids=[n for n, _ in HINGE_SURFACES])
def test_glued_hinge_homology_matches_the_dense_route(make):
    seq = build_exact_sequence(make())
    basis, dense = seq.hinge_h1(), oracles.hinge_h1(seq)
    assert basis.shape == dense.shape
    assert subspace_residual(basis, dense) <= 1e-11
    d1 = seq.hinge.d1
    reach = np.abs(d1).max(initial=0.0) * np.abs(basis).max(initial=0.0)
    assert np.abs(d1 @ basis).max(initial=0.0) <= 1e-12 * reach
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("fault, message", [
    (lambda k: k + np.where(np.arange(k.size).reshape(k.shape) == 0, 1e-6, 0.0),
     "^glued column 0 is not a cycle"),
    (lambda k: k * (1 + 1e-6), "^glued basis is not orthonormal"),
], ids=["cycle", "orthonormal"])
def test_glued_hinge_homology_is_certified(monkeypatch, fault, message):
    # grid 12 12 has more interior vertices than one leaf, so its patches
    # are glued.  Every interior edge there has an interior end, so the
    # last merge covers them all; a fault there alone must be seen.
    s = surface_of("grid", 12, 12)
    assert s.interior_vertex.sum() > cosheaf.LEAF_VERTICES
    glue, faulted = cosheaf._VertexStars.glue, []

    def faulty(self, one, two):
        edges, k = glue(self, one, two)
        if len(edges) < s.interior_edge.sum():
            return edges, k
        faulted.append(1)
        return edges, fault(k)

    monkeypatch.setattr(cosheaf._VertexStars, "glue", faulty)
    with pytest.raises(ExactnessViolation, match=message):
        build_exact_sequence(s).hinge_h1()
    assert faulted == [1]


def test_gluing_counts_no_rounding_noise_as_rank(rng):
    # Two patches whose kernels vanish on their shared edges 4 and 5 up
    # to rounding glue into every pair of columns.  The merge's cutoff is
    # anchored at 1, the size of an orthonormal basis's entries; taken
    # relative to the merge's own largest singular value, the noise
    # would count as rank and drop columns.
    stars = cosheaf._VertexStars(build_exact_sequence(surface_of("grid", 2, 2)).hinge)
    noise = 1e-17 * rng.normal(size=(2, 2))
    k1 = np.vstack([np.linalg.qr(rng.normal(size=(4, 2)))[0], noise])
    k2 = np.vstack([noise.T, np.linalg.qr(rng.normal(size=(4, 2)))[0]])
    edges, glued = stars.glue((np.arange(6), k1), (np.arange(4, 10), k2))
    assert np.array_equal(edges, np.arange(10))
    assert glued.shape == (10, 4)


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


def pinned_chain_sequence(n, seed=0):
    """The one sequence that a pinned chain is read from: the free
    chain's, since pinning is the quotient by the global motions
    (``test_pinned_chain_verifies_one_sequence``)."""
    return build_exact_sequence(surface_of("chain", n, seed=seed))


@pytest.mark.parametrize("n", [1, 2, 40])
def test_pinned_chain_spatial_basis_matches_the_dense_route(n):
    # The free basis matches the free kernel; the pinned cycles, its
    # columns past the global motions less the motion that carries the
    # base face, span the kernel of the spatial boundary once the base
    # face's columns are dropped.
    seq = pinned_chain_sequence(n)
    assert_spatial_basis_matches_the_dense_route(seq)
    s = seq.surface
    ops = serial_chain_operators(s)
    _, cycles = pinned_chain_connecting_matrix(s, ops)
    d2 = seq.spatial.d2.reshape(-1, s.num_faces, 6)[:, ops.chain.face_order[1:]]
    dense = nullspace(d2.reshape(len(d2), -1))
    assert cycles.shape == dense.shape == (6 * n, n)
    assert subspace_residual(oracles.column_space(cycles), dense) < 1e-12


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
    # The surface keeps the forest that oriented its faces, and the lift
    # steps it level by level; the oracle rescans every link per level
    # from the given roots.  Unrooted, both pick the same tree link for
    # each face, so the lifts agree bit for bit; face 0 roots its
    # component, so based there the lift loses exactly nothing.  Based at
    # either of two other faces, a hinge class without loop obstruction,
    # which lifts the same way along any tree, matches the level loop
    # rooted there, on that face's component.
    s = make()
    if roots != "two_faces":
        mask = np.zeros(s.num_faces, dtype=bool)
        mask[0] = roots == "one_face"
        rates = rng.normal(size=(s.num_edges, 3))
        lift = maps._tree_lift(s, rates)
        if roots == "one_face":
            lift = maps._based(s, lift, 0)
        assert lift.shape == (s.num_faces, 6, 3)
        assert np.array_equal(lift, oracles.tree_lift(s, mask, rates))
        return
    seq = build_exact_sequence(s)
    kernel = nullspace(seq.loop_obstruction_matrix(), scale=1.0)
    rates = np.zeros((s.num_edges, kernel.shape[1]))
    rates[s.interior_edge] = seq.hinge_h1() @ kernel
    labels, _ = surface_module._free_components(
        s.num_faces, s.incidences["fe"].upper[s.dual_links()], np.zeros(s.num_faces, dtype=bool))
    for base in (s.num_faces // 2, s.num_faces - 1):
        want = oracles.tree_lift(s, np.arange(s.num_faces) == base, rates)
        got = maps._based(s, maps._tree_lift(s, rates), base)
        same = labels == labels[base]
        assert not got[base].any()
        assert (np.abs(got[same] - want[same]).max(initial=0.0)
                <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0)))


def test_tree_lift_roots_a_free_component_at_its_lowest_face(rng):
    s = two_sheets()
    half = s.num_faces // 2
    lift = maps._tree_lift(s, rng.normal(size=(s.num_edges, 2)))
    still = np.flatnonzero(np.abs(lift).max(axis=(1, 2)) == 0)
    assert still.tolist() == [0, half]


def test_spatial_basis_walks_the_dual_graph_only_for_the_loops(monkeypatch):
    # The tree lift steps the forest the surface kept; the only walks of
    # a fresh spatial basis are the loop cocycles' tree and cotree.
    s = surface_of("grid", 4, 4)
    walks, walk = [], surface_module._dual_forest
    for module in (surface_module, maps):
        monkeypatch.setattr(module, "_dual_forest",
                            lambda *args: walks.append(1) or walk(*args))
    build_exact_sequence(s).spatial_h2()
    assert len(walks) == 2


def test_spatial_basis_certificate_names_a_column_that_is_no_cycle(monkeypatch):
    # A lift that turns one face too far is no cycle.
    def bent(surface, rates):
        nu = tree_lift(surface, rates)
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
                        lambda surface, rates: np.zeros((surface.num_faces, 6,
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
            transfer_matrix(np.zeros(3), seq.surface.face_centroids[f]) @ vec
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
    # no longer lifts hinge class j, so theta @ R misses [0 | N] / D, and
    # a conversion's round trip misses its input rates.
    tree_lift = maps._tree_lift
    monkeypatch.setattr(maps, "_tree_lift",
                        lambda *args: tree_lift(*args)[:, :, ::-1])
    seq = build_exact_sequence(surface_of("chain", 4, seed=2))
    assert seq.spatial_h2().shape[1] == 6 + 4
    with pytest.raises(ExactnessViolation, match="direct formula"):
        seq.spatial_to_hinge_matrix()
    report = hinge_to_spatial(seq, hinge_solution(seq, seq.hinge_h1()[:, 0]))
    assert report.residuals["round_trip"] > 0.1


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
    pi_star = induced_map(oracles.sequence_maps(seq)[2], 2, source_basis=seq.rigid_h2(),
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


# The θ⁺ class route, which decomposes θ, is the reference for the lift
# route.
@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_hinge_to_spatial_matches_the_pseudoinverse_route(make, rng):
    seq = build_exact_sequence(make())
    h1 = seq.hinge_h1()
    kernel = nullspace(seq.loop_obstruction_matrix(), scale=1.0)
    for coords in (kernel @ rng.normal(size=kernel.shape[1]), rng.normal(size=h1.shape[1])):
        rates = h1 @ coords
        report = hinge_to_spatial(seq, hinge_solution(seq, rates))
        obstruction, obstructed, values = oracles.hinge_to_spatial(seq, rates)
        assert report.obstructed == obstructed
        assert np.array_equal(report.obstruction, obstruction)
        if obstructed:
            assert report.spatial is None
            continue
        scale = max(1.0, np.abs(values).max(initial=0.0))
        assert np.abs(report.spatial.coefficients - values).max(initial=0.0) <= 1e-12 * scale
        assert report.residuals["round_trip"] <= 1e-12


def test_conversions_measure_a_hand_built_non_cycle(rng):
    # A hand-built solution may carry any residual.  Each conversion
    # measures the vector it reads, so a non-cycle that claims 0.0 is
    # rejected as such, not converted or failed downstream.
    s = surface_of("grid", 3, 4)
    seq, linkage = build_exact_sequence(s), stiffen(s)
    rates = rng.normal(size=len(s.interior_edges()))
    assert hinge_solution(seq, rates).residual > 1e-3
    sol = ModelSolution("hinge", rates, 0.0)
    with pytest.raises(NotACycle, match="^hinge vector violates its constraints"):
        hinge_to_spatial(seq, sol)
    with pytest.raises(NotACycle, match="^hinge vector violates its constraints"):
        hinge_to_truss(seq, linkage, sol)
    values = rng.normal(size=6 * s.num_faces)
    assert spatial_solution(seq, values).residual > 1e-3
    with pytest.raises(NotACycle, match="^spatial vector violates its constraints"):
        spatial_to_truss(seq, linkage, ModelSolution("spatial", values, 0.0))


def test_every_gate_is_relative_to_its_vector():
    # A class at 1e9 carries rounding residuals over the bound in
    # absolute terms; each gate scales the bound by max(1, max |x|).
    s = surface_of("grid", 3, 4)
    seq, linkage = build_exact_sequence(s), stiffen(s)
    sol = hinge_solution(seq, 1e9 * seq.hinge_h1()[:, 0])
    assert sol.residual > maps.CYCLE_TOL
    report = hinge_to_truss(seq, linkage, sol)
    assert not report.obstructed
    back = truss_to_spatial(seq, linkage, report.truss)
    assert back.residual > maps.CYCLE_TOL
    assert spatial_to_truss(seq, linkage, back).residual > maps.CYCLE_TOL


@pytest.mark.parametrize("spec", [("grid", 4, 4), ("annulus", 2, 8), ("single_vertex", 12)],
                         ids=lambda spec: "_".join(map(str, spec)))
def test_a_conversion_neither_inverts_nor_evaluates_theta(monkeypatch, rng, spec):
    # The first conversion on a fresh sequence reads the tree lifts: it
    # takes no pseudoinverse, wherever a module holds it, and evaluates
    # no connecting map.
    calls = []
    pseudoinverse, theta_direct = linalg.pseudoinverse, ExactSequence._theta_direct

    def counting(*args, **kwargs):
        calls.append("pseudoinverse")
        return pseudoinverse(*args, **kwargs)

    def counting_theta(self):
        calls.append("theta")
        return theta_direct(self)

    for name, module in list(sys.modules.items()):
        if name == "foldkin" or name.startswith("foldkin."):
            for attr, value in list(vars(module).items()):
                if value is pseudoinverse:
                    monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(ExactSequence, "_theta_direct", counting_theta)
    s = surface_of(*spec)
    seq = build_exact_sequence(s)
    kernel = nullspace(seq.loop_obstruction_matrix(), scale=1.0)
    rates = seq.hinge_h1() @ (kernel @ rng.normal(size=kernel.shape[1]))
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert not report.obstructed
    assert report.residuals["round_trip"] <= 1e-12
    assert calls == []
    # The counters see both routes.
    seq.spatial_to_hinge_matrix()
    stiffen(s).fit_inverse
    assert calls == ["theta", "pseudoinverse"]


# --- spatial <-> truss ---

def test_translation_maps_to_uniform_vertex_velocity(rng):
    s = two_panels()
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    beta = rng.normal(size=3)
    values = np.concatenate([np.concatenate([np.zeros(3), beta])
                             for _ in range(s.num_faces)])
    sol = spatial_solution(seq, values)
    truss = spatial_to_truss(seq, linkage, sol)
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
    axis = s.edge_triads[e, 0]
    anchor = s.edge_midpoints[e]
    # Rotation of panel g about the hinge line; panel f stays put.
    f, g = s.edge_faces[e]
    values = np.zeros(6 * s.num_faces)
    omega = axis
    values[6 * g:6 * g + 3] = omega
    values[6 * g + 3:6 * g + 6] = np.cross(omega, s.face_centroids[g] - anchor)
    sol = spatial_solution(seq, values)
    assert sol.residual < 1e-12
    truss = spatial_to_truss(seq, linkage, sol)
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
        out = spatial_to_truss(seq, linkage, sol)
        assert out.residual < 1e-9
        images.append(out.coefficients)
    image = np.column_stack(images)
    assert svd_rank(image) == kernel.shape[1] == basis.shape[1]
    assert np.abs(image - eta_image(linkage, basis)).max() < 1e-12


def test_spatial_to_truss_rejects_disagreeing_faces(monkeypatch, rng):
    # A random face vector is no cycle: incident faces move a shared
    # vertex differently, which the agreement check must catch even when
    # the cycle check is switched off.
    s = surface_of("grid", 2, 2)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    sol = spatial_solution(seq, rng.normal(size=6 * s.num_faces))
    monkeypatch.setattr(maps, "CYCLE_TOL", np.inf)
    with pytest.raises(WellDefinednessViolation, match=r"^vertex \d+ velocity differs across faces"):
        spatial_to_truss(seq, linkage, sol)


def test_truss_round_trip(rng, any_surface):
    seq = build_exact_sequence(any_surface)
    linkage = stiffen(any_surface)
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    sol = spatial_solution(seq, values)
    truss = spatial_to_truss(seq, linkage, sol)
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


def test_truss_to_spatial_names_the_face_that_fails_its_fit(monkeypatch, rng):
    # Moving one apex off a rigid motion warps only its own face.  With
    # the bar check switched off, the fit gate must name that face.
    s = surface_of("grid", 2, 3)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    basis = seq.spatial_h2()
    y = spatial_to_truss(seq, linkage, spatial_solution(
        seq, basis @ rng.normal(size=basis.shape[1]))).coefficients
    monkeypatch.setattr(maps, "CYCLE_TOL", np.inf)
    for f in (0, 3, s.num_faces - 1):
        bent = y.copy()
        bent.reshape(-1, 3)[s.num_vertices + f] += 0.1
        with pytest.raises(NonRigidMotion, match=f"^face {f} velocities "):
            truss_to_spatial(seq, linkage, ModelSolution("truss", bent, 0.0))


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
        spatial_to_truss(seq, linkage, spatial_solution(seq, values))
    y = np.zeros(3 * linkage.num_points)
    y[4] = bad
    for truss in (y, np.full_like(y, bad)):
        with pytest.raises(NotACycle, match="^truss vector has non-finite"):
            truss_to_spatial(seq, linkage, ModelSolution("truss", truss, 0.0))
    # Hand-built solutions skip the constructors' check.
    with pytest.raises(NotACycle, match="^hinge vector has non-finite"):
        hinge_to_truss(seq, linkage, ModelSolution("hinge", rates, 0.0))
    with pytest.raises(NotACycle, match="^spatial vector has non-finite"):
        spatial_to_truss(seq, linkage, ModelSolution("spatial", values, 0.0))


# --- per-sheet caches ---

@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_cached_conversion_data_matches_the_fresh_route(make):
    s = make()
    seq, linkage = build_exact_sequence(s), stiffen(s)
    _, inverse = oracles.rigid_fit(linkage)
    assert np.array_equal(linkage.fit_inverse, inverse)
    assert np.array_equal(linkage._first_corner, oracles.first_corner(linkage))
    assert not linkage.corner_block[~linkage.live].any()


@pytest.mark.parametrize("spec", [("grid", 4, 4), ("miura", 3, 4), ("single_vertex", 12)],
                         ids=lambda spec: "_".join(map(str, spec)))
def test_conversions_after_the_first_decompose_nothing(monkeypatch, rng, spec):
    # A hinge class converts through the tree lifts kept on the sequence
    # and a truss vector through the rigid-fit stack kept on the linkage,
    # so a later request decomposes nothing, wherever a module holds the
    # SVD.
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


def test_a_replaced_linkage_fits_afresh(monkeypatch, rng):
    s = surface_of("grid", 3, 3)
    seq, linkage = build_exact_sequence(s), stiffen(s)
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    truss = spatial_to_truss(seq, linkage, spatial_solution(seq, values))
    truss_to_spatial(seq, linkage, truss)
    # Doubling every corner block halves the fitted velocities.
    doubled = dataclasses.replace(linkage, corner_block=2 * linkage.corner_block)
    a, inverse = oracles.rigid_fit(doubled)
    assert np.array_equal(a, 2 * oracles.rigid_fit(linkage)[0])
    assert np.array_equal(doubled.fit_inverse, inverse)
    monkeypatch.setattr(maps, "CYCLE_TOL", np.inf)
    back = truss_to_spatial(seq, doubled, truss)
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
    expect = transfer_matrix(s.edge_midpoints[e], s.face_centroids[f]) \
        @ hinge_twist(s.edge_triads[e, 0])[:, None]
    assert ops.d.shape == (6, 1)
    assert np.abs(ops.d - expect).max() < 1e-13


def rotated_chain(n, seed=5):
    """A generated chain with its face list rotated so that its middle
    face comes first: the chain then runs from base to tip against the
    face order, each hinge's sign on the face after it is -1, and its
    base is not the face that roots the tree lift."""
    s = surface_of("chain", n, seed=seed)
    k = s.num_faces // 2
    return build_surface(s.vertices, list(s.faces[k:]) + list(s.faces[:k]))


def test_chain_recurrence_matches_operator(rng):
    chains = [surface_of("chain", n, seed=11) for n in (2, 5, 40, 160)]
    for s in chains + [rotated_chain(n) for n in (3, 8, 40)]:
        n = s.num_faces - 1
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
    chains = [surface_of("chain", n, seed=seed) for n, seed in ((1, 0), (3, 5), (5, 9))]
    for s in chains + [rotated_chain(n) for n in (3, 8, 40)]:
        n = s.num_faces - 1
        ops = serial_chain_operators(s)
        theta, cycles = pinned_chain_connecting_matrix(s, ops)
        via_ops = ops.d_pinv @ cycles
        assert theta.shape == via_ops.shape == (n, n)
        assert np.abs(theta - via_ops).max() < 1e-9


def test_rotated_chain_runs_against_its_face_order():
    chain = chain_structure(rotated_chain(8))
    assert chain.face_order[0] != 0
    assert chain.hinge_sign == [-1] * 8
    assert chain_structure(surface_of("chain", 8, seed=5)).hinge_sign == [1] * 8


def test_pinned_chain_runs_the_sequence_checks(monkeypatch):
    # The pinned chain is read off the free sequence, which is verified
    # like any other, so a direct formula that disagrees with the
    # connecting map is caught.
    s = surface_of("chain", 4, seed=2)
    ops = serial_chain_operators(s)
    direct = ExactSequence._theta_direct
    with monkeypatch.context() as patch:
        patch.setattr(ExactSequence, "_theta_direct", lambda seq: direct(seq) + 1e-6)
        with pytest.raises(ExactnessViolation, match="direct formula"):
            pinned_chain_connecting_matrix(s, ops)
    # Its triad certificate runs too: an axis scaled at one hinge is
    # caught.
    hinge = ops.chain.hinge_order[0]
    triads = s.edge_triads.copy()
    triads[hinge, 0] *= 1 + 1e-6
    with pytest.raises(ExactnessViolation, match=rf"^sequence fails at cell \(1, {hinge}\)"):
        pinned_chain_connecting_matrix(dataclasses.replace(s, edge_triads=triads), ops)
    # On the sequence's reference maps, a quotient map that is off at the
    # hinges, and a hinge embedding that is zero (natural, but not
    # injective), are both caught.
    rigid, iota, pi = oracles.sequence_maps(pinned_chain_sequence(4, seed=2))
    skewed = CosheafMap(source=rigid, target=pi.target,
                        components=(pi.components[0], pi.components[1] * (1 + 1e-6),
                                    pi.components[2]))
    with pytest.raises(NaturalityViolation, match="naturality residual"):
        skewed.validate()
    zero = CosheafMap(source=iota.source, target=rigid,
                      components=(np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((6, 0))))
    with pytest.raises(ExactnessViolation, match="^sequence fails at cell"):
        verify_exact_sequence(zero.validate(), pi)


def test_pinned_chain_checks_functoriality_on_the_free_models(monkeypatch):
    # Each free model is checked once, and nothing else is checked: no
    # pinned copy is assembled.  A fault there still raises.  A chain has
    # no interior vertex, so no triple carries a live extension; the
    # fault is planted in the residual.
    s = surface_of("chain", 6, seed=4)
    ops = serial_chain_operators(s)
    residual, checked = cosheaf.Cosheaf.functoriality_residual, []

    def recording(self):
        checked.append(self.support[2].all())
        return residual(self)

    monkeypatch.setattr(cosheaf.Cosheaf, "functoriality_residual", recording)
    pinned_chain_connecting_matrix(s, ops)
    assert checked == [True, True]
    monkeypatch.setattr(cosheaf.Cosheaf, "functoriality_residual", lambda self: 1e-6)
    with pytest.raises(FunctorialityViolation, match="composition residual 1.000e-06"):
        pinned_chain_connecting_matrix(s, ops)


def test_pinned_chain_verifies_one_sequence(monkeypatch):
    # Pinning is a quotient, so a serial check builds and certifies the
    # free sequence alone, through build_exact_sequence, with every face
    # free.
    built, build = [], maps.build_exact_sequence
    monkeypatch.setattr(maps, "build_exact_sequence",
                        lambda surface: built.append(build(surface)) or built[-1])
    s = surface_of("chain", 6, seed=4)
    ops = serial_chain_operators(s)
    theta, cycles = pinned_chain_connecting_matrix(s, ops)
    assert [seq.surface for seq in built] == [s]
    assert built[0].spatial.support[2].all()
    assert theta.shape == (6, 6) and cycles.shape == (36, 6)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 160])
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
    # edge of the band or in a corner, must still be seen.  Entries off
    # the band are never written, so a fault there is planted in the
    # zeros d_pinv starts from; one on the band, in the block row
    # written there.
    zeros, einsum = np.zeros, np.einsum
    n = 40
    s = surface_of("chain", n, seed=3)
    for k, entry in enumerate([(3, 5, 0), (3, 4, 5), (5, 3, 0), (0, 1, 0), (0, n - 1, 5),
                               (n - 1, 0, 0), (n - 1, n - 3, 5), (7, 7, 2), (7, 6, 3)]):
        fault = (-1) ** k * 1e-9
        i, j, b = entry

        def faulty_zeros(shape, *args, **kwargs):
            out = zeros(shape, *args, **kwargs)
            if shape == (n, n, 6):  # d_pinv
                out[entry] += fault
            return out

        def faulty_rows(subscripts, *operands, **kwargs):
            # The diagonal's rows run over i, the sub-diagonal's over j.
            out = einsum(subscripts, *operands, **kwargs)
            if subscripts == "ia,iab->ib" and i - j in (0, 1) and len(out) == n - i + j:
                out[j, b] += fault
            return out

        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", faulty_zeros)
            patch.setattr(np, "einsum", faulty_rows)
            with pytest.raises(FoldkinError, match="^chain left inverse failed"):
                serial_chain_operators(s)


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
