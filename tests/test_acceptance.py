"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a one-line verdict (visible with ``pytest -s`` or
in the captured output of a failing run).
"""

import numpy as np
import pytest

from foldkin import (
    axis_projection,
    build_exact_sequence,
    build_hinge_model,
    build_constant_model,
    build_surface,
    hinge_solution,
    hinge_to_spatial,
    hinge_to_truss,
    hinge_twist,
    homology_basis,
    orthonormal_triad,
    pinned_chain_connecting_matrix,
    propagate_chain,
    serial_chain_operators,
    spatial_solution,
    spatial_to_truss,
    stiffen,
    transfer_matrix,
    verify_exact_sequence,
)
from foldkin.linalg import nullspace, svd_rank
from foldkin.surface import INCIDENCE_DIMS

from conftest import ACCEPTANCE_SURFACES, surface_of, two_panels
from oracles import column_space, sequence_maps, truss_kernel

TOL = 1e-9

SIMPLY_CONNECTED = ("chain", "grid", "single_vertex", "miura")


def verdict(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def sequences():
    return {name: build_exact_sequence(make())
            for name, make in ACCEPTANCE_SURFACES}


def test_criterion_1_two_panel_dimensions():
    seq = build_exact_sequence(two_panels())
    assert seq.spatial.d2.shape == (5, 12)
    assert seq.spatial_h2().shape[1] == 7
    verdict(1, "two-panel spatial boundary is 5x12 with 7-dim kernel")


def test_criterion_2_rigid_global_motions(sequences):
    for name, seq in sequences.items():
        assert seq.rigid_h2().shape[1] == 6, name
    verdict(2, "rigid-body model keeps exactly 6 global motions on "
               f"{len(sequences)} generated surfaces")


def test_criterion_3_obstruction_ledger(sequences):
    from foldkin import base_homology

    for name, seq in sequences.items():
        h2s = seq.spatial_h2().shape[1]
        free = nullspace(seq.loop_obstruction_matrix(), scale=1.0).shape[1]
        assert free == h2s - 6, name
        b1 = base_homology(seq.surface)[1]
        assert seq.rigid_h1().shape[1] == 6 * b1, name
    assert sequences["annulus"].rigid_h1().shape[1] == 6
    assert sequences["torus"].rigid_h1().shape[1] == 12
    verdict(3, "obstruction-free classes match spatial classes minus 6; "
               "loop space carries 6 dims per surface loop (12 on torus)")


def test_criterion_4_truss_ledger(sequences):
    for name, seq in sequences.items():
        linkage = stiffen(seq.surface)
        kernel = truss_kernel(linkage)
        basis = seq.spatial_h2()
        assert kernel.shape[1] == basis.shape[1], name
        images = np.column_stack([
            spatial_to_truss(seq, linkage,
                             spatial_solution(seq, basis[:, j])).coefficients
            for j in range(basis.shape[1])])
        gram = images.T @ images
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= 1e-12 * eigs[-1], name
        assert svd_rank(images) == kernel.shape[1], name
    verdict(4, "truss kernel dimension equals spatial solution dimension "
               "with full-rank transfer on every surface")


def test_criterion_5_round_trip(sequences):
    rng = np.random.default_rng(5)
    for name in SIMPLY_CONNECTED:
        seq = sequences[name]
        linkage = stiffen(seq.surface)
        h1 = seq.hinge_h1()
        assert seq.loop_obstruction_matrix().shape[0] == 0
        rates = h1 @ rng.normal(size=h1.shape[1])
        report = hinge_to_truss(seq, linkage, hinge_solution(seq, rates))
        assert not report.obstructed, name
        theta = seq.spatial_to_hinge_matrix()
        back = h1 @ (theta @ (seq.spatial_h2().T @ report.spatial.coefficients))
        scale = max(1.0, float(np.abs(rates).max()))
        assert np.abs(back - rates).max() < 1e-9 * scale, name
        truss_residual = np.abs(linkage.stretch(report.truss.coefficients)).max()
        assert truss_residual < 1e-9 * scale, name
    verdict(5, "hinge -> spatial -> truss round trip exact to 1e-9 on "
               "every simply connected surface")


def test_criterion_6_serial_chain_equivalence():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        s = surface_of("chain", n, seed=100 + n)
        ops = serial_chain_operators(s)
        rates = rng.normal(size=n)
        stepped = propagate_chain(ops, rates)
        direct = ops.d @ rates
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(stepped - direct).max() < 1e-12 * scale, n
        assert np.abs(ops.accumulate_inverse @ ops.accumulate
                      - np.eye(6 * n)).max() < 1e-12, n
        theta, cycles = pinned_chain_connecting_matrix(s, ops)
        via_ops = ops.d_pinv @ cycles
        assert np.abs(theta - via_ops).max() < 1e-9, n
    verdict(6, "recurrence, block inverse, and pinned connecting map agree "
               "for chains of 1..8 hinges")


def test_criterion_7_exactness_suite(sequences):
    for name, seq in sequences.items():
        # Nine squares: naturality of both maps over the three incidence
        # classes, plus exactness at each of the three cell rows.  Building
        # the sequence certified exactness from the edge triads; the
        # generic verifier runs on the rigid model and the two maps.
        rigid, iota, pi = sequence_maps(seq)
        assert verify_exact_sequence(iota, pi) <= 1e-12, name
        assert seq.exactness_residual <= 1e-12, name
        surface = seq.surface
        for phi in (iota, pi):
            for kind, (up, lo) in INCIDENCE_DIMS.items():
                inc = surface.incidences[kind]
                left = phi.components[lo][inc.lower] @ phi.source.extensions[kind]
                right = phi.target.extensions[kind] @ phi.components[up][inc.upper]
                worst = float(np.abs(left - right).max(initial=0.0))
                assert worst <= 1e-12, (name, phi, kind)
        for cc in (seq.hinge, rigid, seq.spatial):
            assert cc.square_residual() <= 1e-11, name
        assert build_constant_model(seq.surface, 1).square_residual() \
            <= 1e-11, name
    verdict(7, "per-cell exactness, all naturality squares, and vanishing "
               "boundary squares hold on every test surface")


def test_criterion_8_single_vertex_counting():
    for n in (4, 5, 6):
        s = surface_of("single_vertex", n, 0.5, seed=n)
        cc = build_hinge_model(s)
        assert cc.d1.shape == (3, n)
        sv = np.linalg.svd(cc.d1, compute_uv=False)
        rank = int((sv > TOL * sv[0]).sum())
        assert rank == 3
        assert homology_basis(cc, 1).shape[1] == n - 3
    flat = surface_of("single_vertex", 4, 0.0, jitter=False)
    cc = build_hinge_model(flat)
    sv = np.linalg.svd(cc.d1, compute_uv=False)
    assert int((sv > TOL * sv[0]).sum()) == 2
    assert homology_basis(cc, 1).shape[1] == 2
    verdict(8, "generic single vertex has n-3 fold modes for n in 4..6; "
               "flat degree-4 vertex has 2")


def test_criterion_9_obstruction_detection(sequences):
    rng = np.random.default_rng(9)
    seq = sequences["ring"]
    iota_star = seq.loop_obstruction_matrix()
    assert svd_rank(iota_star, scale=1.0) > 0
    blocked = column_space(iota_star.T, scale=1.0)
    rates = seq.hinge_h1() @ (blocked @ rng.normal(size=blocked.shape[1]))
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert report.obstructed
    assert report.obstruction.shape == (6,)
    assert np.linalg.norm(report.obstruction) > 1e-8 * np.linalg.norm(rates)

    free = nullspace(iota_star, scale=1.0)
    assert free.shape[1] > 0
    rates = seq.hinge_h1() @ (free @ rng.normal(size=free.shape[1]))
    report = hinge_to_spatial(seq, hinge_solution(seq, rates))
    assert not report.obstructed
    assert report.residuals["round_trip"] < 1e-9
    verdict(9, "ring surface rejects obstructed hinge cycles with 6 "
               "obstruction coordinates and converts the free ones")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(10)

    for _ in range(100):
        a, b, c = rng.normal(size=(3, 3))
        lhs = transfer_matrix(b, c) @ transfer_matrix(a, b)
        assert np.abs(lhs - transfer_matrix(a, c)).max() < 1e-13
        prod = transfer_matrix(a, b) @ transfer_matrix(b, a)
        assert np.abs(prod - np.eye(6)).max() < 1e-13

    for _ in range(100):
        axis = rng.normal(size=3)
        p = axis_projection(orthonormal_triad(axis))
        assert np.abs(p @ hinge_twist(axis)).max() < 1e-13

    base = two_panels()
    seq0 = build_exact_sequence(base)
    reference = (seq0.hinge_h1().shape[1], seq0.spatial_h2().shape[1],
                 seq0.rigid_h1().shape[1], seq0.rigid_h2().shape[1])
    from foldkin import base_homology

    betti0 = base_homology(base)
    for _ in range(100):
        perm = rng.permutation(base.num_vertices)
        verts = np.empty_like(base.vertices)
        verts[perm] = base.vertices
        faces = [[int(perm[v]) for v in cycle] for cycle in base.faces]
        s = build_surface(verts, faces)
        assert base_homology(s) == betti0
        seq = build_exact_sequence(s)
        dims = (seq.hinge_h1().shape[1], seq.spatial_h2().shape[1],
                seq.rigid_h1().shape[1], seq.rigid_h2().shape[1])
        assert dims == reference

    _lift_independence_instances(rng, count=100)
    verdict(10, "transfer-operator laws, projection-embedding vanishing, "
                "relabeling invariance, and lift independence hold on 100 "
                "seeded instances each")


def _lift_independence_instances(rng, count):
    from foldkin import CosheafMap, assemble_chain_complex, connecting_map, constant_cosheaf

    s = surface_of("torus", 4, 4, seed=10)
    sub = constant_cosheaf(s, 2)
    mid = constant_cosheaf(s, 5)
    quo = constant_cosheaf(s, 3)
    inc = np.vstack([np.eye(2), np.zeros((3, 2))])
    prj = np.hstack([np.zeros((3, 2)), np.eye(3)])
    iota = CosheafMap(source=sub, target=mid,
                      components=(inc, inc, inc)).validate()
    pi = CosheafMap(source=mid, target=quo,
                    components=(prj, prj, prj)).validate()
    assert verify_exact_sequence(iota, pi) == 0.0
    quo_cc = assemble_chain_complex(quo)
    h2 = homology_basis(quo_cc, 2)
    h1_sub = homology_basis(assemble_chain_complex(sub), 1)
    reference = connecting_map(iota, pi, 2, h2, h1_sub)
    kernel = nullspace(pi.block_matrix(2))
    for _ in range(count):
        offsets = kernel @ rng.normal(size=(kernel.shape[1], h2.shape[1]))
        shifted = connecting_map(iota, pi, 2, h2, h1_sub, lift_offsets=offsets)
        assert np.abs(shifted - reference).max() < 1e-9
