import re

import numpy as np
import pytest

from foldkin import (
    ChainComplex,
    Cosheaf,
    CosheafMap,
    assemble_chain_complex,
    build_constant_model,
    build_exact_sequence,
    build_hinge_model,
    build_rigid_model,
    build_spatial_model,
    connecting_map,
    constant_cosheaf,
    homology_basis,
    induced_map,
    verify_exact_sequence,
)
from foldkin.cosheaf import COMPLEX_TOL
from foldkin.errors import (
    ExactnessViolation,
    FunctorialityViolation,
    LiftFailure,
    NaturalityViolation,
    ShapeMismatch,
)
from foldkin.linalg import nullspace, svd_rank

import oracles
from conftest import (
    ORACLE_SURFACES,
    scaled,
    square_hole_grid,
    surface_of,
    two_panels,
    two_triangles,
)


def test_constant_boundary_is_signed_incidence():
    s = two_triangles()
    cc = assemble_chain_complex(constant_cosheaf(s, 1))
    d1, d2 = oracles.signed_incidence_matrices(s)
    assert np.array_equal(cc.d1, d1.astype(float))
    assert np.array_equal(cc.d2, d2.astype(float))


def test_zero_stalks_give_empty_complex():
    s = two_triangles()
    cc = assemble_chain_complex(constant_cosheaf(s, 0))
    assert cc.d1.shape == (0, 0)
    assert cc.d2.shape == (0, 0)
    assert cc.dim(0) == cc.dim(1) == cc.dim(2) == 0


def test_hinge_boundary_shape_on_two_triangles():
    # One interior edge, no interior vertices: a 0 x 1 constraint matrix.
    s = two_triangles()
    cc = build_hinge_model(s)
    assert cc.d1.shape == (0, 1)
    assert homology_basis(cc, 1).shape[1] == 1


def test_functoriality_violation_detected():
    # Needs an interior vertex so the composition check is non-vacuous.
    # The extensions grow with the coordinates, and so does the bump.
    for scale in (1.0, 1e4):
        s = scaled(surface_of("single_vertex", 4, 0.5), scale)
        cosheaf = build_spatial_model(s).cosheaf
        e = s.interior_edges()[0]
        f = s.edge_faces[e][0]
        fe = s.incidences["fe"]
        broken = dict(cosheaf.extensions)
        broken["fe"] = broken["fe"].copy()
        broken["fe"][(fe.upper == f) & (fe.lower == e)] += 1e-6 * scale
        with pytest.raises(FunctorialityViolation):
            assemble_chain_complex(Cosheaf(s, cosheaf.stalk_sizes,
                                           cosheaf.support, broken))


def test_constant_homology_matches_base_homology():
    from foldkin import base_homology

    for s in (two_triangles(), square_hole_grid(3), surface_of("torus", 4, 4)):
        b = base_homology(s)
        cc = assemble_chain_complex(constant_cosheaf(s, 6))
        for degree in (0, 1, 2):
            assert homology_basis(cc, degree).shape[1] == 6 * b[degree]


def test_zero_boundary_gives_full_basis():
    s = two_triangles()
    # Stalks only on edges: both boundary maps vanish.
    cc = assemble_chain_complex(Cosheaf(surface=s, stalk_sizes=(0, 2, 0)))
    basis = homology_basis(cc, 1)
    assert basis.shape[1] == 2 * s.num_edges
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-12


def test_degree1_constant_homology_on_annulus():
    cc = assemble_chain_complex(constant_cosheaf(square_hole_grid(3), 1))
    assert homology_basis(cc, 1).shape[1] == 1


def test_subspace_basis_orthonormal():
    s = surface_of("grid", 2, 3)
    cc = build_spatial_model(s)
    basis = homology_basis(cc, 2)
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-12


def test_rank_nullity_bookkeeping():
    s = surface_of("grid", 2, 2)
    cc = build_spatial_model(s)
    rank = svd_rank(cc.d2)
    nullity = nullspace(cc.d2).shape[1]
    assert rank + nullity == cc.dim(2)


def test_exact_sequence_passes_on_valid_surfaces():
    for s in (two_triangles(), two_panels(), surface_of("grid", 2, 2)):
        seq = build_exact_sequence(s)
        assert seq.exactness_residual < 1e-12


def test_exactness_dimensions_per_cell():
    s = two_panels()
    _, iota, pi = oracles.sequence_maps(build_exact_sequence(s))
    e = s.interior_edges()[0]
    a = iota.components[1][e]
    b = pi.components[1][e]
    # Image of the embedding equals the kernel of the projection: the
    # hinge-axis line inside the 6-dimensional edge stalk.
    assert svd_rank(a) == 1
    assert nullspace(b).shape[1] == 1
    assert np.abs(b @ a).max() < 1e-13


def test_exactness_dimensions_at_interior_vertex():
    s = surface_of("single_vertex", 4, 0.5)
    _, iota, pi = oracles.sequence_maps(build_exact_sequence(s))
    v = s.interior_vertices()[0]
    a = iota.components[0][v]
    b = pi.components[0][v]
    assert svd_rank(a) == 3
    assert nullspace(b).shape[1] == 3
    assert np.abs(b @ a).max() < 1e-13


def test_zero_iota_fails_injectivity():
    s = two_panels()
    seq = build_exact_sequence(s)
    rigid, iota, pi = oracles.sequence_maps(seq)
    e = s.interior_edges()[0]
    vertex, edge, face = iota.components
    edge = edge.copy()
    edge[e] = 0.0
    broken = CosheafMap(source=seq.hinge.cosheaf, target=rigid.cosheaf,
                        components=(vertex, edge, face))
    # The broken edge fails with residual 1, the distance from the line
    # that pi kills to the zero image of iota.
    with pytest.raises(ExactnessViolation,
                       match=rf"^sequence fails at cell \(1, {e}\): residual 1\.000e\+00$"):
        verify_exact_sequence(broken, pi)


def test_perturbed_pi_fails_exactness_with_matching_residual():
    # The components of pi do not grow with the coordinates, so neither
    # does the bump.
    for scale in (1.0, 1e4):
        s = scaled(two_panels(), scale)
        seq = build_exact_sequence(s)
        rigid, iota, pi = oracles.sequence_maps(seq)
        e = s.interior_edges()[0]
        vertex, edge, face = pi.components
        edge = edge.copy()
        edge[e, 0, :3] += 1e-3 * seq.surface.edge_triads[e, 0]
        perturbed = CosheafMap(source=rigid.cosheaf,
                               target=seq.spatial.cosheaf,
                               components=(vertex, edge, face))
        with pytest.raises(ExactnessViolation) as failed:
            verify_exact_sequence(iota, perturbed)
        found = re.fullmatch(r"sequence fails at cell \(1, (\d+)\): residual (\S+)",
                             str(failed.value))
        assert int(found[1]) == e
        assert 1e-4 < float(found[2]) < 1e-2
        with pytest.raises(NaturalityViolation):
            perturbed.validate()


def test_induced_identity_is_identity():
    s = surface_of("grid", 2, 2)
    cc = build_spatial_model(s)
    phi = oracles.identity_map(cc.cosheaf)
    basis = homology_basis(cc, 2)
    m = induced_map(phi, 2, source_basis=basis, target_basis=basis)
    assert np.abs(m - np.eye(basis.shape[1])).max() < 1e-12


def test_induced_pi_injective_in_degree_two():
    s = surface_of("grid", 2, 2)
    seq = build_exact_sequence(s)
    m = induced_map(oracles.sequence_maps(seq)[2], 2, source_basis=seq.rigid_h2(),
                    target_basis=seq.spatial_h2())
    assert m.shape[1] == 6
    assert svd_rank(m) == 6


def test_induced_iota_vanishes_on_simply_connected():
    s = surface_of("grid", 2, 3)
    seq = build_exact_sequence(s)
    m = seq.loop_obstruction_matrix()
    assert m.shape == (0, seq.hinge_h1().shape[1])


def test_connecting_vanishes_on_global_motions(rng):
    # Classes coming from the rigid-body model fold no hinges.
    s = two_panels()
    seq = build_exact_sequence(s)
    pi_star = induced_map(oracles.sequence_maps(seq)[2], 2, source_basis=seq.rigid_h2(),
                          target_basis=seq.spatial_h2())
    theta = seq.spatial_to_hinge_matrix()
    assert np.abs(theta @ pi_star).max() < 1e-10


def test_connecting_two_panel_fold_formula():
    # Oracle: the direct block formula, signed axis component of the
    # angular velocity difference across the shared hinge.
    s = two_panels()
    seq = build_exact_sequence(s)
    e = s.interior_edges()[0]
    axis = s.edge_triads[e, 0]
    basis = seq.spatial_h2()
    theta = seq.spatial_to_hinge_matrix()
    hinge_basis = seq.hinge_h1()  # 1 x 1
    f, g = s.edge_faces[e]
    sf = s.sign_ef[(e, f)]
    for j in range(basis.shape[1]):
        cyc = basis[:, j]
        omega_f = cyc[6 * f:6 * f + 3]
        omega_g = cyc[6 * g:6 * g + 3]
        expect = sf * axis @ (omega_f - omega_g)
        got = (hinge_basis @ theta[:, [j]])[0, 0]
        assert abs(got - expect) < 1e-10


def test_connecting_lift_independent(rng):
    # Split constant sequence with a fat middle: lifts are ambiguous,
    # classes of the connecting image are not.  The torus keeps every
    # homology degree nonzero.
    s = surface_of("torus", 4, 4)
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

    mid_cc = assemble_chain_complex(mid)
    quo_cc = assemble_chain_complex(quo)
    h2_quo = homology_basis(quo_cc, 2)
    h1_sub = homology_basis(assemble_chain_complex(sub), 1)
    base = connecting_map(iota, pi, 2, h2_quo, h1_sub, mid_cc)
    pi_block_kernel = nullspace(pi.block_matrix(2))
    for _ in range(100):
        coeffs = rng.normal(size=(pi_block_kernel.shape[1], h2_quo.shape[1]))
        offsets = pi_block_kernel @ coeffs
        shifted = connecting_map(iota, pi, 2, h2_quo, h1_sub, mid_cc,
                                 lift_offsets=offsets)
        assert np.abs(shifted - base).max() < 1e-9


def test_connecting_map_names_first_failing_cycle(rng):
    # Constant sequence on the torus; quotient H2 has one class per
    # stalk coordinate.  Basis columns are chosen so that column 1 is the
    # first to fail.
    s = surface_of("torus", 4, 4)
    sub = constant_cosheaf(s, 2)
    mid = constant_cosheaf(s, 5)
    quo = constant_cosheaf(s, 3)
    inc = np.vstack([np.eye(2), np.zeros((3, 2))])
    prj = np.hstack([np.zeros((3, 2)), np.eye(3)])
    iota = CosheafMap(source=sub, target=mid, components=(inc, inc, inc))
    quo_cc = assemble_chain_complex(quo)
    mid_cc = assemble_chain_complex(mid)
    h1_sub = homology_basis(assemble_chain_complex(sub), 1)
    basis = np.zeros((3 * s.num_faces, 3))
    for j, coord in enumerate((0, 2, 1)):
        basis[coord::3, j] = 1.0 / np.sqrt(s.num_faces)
    assert np.abs(quo_cc.d2 @ basis).max() < 1e-12

    # No preimage for the third quotient coordinate: column 1 fails.
    lossy = prj.copy()
    lossy[2] = 0.0
    pi = CosheafMap(source=mid, target=quo, components=(lossy, lossy, lossy))
    with pytest.raises(LiftFailure, match="cycle 1 "):
        connecting_map(iota, pi, 2, basis, h1_sub, mid_cc)

    # Iota misses the second middle coordinate, and only column 1's lift
    # has a boundary there.
    pi = CosheafMap(source=mid, target=quo, components=(prj, prj, prj))
    lossy = inc.copy()
    lossy[:, 1] = 0.0
    iota = CosheafMap(source=sub, target=mid, components=(lossy, lossy, lossy))
    offsets = np.zeros((5 * s.num_faces, 3))
    offsets[1::5, 1] = rng.normal(size=s.num_faces)
    with pytest.raises(ExactnessViolation, match="lifted cycle 1 "):
        connecting_map(iota, pi, 2, basis, h1_sub, mid_cc, lift_offsets=offsets)


def face_masked(cosheaf, faces):
    """``cosheaf`` with no stalks over ``faces``."""
    support = np.ones(cosheaf.surface.num_faces, dtype=bool)
    support[faces] = False
    return Cosheaf(cosheaf.surface, cosheaf.stalk_sizes, cosheaf.support[:2] + (support,),
                   cosheaf.extensions)


def test_restrict_rejects_unsupported_cells():
    # A face outside the support has no stalk: its rows cannot be read,
    # whether it comes before or after the remaining face.
    cosheaf = build_spatial_model(two_panels()).cosheaf
    chains = np.arange(6.0)[:, None]
    for pin, keep in ((0, 1), (1, 0)):
        pinned = face_masked(cosheaf, [pin])
        assert np.array_equal(pinned.restrict(2, chains, [keep]), chains)
        with pytest.raises(ShapeMismatch):
            pinned.restrict(2, chains, [pin])
        with pytest.raises(ShapeMismatch):
            pinned.restrict(2, chains, [keep, pin])


@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_apply_matches_the_dense_product(make, rng):
    # Boundaries and cosheaf maps are applied from their blocks; the
    # dense matrices are the reference.  The scale of an entry of the
    # product is the same entry of |matrix| @ |chains|.
    s = make()
    seq = build_exact_sequence(s)
    rigid, iota, pi = oracles.sequence_maps(seq)
    free = (seq.hinge, rigid, seq.spatial, build_constant_model(s, 1))
    cases = [(cc.apply, degree, cc.boundary(degree))
             for cc in free + tuple(ChainComplex(face_masked(cc.cosheaf, [0])) for cc in free)
             for degree in (1, 2)]
    cases += [(phi.apply, degree, phi.block_matrix(degree))
              for phi in (iota, pi, oracles.constant_rigid_isomorphism(rigid))
              for degree in (0, 1, 2)]
    for apply, degree, dense in cases:
        for chains in (rng.normal(size=dense.shape[1]),
                       rng.normal(size=(dense.shape[1], 4))):
            got, want = apply(degree, chains), dense @ chains
            assert got.shape == want.shape
            scale = (np.abs(dense) @ np.abs(chains)).max(initial=0.0)
            assert np.abs(got - want).max(initial=0.0) <= 1e-15 * scale


def test_apply_rejects_chains_of_the_wrong_length():
    seq = build_exact_sequence(two_panels())
    with pytest.raises(ShapeMismatch):
        seq.spatial.apply(2, np.zeros(seq.spatial.dim(2) + 1))
    with pytest.raises(ShapeMismatch):
        oracles.sequence_maps(seq)[2].apply(2, np.zeros((seq.spatial.dim(2) - 1, 2)))


def test_complex_square_residual_small():
    for s in (two_panels(), surface_of("torus", 4, 4),
              surface_of("miura", 2, 3)):
        for build in (build_hinge_model, build_rigid_model, build_spatial_model):
            assert build(s).square_residual() <= 1e-11


@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_square_residual_matches_the_per_face_product(make):
    s = make()
    seq = build_exact_sequence(s)
    for cc in (seq.hinge, oracles.sequence_maps(seq)[0], seq.spatial,
               build_constant_model(s, 1)):
        assert abs(cc.square_residual() - oracles.square_residual(cc)) <= 1e-15


@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_dense_views_hold_exactly_the_block_nonzeros(make):
    # d1 @ d2 is read off the blocks alone, which is sound only if the
    # dense views have no nonzero outside them.
    s = make()
    seq = build_exact_sequence(s)
    for cc in (seq.hinge, oracles.sequence_maps(seq)[0], seq.spatial,
               build_constant_model(s, 1)):
        for matrix, kind in ((cc.d1, "ev"), (cc.d2, "fe")):
            assert np.count_nonzero(matrix) == np.count_nonzero(cc.blocks[kind])


def test_square_residual_sees_one_flipped_block():
    # Flip the sign of one face-edge block in a copy of the cosheaf at a
    # time; wherever the edge meets an interior vertex, d1 @ d2 stops
    # vanishing.
    cc = build_spatial_model(surface_of("grid", 3, 3))
    cosheaf = cc.cosheaf
    assert cc.square_residual() <= COMPLEX_TOL
    fe, ev = (cosheaf.surface.incidences[kind] for kind in ("fe", "ev"))
    touched = np.bincount(ev.upper, np.abs(cc.blocks["ev"]).sum(axis=(1, 2)),
                          minlength=cosheaf.surface.num_edges) > 0
    flipped = 0
    for i in np.flatnonzero(touched[fe.lower]):
        extensions = dict(cosheaf.extensions)
        extensions["fe"] = extensions["fe"].copy()
        extensions["fe"][i] *= -1
        copy = Cosheaf(cosheaf.surface, cosheaf.stalk_sizes, cosheaf.support,
                       extensions)
        assert ChainComplex(copy).square_residual() > COMPLEX_TOL
        flipped += 1
    assert flipped >= 9
