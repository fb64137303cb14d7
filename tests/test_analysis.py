import dataclasses
import json

import numpy as np
import pytest

from foldkin import (
    ChainComplex,
    analyze_surface,
    build_exact_sequence,
    document_from_surface,
    hinge_solution,
    hinge_to_truss,
    pinned_chain_connecting_matrix,
    serial_chain_operators,
    spatial_solution,
    spatial_to_truss,
    stiffen,
)
from foldkin import analysis, cosheaf, maps, models
from foldkin.cosheaf import cycle_residuals
from foldkin.errors import WellDefinednessViolation
from foldkin.maps import _tree_lift
from foldkin.surface import Incidences, base_square_vanishes

import oracles
from conftest import (
    ORACLE_SURFACES,
    flipped_icosahedron,
    jessen,
    octahedron,
    one_face,
    quad_cube,
    scaled,
    surface_of,
    two_panels,
)


def test_report_fields_on_two_panels():
    report = analyze_surface(two_panels())
    assert report.dims["spatial_h2"] == 7
    assert report.dims["truss_kernel"] == 7
    assert report.betti == [1, 0, 0]
    assert report.all_ok
    payload = json.loads(report.to_json())
    assert payload["checks"]["truss_ledger"] is True
    assert "elapsed" not in payload  # byte-stable serialization


def test_report_chain5_spatial_dimension():
    report = analyze_surface(surface_of("chain", 5))
    assert report.dims["spatial_h2"] == 11  # 6 global + 5 hinges
    assert report.all_ok


@pytest.mark.parametrize("make,b2", [(one_face, 0), (octahedron, 1), (quad_cube, 1)],
                         ids=["one_face", "octahedron", "cube"])
def test_report_without_hinges_keeps_only_global_motions(make, b2):
    # No hinge class and no loop; the two spheres have no boundary, so
    # their rigid model is supported on every cell.
    report = analyze_surface(make())
    assert report.all_ok
    assert report.betti == [1, 0, b2]
    assert report.dims == {"hinge_h1": 0, "rigid_h1": 0, "rigid_h2": 6,
                           "spatial_h2": 6, "truss_kernel": 6}


def test_jessen_icosahedron_is_shaky():
    # Closed, so every edge is a hinge and there is no loop: its one
    # hinge class lifts along the dual tree to a spatial cycle.
    s = jessen()
    report = analyze_surface(s)
    assert report.all_ok
    assert report.betti == [1, 0, 1]
    assert report.dims == {"hinge_h1": 1, "rigid_h1": 0, "rigid_h2": 6,
                           "spatial_h2": 7, "truss_kernel": 7}
    seq = build_exact_sequence(s)
    rates = np.zeros((s.num_edges, 1))
    rates[s.interior_edge] = seq.hinge_h1()
    lift = _tree_lift(s, rates)
    assert np.abs(lift).max() > 0.1
    assert cycle_residuals(seq.spatial, lift.reshape(-1, 1))[0] <= 1e-12
    # The same faces on the regular icosahedron's vertices are rigid.
    control = analyze_surface(flipped_icosahedron((1 + 5 ** 0.5) / 2))
    assert control.all_ok
    assert (control.dims["hinge_h1"], control.dims["spatial_h2"]) == (0, 6)


@pytest.mark.parametrize("spec", [("grid", 8, 8), ("grid", 12, 12), ("torus", 6, 6),
                                  ("single_vertex", 12), ("chain", 10)],
                         ids=lambda spec: "_".join(map(str, spec)))
def test_no_decomposition_as_large_as_a_whole_model(monkeypatch, spec):
    # Solution spaces come from vertex stars glued together and from
    # the support complex's trees, so no decomposition sees the spatial
    # boundary or the bar-length Jacobian whole, nor the hinge boundary
    # once it has more interior vertices than one patch.
    s = surface_of(*spec)
    seq = build_exact_sequence(s)
    linkage = stiffen(s)
    limit = min(seq.spatial.d2.size, len(linkage.bars) * 3 * linkage.num_points)
    if s.interior_vertex.sum() > cosheaf.LEAF_VERTICES:
        limit = min(limit, seq.hinge.d1.size)
    sizes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    analyze_surface(s)
    seq = build_exact_sequence(s)
    classes = seq.hinge_h1()
    rates = classes @ np.ones(classes.shape[1])
    hinge_to_truss(seq, stiffen(s), hinge_solution(seq, rates))
    assert sizes
    assert max(sizes) < limit


def _analyze(make):
    return lambda: analyze_surface(make())


def _pinned_chain():
    s = surface_of("chain", 10)
    pinned_chain_connecting_matrix(s, serial_chain_operators(s))


@pytest.mark.parametrize("run", [
    _analyze(lambda: surface_of("grid", 8, 8)),
    _analyze(lambda: surface_of("torus", 6, 6)),
    _analyze(jessen),
    _pinned_chain,
], ids=["grid_8_8", "torus_6_6", "jessen", "pinned_chain_10"])
def test_only_decomposed_complexes_form_dense_boundaries(monkeypatch, run):
    # Boundaries are applied from their blocks.  Hinge homology is glued
    # from vertex stars and the support loops are counted by a
    # tree-cotree split, so no complex forms a dense d1 or d2.
    built = []
    init = ChainComplex.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    run()
    assert built
    assert [cc.cosheaf.stalk_sizes for cc in built if {"d1", "d2"} & set(vars(cc))] == []


def _with_fe_signs(surface, sign):
    fe = surface.incidences["fe"]
    return dataclasses.replace(surface, incidences={
        **surface.incidences, "fe": Incidences(fe.upper, fe.lower, sign)})


@pytest.mark.parametrize("make", [m for _, m in ORACLE_SURFACES],
                         ids=[n for n, _ in ORACLE_SURFACES])
def test_base_square_is_the_integer_product(make):
    s = make()
    d1, d2 = oracles.signed_incidence_matrices(s)
    assert not (d1 @ d2).any()
    assert base_square_vanishes(s)


def test_base_square_sees_one_flipped_sign():
    # Every single flipped face-edge sign breaks d1 @ d2.  On a boundary
    # edge the models never see it (no hinge, rigid or spatial stalk
    # lives there), so only the exact check of the base complex fails.
    s = surface_of("grid", 3, 3)
    fe = s.incidences["fe"]
    for k in range(len(fe.sign)):
        sign = fe.sign.copy()
        sign[k] = -sign[k]
        assert not base_square_vanishes(_with_fe_signs(s, sign))
    sign = fe.sign.copy()
    k = np.flatnonzero(~s.interior_edge[fe.lower])[0]
    sign[k] = -sign[k]
    checks = analyze_surface(_with_fe_signs(s, sign)).checks
    assert [name for name, ok in checks.items() if not ok] == ["boundary_squares_vanish"]


def test_report_text_contains_verdict():
    text = analyze_surface(surface_of("grid", 2, 2)).to_text()
    assert "PASS" in text
    assert "betti" in text


def test_uniform_scaling_keeps_dims_ranks_checks():
    # Every check compares magnitudes relative to its operands, so a
    # uniform scaling of the coordinates changes no verdict.
    for spec in (("grid", 4, 4), ("miura", 3, 4), ("annulus", 2, 8),
                 ("single_vertex", 12), ("cylinder", 3, 8)):
        s = surface_of(*spec)
        ref = analyze_surface(s).to_dict()
        for factor in (1e-3, 1e-1, 1e1, 1e3, 1e4):
            got = analyze_surface(scaled(s, factor)).to_dict()
            for key in ("dims", "ranks", "checks"):
                assert got[key] == ref[key], (spec, factor, key)


@pytest.mark.parametrize("factor", [1.0, 1e6], ids=lambda f: f"{f:g}")
def test_eta_gate_catches_a_basis_column_off_the_cycle_space(factor):
    # The gate scales with the lever arms, so it must still see a
    # relative push of 1e-6 off the spatial cycles at a large scale.
    s = scaled(surface_of("grid", 4, 4), factor)
    seq = build_exact_sequence(s)
    basis = seq.spatial_h2().copy()
    cycles = oracles.spatial_h2(seq)
    push = np.random.default_rng(3).normal(size=len(basis))
    push -= cycles @ (cycles.T @ push)
    basis[:, -1] += 1e-6 * push / np.linalg.norm(push)
    with pytest.raises(WellDefinednessViolation,
                       match="^spatial basis maps outside the truss kernel"):
        models.eta_image(stiffen(s), basis)


@pytest.mark.parametrize("spec", [("grid", 4, 4), ("torus", 4, 4)],
                         ids=lambda spec: "_".join(map(str, spec)))
def test_analysis_evaluates_eta_once(monkeypatch, spec):
    # One η image per analysis: the corners are evaluated once and the
    # face groups certified once, in whichever module the name is read.
    calls = []
    for name in ("corner_velocities", "_certify_groups"):
        original = getattr(models, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (analysis, maps, models):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert analyze_surface(surface_of(*spec)).all_ok
    assert sorted(calls) == ["_certify_groups", "corner_velocities"]


def test_analysis_validates_no_map_and_builds_two_complexes(monkeypatch):
    # The complexes are the sequence's hinge and spatial models.  The
    # rigid model and its two maps are certified from the edge triads,
    # the global motions need no isomorphism and the support homology no
    # complex of its own; building the sequence decomposes nothing.
    validate, init = cosheaf.CosheafMap.validate, cosheaf.ChainComplex.__init__
    svd, build = np.linalg.svd, maps.build_exact_sequence
    calls = []

    def counting_validate(self):
        calls.append("map")
        return validate(self)

    def counting_init(self, *args, **kwargs):
        calls.append("complex")
        init(self, *args, **kwargs)

    def counting_svd(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    def counting_build(surface):
        calls.append("build")
        seq = build(surface)
        calls.append("built")
        return seq

    monkeypatch.setattr(cosheaf.CosheafMap, "validate", counting_validate)
    monkeypatch.setattr(cosheaf.ChainComplex, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(analysis, "build_exact_sequence", counting_build)
    for shape in [("grid", 3, 3), ("torus", 4, 4), ("annulus", 2, 8)]:
        calls.clear()
        assert analyze_surface(surface_of(*shape)).all_ok
        assert (calls.count("map"), calls.count("complex")) == (0, 2), shape
        building = calls[calls.index("build"):calls.index("built")]
        assert building.count("svd") == 0, shape


def test_global_motions_lie_in_every_kernel(rng):
    # The six global motions produced by the constant-cosheaf
    # isomorphism are cycles of both face-based models and transfer to
    # bar-preserving truss motions.
    s = two_panels()
    seq = build_exact_sequence(s)
    rigid = oracles.sequence_maps(seq)[0]
    phi = oracles.constant_rigid_isomorphism(rigid)
    linkage = stiffen(s)
    for _ in range(20):
        vec = rng.normal(size=6)
        chain = np.zeros(6 * s.num_faces)
        for f in range(s.num_faces):
            chain[6 * f:6 * f + 6] = phi.components[2][f] @ vec
        assert np.abs(rigid.d2 @ chain).max() < 1e-12 * max(
            1.0, np.abs(chain).max())
        sol = spatial_solution(seq, chain)
        assert sol.residual < 1e-12 * max(1.0, np.abs(chain).max())
        truss = spatial_to_truss(seq, linkage, sol)
        assert np.abs(linkage.stretch(truss.coefficients)).max() < 1e-10 * max(
            1.0, np.abs(chain).max())


def test_document_round_trip_of_surface():
    s = two_panels()
    doc = document_from_surface(s, metadata={"note": "fixture"})
    assert doc.metadata["note"] == "fixture"
    assert len(doc.faces_vertices) == s.num_faces
    assert len(doc.edges_vertices) == s.num_edges
