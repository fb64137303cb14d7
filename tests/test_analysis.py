import json

import numpy as np

from foldkin import (
    analyze_surface,
    build_exact_sequence,
    constant_rigid_isomorphism,
    document_from_surface,
    spatial_solution,
    spatial_to_truss,
    stiffen,
)

from conftest import scaled, surface_of, two_panels


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


def test_global_motions_lie_in_every_kernel(rng):
    # The six global motions produced by the constant-cosheaf
    # isomorphism are cycles of both face-based models and transfer to
    # bar-preserving truss motions.
    s = two_panels()
    seq = build_exact_sequence(s)
    rigid = seq.rigid
    phi = constant_rigid_isomorphism(rigid)
    linkage = stiffen(s)
    for _ in range(20):
        vec = rng.normal(size=6)
        chain = np.zeros(6 * s.num_faces)
        for f in range(s.num_faces):
            chain[6 * f:6 * f + 6] = phi.components[2][f] @ vec
        assert np.abs(seq.rigid.complex.d2 @ chain).max() < 1e-12 * max(
            1.0, np.abs(chain).max())
        sol = spatial_solution(seq, chain)
        assert sol.residual < 1e-12 * max(1.0, np.abs(chain).max())
        truss = spatial_to_truss(seq, linkage, sol)
        assert np.abs(linkage.matrix @ truss.coefficients).max() < 1e-10 * max(
            1.0, np.abs(chain).max())


def test_document_round_trip_of_surface():
    s = two_panels()
    doc = document_from_surface(s, metadata={"note": "fixture"})
    assert doc.metadata["note"] == "fixture"
    assert len(doc.faces_vertices) == s.num_faces
    assert len(doc.edges_vertices) == s.num_edges
