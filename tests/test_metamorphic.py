"""Metamorphic robustness: the analysis of a surface must not change when
the same surface is moved rigidly, relabeled or re-listed.

A rigid motion (rotation, translation), a relabeling of the vertices, a
shuffle of the face list and a reversal of some face cycles describe the
same surface, so every dimension, rank and check must come out the same.
Uniform scaling should too; the scales at which it does not yet are kept
as strict expected failures, so that they flip when they are fixed.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldkin import (
    analyze_surface,
    build_exact_sequence,
    build_surface,
    generate,
    hinge_solution,
    hinge_to_truss,
    stiffen,
)
from foldkin.errors import ExactnessViolation, FunctorialityViolation, NaturalityViolation
from foldkin.models import eta_image

import oracles
from conftest import scaled, surface_of

SHAPES = [
    ("grid", 3, 3),
    ("single_vertex", 6),
    ("miura", 2, 3),
    ("annulus", 2, 6),
    ("torus", 3, 4),
    ("cylinder", 2, 6),
    ("chain", 6),
]


@functools.lru_cache(maxsize=None)
def reference(shape):
    doc = generate(shape[0], *shape[1:])
    vertices = np.asarray(doc.vertices_coords, dtype=float)
    faces = [tuple(cycle) for cycle in doc.faces_vertices]
    report = analyze_surface(build_surface(vertices, faces)).to_dict()
    return vertices, faces, report


def rotation(q) -> np.ndarray:
    """Rotation matrix of the (not necessarily unit) quaternion ``q``."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


unit = st.floats(-1.0, 1.0, allow_nan=False)
quaternions = st.tuples(unit, unit, unit, unit).filter(
    lambda q: np.linalg.norm(q) > 0.1)
offsets = st.tuples(*3 * [st.floats(-10.0, 10.0, allow_nan=False)])


@settings(max_examples=30, database=None, deadline=None)
@given(data=st.data())
def test_report_invariant_under_motion_relabeling_and_reordering(data):
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    vertices, faces, expected = reference(shape)
    q = data.draw(quaternions, label="rotation")
    shift = data.draw(offsets, label="translation")
    label = data.draw(st.permutations(range(len(vertices))), label="relabel")
    order = data.draw(st.permutations(range(len(faces))), label="face order")
    flip = data.draw(st.lists(st.booleans(), min_size=len(faces),
                              max_size=len(faces)), label="reversed")

    moved = np.empty_like(vertices)
    moved[label] = vertices @ rotation(q).T + np.asarray(shift)
    cycles = [tuple(label[v] for v in faces[f]) for f in order]
    cycles = [c[::-1] if r else c for c, r in zip(cycles, flip)]
    got = analyze_surface(build_surface(moved, cycles)).to_dict()
    assert got == expected


# Uniform scaling.  Spatial homology is built from hinge classes and
# global motions, never from a decomposition of the spatial boundary, so
# large scales analyse the same; torus 6 6 at 1e3 and grid 12 12 at 1e4
# once failed the truss check, and grid 12 12 at 1e6 failed it while its
# bar residual was bounded without the lever arms' scale.  Small scales
# still fail (ROADMAP item 5):
# at 1e-6 (grid 4 4) and 1e-7 (torus 6 6) rotations reach the truss only
# through lever arms of that size, so the eta Gram ratio falls under
# GRAM_RELATIVE_FLOOR.
@pytest.mark.parametrize("shape, factor", [
    (("grid", 4, 4), 1e3),
    (("grid", 4, 4), 1e4),
    (("grid", 4, 4), 1e5),
    (("torus", 6, 6), 1e3),
    (("grid", 12, 12), 1e4),
    (("grid", 12, 12), 1e6),
    pytest.param(("grid", 4, 4), 1e-6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="eta Gram ratio under its floor at small scale")),
    pytest.param(("grid", 4, 4), 1e-7, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="eta Gram ratio under its floor at small scale")),
    pytest.param(("torus", 6, 6), 1e-7, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="eta Gram ratio under its floor at small scale")),
], ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else f"{v:g}")
def test_report_invariant_under_scaling(shape, factor):
    s = surface_of(*shape)
    assert analyze_surface(scaled(s, factor)).to_dict() \
        == analyze_surface(s).to_dict()


# One decision for η: the Gram floor alone.  A Gram ratio of 1e-12 is
# a singular-value ratio of 1e-6, so the SVD rank under RANK_TOL that the
# analysis once also required cannot change a verdict; the ladder holds
# the small scales where the floor fails.
@pytest.mark.parametrize("shape", [("grid", 4, 4), ("torus", 6, 6)],
                         ids=lambda v: "_".join(map(str, v)))
def test_eta_verdict_matches_the_two_decision_rule(shape):
    s = surface_of(*shape)
    verdicts = []
    for exponent in range(-7, 7):
        moved = scaled(s, 10.0 ** exponent)
        image = eta_image(stiffen(moved), build_exact_sequence(moved).spatial_h2())
        verdict = analyze_surface(moved).checks["spatial_truss_transfer_full_rank"]
        assert verdict == oracles.eta_full_rank(image), exponent
        verdicts.append(verdict)
    assert not verdicts[0] and verdicts[-1]


# Translation.  The lever arms are differences of coordinates, so at an
# offset of 1e4 they carry rounding of about 1e4 x 2.2e-16 against
# entries of order 1, over the 1e-12 naturality and functoriality bounds
# (ROADMAP item 5).  The global motions of ``rigid_h2`` are carried from
# the coordinate origin, so on ``torus 3 4`` their rounding also breaks
# the 1e-11 cycle bound of ``spatial_h2`` (relative residual 2.4e-11).
@pytest.mark.parametrize("shape, error", [
    (("annulus", 2, 8), NaturalityViolation),
    (("torus", 4, 4), NaturalityViolation),
    (("cylinder", 3, 8), FunctorialityViolation),
    (("torus", 3, 4), ExactnessViolation),
], ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else v.__name__)
def test_report_invariant_under_translation(request, shape, error):
    request.applymarker(pytest.mark.xfail(
        strict=True, raises=error,
        reason="translation rounding over the residual bounds (ROADMAP item 5)"))
    s = surface_of(*shape)
    moved = build_surface(s.vertices + 1e4, s.faces)
    assert analyze_surface(moved).to_dict() == analyze_surface(s).to_dict()


@pytest.mark.parametrize("shape", [("grid", 4, 4), ("miura", 3, 4), ("annulus", 2, 8)],
                         ids=lambda v: "_".join(map(str, v)))
def test_converted_solutions_move_with_the_sheet(shape):
    # Face velocities are anchored at the centroids, so a rotation R and
    # a translation rotate every angular and linear part by R, and every
    # truss velocity.  Hinge rates are scalars and stay.
    s = surface_of(*shape)
    r = rotation([0.3, -0.5, 0.8, 0.1])
    moved = build_surface(s.vertices @ r.T + [0.7, -1.3, 2.1], s.faces)
    classes = build_exact_sequence(s).hinge_h1()
    rates = classes @ np.linspace(1.0, 2.0, classes.shape[1])

    def convert(surface):
        seq = build_exact_sequence(surface)
        return hinge_to_truss(seq, stiffen(surface), hinge_solution(seq, rates))

    here, there = convert(s), convert(moved)
    assert here.obstructed == there.obstructed
    if here.obstructed:
        return

    def gap(a, b):
        return np.abs(a - b).max() / np.abs(a).max()

    nu = here.spatial.coefficients.reshape(-1, 2, 3)
    assert gap(there.spatial.coefficients.reshape(-1, 2, 3), nu @ r.T) < 1e-12
    y = here.truss.coefficients.reshape(-1, 3)
    assert gap(there.truss.coefficients.reshape(-1, 3), y @ r.T) < 1e-12
