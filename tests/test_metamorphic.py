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

from foldkin import analyze_surface, build_surface, generate
from foldkin.errors import WellDefinednessViolation

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


# Known scale defects (ROADMAP item 5).  The spatial boundary mixes
# angular columns that grow with the coordinates and linear ones that do
# not: at 1e5 its numerical kernel leaves the truss kernel, and at 1e-6
# rotations reach the truss only through lever arms of that size, so the
# eta Gram ratio falls under GRAM_RELATIVE_FLOOR.
@pytest.mark.parametrize("factor", [
    pytest.param(1e5, marks=pytest.mark.xfail(
        strict=True, raises=WellDefinednessViolation,
        reason="spatial kernel inaccurate at large scale")),
    pytest.param(1e-6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="eta Gram ratio under its floor at small scale")),
    pytest.param(1e-7, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="eta Gram ratio under its floor at small scale")),
])
def test_grid_report_invariant_under_scaling(factor):
    s = surface_of("grid", 4, 4)
    assert analyze_surface(scaled(s, factor)).to_dict() \
        == analyze_surface(s).to_dict()
