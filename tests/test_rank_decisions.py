"""Rank decisions checked where they are hardest.

Near-singular sheets (ROADMAP item 14): a Miura-ori is rigid-foldable,
so it has at least one hinge class at every fold angle, and the glued
hinge classes must count as many as one SVD of the whole hinge ``d1``.
Rounding-level vertex noise must not make a valid sheet bad input.  The
cases that fail today are strict xfails: one that starts passing fails
the suite until its marker goes.  ``ExactnessViolation`` marks a sheet
rejected by a certificate, a plain xfail one that reports too few
classes.

Exact ranks (ROADMAP item 15): on fixtures whose coordinates are exactly
representable, :func:`oracles.exact_hinge_h1` computes the hinge
solutions' dimension over the integers, with no foldkin code.
"""

import numpy as np
import pytest

from foldkin import analyze_surface, build_exact_sequence, build_surface
from foldkin.errors import ExactnessViolation
from foldkin.linalg import nullspace

import oracles
from conftest import jessen, square_hole_grid, surface_of

RAISES = pytest.mark.xfail(strict=True, raises=ExactnessViolation,
                           reason="a certificate rejects a valid sheet (item 14)")
TOO_FEW = pytest.mark.xfail(strict=True, reason="glued classes miss a mode (item 14)")
MIURA_FAILS = {
    (6, 1e-4): RAISES, (6, 1e-5): RAISES,
    (10, 1e-2): RAISES, (10, 1e-3): RAISES, (10, 3e-4): TOO_FEW, (10, 1e-4): TOO_FEW,
    (10, 1e-5): RAISES,
    (16, 1e-2): RAISES, (16, 1e-3): RAISES, (16, 3e-4): TOO_FEW, (16, 1e-4): TOO_FEW,
    (16, 1e-5): TOO_FEW,
}


@pytest.mark.parametrize("rows, angle", [
    pytest.param(r, a, marks=MIURA_FAILS.get((r, a), ()), id=f"miura_{r}_{a:g}")
    for r in (6, 10, 16) for a in (0.7, 1e-1, 1e-2, 1e-3, 3e-4, 1e-4, 1e-5)])
def test_miura_keeps_every_mode_of_the_dense_route(rows, angle):
    seq = build_exact_sequence(surface_of("miura", rows, rows, angle))
    assert seq.hinge_h1().shape[1] == nullspace(seq.hinge.d1).shape[1] >= 1


def noisy(surface, noise):
    return build_surface(surface.vertices + noise, surface.faces)


GRID_FAILS = {(3, 3), (4, 4), (5, 3), (8, 1)}


@pytest.mark.parametrize("n, seed", [
    pytest.param(n, seed, marks=RAISES if (n, seed) in GRID_FAILS else (),
                 id=f"grid_{n}_seed{seed}")
    for n in (3, 4, 5, 8) for seed in range(6)])
def test_rounding_noise_on_a_flat_grid_is_not_bad_input(n, seed):
    flat = surface_of("grid", n, n, jitter=False)
    noise = np.zeros(flat.vertices.shape)
    noise[:, 2] = 1e-12 * np.random.default_rng(seed).normal(size=len(noise))
    analyze_surface(noisy(flat, noise))


@pytest.mark.parametrize("eps, seed", [
    pytest.param(eps, seed, marks=RAISES if eps > 1e-11 else (), id=f"{eps:g}_seed{seed}")
    for eps in (3e-12, 1e-10) for seed in range(4)])
def test_rounding_noise_on_jessen_is_not_bad_input(eps, seed):
    shape = jessen()
    noise = eps * np.random.default_rng(seed).normal(size=shape.vertices.shape)
    assert analyze_surface(noisy(shape, noise)).dims["hinge_h1"] == 1


@pytest.mark.parametrize("make, want", [
    *[(lambda n=n: surface_of("grid", n, n, jitter=False), 2 * n - 2) for n in (4, 6, 8, 12)],
    (jessen, 1),
    *[(lambda n=n: square_hole_grid(n), want) for n, want in ((4, 10), (12, 26))],
], ids=["grid_4", "grid_6", "grid_8", "grid_12", "jessen", "square_hole_4", "square_hole_12"])
def test_hinge_classes_match_the_exact_rank(make, want):
    # A flat grid folds along each straight interior line on its own.
    surface = make()
    assert oracles.exact_hinge_h1(surface) == want
    assert build_exact_sequence(surface).hinge_h1().shape[1] == want
