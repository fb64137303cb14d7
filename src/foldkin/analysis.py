"""Whole-surface analysis: build every model, run the dimension ledgers
and structural checks, and summarize the result in a report that
serializes deterministically.

The checks mirror the structural facts the models must satisfy on any
valid oriented surface: the rigid-body model keeps exactly the six
global motions, its degree-1 homology carries six dimensions per
independent surface loop, hinge solutions free of loop obstruction
match spatial solutions up to global motion, and the truss kernel
matches the spatial solution space dimension with full-rank transfer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cosheaf import COMPLEX_TOL
from .errors import WellDefinednessViolation
from .fold_io import canonical_json
from .linalg import RANK_TOL, svd_rank
from .maps import ExactSequence, build_exact_sequence, corner_velocities
from .models import build_constant_model, stiffen, truss_kernel
from .surface import OrigamiSurface, base_homology

GRAM_RELATIVE_FLOOR = 1e-12


@dataclass
class AnalysisReport:
    """Dimensions, ranks, and pass/fail flags for one surface."""

    counts: dict
    betti: list[int]
    dims: dict
    ranks: dict
    checks: dict
    tolerance: float
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        # elapsed time stays out so equal inputs give identical bytes
        return {
            "counts": self.counts,
            "betti": self.betti,
            "dims": self.dims,
            "ranks": self.ranks,
            "checks": self.checks,
            "tolerance": self.tolerance,
            "all_ok": self.all_ok,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_text(self) -> str:
        lines = []
        c = self.counts
        lines.append(f"cells      {c['vertices']} vertices "
                     f"({c['interior_vertices']} interior), "
                     f"{c['edges']} edges ({c['interior_edges']} interior), "
                     f"{c['faces']} faces")
        lines.append(f"betti      b0={self.betti[0]} b1={self.betti[1]} "
                     f"b2={self.betti[2]}")
        lines.append("dims       " + "  ".join(
            f"{k}={v}" for k, v in sorted(self.dims.items())))
        lines.append("ranks      " + "  ".join(
            f"{k}={v}" for k, v in sorted(self.ranks.items())))
        for name, ok in sorted(self.checks.items()):
            lines.append(f"check      {name:32s} {'pass' if ok else 'FAIL'}")
        lines.append(f"tolerance  {self.tolerance:g}")
        lines.append(f"elapsed    {self.elapsed_seconds:.3f}s")
        lines.append(f"result     {'PASS' if self.all_ok else 'FAIL'}")
        return "\n".join(lines)


def eta_image(seq: ExactSequence, linkage) -> np.ndarray:
    """Truss images of an orthonormal spatial solution basis."""
    basis = seq.spatial_h2()
    if basis.shape[1] == 0:
        return np.zeros((3 * linkage.num_points, 0))
    _, image = corner_velocities(linkage, basis)
    residual = np.abs(linkage.matrix @ image).max(initial=0.0)
    if residual > 1e-8 * max(1.0, np.abs(image).max(initial=0.0)):
        raise WellDefinednessViolation(
            f"spatial basis maps outside the truss kernel ({residual:.3e})")
    return image


def analyze_surface(surface: OrigamiSurface) -> AnalysisReport:
    start = time.perf_counter()
    seq = build_exact_sequence(surface)
    linkage = stiffen(surface)
    kernel = truss_kernel(linkage)
    betti = list(base_homology(surface))

    dims = {
        "hinge_h1": seq.hinge_h1().shape[1],
        "spatial_h2": seq.spatial_h2().shape[1],
        "rigid_h2": seq.rigid_h2().shape[1],
        "rigid_h1": seq.rigid_h1().shape[1],
        "truss_kernel": kernel.shape[1],
    }
    theta = seq.spatial_to_hinge_matrix()
    obstruction = seq.loop_obstruction_matrix()
    # Both maps act between orthonormal class bases, so meaningful
    # entries are order one; anchor the rank cutoff there.
    ranks = {
        "spatial_to_hinge": svd_rank(theta, scale=1.0),
        "loop_obstruction": svd_rank(obstruction, scale=1.0),
    }

    image = eta_image(seq, linkage)
    gram_ok = True
    if image.shape[1]:
        eigs = np.linalg.eigvalsh(image.T @ image)
        gram_ok = bool(eigs[0] >= GRAM_RELATIVE_FLOOR * max(eigs[-1], 1e-300))
    eta_ok = gram_ok and svd_rank(image) == dims["spatial_h2"]

    square_ok = bool(all(
        cc.square_residual() <= COMPLEX_TOL
        for cc in (seq.hinge, seq.rigid, seq.spatial, build_constant_model(surface, 1))))

    obstruction_free = dims["hinge_h1"] - ranks["loop_obstruction"]
    checks = {
        "rigid_global_motions_6": dims["rigid_h2"] == 6 * betti[0],
        "rigid_loops_6_per_class": dims["rigid_h1"] == 6 * betti[1],
        "hinge_spatial_ledger": obstruction_free == dims["spatial_h2"] - 6,
        "truss_ledger": dims["truss_kernel"] == dims["spatial_h2"],
        "spatial_truss_transfer_full_rank": eta_ok,
        "exact_sequence": seq.report.ok,
        "boundary_squares_vanish": square_ok,
    }
    counts = {
        "vertices": surface.num_vertices,
        "interior_vertices": len(surface.interior_vertices()),
        "edges": surface.num_edges,
        "interior_edges": len(surface.interior_edges()),
        "faces": surface.num_faces,
    }
    return AnalysisReport(counts=counts, betti=betti, dims=dims, ranks=ranks,
                          checks=checks, tolerance=RANK_TOL,
                          elapsed_seconds=time.perf_counter() - start)
