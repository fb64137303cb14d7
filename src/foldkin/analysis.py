"""Whole-surface analysis: build every model, run the dimension ledgers
and structural checks, and summarize the result in a report that
serializes deterministically.

The checks mirror the structural facts the models must satisfy on any
valid oriented surface: the rigid-body model keeps exactly six global
motions per component, its degree-1 homology carries six dimensions per
independent surface loop, hinge solutions free of loop obstruction
match spatial solutions up to global motion, and the truss kernel
matches the spatial solution space dimension with full-rank transfer.
The squares checked are the hinge and spatial models' and the exact base
square; the rigid model's is the base square carried by transfers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cosheaf import COMPLEX_TOL
from .fold_io import canonical_json
from .linalg import RANK_TOL, svd_rank
from .maps import build_exact_sequence
from .models import eta_image, stiffen
from .surface import OrigamiSurface, base_homology, base_square_vanishes

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


def analyze_surface(surface: OrigamiSurface) -> AnalysisReport:
    start = time.perf_counter()
    seq = build_exact_sequence(surface)
    image = eta_image(stiffen(surface), seq.spatial_h2())
    betti = list(base_homology(surface))

    dims = {
        "hinge_h1": seq.hinge_h1().shape[1],
        "spatial_h2": seq.spatial_h2().shape[1],
        "rigid_h2": seq.rigid_h2().shape[1],
        "rigid_h1": 6 * seq.loop_cocycles().shape[1],
        "truss_kernel": image.shape[1],
    }
    theta = seq.spatial_to_hinge_matrix()
    obstruction = seq.loop_obstruction_matrix()
    # Both maps act between orthonormal class bases, so meaningful
    # entries are order one; anchor the rank cutoff there.
    ranks = {
        "spatial_to_hinge": svd_rank(theta, scale=1.0),
        "loop_obstruction": svd_rank(obstruction, scale=1.0),
    }

    # η has the six global motions at least.  A Gram ratio of at least
    # 1e-12 is a singular-value ratio of at least 1e-6, far above
    # RANK_TOL: an SVD rank of η would add nothing.
    eigs = np.linalg.eigvalsh(image.T @ image)
    eta_ok = bool(eigs[0] >= GRAM_RELATIVE_FLOOR * max(eigs[-1], 1e-300))

    square_ok = base_square_vanishes(surface) and all(
        model.square_residual() <= COMPLEX_TOL for model in (seq.hinge, seq.spatial))

    obstruction_free = dims["hinge_h1"] - ranks["loop_obstruction"]
    checks = {
        "rigid_global_motions_6": dims["rigid_h2"] == 6 * betti[0],
        "rigid_loops_6_per_class": dims["rigid_h1"] == 6 * betti[1],
        "hinge_spatial_ledger": obstruction_free == dims["spatial_h2"] - dims["rigid_h2"],
        "truss_ledger": dims["truss_kernel"] == dims["spatial_h2"],
        "spatial_truss_transfer_full_rank": eta_ok,
        # Verified when the sequence was built, or building it raised.
        "exact_sequence": True,
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
