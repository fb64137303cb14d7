"""Record the analyze-large reference reports from the current sources.

Run from the root of a checkout::

    python3 perfbench/record_reference.py

Analyzes each analyze-large sheet under every seed in ``SEEDS``,
requires the canonical reports to agree across seeds and to pass every
check, and writes them to ``reference/analyze_large.json``.  The reports
hold only counts, dimensions, ranks and check flags, so generator jitter
must not change them.  ``SEEDS`` includes a held-out seed, so the
reference also holds on inputs kept back from development.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from foldkin import analysis, fold_io  # noqa: E402
from workloads import AnalyzeLarge  # noqa: E402
from worker import REFERENCE  # noqa: E402

SEEDS = (0, 1, 2, 1000)   # 1000: a held-out seed (run.py HELD_OUT_FROM)


def main() -> int:
    reports: dict[str, str] = {}
    for seed in SEEDS:
        for label, data in AnalyzeLarge(seed, {}).inputs:
            surface = fold_io.surface_from_document(fold_io.parse_fold(data))
            report = analysis.analyze_surface(surface)
            if not report.all_ok:
                print(f"{label} seed {seed}: a check fails", file=sys.stderr)
                return 1
            text = report.to_json()
            if reports.setdefault(label, text) != text:
                print(f"{label}: seed {seed} changes the report", file=sys.stderr)
                return 1
            print(f"{label} seed {seed}: ok")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reports, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
