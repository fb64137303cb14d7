"""One benchmark process: set up a workload, then measure or trace it.

``run.py`` starts this file from the root of a checkout::

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops once set-up is done; ``run`` times passes;
``trace`` alternates traced and untraced passes; ``compare`` runs one
traced pass (the launcher starts it with another BLAS thread count).  The
process writes JSON lines to stdout: ``{"event": "ready"}`` when set-up
is done, then ``{"event": "result", ...}``.  It imports foldkin from the
checkout's ``src`` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference", "analyze_large.json")
OUT = os.path.join(HERE, "out")
WARMUP_SHAPE = (600, 600)


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def source_digest() -> str:
    """SHA-256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "foldkin", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def blas_record(np) -> dict:
    """BLAS library, version and the thread count it reports."""
    record = {"numpy": np.__version__, "blas": None, "blas_version": None,
              "blas_threads": None, "blas_library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"], record["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                record["blas_threads"] = int(fn())
                record["blas_library"] = os.path.basename(path)
                return record
    return record


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: a sample, never a blend of two."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def build_workload(name: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.AnalyzeLarge:
        with open(REFERENCE, "r", encoding="utf-8") as handle:
            return cls(seed, json.load(handle))
    return cls(seed)


def run_passes(workload, seconds: float, traced_at, min_passes: int = 1) -> list[dict]:
    """Run and check passes until the next one would overrun ``seconds``
    and at least ``min_passes`` have run.

    ``traced_at(k)`` says whether pass ``k`` is traced; a traced pass gets
    a fresh tracer so each pass's spans aggregate on their own.  A pass's
    outputs are dropped once checked, so memory does not grow with the
    number of passes.
    """
    from spans import Tracer, aggregate, instrumented

    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced_at(len(passes)) else None
        if tracer is not None:
            with instrumented(tracer):
                t0 = time.perf_counter()
                records = workload.run_pass(tracer)
                wall = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            records = workload.run_pass()
            wall = time.perf_counter() - t0
        problems = workload.check(records)
        conversions = [r for r in records if r.kind == "convert" and r.error is None]
        passes.append({
            "wall": wall,
            "attempted": len(records),
            "failures": [p for p in problems if p is not None],
            "samples": [r.seconds for r, p in zip(records, problems)
                        if p is None and r.timed],
            "conversions": len(conversions),
            "unobstructed": sum(not r.value[2][0].obstructed for r in conversions),
            "tracer": tracer if all(p["tracer"] is None for p in passes) else None,
            "trace": aggregate(tracer) if tracer else None,
        })
        del records, problems, conversions
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + statistics.median(p["wall"] for p in passes) > seconds):
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer values of each traced pass, then their median."""
    import spans
    import workloads

    traced = [p for p in passes if p["trace"] is not None]
    untraced = [p["wall"] for p in passes if p["trace"] is None]
    per_pass = []
    for p in traced:
        agg = p["trace"]
        totals = agg["totals"]
        values = {}
        for name in spans.TARGETS:
            t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            values[f"{name}.s"] = t["s"]
            values[f"{name}.self_s"] = t["self_s"]
            values[f"{name}.calls"] = t["calls"]
        for label in workloads.ANALYZE_LABELS:
            values[f"analysis.analyze_surface.self_s.{label}"] = \
                agg["self_by_label"].get(label, {}).get("analysis.analyze_surface", 0.0)
        values["linalg.svd.flops"] = agg["svd"]["flops"]
        values["linalg.svd.bytes"] = agg["svd"]["bytes"]
        values["linalg.svd.max_elems"] = agg["svd"]["max_elems"]
        harness = sum(totals.get(n, {}).get("self_s", 0.0) for n in (spans.PASS, spans.OP))
        values["trace.pass_wall_s"] = p["wall"]
        values["trace.self_sum_s"] = sum(t["self_s"] for t in totals.values())
        values["trace.harness_self_s"] = harness
        values["trace.spans"] = agg["spans"]
        per_pass.append(values)
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    out["trace.overhead_est_s"] = out["trace.spans"] * spans.span_cost()
    out["trace.untraced_wall_s"] = statistics.median(untraced) if untraced else 0.0
    out["trace.overhead_s"] = (out["trace.pass_wall_s"] - out["trace.untraced_wall_s"]
                               if untraced else 0.0)
    conversions = sum(p["conversions"] for p in passes)
    out["maps.hinge_to_truss.unobstructed_frac"] = (
        sum(p["unobstructed"] for p in passes) / conversions if conversions else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "compare"),
                        required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "foldkin", "__init__.py")):
        print(f"worker: no foldkin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import foldkin

    if not os.path.abspath(foldkin.__file__).startswith(SRC + os.sep):
        print(f"worker: imported foldkin from {foldkin.__file__}", file=sys.stderr)
        return 2
    workload = build_workload(args.workload, args.seed)
    rng = np.random.default_rng(args.seed)
    np.linalg.svd(rng.normal(size=WARMUP_SHAPE))  # first-SVD BLAS start-up
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        passes = run_passes(workload, args.seconds, lambda k: False)
    elif args.mode == "trace":
        # one untimed pass first, so first-touch costs land on neither side
        warmup = run_passes(workload, 0.0, lambda k: False)
        passes = run_passes(workload, args.seconds, lambda k: k % 2 == 0, min_passes=2)
    else:
        passes = run_passes(workload, 0.0, lambda k: True)
    checked = passes + (warmup if args.mode == "trace" else [])
    failures = [f for p in checked for f in p["failures"]]
    samples = [s for p in passes for s in p["samples"]]
    result = {
        "event": "result",
        "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "attempted": sum(p["attempted"] for p in checked),
        "failed": len(failures),
        "failures": failures[:5],
        "env": dict(blas_record(np), python=platform.python_version(),
                    foldkin_source_sha256=source_digest()),
    }
    if args.mode == "run":
        # Each timing is a median over passes of a per-pass value, so a
        # stretch of slow machine time moves it only if it covers most
        # passes.
        result["samples"] = len(samples)
        timed = [p["samples"] for p in passes if p["samples"]]
        result["metrics"] = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "op_s.p50": statistics.median(quantile(s, 0.5) for s in timed) if timed else 0.0,
            "op_s.p90": statistics.median(quantile(s, 0.9) for s in timed) if timed else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
    elif args.mode == "trace":
        result["metrics"] = layer_metrics(passes)
        os.makedirs(OUT, exist_ok=True)
        first = next(p for p in passes if p["tracer"] is not None)
        from spans import dump
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
        dump(path, first["tracer"],
             {"workload": args.workload, "seed": args.seed, "env": result["env"],
              "metrics": result["metrics"]})
        result["trace_file"] = os.path.relpath(path, ROOT)
    else:
        traced = passes[0]["trace"]["totals"].get("linalg.svd", {"s": 0.0})
        result["metrics"] = {"wall_s": passes[0]["wall"], "linalg.svd.s": traced["s"]}
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
