"""foldkin benchmark launcher.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 55 --trace 0

Each workload runs in its own worker process (``worker.py``) with the
BLAS thread count fixed below.  With ``--trace 0`` the launcher starts
one unmeasured worker that fills a fresh bytecode cache, then
``SETUP_SAMPLES - 1`` set-up-only workers, half before and half after
one measuring worker, and reports the end-to-end metrics.  With
``--trace 1`` it starts one tracing worker and one worker that traces a
pass with two BLAS threads, and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of stdout
is the result as one JSON object; the lines before it record the
environment and every metric by name and unit.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("analyze-large", "convert-small")
BLAS_THREADS = 1          # steadier than 2 on a 2-core machine; see README.md
COMPARE_THREADS = 2       # the traced run's extra pass, to show what threads buy
SETUP_SAMPLES = 9
HELD_OUT_FROM = 1000      # seeds at or above this are kept for checking claims
DEADLINE_MARGIN_S = 60.0  # set-ups, a pass past --seconds, the traced run's extra pass


class WorkerError(RuntimeError):
    pass


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` asks of this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env(threads: int, pycache: str) -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    # Bytecode is read and written only in this run's own cache, so no
    # __pycache__ left in the checkout changes how a worker starts.
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, threads: int) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to ready, result).

    The worker is killed at ``args.deadline`` and always waited for.
    """
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(threads, args.pycache),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(args.deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                sys.stderr.write(line)   # not the protocol: pass it on
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                ready = time.perf_counter() - start
            elif event["event"] == "result":
                result = event
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise WorkerError(f"{mode} worker exited with code {code}")
    return ready, result


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def measure(args) -> tuple[dict, list]:
    """Time the passes, and time start-ups both before and after them, so
    that ``setup_s`` samples the machine over the whole run."""
    run_worker(args, "setup", BLAS_THREADS)   # fills the bytecode cache; not measured
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(args, "setup", BLAS_THREADS)[0] for _ in range(before)]
    ready, result = run_worker(args, "run", BLAS_THREADS)
    setups.append(ready)
    setups += [run_worker(args, "setup", BLAS_THREADS)[0]
               for _ in range(SETUP_SAMPLES - 1 - before)]
    result["metrics"]["setup_s"] = statistics.median(setups)
    notes = [f"setup_s median of {len(setups)} worker start-ups after one that "
             "filled the bytecode cache",
             f"wall_s median of {result['passes']} passes: "
             + " ".join(f"{w:.3f}" for w in result["pass_walls"]),
             f"op_s over {result['samples']} operations"]
    return result, notes


def trace(args) -> tuple[dict, list]:
    _, result = run_worker(args, "trace", BLAS_THREADS)
    _, compare = run_worker(args, "compare", COMPARE_THREADS)
    result["metrics"].update({f"blas{COMPARE_THREADS}.{name}": value
                              for name, value in compare["metrics"].items()})
    result["attempted"] += compare["attempted"]
    result["failed"] += compare["failed"]
    result["failures"] += compare["failures"]
    result["env"]["compare_blas_threads"] = compare["env"]["blas_threads"]
    notes = [f"per-layer values are medians over the traced passes of {result['passes']}",
             f"spans of the first traced pass: {result['trace_file']}"]
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="foldkin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: the running worker is killed and
    # waited for, and the bytecode cache is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "foldkin", "__init__.py")):
        print("run.py: run from the root of a foldkin checkout (src/foldkin missing)",
              file=sys.stderr)
        return 2

    try:
        wanted = metric_units(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"run.py: cannot read the metrics from BENCHMARK.json: {exc!r}",
              file=sys.stderr)
        return 2

    args.deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    os.makedirs(OUT, exist_ok=True)
    args.pycache = tempfile.mkdtemp(prefix="pycache-", dir=OUT)
    try:
        result, notes = (trace if args.trace else measure)(args)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.pycache, ignore_errors=True)
    missing = sorted(set(wanted) - set(result["metrics"]))
    if missing:
        print(f"run.py: the worker gave no value for {', '.join(missing)}", file=sys.stderr)
        return 3

    env = dict(result["env"], workload=args.workload, seed=args.seed,
               seed_set="held-out" if args.seed >= HELD_OUT_FROM else "development",
               seconds=args.seconds, trace=args.trace, blas_threads_requested=BLAS_THREADS,
               nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               git_commit=git_commit(), load_model="closed loop, one caller")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("note " + note)
    for failure in result["failures"]:
        print("failure " + failure)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in wanted.items()}
    fail_frac = result["failed"] / max(result["attempted"], 1)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric fail_frac {fail_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
