"""Span recording for traced benchmark passes, from outside the program.

``instrumented(tracer)`` replaces each public foldkin function listed in
``TARGETS``, and ``numpy.linalg.svd``, in every namespace where a caller
looks it up, with a wrapper that records one span: name, start, end,
parent span and operation id.  Spans stay in memory; ``aggregate`` turns
one pass of them into per-layer totals, and ``dump`` writes them out.
Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# metric prefix -> (module, attribute path) of the wrapped callable
TARGETS = {
    "fold_io.parse_fold": ("foldkin.fold_io", "parse_fold"),
    "fold_io.surface_from_document": ("foldkin.fold_io", "surface_from_document"),
    "fold_io.canonical_json": ("foldkin.fold_io", "canonical_json"),
    "surface.build_surface": ("foldkin.surface", "build_surface"),
    "surface.base_homology": ("foldkin.surface", "base_homology"),
    "models.build_hinge_model": ("foldkin.models", "build_hinge_model"),
    "models.build_rigid_model": ("foldkin.models", "build_rigid_model"),
    "models.build_spatial_model": ("foldkin.models", "build_spatial_model"),
    "models.build_constant_model": ("foldkin.models", "build_constant_model"),
    "models.stiffen": ("foldkin.models", "stiffen"),
    "models.truss_kernel": ("foldkin.models", "truss_kernel"),
    "cosheaf.assemble_chain_complex": ("foldkin.cosheaf", "assemble_chain_complex"),
    "cosheaf.homology_basis": ("foldkin.cosheaf", "homology_basis"),
    "cosheaf.naturality": ("foldkin.cosheaf", "CosheafMap.validate"),
    "cosheaf.verify_exact_sequence": ("foldkin.cosheaf", "verify_exact_sequence"),
    "cosheaf.connecting_map": ("foldkin.cosheaf", "connecting_map"),
    "cosheaf.induced_map": ("foldkin.cosheaf", "induced_map"),
    "maps.build_exact_sequence": ("foldkin.maps", "build_exact_sequence"),
    "maps.hinge_h1": ("foldkin.maps", "ExactSequence.hinge_h1"),
    "maps.spatial_h2": ("foldkin.maps", "ExactSequence.spatial_h2"),
    "maps.rigid_h1": ("foldkin.maps", "ExactSequence.rigid_h1"),
    "maps.rigid_h2": ("foldkin.maps", "ExactSequence.rigid_h2"),
    "maps.spatial_to_hinge_matrix": ("foldkin.maps", "ExactSequence.spatial_to_hinge_matrix"),
    "maps.loop_obstruction_matrix": ("foldkin.maps", "ExactSequence.loop_obstruction_matrix"),
    "maps.hinge_solution": ("foldkin.maps", "hinge_solution"),
    "maps.hinge_to_spatial": ("foldkin.maps", "hinge_to_spatial"),
    "maps.hinge_to_truss": ("foldkin.maps", "hinge_to_truss"),
    "maps.spatial_to_truss": ("foldkin.maps", "spatial_to_truss"),
    "maps.truss_to_spatial": ("foldkin.maps", "truss_to_spatial"),
    "maps.serial_chain_operators": ("foldkin.maps", "serial_chain_operators"),
    "maps.propagate_chain": ("foldkin.maps", "propagate_chain"),
    "maps.pinned_chain_connecting_matrix": ("foldkin.maps", "pinned_chain_connecting_matrix"),
    "analysis.analyze_surface": ("foldkin.analysis", "analyze_surface"),
    "analysis.eta_image": ("foldkin.analysis", "eta_image"),
    "linalg.svd": ("numpy.linalg", "svd"),
}

SVD = "linalg.svd"
PASS = "bench.pass"
OP = "bench.op"


class Tracer:
    """In-memory span store; one instance per traced pass.

    A span is ``[name, start, end, parent, op]`` where ``parent`` is the
    index of the enclosing span (-1 at the root) and ``op`` the operation
    id the benchmark set when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.svd_shapes: dict[int, tuple] = {}
        self.op_labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None, label: str | None = None):
        if op is not None:
            self._op = op
            if label is not None:
                self.op_labels[op] = label
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)


def _wrap(tracer: Tracer, name: str, fn):
    if name == SVD:
        @functools.wraps(fn)
        def traced_svd(a, *args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(idx)
                shape = getattr(a, "shape", ())
                full = kwargs.get("full_matrices", args[0] if args else True)
                uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                tracer.svd_shapes[idx] = (tuple(shape), bool(full), bool(uv))
        return traced_svd

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers for the duration of the block.

    A module-level function is replaced in every loaded ``foldkin``
    module that holds it (``from .maps import build_exact_sequence``
    binds a second name), so every caller's lookup finds the wrapper.
    Methods are replaced on their class.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, name, original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            holders = [owner] + [
                mod for key, mod in list(sys.modules.items())
                if (key == "foldkin" or key.startswith("foldkin."))
                and mod is not owner]
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = _wrap(Tracer(), "noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# --- computed SVD cost ---

def svd_flops(shape: tuple, full: bool, uv: bool) -> float:
    """Floating-point operations of one SVD, from its shape alone.

    Golub and Van Loan's operation counts for the R-SVD: singular values
    only ``4mn^2 - 4n^3/3``; with thin factors ``6mn^2 + 20n^3``; with a
    full left factor ``4m^2n + 22n^3`` (m >= n after transposing).
    """
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = 1
    for k in shape[:-2]:
        batch *= k
    if not uv:
        per = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full:
        per = 4.0 * m * m * n + 22.0 * n ** 3
    else:
        per = 6.0 * m * n * n + 20.0 * n ** 3
    return batch * max(per, 0.0)


def svd_bytes(shape: tuple, full: bool, uv: bool) -> float:
    """Bytes of float64 read and written by one SVD: input plus factors."""
    if len(shape) < 2:
        return 0.0
    rows, cols = shape[-2:]
    k = min(rows, cols)
    batch = 1
    for d in shape[:-2]:
        batch *= d
    out = k
    if uv:
        out += (rows * rows + cols * cols) if full else (rows * k + k * cols)
    return 8.0 * batch * (rows * cols + out)


# --- aggregation ---

def aggregate(tracer: Tracer) -> dict:
    """Per-name totals over one tracer's spans (one traced pass).

    ``s`` sums the durations of spans with no same-named ancestor, so a
    recursive layer is not counted twice; ``self_s`` subtracts the time
    covered by direct children; ``calls`` counts spans.
    """
    spans = tracer.spans
    child = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    totals: dict[str, dict] = {}
    by_label: dict[str, dict[str, float]] = {}
    svd = {"flops": 0.0, "bytes": 0.0, "max_elems": 0}
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        own = dur - child.get(i, 0.0)
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["self_s"] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["s"] += dur
        label = tracer.op_labels.get(op)
        if label is not None:
            per = by_label.setdefault(label, {})
            per[name] = per.get(name, 0.0) + own
        if name == SVD and i in tracer.svd_shapes:
            shape, full, uv = tracer.svd_shapes[i]
            svd["flops"] += svd_flops(shape, full, uv)
            svd["bytes"] += svd_bytes(shape, full, uv)
            elems = 1
            for d in shape:
                elems *= d
            svd["max_elems"] = max(svd["max_elems"], elems)
    return {"totals": totals, "self_by_label": by_label, "svd": svd,
            "spans": len(spans)}


def dump(path: str, tracer: Tracer, extra: dict) -> None:
    """Write the tracer's spans and ``extra`` as gzip-compressed JSON."""
    names = sorted({s[0] for s in tracer.spans})
    code = {n: k for k, n in enumerate(names)}
    base = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[code[s[0]], round(s[1] - base, 9), round(s[2] - base, 9), s[3], s[4]]
            for s in tracer.spans]
    doc = dict(extra)
    doc.update({"span_names": names,
                "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": rows,
                "op_labels": {str(k): v for k, v in tracer.op_labels.items()}})
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
