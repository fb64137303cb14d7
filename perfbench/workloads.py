"""The benchmark's two workloads.

Each workload makes its inputs from the seed in ``__init__`` (set-up),
runs one timed pass over them in ``run_pass``, and checks a pass's
outputs in ``check``.  Inputs reach foldkin only as FOLD-document bytes
and solution vectors.  Library calls go through module attributes
(``maps.hinge_to_truss``), so a traced pass sees the wrappers that
``spans.instrumented`` installs.

The independent references used by ``check`` are written here with
numpy and the surface's incidence data only; they share no code with
foldkin's cosheaf, model or conversion layers.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from foldkin import analysis, cli, errors, fold_io, generators, maps, models
from spans import OP, PASS

CYCLE_TOL = inspect.signature(maps.hinge_to_truss).parameters["cycle_tol"].default
SERIAL_LIMITS = {"recurrence_vs_operator": 1e-12, "inverse_identity": 1e-12,
                 "left_inverse_vs_connecting": 1e-9}


@dataclass
class Record:
    """One operation of a pass: what ran, how long, what it returned."""

    kind: str
    label: str
    seconds: float
    value: object = None
    error: BaseException | None = None
    timed: bool = True      # counts as a latency sample when it passes


def item_seeds(seed: int, count: int) -> list[int]:
    """Per-input generator seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


def shape_label(shape: str, *params) -> str:
    return "_".join([shape] + [str(p) for p in params])


def check_each(check_one, records: list[Record]) -> list[str | None]:
    """Apply ``check_one`` to every record; a check that raises is a failure."""
    out = []
    for r in records:
        try:
            out.append(check_one(r))
        except Exception as exc:  # malformed output must fail, not stop the run
            out.append(f"{r.kind} on {r.label}: check raised {exc!r}")
    return out


def _op_span(tracer, op: int, label: str):
    return tracer.span(OP, op=op, label=label) if tracer else nullcontext()


def _pass_span(tracer):
    return tracer.span(PASS) if tracer else nullcontext()


# --- analyze-large ---

class AnalyzeLarge:
    """The ``foldkin analyze`` path without disk I/O on four large sheets,
    then the ``foldkin serial --check`` computation on four chains.

    An analyze operation parses FOLD bytes, builds the surface, analyzes
    it and serializes the report; its JSON must equal the recorded
    reference byte for byte.  A serial operation must meet
    ``cmd_serial``'s thresholds.  Serial operations count in ``wall_s``
    but are not latency samples, so ``op_s`` stays the latency of one
    analysis.
    """

    name = "analyze-large"
    SHAPES = (("grid", 12, 12), ("torus", 8, 8), ("miura", 10, 10),
              ("annulus", 4, 16))
    CHAIN_SIZES = (40, 80, 120, 160)

    def __init__(self, seed: int, reference: dict):
        self.reference = reference
        seeds = item_seeds(seed, len(self.SHAPES) + len(self.CHAIN_SIZES))
        self.inputs = []
        for (shape, *params), s in zip(self.SHAPES, seeds):
            doc = generators.generate(shape, *params, seed=s)
            self.inputs.append((shape_label(shape, *params),
                                fold_io.serialize_fold(doc)))
        self.chains = []
        for n, s in zip(self.CHAIN_SIZES, seeds[len(self.SHAPES):]):
            doc = generators.chain(n, seed=s)
            self.chains.append((f"chain_{n}", fold_io.serialize_fold(doc),
                                np.random.default_rng(s).normal(size=n)))

    def run_pass(self, tracer=None) -> list[Record]:
        records = []
        ops = [("analyze", label, self._analyze, (data,)) for label, data in self.inputs]
        ops += [("serial", label, _serial, (data, rates)) for label, data, rates in self.chains]
        with _pass_span(tracer):
            for k, (kind, label, fn, args) in enumerate(ops):
                with _op_span(tracer, k, label):
                    start = time.perf_counter()
                    try:
                        value, error = fn(*args), None
                    except Exception as exc:  # a raising operation is a failed one
                        value, error = None, exc
                    seconds = time.perf_counter() - start
                records.append(Record(kind, label, seconds, value, error,
                                      timed=kind == "analyze"))
        return records

    @staticmethod
    def _analyze(data: bytes) -> str:
        surface = fold_io.surface_from_document(fold_io.parse_fold(data))
        return analysis.analyze_surface(surface).to_json()

    def check(self, records: list[Record]) -> list[str | None]:
        return check_each(self._check_one, records)

    def _check_one(self, r: Record) -> str | None:
        if r.error is not None:
            return f"{r.label}: raised {r.error!r}"
        if r.kind == "serial":
            return _check_serial(r)
        if r.value != self.reference.get(r.label):
            return f"{r.label}: report differs from the reference"
        return None


def _serial(data: bytes, rates: np.ndarray):
    """``cmd_serial``'s residuals, computed the way it computes them."""
    surface = fold_io.surface_from_document(fold_io.parse_fold(data))
    ops = maps.serial_chain_operators(surface)
    stepped = maps.propagate_chain(ops, rates)
    direct = ops.d @ rates
    recurrence = float(np.max(np.abs(stepped - direct))
                       / max(1.0, np.max(np.abs(direct))))
    n6 = 6 * len(rates)
    inverse = float(np.max(np.abs(
        ops.accumulate_inverse @ ops.accumulate - np.eye(n6))))
    theta, cycles = maps.pinned_chain_connecting_matrix(surface, ops)
    via_ops = ops.d_pinv @ cycles
    connecting = float(np.max(np.abs(theta - via_ops))
                       / max(1.0, np.max(np.abs(via_ops))))
    residuals = {"recurrence_vs_operator": recurrence,
                 "inverse_identity": inverse,
                 "left_inverse_vs_connecting": connecting}
    return residuals, fold_io.canonical_json({"n": len(rates), "residuals": residuals})


def _check_serial(r: Record) -> str | None:
    residuals, text = r.value
    if json.loads(text)["residuals"] != residuals:
        return f"{r.label}: payload disagrees with the residuals"
    bad = [f"{k} {v:.3e} >= {SERIAL_LIMITS[k]:g}"
           for k, v in residuals.items() if not v < SERIAL_LIMITS[k]]
    return f"{r.label}: " + ", ".join(bad) if bad else None


ANALYZE_LABELS = [shape_label(*s) for s in AnalyzeLarge.SHAPES]


# --- convert-small ---

class _SmallSurface:
    """Inputs and independent reference data for one convert-small sheet."""

    def __init__(self, shape, params, seed, rng, classes, rejects):
        self.label = shape_label(shape, *params)
        self.data = fold_io.serialize_fold(generators.generate(shape, *params, seed=seed))
        surface = fold_io.surface_from_document(fold_io.parse_fold(self.data))
        self.edges = surface.interior_edges()
        self.num_points = surface.num_vertices + surface.num_faces

        # Hinge constraints: at each interior vertex the signed hinge
        # axes, weighted by their rates, sum to zero.
        p = surface.vertices
        vrow = {v: k for k, v in enumerate(surface.interior_vertices())}
        c = np.zeros((3 * len(vrow), len(self.edges)))
        self.axes = np.zeros((len(self.edges), 3))
        for k, e in enumerate(self.edges):
            u, v = surface.edges[e]
            axis = (p[v] - p[u]) / np.linalg.norm(p[v] - p[u])
            self.axes[k] = axis
            for w in (u, v):
                if w in vrow:
                    c[3 * vrow[w]:3 * vrow[w] + 3, k] += surface.sign_ve[(w, e)] * axis
        _, s, vh = np.linalg.svd(c, full_matrices=True)
        rank = int(np.sum(s > 1e-9 * s[0]))
        kernel = vh[rank:].T

        self.classes = []
        for _ in range(classes):
            rates = kernel @ rng.normal(size=kernel.shape[1])
            self.classes.append(rates / np.linalg.norm(rates))
        self.bad_rates = []
        for j in range(rejects):
            push = c.T @ rng.normal(size=c.shape[0])
            self.bad_rates.append(self.classes[j % classes]
                                  + 1e-4 * push / np.linalg.norm(push))
        self.bad_truss = []
        for _ in range(rejects):
            y = np.tile(rng.normal(size=3), self.num_points)
            self.bad_truss.append(y + 1e-4 * rng.normal(size=y.size))

        # Each (interior edge, adjacent face) pair: the face's sign and
        # the offset from the edge midpoint to the face centroid.
        pairs = [(k, f, surface.sign_ef[(e, f)],
                  p[list(surface.faces[f])].mean(axis=0) - 0.5 * (p[u] + p[v]))
                 for k, e in enumerate(self.edges)
                 for u, v in [surface.edges[e]]
                 for f in surface.edge_faces[e]]
        self._edge = np.array([q[0] for q in pairs], dtype=int)
        self._face = np.array([q[1] for q in pairs], dtype=int)
        self._sign = np.array([q[2] for q in pairs], dtype=float)
        self._offset = np.array([q[3] for q in pairs]).reshape(-1, 3)
        self.num_faces = surface.num_faces
        self._obstructed = None

    def relative_twist(self, nu: np.ndarray) -> np.ndarray:
        """The relative twist at each interior edge midpoint made by the
        face twists ``nu`` (``omega, v`` per face); a hinge motion makes it
        ``rate * [axis, 0]``."""
        twist = nu.reshape(-1, 6)
        w, v = twist[self._face, :3], twist[self._face, 3:]
        part = self._sign[:, None] * np.hstack([w, v + np.cross(self._offset, w)])
        out = np.zeros((len(self.edges), 6))
        np.add.at(out, self._edge, part)
        return out.ravel()

    def hinge_twist(self, rates: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.edges), 6))
        out[:, :3] = self.axes * rates[:, None]
        return out.ravel()

    def expected_obstructed(self, j: int) -> bool | None:
        """Whether class ``j`` has no spatial realization: its hinge twists
        are not the relative twists of any face motion.  None when the
        distance to realizability is too close to call.

        The first call decides every class of the sheet from the dense
        relative-twist matrix, then drops the matrix and keeps the flags.
        """
        if self._obstructed is None:
            a = np.column_stack([self.relative_twist(e)
                                 for e in np.eye(6 * self.num_faces)])
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            rank = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
            twists = np.column_stack([self.hinge_twist(r) for r in self.classes])
            gaps = (np.linalg.norm(twists - u[:, :rank] @ (u[:, :rank].T @ twists), axis=0)
                    / np.linalg.norm(twists, axis=0))
            self._obstructed = [True if g > 1e-6 else False if g < 1e-9 else None
                                for g in gaps]
        return self._obstructed[j]


class ConvertSmall:
    """Many cheap conversions on thirty small sheets.

    Each pass builds every sheet's exact sequence and stiffened linkage,
    then runs a seeded, shuffled mix of operations: ``hinge_to_truss`` on
    a hinge class, ``truss_to_spatial`` on each truss result, and
    perturbed hinge and truss vectors that must raise ``NotACycle``.
    """

    name = "convert-small"
    SHAPES = (
        ("grid", 2, 5), ("grid", 3, 4), ("grid", 4, 4), ("grid", 4, 6), ("grid", 5, 6),
        ("single_vertex", 10), ("single_vertex", 11), ("single_vertex", 12),
        ("single_vertex", 14), ("single_vertex", 16),
        ("miura", 3, 4), ("miura", 4, 4), ("miura", 4, 5), ("miura", 4, 6), ("miura", 5, 6),
        ("annulus", 2, 6), ("annulus", 2, 8), ("annulus", 3, 8), ("annulus", 3, 10),
        ("annulus", 4, 12),
        ("torus", 3, 4), ("torus", 3, 5), ("torus", 4, 4), ("torus", 4, 6), ("torus", 6, 6),
        ("cylinder", 2, 6), ("cylinder", 2, 8), ("cylinder", 3, 8), ("cylinder", 3, 10),
        ("cylinder", 4, 12),
    )
    RING_SHAPES = {"annulus", "torus", "cylinder"}
    DISK_CLASSES = 24    # hinge classes per simply connected sheet
    RING_CLASSES = 8     # hinge classes per sheet with loops
    REJECTS = 3          # perturbed hinge and truss vectors per sheet

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sheets = []
        for (shape, *params), s in zip(self.SHAPES, item_seeds(seed, len(self.SHAPES))):
            classes = self.RING_CLASSES if shape in self.RING_SHAPES else self.DISK_CLASSES
            self.sheets.append(_SmallSurface(shape, params, s, rng, classes, self.REJECTS))
        groups = []
        for i, sheet in enumerate(self.sheets):
            groups += [(i, "convert", j) for j in range(len(sheet.classes))]
            groups += [(i, "reject_hinge", j) for j in range(self.REJECTS)]
            groups += [(i, "reject_truss", j) for j in range(self.REJECTS)]
        self.groups = [groups[k] for k in rng.permutation(len(groups))]

    def run_pass(self, tracer=None) -> list[Record]:
        records = []
        built = []
        op = 0
        with _pass_span(tracer):
            for sheet in self.sheets:
                with _op_span(tracer, op, "build"):
                    start = time.perf_counter()
                    try:
                        surface = fold_io.surface_from_document(fold_io.parse_fold(sheet.data))
                        value = (maps.build_exact_sequence(surface), models.stiffen(surface))
                        error = None
                    except Exception as exc:  # a raising operation is a failed one
                        value, error = None, exc
                    seconds = time.perf_counter() - start
                op += 1
                built.append(value)
                records.append(Record("build", sheet.label, seconds, value, error,
                                      timed=False))
            for i, kind, j in self.groups:
                sheet = self.sheets[i]
                if built[i] is None:
                    records.append(Record(kind, sheet.label, 0.0,
                                          error=RuntimeError("sheet did not build")))
                    continue
                seq, linkage = built[i]
                with _op_span(tracer, op, kind):
                    start = time.perf_counter()
                    try:
                        value, error = self._operate(kind, sheet, j, seq, linkage), None
                    except Exception as exc:  # a raising operation is a failed one
                        value, error = None, exc
                    seconds = time.perf_counter() - start
                op += 1
                records.append(Record(kind, sheet.label, seconds, (i, j, value, linkage), error))
                if kind == "convert" and error is None and value[0].truss is not None:
                    with _op_span(tracer, op, "truss_to_spatial"):
                        start = time.perf_counter()
                        try:
                            back, error = self._truss_to_spatial(seq, linkage, value[0].truss), None
                        except Exception as exc:  # a raising operation is a failed one
                            back, error = None, exc
                        seconds = time.perf_counter() - start
                    op += 1
                    records.append(Record("truss_to_spatial", sheet.label, seconds,
                                          (i, j, back, value[0]), error))
        return records

    @staticmethod
    def _truss_to_spatial(seq, linkage, truss):
        out = maps.truss_to_spatial(seq, linkage, truss)
        text = fold_io.canonical_json(cli.spatial_vector_dict(seq.surface, out.coefficients))
        return out, text

    @staticmethod
    def _operate(kind, sheet, j, seq, linkage):
        """One request as ``foldkin convert`` would serve it, less the I/O.

        Rejections return the text of the expected error, or None when
        the vector was wrongly accepted.
        """
        if kind == "reject_truss":
            bad = maps.ModelSolution("truss", sheet.bad_truss[j], 0.0)
            try:
                maps.truss_to_spatial(seq, linkage, bad)
            except errors.NotACycle as exc:
                return str(exc)
            return None
        rates = sheet.classes[j] if kind == "convert" else sheet.bad_rates[j]
        try:
            report = maps.hinge_to_truss(seq, linkage, maps.hinge_solution(seq, rates))
        except errors.NotACycle as exc:
            if kind == "reject_hinge":
                return str(exc)
            raise
        if kind == "reject_hinge":
            return None
        payload = {
            "from": "hinge", "to": "truss",
            "obstructed": report.obstructed,
            "obstruction": [float(x) for x in report.obstruction],
            "residuals": {k: float(v) for k, v in report.residuals.items()},
            "solution": (cli.truss_vector_dict(linkage, report.truss.coefficients)
                         if report.truss is not None else None),
        }
        return report, fold_io.canonical_json(payload)

    def check(self, records: list[Record]) -> list[str | None]:
        return check_each(self._check_one, records)

    def _check_one(self, r: Record) -> str | None:
        if r.error is not None:
            return f"{r.kind} on {r.label}: raised {r.error!r}"
        if r.kind == "build":
            return None
        if r.kind in ("reject_hinge", "reject_truss"):
            return None if r.value[2] else f"{r.kind} on {r.label}: vector accepted"
        if r.kind == "convert":
            i, j, (report, text), linkage = r.value
            return self._check_convert(self.sheets[i], j, report, text, linkage)
        i, j, (back, text), source = r.value
        return self._check_back(self.sheets[i], j, back, text, source)

    def _check_convert(self, sheet, j, report, text, linkage) -> str | None:
        expected = sheet.expected_obstructed(j)
        where = f"convert on {sheet.label} class {j}"
        if expected is None:
            return f"{where}: reference cannot decide realizability"
        if report.obstructed != expected or json.loads(text)["obstructed"] != expected:
            return f"{where}: obstructed={report.obstructed}, reference {expected}"
        if expected:
            return None if report.spatial is None and report.truss is None else \
                f"{where}: obstructed input produced a solution"
        nu, y = report.spatial.coefficients, report.truss.coefficients
        rates = sheet.classes[j]
        checks = {
            "spatial residual": report.spatial.residual / _scale(nu),
            "round trip": report.residuals["round_trip"],
            "truss residual": report.truss.residual / _scale(y),
            "hinge rates of the spatial motion":
                _gap(sheet.relative_twist(nu), sheet.hinge_twist(rates)),
            "bar lengths": _bar_stretch(y, linkage) / _scale(y),
        }
        return _first_over(where, checks)

    def _check_back(self, sheet, j, back, text, source) -> str | None:
        where = f"truss_to_spatial on {sheet.label} class {j}"
        nu = back.coefficients
        json.loads(text)
        checks = {
            "spatial residual": back.residual / _scale(nu),
            "round trip": _gap(nu, source.spatial.coefficients),
            "hinge rates of the spatial motion":
                _gap(sheet.relative_twist(nu), sheet.hinge_twist(sheet.classes[j])),
        }
        return _first_over(where, checks)


def _scale(x: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(x), initial=0.0)))


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b), initial=0.0)) / max(_scale(a), _scale(b))


def _bar_stretch(y: np.ndarray, linkage) -> float:
    """Largest first-order bar stretch, from the truss points and bars."""
    bars = np.asarray(linkage.bars)
    pts = linkage.points
    d = pts[bars[:, 1]] - pts[bars[:, 0]]
    d /= np.linalg.norm(d, axis=1)[:, None]
    vel = y.reshape(-1, 3)
    rel = vel[bars[:, 1]] - vel[bars[:, 0]]
    return float(np.max(np.abs(np.sum(d * rel, axis=1)), initial=0.0))


def _first_over(where: str, checks: dict) -> str | None:
    for name, value in checks.items():
        if not value <= CYCLE_TOL:
            return f"{where}: {name} {value:.3e} exceeds {CYCLE_TOL:g}"
    return None


WORKLOADS = {w.name: w for w in (AnalyzeLarge, ConvertSmall)}
