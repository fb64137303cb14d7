"""Command-line interface.

Subcommands::

    foldkin analyze <file> [--format F]     build models, run all checks
    foldkin convert <file> --input-solution s.json --from hinge --to truss
                    [--out <file>]
    foldkin gen <shape> [params...] [--seed N] [--no-jitter] [--out <file>]
    foldkin serial <n> [--seed N] [--no-jitter] [--format F] [--check]

Each subcommand accepts only the flags it reads; ``F`` is ``json`` or
``text``.  There is no tolerance flag: every rank decision uses the one
cutoff ``linalg.RANK_TOL``.

Exit codes: 0 all checks pass, 1 a structural check or obstruction failed,
2 the input could not be parsed or built, 3 an internal error (a fault in
foldkin itself, not in the input).  Solution vectors are JSON
objects keyed by cell ids: ``e<i>`` for interior edges (hinge rates),
``f<i>`` for faces (six spatial values), ``v<i>`` / ``a<j>`` for truss
vertex and face-apex velocities (three values each).  Edge indices
follow the lexicographic order of endpoint id pairs; missing keys mean
zero; every value is a JSON number.

``convert --from hinge`` prints the ``obstruction`` vector: six values
per independent surface loop, the net angular velocity and the net
moment about the coordinate origin that the hinge rates accumulate
around that loop.  The loops are an orthonormal basis of the loops
through interior edges.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import generators
from .analysis import analyze_surface
from .errors import FoldkinError, InvalidParams, NotACycle, ParseError, UnknownCellId
from .fold_io import (
    canonical_json,
    json_number,
    parse_fold,
    serialize_fold,
    surface_from_document,
)
from .maps import (
    build_exact_sequence,
    hinge_solution,
    hinge_to_spatial,
    hinge_to_truss,
    pinned_chain_connecting_matrix,
    propagate_chain,
    serial_chain_operators,
    spatial_solution,
    spatial_to_truss,
)
from .models import stiffen
from .surface import OrigamiSurface

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


# --- solution vector files ---

def read_hinge_vector(surface: OrigamiSurface, obj: dict) -> np.ndarray:
    interior = surface.interior_edges()
    index = {f"e{e}": k for k, e in enumerate(interior)}
    rates = np.zeros(len(interior))
    for key, value in obj.items():
        if key not in index:
            raise UnknownCellId(f"{key!r} is not an interior edge of the model")
        rates[index[key]] = json_number(value, repr(key))
    return rates


def read_spatial_vector(surface: OrigamiSurface, obj: dict) -> np.ndarray:
    values = np.zeros(6 * surface.num_faces)
    for key, value in obj.items():
        try:
            f = int(key[1:]) if key.startswith("f") else -1
        except ValueError:
            f = -1
        if f < 0 or f >= surface.num_faces:
            raise UnknownCellId(f"{key!r} is not a face of the model")
        if not isinstance(value, list) or len(value) != 6:
            raise ParseError(f"{key!r} must carry a list of six numbers")
        values[6 * f:6 * f + 6] = [json_number(x, f"{key!r}[{i}]")
                                   for i, x in enumerate(value)]
    return values


def hinge_vector_dict(surface: OrigamiSurface, rates: np.ndarray) -> dict:
    return {f"e{e}": float(rates[k])
            for k, e in enumerate(surface.interior_edges())}


def spatial_vector_dict(surface: OrigamiSurface, values: np.ndarray) -> dict:
    rows = values.reshape(surface.num_faces, 6).tolist()
    return {f"f{f}": row for f, row in enumerate(rows)}


def truss_vector_dict(linkage, values: np.ndarray) -> dict:
    rows = values.reshape(linkage.num_points, 3).tolist()
    out = {f"v{v}": rows[v] for v in range(linkage.surface.num_vertices)}
    out.update((f"a{f}", rows[apex]) for f, apex in enumerate(linkage.apex_of_face))
    return out


# --- commands ---

def _load_surface(path: str) -> OrigamiSurface:
    with open(path, "rb") as handle:
        doc = parse_fold(handle.read())
    return surface_from_document(doc)


def cmd_analyze(args) -> int:
    report = analyze_surface(_load_surface(args.file))
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_convert(args) -> int:
    surface = _load_surface(args.file)
    with open(args.input_solution, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"solution file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("solution file must be a JSON object")

    seq = build_exact_sequence(surface)
    linkage = stiffen(surface) if args.to == "truss" else None

    if args.source == "hinge":
        sol = hinge_solution(seq, read_hinge_vector(surface, raw))
        if args.to == "spatial":
            report = hinge_to_spatial(seq, sol)
        else:
            report = hinge_to_truss(seq, linkage, sol)
        obstruction = [float(x) for x in report.obstruction]
        payload = {
            "from": "hinge",
            "to": args.to,
            "obstructed": report.obstructed,
            "obstruction": obstruction,
            "residuals": {k: float(v) for k, v in report.residuals.items()},
        }
        out_solution = None
        if args.to == "spatial" and report.spatial is not None:
            out_solution = spatial_vector_dict(surface, report.spatial.coefficients)
        if args.to == "truss" and report.truss is not None:
            out_solution = truss_vector_dict(linkage, report.truss.coefficients)
        payload["solution"] = out_solution
        exit_code = EXIT_OK if not report.obstructed else EXIT_CHECK_FAILED
    else:  # spatial source
        if args.to != "truss":
            raise InvalidParams("spatial solutions convert to truss only")
        sol = spatial_solution(seq, read_spatial_vector(surface, raw))
        truss = spatial_to_truss(linkage, sol)
        payload = {
            "from": "spatial",
            "to": "truss",
            "obstructed": False,
            "obstruction": [],
            "residuals": {"truss": float(truss.residual)},
            "solution": truss_vector_dict(linkage, truss.coefficients),
        }
        exit_code = EXIT_OK

    text = canonical_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return exit_code


def cmd_gen(args) -> int:
    params = []
    for raw in args.params:
        try:
            params.append(int(raw))
        except ValueError:
            try:
                params.append(float(raw))
            except ValueError:
                raise InvalidParams(f"parameter {raw!r} is not a number")
    doc = generators.generate(args.shape, *params, seed=args.seed,
                              jitter=not args.no_jitter)
    surface_from_document(doc)  # fail fast on bad params
    data = serialize_fold(doc)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


def cmd_serial(args) -> int:
    if args.n < 1:
        raise InvalidParams("serial chain needs n >= 1")
    doc = generators.chain(args.n, seed=args.seed, jitter=not args.no_jitter)
    surface = surface_from_document(doc)
    ops = serial_chain_operators(surface)
    rng = np.random.default_rng(args.seed + 1)
    rates = rng.normal(size=args.n)

    stepped = propagate_chain(ops, rates)
    direct = ops.d @ rates
    recurrence = float(np.max(np.abs(stepped - direct))
                       / max(1.0, np.max(np.abs(direct))))
    inverse = ops.inverse_gap
    theta, cycles = pinned_chain_connecting_matrix(surface, ops)
    via_ops = ops.d_pinv @ cycles
    connecting = float(np.max(np.abs(theta - via_ops))
                       / max(1.0, np.max(np.abs(via_ops))))

    payload = {
        "n": args.n,
        "seed": args.seed,
        "residuals": {
            "recurrence_vs_operator": recurrence,
            "inverse_identity": inverse,
            "left_inverse_vs_connecting": connecting,
        },
    }
    ok = recurrence < 1e-12 and inverse < 1e-12 and connecting < 1e-9
    payload["ok"] = ok
    if args.format == "json":
        print(canonical_json(payload))
    else:
        for key, value in sorted(payload["residuals"].items()):
            print(f"{key:32s} {value:.3e}")
        print(f"{'result':32s} {'PASS' if ok else 'FAIL'}")
    if args.check:
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    return EXIT_OK


def _add_generator_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--no-jitter", action="store_true",
                        help="disable generic-position jitter in generators")


def _add_format_flag(parser):
    parser.add_argument("--format", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldkin",
        description="First-order rigid origami kinematics via cosheaf homology")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build all models and run the checks")
    p.add_argument("file", help="FOLD-subset JSON file")
    _add_format_flag(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("convert", help="convert a solution between models")
    p.add_argument("file", help="FOLD-subset JSON file")
    p.add_argument("--input-solution", required=True,
                   help="JSON solution vector keyed by cell ids")
    p.add_argument("--from", dest="source", required=True,
                   choices=("hinge", "spatial"))
    p.add_argument("--to", required=True, choices=("spatial", "truss"))
    p.add_argument("--out", help="write the converted vector here")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("gen", help="generate a built-in surface")
    p.add_argument("shape", choices=generators.shape_names())
    p.add_argument("params", nargs="*", help="shape parameters, in order")
    p.add_argument("--out", help="output file (default stdout)")
    _add_generator_flags(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("serial", help="serial-chain operator agreement")
    p.add_argument("n", type=int, help="number of hinges")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when residuals exceed thresholds")
    _add_generator_flags(p)
    _add_format_flag(p)
    p.set_defaults(fn=cmd_serial)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InvalidParams, UnknownCellId, FileNotFoundError,
            IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NotACycle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FoldkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a fault in foldkin, reported without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
