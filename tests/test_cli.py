import json

import pytest

from foldkin import build_exact_sequence, generate, serialize_fold, surface_from_document
from foldkin import analysis, cli
from foldkin.cli import main

import oracles
from conftest import BOWTIE
from foldkin.models import stiffen
from oracles import column_space


def write_doc(tmp_path, doc, name="surface.json"):
    path = tmp_path / name
    path.write_bytes(serialize_fold(doc))
    return str(path)


def test_analyze_passes_on_grid(tmp_path, capsys):
    path = write_doc(tmp_path, generate("grid", 3, 3))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_analyze_json_is_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, generate("torus", 4, 4))
    assert main(["analyze", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["all_ok"] is True
    assert payload["dims"]["rigid_h1"] == 12


def test_analyze_passes_on_two_triangles_apart(tmp_path, capsys):
    # Two components: twelve global motions, and every check passes.
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({
        "vertices_coords": [[0, 0, 0], [1, 0, 0], [0.3, 1, 0.2],
                            [10, 0, 0], [11, 0, 0], [10.3, 1, 0.2]],
        "faces_vertices": [[0, 1, 2], [3, 4, 5]],
    }))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"]["rigid_h2"] == payload["dims"]["spatial_h2"] == 12
    assert payload["all_ok"] is True


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2


def test_analyze_degenerate_surface_exits_2(tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({
        "vertices_coords": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        "faces_vertices": [[0, 1, 2]],
    }))
    assert main(["analyze", str(path)]) == 2


def test_analyze_pinched_vertex_exits_2(tmp_path, capsys):
    # A pinch is bad input; it used to surface as a failed truss check.
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(BOWTIE))
    assert main(["analyze", str(path)]) == 2
    assert "form more than one fan" in capsys.readouterr().err


def test_analyze_vertex_on_no_face_exits_2(tmp_path, capsys):
    # An unused vertex is bad input, not a component of its own that
    # fails the global-motion check (exit 1).
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({
        "vertices_coords": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.2], [5, 5, 5]],
        "faces_vertices": [[0, 1, 2], [1, 3, 2]],
    }))
    assert main(["analyze", str(path)]) == 2
    assert "vertex 4 lies on no face" in capsys.readouterr().err


def test_gen_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert main(["gen", "chain", "5", "--out", str(out), "--seed", "3"]) == 0
    s = surface_from_document(
        __import__("foldkin").parse_fold(out.read_bytes()))
    assert s.num_faces == 6


def test_gen_stdout_and_determinism(tmp_path, capsys):
    assert main(["gen", "miura", "2", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "miura", "2", "3"]) == 0
    assert capsys.readouterr().out == first


def test_gen_bad_params_exit_2(capsys):
    assert main(["gen", "chain", "0"]) == 2
    assert main(["gen", "chain", "two"]) == 2


@pytest.mark.parametrize("argv", [
    ["gen", "grid", "2", "2"], ["gen", "miura", "2", "2"], ["gen", "chain", "3"],
    ["gen", "grid", "2", "2", "--no-jitter"], ["serial", "2"], ["serial", "2", "--no-jitter"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_negative_seed_is_bad_input(capsys, argv):
    # Every shape rejects a negative seed as its input, whether or not it
    # draws from it, before any generator runs.
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_serial_check_passes(capsys):
    assert main(["serial", "5", "--seed", "42", "--check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_serial_json_residuals(capsys):
    assert main(["serial", "8", "--seed", "42", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    for value in payload["residuals"].values():
        assert value < 1e-10


def test_analyze_failed_check_exits_1_and_prints_the_report(tmp_path, capsys,
                                                            monkeypatch):
    # A Gram floor above 1 fails the truss-transfer check on any sheet.
    monkeypatch.setattr(analysis, "GRAM_RELATIVE_FLOOR", 2.0)
    path = write_doc(tmp_path, generate("grid", 3, 3))
    assert main(["analyze", path, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["spatial_truss_transfer_full_rank"] is False
    assert payload["all_ok"] is False


def test_serial_check_exits_1_on_a_failed_residual(capsys, monkeypatch):
    # Steps that miss the closed-form operator by 1e-6 fail the check.
    propagate = cli.propagate_chain
    monkeypatch.setattr(cli, "propagate_chain",
                        lambda ops, rates: propagate(ops, rates) + 1e-6)
    assert main(["serial", "5", "--check"]) == 1
    out = capsys.readouterr().out
    assert "recurrence_vs_operator" in out
    assert "FAIL" in out
    assert main(["serial", "5"]) == 0


def test_serial_zero_exits_2(capsys):
    assert main(["serial", "0"]) == 2


def convert_setup(tmp_path, shape_args, seed=0):
    doc = generate(*shape_args, seed=seed)
    path = write_doc(tmp_path, doc)
    surface = surface_from_document(doc)
    seq = build_exact_sequence(surface)
    return path, surface, seq


def test_convert_fan_hinge_to_truss(tmp_path, capsys):
    path, surface, seq = convert_setup(tmp_path, ("single_vertex", 4, 0.5))
    rates = seq.hinge_h1()[:, 0]
    sol_path = tmp_path / "rates.json"
    sol_path.write_text(json.dumps(
        {f"e{e}": rates[k] for k, e in enumerate(surface.interior_edges())}))
    out_path = tmp_path / "out.json"
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "truss", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["obstructed"] is False
    assert payload["residuals"]["truss"] < 1e-9
    assert f"v0" in payload["solution"]
    assert "a0" in payload["solution"]


def test_convert_zero_vector(tmp_path, capsys):
    path, surface, seq = convert_setup(tmp_path, ("single_vertex", 4, 0.5))
    sol_path = tmp_path / "zero.json"
    sol_path.write_text("{}")
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "spatial"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    flat = [x for chunk in payload["solution"].values() for x in chunk]
    assert max(abs(x) for x in flat) == 0.0


def test_convert_obstructed_ring_exits_1(tmp_path, capsys):
    path, surface, seq = convert_setup(tmp_path, ("annulus", 1, 8))
    iota_star = seq.loop_obstruction_matrix()
    coords = column_space(iota_star.T, scale=1.0)[:, 0]
    rates = seq.hinge_h1() @ coords
    sol_path = tmp_path / "cycle.json"
    sol_path.write_text(json.dumps(
        {f"e{e}": rates[k] for k, e in enumerate(surface.interior_edges())}))
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "spatial"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["obstructed"] is True
    assert len(payload["obstruction"]) == 6
    assert max(abs(x) for x in payload["obstruction"]) > 1e-6
    assert payload["solution"] is None


def test_convert_unknown_cell_id(tmp_path, capsys):
    path, surface, seq = convert_setup(tmp_path, ("single_vertex", 4, 0.5))
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps({"e999": 1.0}))
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "spatial"])
    assert code == 2


def test_convert_spatial_to_truss(tmp_path, capsys, rng):
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    basis = seq.spatial_h2()
    values = basis @ rng.normal(size=basis.shape[1])
    sol_path = tmp_path / "spatial.json"
    sol_path.write_text(json.dumps(
        {f"f{f}": list(values[6 * f:6 * f + 6])
         for f in range(surface.num_faces)}))
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "spatial", "--to", "truss"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residuals"]["truss"] < 1e-9


@pytest.mark.parametrize("key", ["f01", "f 1", "f+1", "f\u0661", "f1_0", "f-1", "f4", "F1",
                                 "e1", "f", ""])
def test_convert_spatial_keys_must_be_face_ids_exactly(tmp_path, capsys, key):
    # int() reads each of the first five as 1: a reader built on it puts
    # "f 1" and "f01" on one face and lets the last one silently win.
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    sol_path = tmp_path / "spatial.json"
    sol_path.write_text(json.dumps({"f1": [0.0] * 6, key: [0.0] * 6}))
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "spatial", "--to", "truss"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{key!r} is not a face of the model" in captured.err


def test_convert_non_finite_spatial_exits_1(tmp_path, capsys):
    # NaN fails every comparison, so it slipped past the cycle check and
    # printed "nan", which is not JSON.
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    sol_path = tmp_path / "nan.json"
    sol_path.write_text('{"f0": [NaN, 0, 0, 0, 0, 0]}')
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "spatial", "--to", "truss"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("which", ["surface", "solution"])
@pytest.mark.parametrize("data, message", [
    (b'{"e0": "\xff"}', "input is not UTF-8"),
    (b"[" * 100000, "input nests too deeply"),
    (b'{"e0": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
    (b"{not json", "invalid JSON at line 1, column 2"),
], ids=["not_utf8", "deep", "long_integer", "malformed"])
def test_convert_bad_json_bytes_exit_2_on_either_file(tmp_path, capsys, which, data, message):
    # Both files are read by one routine, and bytes it cannot decode are
    # bad input, not a fault in foldkin.
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    sol_path = tmp_path / "rates.json"
    sol_path.write_text("{}")
    (tmp_path / ("surface.json" if which == "surface" else "rates.json")).write_bytes(data)
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "spatial"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    prefix = "error: " if which == "surface" else "error: solution file: "
    assert captured.err.startswith(prefix + message)


@pytest.mark.parametrize("source, raw", [
    ("hinge", '{"e%d": NaN}'), ("hinge", '{"e%d": Infinity}'),
    ("spatial", '{"f0": [0, 0, -Infinity, 0, 0, 0]}'),
    ("spatial", '{"f1": [0, 0, 0, 0, Infinity, NaN]}'),
])
def test_convert_non_finite_values_exit_1(tmp_path, capsys, source, raw):
    # JSON has no such numbers, but the decoder reads them; they are no
    # solution, not unreadable input.
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    sol_path = tmp_path / "values.json"
    sol_path.write_text(raw.replace("%d", str(surface.interior_edges()[0])))
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", source, "--to", "truss"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_convert_values_must_be_json_numbers(tmp_path, capsys):
    # A string is no number even when float() reads it, and a six-digit
    # string is not six values; booleans are not numbers either.
    path, surface, seq = convert_setup(tmp_path, ("grid", 2, 2))
    e0, e1 = surface.interior_edges()[:2]
    cases = [
        ("spatial", "truss", {"f0": "123456"}),
        ("spatial", "truss", {"f1": [0, 0, 0, 0, 0, "1"]}),
        ("spatial", "truss", {"f1": [0, 0, 0, True, 0, 0]}),
        ("hinge", "spatial", {f"e{e0}": "0.0", f"e{e1}": False}),
        ("hinge", "truss", {f"e{e1}": True}),
    ]
    sol_path = tmp_path / "values.json"
    for source, target, raw in cases:
        sol_path.write_text(json.dumps(raw))
        code = main(["convert", path, "--input-solution", str(sol_path),
                     "--from", source, "--to", target])
        captured = capsys.readouterr()
        assert code == 2, raw
        assert captured.out == ""
        assert "number" in captured.err, raw


def test_convert_non_cycle_exits_1(tmp_path, capsys):
    path, surface, seq = convert_setup(tmp_path, ("single_vertex", 4, 0.5))
    sol_path = tmp_path / "noncycle.json"
    e = surface.interior_edges()[0]
    sol_path.write_text(json.dumps({f"e{e}": 1.0}))
    # A single folding hinge at a degree-4 vertex violates the vertex
    # constraint, so the input is not a solution at all.
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "spatial"])
    assert code == 1


@pytest.mark.parametrize("shape_args", [
    ("single_vertex", 4, 0.5), ("grid", 2, 2), ("miura", 3, 4), ("miura", 5, 6),
    ("annulus", 1, 8),
], ids=lambda a: "_".join(map(str, a)))
def test_convert_prints_the_bytes_of_the_recursive_formatter(tmp_path, capsys, monkeypatch,
                                                             shape_args, rng):
    path, surface, seq = convert_setup(tmp_path, shape_args)
    hinge = seq.hinge_h1() @ rng.normal(size=seq.hinge_h1().shape[1])
    spatial = seq.spatial_h2() @ rng.normal(size=seq.spatial_h2().shape[1])
    hinge_path, spatial_path = tmp_path / "rates.json", tmp_path / "spatial.json"
    hinge_path.write_text(json.dumps(
        {f"e{e}": r for e, r in zip(surface.interior_edges(), hinge.tolist())}))
    spatial_path.write_text(json.dumps(
        {f"f{f}": row for f, row in enumerate(spatial.reshape(-1, 6).tolist())}))
    printed = []
    real = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json",
                        lambda payload: printed.append(payload) or real(payload))
    for source, target, sol in (("hinge", "truss", hinge_path), ("hinge", "spatial", hinge_path),
                                ("spatial", "truss", spatial_path)):
        code = main(["convert", path, "--input-solution", str(sol),
                     "--from", source, "--to", target])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert out == oracles.canonical_json(printed.pop()) + "\n"


def test_vector_dicts_key_every_row_by_its_cell(rng):
    for shape_args in (("grid", 2, 3), ("torus", 3, 4), ("single_vertex", 5)):
        surface = surface_from_document(generate(*shape_args))
        linkage = stiffen(surface)
        y = rng.normal(size=3 * linkage.num_points)
        rows = y.reshape(-1, 3).tolist()
        expect = {f"v{v}": rows[v] for v in range(surface.num_vertices)}
        expect.update((f"a{f}", rows[surface.num_vertices + f])
                      for f in range(surface.num_faces))
        got = cli.truss_vector_dict(linkage, y)
        assert list(got.items()) == list(expect.items())
        values = rng.normal(size=6 * surface.num_faces)
        got = cli.spatial_vector_dict(surface, values)
        assert list(got.items()) == [(f"f{f}", values[6 * f:6 * f + 6].tolist())
                                     for f in range(surface.num_faces)]


def test_internal_fault_exits_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("foldkin.cli.analyze_surface", broken)
    path = write_doc(tmp_path, generate("grid", 2, 2))
    assert main(["analyze", path]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_unprintable_payload_exits_3(tmp_path, capsys, monkeypatch):
    # A payload value canonical JSON cannot print is a fault in foldkin,
    # never bad input.
    path, surface, seq = convert_setup(tmp_path, ("single_vertex", 4, 0.5))
    sol_path = tmp_path / "rates.json"
    sol_path.write_text(json.dumps(
        {f"e{e}": r for e, r in zip(surface.interior_edges(), seq.hinge_h1()[:, 0])}))
    monkeypatch.setattr(cli, "truss_vector_dict", lambda linkage, values: {"v0": {1.0}})
    code = main(["convert", path, "--input-solution", str(sol_path),
                 "--from", "hinge", "--to", "truss"])
    assert code == 3
    assert "internal error: TypeError: cannot serialize value of type set" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "{g}", "--seed", "1"],
    ["convert", "{g}", "--input-solution", "{s}", "--from", "hinge",
     "--to", "spatial", "--format", "text"],
    ["gen", "chain", "3", "--format", "json"],
    ["analyze", "{g}", "--tol", "nan"],
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    g = write_doc(tmp_path, generate("grid", 3, 3))
    s = tmp_path / "solution.json"
    s.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(g=g, s=s) for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
