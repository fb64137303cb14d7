import json

import pytest

from foldkin import build_exact_sequence, generate, serialize_fold, surface_from_document
from foldkin import analysis, cli
from foldkin.cli import main

from conftest import BOWTIE
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
