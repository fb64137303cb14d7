"""The traced benchmark run wraps foldkin functions by name, and the
benchmark checks analysis reports against recorded bytes.  An API cut
that removes a wrapped function, or a change that moves a report, must
fail here, not first at benchmark time."""

import inspect
import json
import pathlib
import sys
import types

from foldkin import analyze_surface, maps, parse_fold, surface_from_document

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_source(name: str) -> types.ModuleType:
    # Executed from its source, so no bytecode is written next to it.  A
    # dataclass looks up its module while the class is made.
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_traced_target_resolves_to_a_callable():
    spans = load_source("spans")
    missing = []
    for name, (module_name, path) in spans.TARGETS.items():
        try:
            owner, attr = spans._resolve(module_name, path)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        if not callable(target):
            missing.append(name)
    assert not missing


def test_analyze_large_sheets_match_the_recorded_reference(monkeypatch):
    # The benchmark rejects a run whose reports differ from these bytes.
    monkeypatch.setitem(sys.modules, "spans", load_source("spans"))
    workloads = load_source("workloads")
    reference = json.loads((PERFBENCH / "reference" / "analyze_large.json")
                           .read_text(encoding="utf-8"))
    inputs = workloads.AnalyzeLarge(0, {}).inputs
    assert sorted(label for label, _ in inputs) == sorted(reference)
    for label, data in inputs:
        report = analyze_surface(surface_from_document(parse_fold(data)))
        assert report.to_json() == reference[label], label


def test_one_pass_of_each_workload_checks_clean(monkeypatch):
    # A pass reads attributes of the surface, the sequence, the linkage
    # and the CLI's formatters that no other test names; the workload's
    # own check must find nothing wrong.
    monkeypatch.setitem(sys.modules, "spans", load_source("spans"))
    workloads = load_source("workloads")
    reference = json.loads((PERFBENCH / "reference" / "analyze_large.json")
                           .read_text(encoding="utf-8"))
    for workload in (workloads.AnalyzeLarge(0, reference), workloads.ConvertSmall(0)):
        records = workload.run_pass()
        assert records, workload.name
        assert workload.check(records) == [None] * len(records), workload.name


def test_hinge_to_truss_keeps_a_cycle_tol_default():
    # The benchmark reads the default to check conversions with it.
    param = inspect.signature(maps.hinge_to_truss).parameters["cycle_tol"]
    assert param.default is not inspect.Parameter.empty
    assert param.default > 0
