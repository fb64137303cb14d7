"""The traced benchmark run wraps foldkin functions by name; an API cut
that removes one must fail here, not first at benchmark time."""

import inspect
import pathlib
import types

from foldkin import maps

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    # Executed from its source, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_every_traced_target_resolves_to_a_callable():
    spans = load_spans()
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


def test_hinge_to_truss_keeps_a_cycle_tol_default():
    # The benchmark reads the default to check conversions with it.
    param = inspect.signature(maps.hinge_to_truss).parameters["cycle_tol"]
    assert param.default is not inspect.Parameter.empty
    assert param.default > 0
