"""Every rank decision uses the one cutoff ``linalg.RANK_TOL`` and every
check its own named bound; none of them is a parameter.  A new argument
or field named ``tol`` or ``*_tol`` would let callers reach different
verdicts on the same surface, so it must fail here.  So must one named
``scale``, an anchor that moves the cutoff.

``linalg.nullspace(scale)`` is allowed: the kernels of maps between
orthonormal bases anchor their cutoff at 1, and its two library callers,
``cosheaf._VertexStars.glue`` and ``maps.ExactSequence._spatial_h2``,
pass exactly that.

The one exception is the hinge conversions' ``cycle_tol``: the benchmark
reads ``hinge_to_truss``'s default to check its conversions with it
(``perfbench/workloads.py``), ``test_benchmark_contract.py`` pins it,
and ``hinge_to_truss`` forwards it to ``hinge_to_spatial``.  The
spatial and truss conversions read ``maps.CYCLE_TOL``."""

import dataclasses
import inspect
import types

import pytest

from foldkin import analysis, cosheaf, fold_io, linalg, maps, models, surface

MODULES = [linalg, surface, fold_io, cosheaf, models, maps, analysis]


def public_members(module):
    """Public functions and classes defined in ``module``."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
                and (inspect.isfunction(obj) or inspect.isclass(obj))):
            yield name, obj


ALLOWED = {f"maps.{fn}(cycle_tol)" for fn in
           ("hinge_to_spatial", "hinge_to_truss")} | {"linalg.nullspace(scale)"}


def is_knob(name):
    return name in ("tol", "scale") or name.endswith("_tol")


def tol_knobs(module):
    """Each public parameter or dataclass field of ``module`` that is a
    tolerance knob, as ``module.owner(name)``."""
    prefix = module.__name__.rpartition(".")[2]
    hits = []
    for name, obj in public_members(module):
        if inspect.isfunction(obj):
            callables = [(name, obj)]
        else:
            if dataclasses.is_dataclass(obj):
                hits += [f"{prefix}.{name}({f.name})" for f in dataclasses.fields(obj)
                         if is_knob(f.name)]
            callables = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                         if not attr.startswith("_") and inspect.isfunction(fn)]
        hits += [f"{prefix}.{qual}({param})" for qual, fn in callables
                 for param in inspect.signature(fn).parameters if is_knob(param)]
    return hits


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_public_tol_parameter_or_field(module):
    assert sorted(set(tol_knobs(module)) - ALLOWED) == []


def test_the_knob_guard_sees_every_spelling():
    assert sorted(tol_knobs(maps) + tol_knobs(linalg)) == sorted(ALLOWED)
    fake = types.ModuleType("foldkin.fake")

    def rank(a, tol=1e-9, *, gap_tol=0.1, tolerance=1.0, stol=2.0, scale=0.0, scaled=0.0):
        return a

    @dataclasses.dataclass
    class Check:
        residual_tol: float
        tol: float

        def passes(self, value, abs_tol=0.0):
            return value

    rank.__module__ = Check.__module__ = fake.__name__
    fake.rank, fake.Check = rank, Check
    assert sorted(tol_knobs(fake)) == [
        "fake.Check(residual_tol)", "fake.Check(tol)", "fake.Check.passes(abs_tol)",
        "fake.rank(gap_tol)", "fake.rank(scale)", "fake.rank(tol)"]


def test_rank_cutoff_is_one_constant():
    assert linalg.RANK_TOL == 1e-9
    assert not hasattr(linalg, "DEFAULT_TOL")
