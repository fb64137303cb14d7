"""Every rank decision uses the one cutoff ``linalg.RANK_TOL`` and every
check its own named bound; none of them is a parameter.  A new ``tol``
argument or field would let callers reach different verdicts on the same
surface, so it must fail here."""

import dataclasses
import inspect

import pytest

from foldkin import analysis, cosheaf, fold_io, linalg, maps, models, surface

MODULES = [linalg, surface, fold_io, cosheaf, models, maps, analysis]


def public_members(module):
    """Public functions and classes defined in ``module``."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
                and (inspect.isfunction(obj) or inspect.isclass(obj))):
            yield name, obj


def tol_knobs(module):
    hits = []
    for name, obj in public_members(module):
        if inspect.isfunction(obj):
            callables = [(name, obj)]
        else:
            if dataclasses.is_dataclass(obj):
                hits += [f"{name}.{f.name} (field)" for f in dataclasses.fields(obj)
                         if f.name == "tol"]
            callables = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                         if not attr.startswith("_") and inspect.isfunction(fn)]
        hits += [qual for qual, fn in callables
                 if "tol" in inspect.signature(fn).parameters]
    return hits


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_public_tol_parameter_or_field(module):
    assert tol_knobs(module) == []


def test_rank_cutoff_is_one_constant():
    assert linalg.RANK_TOL == 1e-9
    assert not hasattr(linalg, "DEFAULT_TOL")
