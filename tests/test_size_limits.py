"""One size-limit table: every capped entry point refuses n = cap + 1 with
the table's message, and no public callable takes a per-call size knob.
The block-structure entry points are capped by their largest Frobenius
block, through block_det_poly, so they are given one irreducible block."""

import importlib
import inspect
import pkgutil

import pytest

import pmfiber
from conftest import cut_rows
from pmfiber import MPoly, SizeLimitError
from pmfiber.symdet import SIZE_LIMITS, AdjugateTable, identity_matrix, matrix

BLOCK_CAPPED = ("stable_certify", "structure_check")


def _call(name, n):
    if name in BLOCK_CAPPED:
        return getattr(pmfiber, name)(matrix(cut_rows(n, 2)))
    if name == "matrix_from_adjugate":
        return pmfiber.matrix_from_adjugate(AdjugateTable(n, ()), MPoly.zero(n))
    if name == "block_det_poly":
        return pmfiber.block_det_poly(identity_matrix(n), range(n))
    return getattr(pmfiber, name)(identity_matrix(n))


@pytest.mark.parametrize("name", sorted(SIZE_LIMITS) + sorted(BLOCK_CAPPED))
def test_each_entry_point_refuses_one_above_its_cap(name):
    limit = "block_det_poly" if name in BLOCK_CAPPED else name
    cap = SIZE_LIMITS[limit]
    with pytest.raises(SizeLimitError) as info:
        _call(name, cap + 1)
    assert str(info.value) == f"{limit} limited to n <= {cap}, got n = {cap + 1}"


def _public_callables():
    for info in pkgutil.iter_modules(pmfiber.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pmfiber.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and inspect.isroutine(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_size_knob():
    found = list(_public_callables())
    assert len(found) > 50
    knobs = [
        qualname
        for qualname, obj in found
        if {"max_n", "attempts"} & set(inspect.signature(obj).parameters)
    ]
    assert knobs == []
