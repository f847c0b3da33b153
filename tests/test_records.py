"""The result records' contract.

Every record the package returns is an immutable ``typing.NamedTuple``: it
is built by position or by keyword, reads its fields as attributes,
compares and hashes by value, prints as ``Name(field=value, ...)`` and
refuses assignment.  Being a tuple, it also iterates over its fields in
order and equals the plain tuple of them.
"""

import pytest

from pmfiber import equiv, fiber, selftest, structure, symdet

RECORDS = [
    (symdet.SquareMatrix, ("entries", "field")),
    (symdet.PMVector, ("n", "by_mask")),
    (symdet.DeterminantalPencil, ("base", "fpoly")),
    (symdet.AdjugateTable, ("n", "coeffs")),
    (symdet.IdentityCheck, ("identity", "indices", "ok")),
    (symdet.IdentityReport, ("n", "checks")),
    (fiber.CutCertificate, ("X", "rank_xxc", "rank_xcx")),
    (fiber.FactorSplit, ("X", "Xc", "a", "b", "c", "d")),
    (fiber.FiberClassification, ("verdict", "reason", "cut", "witness", "symmetrizability", "note")),
    (fiber.SymmetricFiberDescription, ("irreducible", "shape", "note")),
    (fiber.StableCertificate, ("verdict", "blocks", "reports", "factors", "failing_block")),
    (equiv.DiagonalCertificate, ("d", "transposed")),
    (equiv.SymmetrizabilityResult, ("verdict", "e", "witness_d")),
    (structure.FrobeniusForm, ("order", "blocks", "permuted")),
    (structure.StructureReport, ("form", "factors", "product_matches", "blocks_irreducible")),
    (selftest.SuiteResult, ("name", "trials", "failures", "messages")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    values = tuple((k, f"{cls.__name__}.{name}") for k, name in enumerate(fields))
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert [getattr(record, name) for name in fields] == list(values)
    twin = cls(*[tuple(list(v)) for v in values])  # equal fields, none of them the same object
    assert twin is not record and twin == record and hash(twin) == hash(record)
    other = cls(*values[:-1], ("other",))
    assert other != record and not other == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert getattr(record, fields[0]) == values[0]
    assert len(record) == len(fields) and tuple(record) == values and record == values
