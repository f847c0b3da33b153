"""Differential tests of the minor engine against the naive oracles.

``det_poly`` and ``adjugate_table`` read from one Sylvester walk over
subsets; ``principal_minors`` and ``block_det_poly`` (one Bareiss
elimination per subset) face the same oracles on the same draws, and the
minor vector read off the pencil (``DeterminantalPencil.minors``, what the
``minors`` command prints) must equal ``principal_minors`` value for value,
each in canonical form.  Draws are unfiltered: small integer entries make
many principal minors vanish, which sends the walk down its zero-pivot
path, and Fraction and Q(i) entries leave the integer fast path.  A matrix
draws its entries from one of int, Fraction, Gaussian integers, Q(i) with
Fraction parts, or a mix of all four within each row.  Fixed cases pin
down the degenerate patterns, each also over Q(i) with Fraction parts,
where the walk runs in Z[i].  Seeded draws at n = 8-10 (entries in -2..2,
Fractions, Q(i)) carry the differential check past the hypothesis sizes,
with the ``minors`` document checked against the oracle on a sample of
subsets.
``det_fraction_free`` (one in-place Bareiss loop) and ``rank_exact`` (the
walk's ``_eliminate`` on a zero-padded square) face ``oracles.det_perm``
and ``oracles.rank_gauss`` on rectangular blocks and their leading square
blocks: dense, rank-one and with zero rows and columns; fixed cases add the
empty inputs, a zero first column, denominators only in imaginary parts,
and non-square or ragged rows, which both reject.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfiber import (
    GaussianRational,
    MPoly,
    adjugate_table,
    det_poly,
    gaussian,
    matrix,
    principal_minors,
)
from pmfiber import symdet
from pmfiber.cli import main
from pmfiber.scalars import is_rational
from pmfiber.symdet import det_fraction_free, rank_exact
from pmfiber.structure import block_det_poly, frobenius_form, structure_check

import oracles

SMALL_INT = st.integers(-2, 2)
FRACTION = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
GAUSSIAN = st.builds(gaussian, SMALL_INT, SMALL_INT)
GAUSSIAN_FRACTION = st.builds(gaussian, FRACTION, FRACTION)
MIXED = st.one_of(SMALL_INT, FRACTION, GAUSSIAN, GAUSSIAN_FRACTION)
ENTRIES = st.sampled_from([SMALL_INT, FRACTION, GAUSSIAN, GAUSSIAN_FRACTION, MIXED])


@st.composite
def matrices(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    entry = draw(ENTRIES)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    point = [draw(st.one_of(SMALL_INT, GAUSSIAN)) for _ in range(n)]
    return rows, point


def _pairs(values):
    return {key: oracles.to_pair(v) for key, v in values.items()}


def _check_minors_and_pencil(rows, point):
    A = matrix(rows)
    n = A.n
    expected = oracles.all_principal_minors(rows)
    pm = principal_minors(A)
    assert _pairs(pm.values) == expected
    pencil = det_poly(A)
    walked = pencil.minors()
    assert walked == pm
    assert all(_is_canonical(v) for v in walked.values.values())
    f = pencil.fpoly
    for subset, minor in expected.items():
        exp = tuple(0 if k in subset else 1 for k in range(n))
        assert oracles.to_pair(f.coefficient(exp)) == minor
    assert oracles.to_pair(f.evaluate(point)) == oracles.pencil_at_point(rows, point)


def _check_adjugate(rows, point):
    A = matrix(rows)
    G = adjugate_table(A)
    for i in range(A.n):
        for j in range(A.n):
            got = oracles.to_pair(G.entry(i, j).evaluate(point))
            assert got == oracles.adjugate_entry_at_point(rows, point, i, j), (i, j)


def _check_block(rows, point, block):
    A = matrix(rows)
    n = A.n
    p = block_det_poly(A, block)
    assert p.n == n
    assert all(exp[k] == 0 for exp in p.terms for k in range(n) if k not in block)
    sub = [[rows[i][j] for j in block] for i in block]
    assert oracles.to_pair(p.evaluate(point)) == oracles.pencil_at_point(
        sub, [point[k] for k in block]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices())
def test_minors_and_pencil_match_oracle(drawn):
    _check_minors_and_pencil(*drawn)


LARGE_DRAWS = {
    "int": lambda rng: rng.randint(-2, 2),
    "fraction": lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    "gaussian": lambda rng: gaussian(rng.randint(-2, 2), rng.randint(-2, 2)),
}


@pytest.mark.parametrize("kind", sorted(LARGE_DRAWS))
@pytest.mark.parametrize("n", [8, 9, 10])
def test_minors_at_larger_sizes_match_the_references(n, kind, tmp_path, capsys):
    """Past the hypothesis sizes the walk has deficient nodes at many depths
    and rows ten pivots deep: its vector equals ``principal_minors`` on every
    subset, and the ``minors`` document agrees with the permutation-sum
    oracle on every subset of size at most 4 and on ten of sizes 5 and 6."""
    rng = random.Random(f"minors-{n}-{kind}")
    rows = [[LARGE_DRAWS[kind](rng) for _ in range(n)] for _ in range(n)]
    A = matrix(rows)
    assert det_poly(A).minors() == principal_minors(A)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": n, "field": A.field, "entries": A.to_strings()}))
    assert main(["minors", str(path)]) == 0
    table = json.loads(capsys.readouterr().out)["result"]["minors"]
    subsets = [S for k in range(5) for S in combinations(range(n), k)]
    subsets += [tuple(sorted(rng.sample(range(n), rng.randint(5, 6)))) for _ in range(10)]
    for S in subsets:
        assert table[",".join(str(k + 1) for k in S)] == oracles.scalar_text(oracles.minor_pair(rows, S)), S


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(max_n=5))
def test_adjugate_matches_oracle(drawn):
    _check_adjugate(*drawn)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(), st.data())
def test_block_det_poly_matches_oracle(drawn, data):
    rows, point = drawn
    n = len(rows)
    chosen = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
    for block in (sorted(chosen), *frobenius_form(matrix(rows)).blocks):
        _check_block(rows, point, list(block))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices())
def test_block_factors_multiply_to_the_pencil(drawn):
    rows, _ = drawn
    A = matrix(rows)
    report = structure_check(A)
    product = MPoly.const(A.n, 1)
    for factor in report.factors:
        product = product * factor
    assert product == det_poly(A).fpoly
    assert report.product_matches


@st.composite
def rectangular(draw):
    """Dense or rank-one (u v^T) blocks of any shape, some rows and columns
    then zeroed, with int, Fraction or Q(i) entries."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = draw(ENTRIES)
    if draw(st.booleans()):
        rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    else:
        u, v = [draw(entry) for _ in range(r)], [draw(entry) for _ in range(c)]
        rows = [[a * b for b in v] for a in u]
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0))))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _is_canonical(x):
    """An int, a non-integral Fraction, or a GaussianRational with im != 0."""
    if type(x) is GaussianRational:
        return x.im != 0 and _is_canonical(x.re) and _is_canonical(x.im)
    return type(x) is int or type(x) is Fraction and x.denominator != 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rectangular())
def test_rank_and_det_match_oracle_on_unfiltered_blocks(rows):
    assert rank_exact(rows) == oracles.rank_gauss(rows)
    k = min(len(rows), len(rows[0]) if rows else 0)
    square = [row[:k] for row in rows[:k]]
    d = det_fraction_free(square)
    assert oracles.to_pair(d) == oracles.det_perm(square)
    assert _is_canonical(d), repr(d)


def _zero(n):
    return [[0] * n for _ in range(n)]


def _strictly_upper(n):
    return [[(i + 2 * j) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]


def _zero_diagonal(n):
    return [[0 if i == j else (i * 3 + j) % 4 + 1 for j in range(n)] for i in range(n)]


def _singular_leading_block(n):
    rows = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    rows[0][:2] = [1, 2]
    rows[1][:2] = [2, 4]
    return rows


def _zero_row(n):
    rows = _singular_leading_block(n)
    rows[0] = [0] * n
    return rows


ZERO_PIVOT_CASES = {
    "zero": _zero(5),
    "zero-row": _zero_row(6),
    "strictly-upper": _strictly_upper(5),
    "zero-diagonal": _zero_diagonal(5),
    "zero-diagonal-gaussian": [
        [gaussian(x, 1 - x) if x else 0 for x in row] for row in _zero_diagonal(4)
    ],
    "singular-leading-2x2": _singular_leading_block(5),
    "singular-leading-2x2-fraction": [
        [Fraction(x, 2) for x in row] for row in _singular_leading_block(4)
    ],
}


def _gaussian_rows(rows):
    """Row r times 1/(r + 2) + i/3: Q(i) entries with Fraction parts, a
    different denominator in each row, and every minor zero exactly where
    it is zero for ``rows``."""
    return [[x * gaussian(Fraction(1, r + 2), Fraction(1, 3)) for x in row] for r, row in enumerate(rows)]


GAUSSIAN_ZERO_PIVOT_CASES = {f"{name}-qi": _gaussian_rows(rows) for name, rows in ZERO_PIVOT_CASES.items()}
ZERO_PIVOT_CASES.update(GAUSSIAN_ZERO_PIVOT_CASES)


@pytest.mark.parametrize("name", sorted(ZERO_PIVOT_CASES))
def test_zero_pivot_cases_match_oracle(name):
    rows = ZERO_PIVOT_CASES[name]
    n = len(rows)
    for point in ([0] * n, list(range(1, n + 1)), [gaussian(1, k) for k in range(n)]):
        _check_minors_and_pencil(rows, point)
        _check_adjugate(rows, point)
        _check_block(rows, point, list(range(n)))
        _check_block(rows, point, [0, 2, 3])


@pytest.mark.parametrize("name", sorted(ZERO_PIVOT_CASES))
def test_zero_pivots_cost_the_walk_no_determinant(name, monkeypatch):
    """A zero minor is one more elimination step on the walk's carried
    matrix, not a determinant per bordered minor of its children."""
    A = matrix(ZERO_PIVOT_CASES[name])

    def refuse(rows):
        raise AssertionError("the walk called det_fraction_free")

    monkeypatch.setattr(symdet, "det_fraction_free", refuse)
    det_poly(A)
    adjugate_table(A)


def test_gaussian_walk_takes_every_deficiency_path(monkeypatch):
    """On Q(i) input the walk runs in Z[i] (W carries imaginary parts) down
    each zero-pivot path: an elimination entered with deficiency 2, and the
    bordered minors with one row left unpivoted and with more."""
    reached = set()
    eliminate, bordered = symdet._eliminate, symdet._bordered

    def count_eliminate(W, m, p, s):
        if W[1] is not None:
            reached.add(("eliminate", m))
        return eliminate(W, m, p, s)

    def count_bordered(W, m, p, s, scales):
        if W[1] is not None:
            reached.add(("bordered", min(m, 2)))
        return bordered(W, m, p, s, scales)

    monkeypatch.setattr(symdet, "_eliminate", count_eliminate)
    monkeypatch.setattr(symdet, "_bordered", count_bordered)
    for rows in GAUSSIAN_ZERO_PIVOT_CASES.values():
        adjugate_table(matrix(rows))
    assert {("eliminate", 2), ("bordered", 1), ("bordered", 2)} <= reached


def test_singular_leading_block_has_a_zero_pivot():
    A = matrix(_singular_leading_block(5))
    assert principal_minors(A).value([0, 1]) == 0
    assert principal_minors(A).value([0]) != 0


I = gaussian(0, 1)

NON_REAL_PIVOT_CASES = {
    # pivots 1, then det [[1, i], [1, 2]] = 2 - i: the third step divides
    # by a non-real pivot, through its norm
    "gaussian-integer": [[1, I, 0, 2], [1, 2, 1, 0], [0, 1, I, 1], [2, 0, 1, gaussian(1, 1)]],
    # every row mixes int, Fraction and Q(i) entries with Fraction parts,
    # so each row is scaled by its own lcm; the second pivot is non-real too
    "mixed-rows": [
        [Fraction(1, 2), gaussian(Fraction(1, 3), 2), 3],
        [2, gaussian(0, Fraction(1, 5)), Fraction(-2, 3)],
        [gaussian(Fraction(3, 4), -1), 1, Fraction(1, 7)],
    ],
}


@pytest.mark.parametrize("name", sorted(NON_REAL_PIVOT_CASES))
def test_non_real_pivots_match_oracle(name):
    rows = NON_REAL_PIVOT_CASES[name]
    # the second pivot is the leading 2 x 2 minor, times the rows' scales
    assert not is_rational(det_fraction_free([row[:2] for row in rows[:2]])), "second pivot is real"
    d = det_fraction_free(rows)
    assert oracles.to_pair(d) == oracles.det_perm(rows)
    assert _is_canonical(d), repr(d)
    assert rank_exact(rows) == oracles.rank_gauss(rows) == len(rows)
    assert rank_exact(rows[:2] + rows[:1]) == 2
    _check_minors_and_pencil(rows, [gaussian(1, k) for k in range(len(rows))])


KERNEL_EDGE_CASES = {
    "empty": [],
    "zero-first-column": [[0, 1, 2], [0, 3, 1], [0, 2, 5]],
    "zero-first-column-wide": [[0, 1, 2, 3], [0, 2, 4, 1]],
    "zero-first-column-tall": [[0, 1], [0, 2], [0, 3]],
    # the only denominators sit in imaginary parts: clearing them needs the
    # split parts rescanned for Fractions
    "imaginary-denominators": [[1, gaussian(2, Fraction(1, 3))], [gaussian(0, Fraction(1, 2)), 5]],
}
KERNEL_EDGE_CASES["zero-first-column-qi"] = _gaussian_rows(KERNEL_EDGE_CASES["zero-first-column"])


@pytest.mark.parametrize("name", sorted(KERNEL_EDGE_CASES))
def test_kernel_edge_cases_match_oracle(name):
    rows = KERNEL_EDGE_CASES[name]
    assert rank_exact(rows) == oracles.rank_gauss(rows)
    if all(len(row) == len(rows) for row in rows):
        d = det_fraction_free(rows)
        assert oracles.to_pair(d) == oracles.det_perm(rows)
        assert _is_canonical(d), repr(d)
        assert principal_minors(matrix(rows)).value(range(len(rows))) == d
        _check_minors_and_pencil(rows, [gaussian(1, k) for k in range(len(rows))])


def test_kernel_on_empty_input():
    assert det_fraction_free([]) == 1
    assert rank_exact([]) == rank_exact([[]]) == 0


@pytest.mark.parametrize(
    "call, rows",
    [
        (det_fraction_free, [[1, 2]]),
        (det_fraction_free, [[1], [2]]),
        (det_fraction_free, [[1, 2], [3]]),
        (rank_exact, [[1, 2], [3]]),
        (rank_exact, [[1], [2, 3]]),
    ],
)
def test_kernel_rejects_non_square_or_ragged_rows(call, rows):
    with pytest.raises(ValueError):
        call(rows)
