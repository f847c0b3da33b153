"""Differential tests of the minor engine against the naive oracles.

``det_poly`` and ``adjugate_table`` read from one Sylvester walk over
subsets; ``principal_minors`` and ``block_det_poly`` (one Bareiss
elimination per subset) face the same oracles on the same draws.  Draws are
unfiltered: small integer entries make many principal minors vanish, which
sends the walk down its zero-pivot path, and Fraction and Q(i) entries leave
the integer fast path.  Fixed cases pin down the degenerate patterns.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfiber import adjugate_table, det_poly, gaussian, matrix, principal_minors
from pmfiber.structure import block_det_poly, frobenius_form

import oracles

SMALL_INT = st.integers(-2, 2)
FRACTION = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
GAUSSIAN = st.builds(gaussian, SMALL_INT, SMALL_INT)
ENTRIES = st.sampled_from([SMALL_INT, FRACTION, GAUSSIAN])


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
    assert _pairs(principal_minors(A).values) == expected
    f = det_poly(A).fpoly
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


ZERO_PIVOT_CASES = {
    "zero": _zero(5),
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


@pytest.mark.parametrize("name", sorted(ZERO_PIVOT_CASES))
def test_zero_pivot_cases_match_oracle(name):
    rows = ZERO_PIVOT_CASES[name]
    n = len(rows)
    for point in ([0] * n, list(range(1, n + 1)), [gaussian(1, k) for k in range(n)]):
        _check_minors_and_pencil(rows, point)
        _check_adjugate(rows, point)
        _check_block(rows, point, list(range(n)))
        _check_block(rows, point, [0, 2, 3])


def test_singular_leading_block_has_a_zero_pivot():
    A = matrix(_singular_leading_block(5))
    assert principal_minors(A).value([0, 1]) == 0
    assert principal_minors(A).value([0]) != 0

