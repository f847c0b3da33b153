"""Differential tests of fiber classification against the naive oracles.

Inside the library a witness is proved by its form (the swap form across a
cut, or the block form of a reducible matrix) and by having no diagonal
certificate; no pencil is expanded.  These tests check the claim itself
from outside, equal principal minors by the permutation-sum oracle, on
unfiltered draws at n = 4..6: planted cuts (symmetrizable and degenerate
draws included), relabeled block upper triangular matrices and dense
matrices.  The only failure classify_fiber may report is an input whose
every cut is degenerate, its swaps all staying diagonally equivalent to the
input, and swap_factors_degenerate names exactly those cuts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pmfiber import (
    MULTI_POINT,
    PreconditionError,
    VerificationError,
    classify_fiber,
    cut_swap_witness,
    diagonal_equivalence,
    find_cuts,
    matrix,
    structure_check,
    swap_factors_degenerate,
    symmetrizability,
)

import oracles

SIZES = st.integers(4, 6)
PM12 = st.sampled_from([-2, -1, 1, 2])
SMALL_INT = st.integers(-2, 2)


@st.composite
def planted_cuts(draw):
    """Dense diagonal blocks on X and X^c, rank-one blocks across."""
    n = draw(SIZES)
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(2, n - 2))
    X, Xc = sorted(perm[:k]), sorted(perm[k:])
    rows = [[0] * n for _ in range(n)]
    for part in (X, Xc):
        for i in part:
            for j in part:
                rows[i][j] = draw(PM12)
    u, z = [draw(PM12) for _ in X], [draw(PM12) for _ in X]
    v, w = [draw(PM12) for _ in Xc], [draw(PM12) for _ in Xc]
    for a, i in enumerate(X):
        for b, j in enumerate(Xc):
            rows[i][j] = u[a] * v[b]
            rows[j][i] = w[b] * z[a]
    return rows


@st.composite
def block_upper(draw):
    """Block upper triangular with random block sizes, then relabeled."""
    n = draw(SIZES)
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    block_of = [b for b, s in enumerate(sizes) for _ in range(s)]
    rows = [
        [draw(SMALL_INT) if block_of[i] <= block_of[j] else 0 for j in range(n)]
        for i in range(n)
    ]
    perm = draw(st.permutations(range(n)))
    return [[rows[u][v] for v in perm] for u in perm]


@st.composite
def dense(draw):
    n = draw(SIZES)
    return [[draw(SMALL_INT) for _ in range(n)] for _ in range(n)]


def _check_classification(rows):
    A = matrix(rows)
    assert structure_check(A).all_ok
    try:
        result = classify_fiber(A)
    except VerificationError as exc:
        assert "diagonally equivalent" in str(exc)
        assert all(swap_factors_degenerate(A, cut.X) for cut in find_cuts(A))
        return
    if result.verdict == MULTI_POINT:
        W = result.witness
        assert oracles.all_principal_minors(W.rows_list()) == oracles.all_principal_minors(rows)
        assert diagonal_equivalence(A, W) is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_cuts())
def test_planted_cut_classification(rows):
    _check_classification(rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(block_upper())
def test_block_upper_classification(rows):
    _check_classification(rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dense())
def test_dense_classification(rows):
    _check_classification(rows)


def _keeps_one_block_and_transposes_the_other(A, W, X, Xc):
    def block(M, part, transposed=False):
        return [[M.entries[j][i] if transposed else M.entries[i][j] for j in part] for i in part]

    return (block(W, X) == block(A, X) and block(W, Xc) == block(A, Xc, True)) or (
        block(W, X) == block(A, X, True) and block(W, Xc) == block(A, Xc)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_cuts())
def test_degenerate_cuts_are_the_failed_swaps(rows):
    A = matrix(rows)
    if symmetrizability(A).solvable:
        return
    for cut in find_cuts(A):
        Xc = cut.complement(A.n)
        try:
            W = cut_swap_witness(A, cut.X)
        except PreconditionError as exc:
            assert "diagonally equivalent" in str(exc)
            assert swap_factors_degenerate(A, cut.X)
            continue
        assert not swap_factors_degenerate(A, cut.X)
        assert _keeps_one_block_and_transposes_the_other(A, W, cut.X, Xc)
