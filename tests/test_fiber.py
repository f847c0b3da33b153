"""Cuts, rank-one factor splits, swap witnesses, and fiber classification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmfiber import (
    MULTI_POINT,
    PreconditionError,
    SINGLE_POINT,
    VerificationError,
    adjugate_table,
    classify_fiber,
    cut_swap_witness,
    diagonal_equivalence,
    find_cuts,
    is_cut,
    matrix,
    principal_minors,
    rank_one_split,
    reducible_witness,
    stable_certify,
    swap_factors_degenerate,
    symmetric_fiber_describe,
    symmetrizability,
)
from pmfiber.fiber import (
    REASON_HAS_CUT,
    REASON_NO_CUT,
    REASON_REDUCIBLE,
    REASON_SMALL_N,
    REASON_SYMMETRIZABLE,
)
from pmfiber import fiber, structure, symdet
from pmfiber.scalars import gaussian
from pmfiber.structure import FrobeniusForm, is_irreducible

import oracles
from conftest import LATER_CUT_ROWS, cut_rows


# -- cut detection ------------------------------------------------------------------


def test_golden_a4_has_single_cut(golden_a4):
    cuts = find_cuts(golden_a4)
    assert len(cuts) == 1
    assert cuts[0].X == (0, 1)
    assert cuts[0].complement(4) == (2, 3)
    assert cuts[0].rank_xxc == 1 and cuts[0].rank_xcx == 1


def test_is_cut_rejects_bad_sizes(golden_a4):
    with pytest.raises(PreconditionError):
        is_cut(golden_a4, [0])
    with pytest.raises(PreconditionError):
        is_cut(golden_a4, [0, 1, 2])
    with pytest.raises(PreconditionError):
        is_cut(golden_a4, [0, 9])


def test_representative_contains_first_index():
    rng = random.Random(51)
    for _ in range(10):
        n = rng.randint(4, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for cut in find_cuts(matrix(rows)):
            assert 0 in cut.X
            assert is_cut(matrix(rows), cut.X)


def test_full_support_generic_has_no_cut():
    rng = random.Random(52)
    A = matrix([[rng.randint(1, 9) * (-1) ** rng.randint(0, 1) for _ in range(5)] for _ in range(5)])
    # generic entries: no off-diagonal block pair drops to rank one
    assert find_cuts(A) == []


def test_planted_cut_found():
    # off-diagonal blocks are outer products by construction
    u, v = [1, 2], [3, -1, 2]
    w, z = [2, 1, -1], [1, 4]
    rows = [
        [5, 1, u[0] * v[0], u[0] * v[1], u[0] * v[2]],
        [2, 3, u[1] * v[0], u[1] * v[1], u[1] * v[2]],
        [w[0] * z[0], w[0] * z[1], 1, 2, 0],
        [w[1] * z[0], w[1] * z[1], 1, 0, 3],
        [w[2] * z[0], w[2] * z[1], 0, 2, 1],
    ]
    cuts = find_cuts(matrix(rows))
    assert any(c.X == (0, 1) for c in cuts)


SMALL_INT = st.integers(-2, 2)
FRACTION = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
GAUSSIAN = st.builds(gaussian, SMALL_INT, SMALL_INT)


@st.composite
def cut_candidates(draw):
    """Unfiltered n = 4..7 matrices over Z, Q or Q(i); most draws plant a
    rank-one or zero block on each side of a random split."""
    n = draw(st.integers(4, 7))
    entry = draw(st.sampled_from([SMALL_INT, FRACTION, GAUSSIAN]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(2, n - 2))
    for P, Q in ((perm[:k], perm[k:]), (perm[k:], perm[:k])):
        plant = draw(st.sampled_from(["none", "rank-one", "zero"]))
        if plant == "none":
            continue
        u, v = [draw(entry) for _ in P], [draw(entry) for _ in Q]
        for a, i in enumerate(P):
            for b, j in enumerate(Q):
                rows[i][j] = 0 if plant == "zero" else u[a] * v[b]
    return rows


def _brute_force_cuts(rows):
    """Every X with 0 in X and 2 <= |X| <= n-2, with both cross ranks, by
    oracles.rank_gauss."""
    n = len(rows)
    found = []
    for k in range(2, n - 1):
        for rest in combinations(range(1, n), k - 1):
            X = (0,) + rest
            Xc = tuple(j for j in range(n) if j not in X)
            r1 = oracles.rank_gauss([[rows[i][j] for j in Xc] for i in X])
            r2 = oracles.rank_gauss([[rows[i][j] for j in X] for i in Xc])
            found.append((X, r1, r2))
    return sorted(found)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cut_candidates())
def test_find_cuts_matches_brute_force_ranks(rows):
    A = matrix(rows)
    candidates = _brute_force_cuts(rows)
    expected = [c for c in candidates if c[1] <= 1 and c[2] <= 1]
    assert [(c.X, c.rank_xxc, c.rank_xcx) for c in find_cuts(A)] == expected
    for X, r1, r2 in candidates:
        assert is_cut(A, X) == (r1 <= 1 and r2 <= 1)


def _fill_outer(rows, P, Q, u, v):
    for a, i in enumerate(P):
        for b, j in enumerate(Q):
            rows[i][j] = u[a] * v[b]


@st.composite
def many_cut_candidates(draw):
    """Unfiltered n = 1..9 matrices over Z, Q or Q(i) from families with many
    cuts, or whose cross blocks stay zero until late in the search:
    - nested: pieces P1, P2, P3 on a path, so X = P1 and X = P1 + P2 are
      both cuts whenever the sizes allow;
    - D + u v^T: every X is a cut;
    - sparse 0/+-1 entries times one unit of the field."""
    n = draw(st.integers(1, 9))
    entry = draw(st.sampled_from([SMALL_INT, FRACTION, GAUSSIAN]))
    family = draw(st.sampled_from(["nested", "diagonal-plus-rank-one", "sparse"]))
    if family == "sparse":
        unit = draw(st.sampled_from([1, Fraction(1, 2), gaussian(0, 1)]))
        return [[draw(st.sampled_from([0, 0, 0, 1, -1])) * unit for _ in range(n)] for _ in range(n)]
    if family == "diagonal-plus-rank-one":
        d, u, v = ([draw(entry) for _ in range(n)] for _ in range(3))
        return [[(d[i] if i == j else 0) + u[i] * v[j] for j in range(n)] for i in range(n)]
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    P1, P2, P3 = perm[:a], perm[a:b], perm[b:]
    # A[P, Q] = p q^T, A[Q, R] = r s^T and A[P, R] = t p s^T keep both
    # A[P, Q + R] and A[P + Q, R] of rank at most one, on each side of the path.
    for P, Q, R in ((P1, P2, P3), (P3, P2, P1)):
        p, s = [draw(entry) for _ in P], [draw(entry) for _ in R]
        q, r = [draw(entry) for _ in Q], [draw(entry) for _ in Q]
        t = draw(entry)
        _fill_outer(rows, P, Q, p, q)
        _fill_outer(rows, Q, R, r, s)
        _fill_outer(rows, P, R, p, [t * x for x in s])
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(many_cut_candidates())
def test_find_cuts_matches_brute_force_on_many_cut_families(rows):
    expected = [c for c in _brute_force_cuts(rows) if c[1] <= 1 and c[2] <= 1]
    assert [(c.X, c.rank_xxc, c.rank_xcx) for c in find_cuts(matrix(rows))] == expected


def _full_support_rows(n):
    rng = random.Random(53)
    return [[rng.randint(1, 9) * (-1) ** rng.randint(0, 1) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize(
    "rows, cut_count",
    [(_full_support_rows(16), 0), (cut_rows(16, 2), 3)],
    ids=["full-support", "cut_rows"],
)
def test_find_cuts_prunes_to_polynomially_many_block_tests(monkeypatch, rows, cut_count):
    # Enumeration would test all 2^15 subsets; the search tests only the new
    # entries of splits whose cross blocks still have rank at most one.
    tests = []
    through_pivot = fiber._through_pivot

    def counted(*args):
        tests.append(args)
        return through_pivot(*args)

    monkeypatch.setattr(fiber, "_through_pivot", counted)
    cuts = find_cuts(matrix(rows))
    assert 0 < len(tests) <= 4 * 16**2
    assert len(cuts) == cut_count
    assert all(is_cut(matrix(rows), c.X) for c in cuts)


def test_cut_reading_runs_no_elimination(monkeypatch, golden_a4, golden_b4):
    # Whether a cross block has rank <= 1 is read off one pivot's 2x2 minors.
    def boom(*args):
        raise AssertionError("an elimination ran")

    for module, name in (
        (symdet, "det_fraction_free"),
        (structure, "det_fraction_free"),
        (symdet, "_eliminate"),
        (symdet, "_pivot"),
    ):
        monkeypatch.setattr(module, name, boom)
    cuts = find_cuts(golden_a4)
    assert [(c.X, c.rank_xxc, c.rank_xcx) for c in cuts] == [((0, 1), 1, 1)]
    res = classify_fiber(golden_a4)
    assert res.reason == REASON_HAS_CUT
    assert diagonal_equivalence(golden_b4, res.witness) is not None


# -- rank-one factor split ----------------------------------------------------------


def test_rank_one_split_reproduces_adjugate(golden_a4):
    G = adjugate_table(golden_a4)
    split = rank_one_split(G, (0, 1))

    def sign(k):
        return -1 if k % 2 == 0 else 1

    for i in (0, 1):  # i ranges over X, j over the complement
        for j in (2, 3):
            assert sign(i) * (split.a[i] * split.b[j]) == G.entry(i, j)
            assert sign(i) * (split.c[j] * split.d[i]) == G.entry(j, i)


def test_rank_one_split_rejects_non_cut(golden_a4):
    G = adjugate_table(golden_a4)
    with pytest.raises(VerificationError):
        rank_one_split(G, (0, 2))


SPLIT_POOLS = {
    "Q": [0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)],
    "Q(i)": [0, 0, 0, 1, -1, 2, gaussian(0, 1), gaussian(1, -1), gaussian(-2, 1), Fraction(1, 2)],
}


@st.composite
def planted_split_cases(draw):
    """An irreducible matrix with a planted cut, about 30% of its diagonal
    block entries and cross factors zero, and a subset to split at."""
    field = draw(st.sampled_from(sorted(SPLIT_POOLS)))
    pool = st.sampled_from(SPLIT_POOLS[field])
    n = draw(st.sampled_from([4, 5, 6, 7]))
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(2, n - 2))
    X, Xc = sorted(perm[:k]), sorted(perm[k:])
    rows = [[0] * n for _ in range(n)]
    for part in (X, Xc):
        for i in part:
            for j in part:
                rows[i][j] = draw(pool)
    p, s = [draw(pool) for _ in X], [draw(pool) for _ in X]
    q, r = [draw(pool) for _ in Xc], [draw(pool) for _ in Xc]
    for a, i in enumerate(X):
        for b, j in enumerate(Xc):
            rows[i][j], rows[j][i] = p[a] * q[b], r[b] * s[a]
    A = matrix(rows, field)
    assume(is_irreducible(A))
    subset = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 2))
    return A, tuple(sorted(subset))


def _free_of(p, indices):
    return all(not exp[k] for exp in p.terms for k in indices)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_split_cases())
def test_rank_one_split_on_every_cut(case):
    A, subset = case
    G = adjugate_table(A)
    rows = A.rows_list()
    point = [k + 2 for k in range(A.n)]

    def sign(k):
        return -1 if k % 2 == 0 else 1

    for cut in find_cuts(A):
        X, Xc = cut.X, cut.complement(A.n)
        split = rank_one_split(G, X)
        assert all(_free_of(split.a[i], Xc) and _free_of(split.d[i], Xc) for i in X)
        assert all(_free_of(split.b[j], X) and _free_of(split.c[j], X) for j in Xc)
        for i in X:
            for j in Xc:
                assert sign(i) * (split.a[i] * split.b[j]) == G.entry(i, j)
                assert sign(i) * (split.c[j] * split.d[i]) == G.entry(j, i)
        # one entry of each block against the permutation-sum adjugate
        i, j = X[0], Xc[-1]
        upper = sign(i) * split.a[i].evaluate(point) * split.b[j].evaluate(point)
        lower = sign(i) * split.c[j].evaluate(point) * split.d[i].evaluate(point)
        assert oracles.to_pair(upper) == oracles.adjugate_entry_at_point(rows, point, i, j)
        assert oracles.to_pair(lower) == oracles.adjugate_entry_at_point(rows, point, j, i)
    if not is_cut(A, subset):
        with pytest.raises(VerificationError, match="not a cut of an irreducible matrix"):
            rank_one_split(G, subset)


# -- swap witness -------------------------------------------------------------------


def test_golden_witness_properties(golden_a4, golden_b4):
    W = cut_swap_witness(golden_a4, (0, 1))
    # same 16 principal minors, checked against the naive oracle
    rows_a = [list(r) for r in golden_a4.entries]
    rows_w = [list(r) for r in W.entries]
    assert oracles.all_principal_minors(rows_a) == oracles.all_principal_minors(rows_w)
    # not reachable from the input by diagonal conjugation or transposition
    assert diagonal_equivalence(golden_a4, W) is None
    # but the witness matches the expected second fiber point
    assert diagonal_equivalence(golden_b4, W) is not None


def test_golden_witness_swaps_the_cut_factors(golden_a4):
    # A[X,X] kept, A[Xc,Xc] transposed; the cross blocks become p r^T and
    # q s^T for A[X,Xc] = p q^T = (1,-3)^T (1,-2), A[Xc,X] = r s^T = (1,-1)^T (1,2).
    W = cut_swap_witness(golden_a4, (0, 1))
    assert W.rows_list() == [
        [2, -1, 1, -1],
        [1, 1, -3, 3],
        [1, 2, 1, 2],
        [-2, -4, 1, -1],
    ]


def test_witness_preconditions(golden_a4):
    with pytest.raises(PreconditionError):
        cut_swap_witness(matrix([[0, 1], [1, 0]]), (0,))
    with pytest.raises(PreconditionError):
        cut_swap_witness(golden_a4, (0, 2))  # not a cut
    sym = matrix([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(PreconditionError):
        cut_swap_witness(sym, (0, 1))  # symmetrizable
    red = matrix(
        [[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 2, 1], [0, 0, 1, 2]]
    )
    with pytest.raises(PreconditionError):
        cut_swap_witness(red, (0, 1))  # reducible


def test_witness_with_relabeled_cut():
    # cut X = {0, 3}: rows {0,3} x cols {1,2} is (1,2)^T (3,1), rows {1,2} x
    # cols {0,3} is (1,3)^T (2,1)
    base = [
        [5, 3, 1, 7],
        [2, 1, -2, 1],
        [6, 3, 2, 3],
        [2, 6, 2, 4],
    ]
    A = matrix(base)
    cuts = find_cuts(A)
    assert cuts and cuts[0].X == (0, 3)
    if symmetrizability(A).solvable:
        pytest.skip("instance accidentally symmetrizable")
    W = cut_swap_witness(A, cuts[0].X)
    assert principal_minors(W) == principal_minors(A)
    assert diagonal_equivalence(A, W) is None


def test_degenerate_cut_factors_have_no_swap_witness(golden_a4):
    # The upper cross block is (1,2)^T (1,3) and the lower one is its
    # transpose (1,3)^T (1,2), while the trailing diagonal block is
    # symmetric.  Swapping factors across the cut then only reproduces
    # diagonal conjugates of the matrix or of its transpose, even though
    # the leading block [[1,2],[3,4]] keeps it non-symmetrizable.
    A = matrix([[1, 2, 1, 3], [3, 4, 2, 6], [1, 2, 5, 6], [3, 6, 6, 8]])
    assert not symmetrizability(A).solvable
    cuts = find_cuts(A)
    assert cuts and cuts[0].X == (0, 1)
    assert swap_factors_degenerate(A, (0, 1))
    with pytest.raises(PreconditionError, match="diagonally equivalent"):
        cut_swap_witness(A, (0, 1))
    # The transpose shares all minors but stays inside the equivalence class.
    T = matrix([[row[i] for row in A.entries] for i in range(4)])
    assert principal_minors(T) == principal_minors(A)
    assert diagonal_equivalence(A, T) is not None


def test_swap_factors_degenerate_golden_negative(golden_a4):
    assert not swap_factors_degenerate(golden_a4, (0, 1))
    with pytest.raises(PreconditionError):
        swap_factors_degenerate(golden_a4, (0, 2))  # not a cut


def _corrupted_swap(kind):
    """fiber._swap with one defect the swap-form proof has to catch; the
    "scaled" form conjugates the true swap by 3 on X and is a fiber point."""
    swap = fiber._swap

    def build(A, Xs, Xc):
        E, B = A.entries, swap(A, Xs, Xc).rows_list()
        if kind == "transposed-M":
            for i in Xs:
                for k in Xs:
                    B[i][k] = E[k][i]
        elif kind == "untransposed-N":
            for j in Xc:
                for k in Xc:
                    B[j][k] = E[j][k]
        elif kind == "q-r-exchanged":  # cross blocks p q^T and r s^T, as in A
            for i in Xs:
                for j in Xc:
                    B[i][j], B[j][i] = E[i][j], E[j][i]
        elif kind == "one-cross-entry":
            B[Xs[0]][Xc[0]] += 1
        else:
            for i in Xs:
                for j in Xc:
                    B[i][j], B[j][i] = 3 * B[i][j], Fraction(B[j][i], 3)
        return matrix(B)

    return build


@pytest.mark.parametrize(
    "kind, kept",
    [("transposed-M", False), ("untransposed-N", False), ("q-r-exchanged", False),
     ("one-cross-entry", False), ("scaled", True)],
)
def test_cut_witness_is_proved_by_its_swap_form(monkeypatch, golden_a4, kind, kept):
    monkeypatch.setattr(fiber, "_swap", _corrupted_swap(kind))
    if kept:
        W = cut_swap_witness(golden_a4, (0, 1))
        assert principal_minors(W) == principal_minors(golden_a4)
    else:
        with pytest.raises(VerificationError, match="failed its swap-form check"):
            cut_swap_witness(golden_a4, (0, 1))


def test_cut_swap_witness_expands_no_pencil(monkeypatch, golden_a4, golden_b4):
    def boom(A):
        raise AssertionError("det_poly called")

    for module in (symdet, structure, fiber):
        if hasattr(module, "det_poly"):
            monkeypatch.setattr(module, "det_poly", boom)
    W = cut_swap_witness(golden_a4, (0, 1))
    assert diagonal_equivalence(golden_b4, W) is not None


# -- reducible witness --------------------------------------------------------------


def test_reducible_witness_golden(golden_a6):
    W = reducible_witness(golden_a6)
    assert principal_minors(W) == principal_minors(golden_a6)
    assert diagonal_equivalence(golden_a6, W) is None


def test_reducible_witness_requires_reducible(golden_a4):
    with pytest.raises(PreconditionError):
        reducible_witness(golden_a4)


# Frobenius order 2, 0, 1: the form is [[6, 4, 5], [0, 1, 2], [0, 0, 3]].
REDUCIBLE_3 = [[1, 2, 0], [0, 3, 0], [4, 5, 6]]


@pytest.mark.parametrize(
    "i, j, kept",
    [(1, 1, False), (2, 1, False), (2, 0, False), (1, 2, True)],
    ids=["diagonal-block", "below-a-block", "below-the-first-block", "strictly-upper"],
)
def test_reducible_witness_is_proved_by_its_block_form(monkeypatch, i, j, kept):
    # Corrupt entry (i, j), in Frobenius order, of the matrix the witness is
    # built from: only strictly-upper entries may change.
    def build(rows, field=None):
        rows = [list(row) for row in rows]
        rows[i][j] = 7
        return matrix(rows, field)

    monkeypatch.setattr(fiber, "matrix", build)
    A = matrix(REDUCIBLE_3)
    if kept:
        assert principal_minors(reducible_witness(A)) == principal_minors(A)
    else:
        with pytest.raises(VerificationError, match="changed a principal minor"):
            reducible_witness(A)


def test_reducible_witness_refuses_a_form_that_is_not_triangular(monkeypatch):
    A = matrix(REDUCIBLE_3)
    order = (1, 0, 2)
    reversed_form = FrobeniusForm(order, ((1,), (0,), (2,)), A.permuted(order))
    monkeypatch.setattr(fiber, "frobenius_form", lambda M: reversed_form)
    with pytest.raises(VerificationError):
        reducible_witness(A)


# -- classification -----------------------------------------------------------------


def test_classify_golden_a4(golden_a4):
    res = classify_fiber(golden_a4)
    assert res.verdict == MULTI_POINT
    assert res.reason == REASON_HAS_CUT
    assert res.cut is not None and res.cut.X == (0, 1)
    assert res.witness is not None
    assert principal_minors(res.witness) == principal_minors(golden_a4)


def test_classify_golden_a6(golden_a6):
    res = classify_fiber(golden_a6)
    assert res.verdict == MULTI_POINT
    assert res.reason == REASON_REDUCIBLE
    assert res.witness is not None
    assert principal_minors(res.witness) == principal_minors(golden_a6)


def test_classify_tries_every_cut():
    A = matrix(LATER_CUT_ROWS)
    cuts = find_cuts(A)
    assert cuts[0].X == (0, 1) and swap_factors_degenerate(A, (0, 1))
    with pytest.raises(PreconditionError, match="diagonally equivalent"):
        cut_swap_witness(A, (0, 1))
    res = classify_fiber(A)
    assert res.verdict == MULTI_POINT and res.reason == REASON_HAS_CUT
    assert res.cut.X == (0, 1, 3)
    assert "first cut whose swap leaves the input's class" in res.note
    W = res.witness
    assert oracles.all_principal_minors(W.rows_list()) == oracles.all_principal_minors(LATER_CUT_ROWS)
    assert diagonal_equivalence(A, W) is None
    assert W == cut_swap_witness(A, (0, 1, 3))


def test_classify_refuses_only_when_every_swap_is_equivalent():
    A = matrix([[1, 2, 1, 3], [3, 4, 2, 6], [1, 2, 5, 6], [3, 6, 6, 8]])
    assert all(swap_factors_degenerate(A, c.X) for c in find_cuts(A))
    with pytest.raises(VerificationError, match="diagonally equivalent"):
        classify_fiber(A)


def test_classify_small_matrices():
    A = matrix([[1, 2], [3, 4]])
    res = classify_fiber(A)
    assert res.verdict == SINGLE_POINT and res.reason == REASON_SMALL_N
    B = matrix([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    res3 = classify_fiber(B)
    assert res3.verdict == SINGLE_POINT and res3.reason == REASON_SMALL_N


def test_classify_the_empty_matrix():
    # No strong component at all: irreducible, with nothing to swap.
    A = matrix([])
    assert is_irreducible(A)
    res = classify_fiber(A)
    assert res.verdict == SINGLE_POINT and res.reason == REASON_SMALL_N
    assert symmetric_fiber_describe(A).irreducible
    with pytest.raises(PreconditionError):
        reducible_witness(A)


def test_classify_no_cut():
    rng = random.Random(53)
    A = matrix([[rng.randint(1, 9) for _ in range(4)] for _ in range(4)])
    assert find_cuts(A) == []
    res = classify_fiber(A)
    assert res.verdict == SINGLE_POINT and res.reason == REASON_NO_CUT


def test_classify_symmetrizable_with_cut():
    A = matrix([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
    assert find_cuts(A)
    res = classify_fiber(A)
    assert res.verdict == SINGLE_POINT and res.reason == REASON_SYMMETRIZABLE
    assert res.symmetrizability is not None and res.symmetrizability.solvable
    assert res.cut is not None


def test_classify_reducible_wins_over_cut():
    # reducible AND cut-bearing: reducibility is reported first
    A = matrix([[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 2, 1], [0, 0, 1, 2]])
    res = classify_fiber(A)
    assert res.reason == REASON_REDUCIBLE


# -- symmetric fiber description ----------------------------------------------------


def test_symmetric_describe_irreducible():
    A = matrix([[0, 1, 2], [1, 0, 3], [2, 3, 1]])
    desc = symmetric_fiber_describe(A)
    assert desc.irreducible and desc.shape is None


def test_symmetric_describe_block_diagonal():
    A = matrix(
        [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 4], [0, 0, 4, 3]]
    )
    desc = symmetric_fiber_describe(A)
    assert not desc.irreducible
    assert desc.shape is not None
    assert desc.shape.blocks == ((0, 1), (2, 3))


def test_symmetric_describe_rejects_asymmetric(golden_a4):
    with pytest.raises(PreconditionError):
        symmetric_fiber_describe(golden_a4)


# -- stability certificates ---------------------------------------------------------


def test_stable_certify_hermitian_block_diagonal():
    A = matrix(
        [
            [2, gaussian(1, 1), 0],
            [gaussian(1, -1), 3, 0],
            [0, 0, 5],
        ],
        "Q(i)",
    )
    cert = stable_certify(A)
    assert cert.certified and cert.verdict == "Certified"
    assert cert.failing_block is None
    assert len(cert.blocks) == len(cert.factors) == len(cert.reports)


def test_stable_certify_names_failing_block():
    A = matrix(
        [
            [2, 1, 0],
            [1, 3, 0],
            [0, 0, gaussian(0, 1)],
        ],
        "Q(i)",
    )
    cert = stable_certify(A)
    assert not cert.certified and cert.verdict == "NotCertified"
    assert cert.failing_block == (2,)


def test_stable_certify_rejects_a_form_that_is_not_triangular(monkeypatch):
    A = matrix(REDUCIBLE_3)
    order = (1, 0, 2)
    reversed_form = FrobeniusForm(order, ((1,), (0,), (2,)), A.permuted(order))
    monkeypatch.setattr(structure, "frobenius_form", lambda M: reversed_form)
    with pytest.raises(VerificationError, match="not block upper triangular"):
        stable_certify(A)
