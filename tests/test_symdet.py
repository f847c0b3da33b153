"""Determinants, principal minors, pencils, and adjugate tables.

Random checks compare against the naive permutation-sum oracle in
oracles.py; fixed values are frozen reference data.
"""

import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmfiber.symdet as symdet
from pmfiber.mpoly import pack, pack_ranked
from pmfiber import (
    FIELD_Q,
    FIELD_QI,
    MPoly,
    VerificationError,
    adjugate_table,
    affine_resultant,
    det_poly,
    gaussian,
    matrix,
    matrix_from_adjugate,
    principal_minors,
    ranked_texts,
    rayleigh_difference,
    verify_identities,
)
from pmfiber.symdet import (
    AdjugateTable,
    DeterminantalPencil,
    adjugate_pencil_product_ok,
    det_fraction_free,
    rank_exact,
)

import oracles
from conftest import A4_ROWS, B4_ROWS, linear, poly_of


def rand_rows(rng, n, field=FIELD_Q):
    def cell():
        if field == FIELD_QI:
            return gaussian(rng.randint(-5, 5), rng.randint(-5, 5))
        return rng.randint(-5, 5)

    return [[cell() for _ in range(n)] for _ in range(n)]


def test_matrix_rejects_inexact_entries():
    # A float would be taken as its binary fraction and declared over Q.
    for entry, kind in ((0.1, "float"), (True, "bool"), ("1", "str")):
        with pytest.raises(ValueError, match=f"got {kind}$"):
            matrix([[1, entry], [0, 1]])
    assert matrix([[1, Fraction(1, 2)], [gaussian(0, 1), 2]]).field == FIELD_QI


# -- determinants against the oracle -----------------------------------------------


def test_det_matches_oracle_rationals():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = rand_rows(rng, n)
        assert oracles.to_pair(det_fraction_free(rows)) == oracles.det_perm(rows)


def test_det_matches_oracle_gaussians():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = rand_rows(rng, n, FIELD_QI)
        assert oracles.to_pair(det_fraction_free(rows)) == oracles.det_perm(rows)


def test_det_fractional_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_fraction_free(rows) == Fraction(1, 14) - Fraction(1, 15)


def test_rank_matches_oracle():
    rng = random.Random(13)
    for _ in range(50):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
        assert rank_exact(rows) == oracles.rank_gauss(rows)


def test_rank_rank_one_product():
    u = [1, -2, 3]
    v = [2, 0, -1, 5]
    rows = [[a * b for b in v] for a in u]
    assert rank_exact(rows) == 1


# -- principal minors ---------------------------------------------------------------


def test_principal_minors_match_oracle():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 4)
        field = FIELD_Q if rng.random() < 0.5 else FIELD_QI
        rows = rand_rows(rng, n, field)
        A = matrix(rows, field)
        expected = oracles.all_principal_minors(rows)
        got = principal_minors(A)
        assert len(got.values) == 1 << n
        for subset, pair in expected.items():
            assert oracles.to_pair(got.value(subset)) == pair


def test_minors_empty_set_is_one(golden_a4):
    assert principal_minors(golden_a4).value([]) == 1


def test_golden_pair_share_all_minors(golden_a4, golden_b4):
    assert principal_minors(golden_a4) == principal_minors(golden_b4)


def test_golden_det_values(golden_a4, golden_a6):
    assert principal_minors(golden_a4).value(range(4)) == 87
    assert det_fraction_free(golden_a6.rows_list()) == -240


def test_golden_a4_diagonal_minors(golden_a4):
    pm = principal_minors(golden_a4)
    assert [pm.value([k]) for k in range(4)] == [2, 1, 1, -1]


@pytest.mark.parametrize("reader", [principal_minors, lambda A: det_poly(A).minors()])
def test_minor_vector_index_edges(golden_a4, reader):
    # The minors are kept by subset mask: a repeated index sets one bit, and
    # an index outside 0..n-1 must raise, never land on another subset.
    pm = reader(golden_a4)
    assert pm.value([0, 0]) == pm.value([0]) == 2
    assert pm.value([3, 1, 3]) == pm.value([1, 3])
    for bad in ([4], [0, 4], [-1], [2, -3], [1 << 70]):
        with pytest.raises(KeyError):
            pm.value(bad)
    assert dict(pm.values) == {frozenset(S): pm.value(S) for k in range(5) for S in combinations(range(4), k)}
    with pytest.raises(TypeError):
        pm.values[frozenset()] = 0


# -- determinantal pencil -----------------------------------------------------------


def test_det_poly_coefficients_are_complement_minors():
    rng = random.Random(15)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = rand_rows(rng, n)
        f = det_poly(matrix(rows)).fpoly
        for mask in range(1 << n):
            S = [k for k in range(n) if mask >> k & 1]
            comp = [k for k in range(n) if not mask >> k & 1]
            exp = tuple(1 if k in set(S) else 0 for k in range(n))
            assert oracles.to_pair(f.coefficient(exp)) == oracles.minor_pair(
                rows, comp
            )


def test_det_poly_at_random_points():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = rand_rows(rng, n, FIELD_QI)
        f = det_poly(matrix(rows, FIELD_QI)).fpoly
        xs = [rng.randint(-3, 3) for _ in range(n)]
        assert oracles.to_pair(f.evaluate(xs)) == oracles.pencil_at_point(rows, xs)


def test_golden_a6_pencil_factors(golden_a6):
    from conftest import a6_factors

    product = MPoly.const(6, 1)
    for factor in a6_factors():
        product = product * factor
    assert det_poly(golden_a6).fpoly == product


# -- adjugate table -----------------------------------------------------------------


def test_adjugate_matches_oracle_at_points():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randint(1, 4)
        field = FIELD_Q if rng.random() < 0.5 else FIELD_QI
        rows = rand_rows(rng, n, field)
        G = adjugate_table(matrix(rows, field))
        for _ in range(2):
            xs = [rng.randint(-3, 3) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    got = G.entry(i, j).evaluate(xs)
                    assert oracles.to_pair(got) == oracles.adjugate_entry_at_point(
                        rows, xs, i, j
                    )


@st.composite
def ranked_table_inputs(draw):
    """Unfiltered n x n rows at n = 1..7 and a point: over Q with ints,
    Fractions and many zeros, or over Q(i)."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), SMALL, st.builds(Fraction, SMALL, st.integers(1, 4)))
    else:
        entry = QI_ENTRIES
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    point = [draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))) for _ in range(n)]
    return rows, point


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ranked_table_inputs())
def test_ranked_adjugate_table_matches_the_oracles(drawn):
    rows, point = drawn
    n = len(rows)
    G = adjugate_table(matrix(rows))
    texts = ranked_texts(G.coeffs, [m.texts for m in G.monomials()])
    grid = _grid(G)
    expected = oracles.adjugate_at_point(rows, point)
    for i in range(n):
        for j in range(n):
            entry = grid[i][j]
            assert texts[i * n + j] == oracles.poly_text_reference(entry.terms, n), (i, j)
            assert oracles.to_pair(entry.evaluate(point)) == expected[i][j], (i, j)
    rebuilt = AdjugateTable.of_entries(n, grid)
    assert rebuilt == G and hash(rebuilt) == hash(G)


def _grid(G):
    """The adjugate table's entries as an n x n list of polynomials."""
    return [[G.entry(i, j) for j in range(G.n)] for i in range(G.n)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ranked_table_inputs())
def test_adjugate_table_holds_each_entry_on_its_free_monomials(drawn):
    """Column (i, j) has one slot per monomial free of x_i and x_j (of x_i
    when i == j), in descending grlex order, and each slot holds the
    oracle's coefficient there."""
    rows, _ = drawn
    n = len(rows)
    G = adjugate_table(matrix(rows))
    expected = oracles.adjugate_coefficients(rows)
    assert len(G.coeffs) == n * n
    for i in range(n):
        for j in range(n):
            col, exps = G.coeffs[i * n + j], G.monomials()[i * n + j].exps
            assert len(col) == len(exps) == 2 ** (n - 1 if i == j else n - 2)
            assert list(exps) == sorted(exps, key=lambda e: (sum(e), e), reverse=True)
            for exp, c in zip(exps, col):
                assert not exp[i] and not exp[j]
                S = tuple(k for k in range(n) if exp[k])
                assert oracles.to_pair(c) == expected[i, j, S], (i, j, S)


def test_adjugate_table_builds_one_polynomial_per_entry_call(golden_a4, monkeypatch):
    built = []
    raw = MPoly._raw.__func__
    monkeypatch.setattr(MPoly, "_raw", classmethod(lambda cls, n, terms: built.append(n) or raw(cls, n, terms)))
    G = adjugate_table(golden_a4)
    assert built == [] and not hasattr(G, "entries")
    G.entry(1, 2)
    assert built == [4]
    assert G.entry(1, 2) == G.entry(1, 2) and built == [4] * 3
    monkeypatch.undo()
    assert G.entry(-1, -1) == G.entry(3, 3)
    for i, j in ((0, 4), (4, 0), (-5, 0)):
        with pytest.raises(IndexError):
            G.entry(i, j)
    x = [MPoly.var(4, k) for k in range(4)]
    grid = _grid(G)
    y = [MPoly.var(2, k) for k in range(2)]
    ragged = (2, [[y[0]], [y[1], y[0], y[0] + y[1]]])  # four entries, two rows, neither of length 2
    for bad in ((4, grid[:3]), (3, grid), (4, [row[:3] for row in grid]), ragged):
        with pytest.raises(ValueError, match="grid"):
            AdjugateTable.of_entries(*bad)
    grid[0][1] = x[0] * x[0]
    with pytest.raises(ValueError, match="not squarefree"):
        AdjugateTable.of_entries(4, grid)


def test_of_entries_refuses_a_term_in_its_own_variables(golden_a4):
    """Entry (i, j) is free of x_i and x_j in every adjugate, and the table
    has no place for such a term: ``of_entries`` names the entry."""
    x = [MPoly.var(4, k) for k in range(4)]
    for (i, j), k in (((0, 1), 0), ((0, 1), 1), ((2, 3), 3), ((1, 1), 1)):
        grid = _grid(adjugate_table(golden_a4))
        grid[i][j] = grid[i][j] + 2 * x[k] * x[(k + 2) % 4]
        with pytest.raises(ValueError, match=rf"entry \({i + 1}, {j + 1}\) has a term in x{i + 1} or x{j + 1}"):
            AdjugateTable.of_entries(4, grid)
    grid = _grid(adjugate_table(golden_a4))
    grid[1][1] = grid[1][1] + x[0] * x[2] * x[3]  # free of x_2: a place the table has
    assert AdjugateTable.of_entries(4, grid).entry(1, 1) == grid[1][1]


def test_adjugate_product_identity():
    rng = random.Random(18)
    for _ in range(6):
        n = rng.randint(2, 4)
        rows = rand_rows(rng, n)
        A = matrix(rows)
        assert adjugate_pencil_product_ok(adjugate_table(A), det_poly(A))


def test_golden_a4_adjugate_entries(golden_a4):
    G = adjugate_table(golden_a4)
    n = 4
    x = [MPoly.var(n, k) for k in range(n)]
    expected = {
        (0, 1): (x[2] + 3) * (x[3] + 3),
        (0, 2): -1 * (x[1] - 2) * (x[3] + 3),
        (0, 3): (x[1] - 2) * (2 * x[2] + 3),
        (1, 0): -1 * (x[2] * x[3] + 5 * x[2] + 4 * x[3] + 15),
        (1, 2): (3 * x[0] + 7) * (x[3] + 3),
        (1, 3): -1 * (3 * x[0] + 7) * (2 * x[2] + 3),
        (2, 0): -1 * (x[1] - 1) * x[3],
        (2, 1): -1 * (2 * x[0] + 5) * x[3],
        (2, 3): -1 * x[0] * x[1] + 11 * x[0] - 4 * x[1] + 29,
        (3, 0): (x[1] - 1) * (x[2] + 3),
        (3, 1): (2 * x[0] + 5) * (x[2] + 3),
        (3, 2): -1 * (2 * x[0] + 5) * (x[1] - 2),
    }
    for (i, j), value in expected.items():
        assert G.entry(i, j) == value, f"entry ({i + 1},{j + 1})"


def golden_h4_table(G: AdjugateTable) -> AdjugateTable:
    """The swapped table paired with the 4x4 fixture: off-diagonal blocks of
    the adjugate get their rank-one factors interchanged."""
    n = 4
    x = [MPoly.var(n, k) for k in range(n)]
    H = [[G.entry(i, j) for j in range(n)] for i in range(n)]
    H[0][1], H[1][0] = G.entry(1, 0), G.entry(0, 1)
    H[0][2] = -1 * (x[1] - 1) * (x[3] + 3)
    H[0][3] = (x[1] - 1) * (2 * x[2] + 3)
    H[1][2] = -1 * (2 * x[0] + 5) * (x[3] + 3)
    H[1][3] = (2 * x[0] + 5) * (2 * x[2] + 3)
    H[2][0] = -1 * (x[1] - 2) * x[3]
    H[2][1] = (3 * x[0] + 7) * x[3]
    H[3][0] = (x[1] - 2) * (x[2] + 3)
    H[3][1] = -1 * (3 * x[0] + 7) * (x[2] + 3)
    return AdjugateTable.of_entries(n, H)


def test_golden_swapped_table_reconstructs_b4(golden_a4, golden_b4):
    G = adjugate_table(golden_a4)
    H = golden_h4_table(G)
    f = det_poly(golden_a4).fpoly
    B = matrix_from_adjugate(H, f)
    assert B.entries == golden_b4.entries


def test_matrix_from_adjugate_round_trip():
    rng = random.Random(19)
    for _ in range(6):
        n = rng.randint(2, 4)
        rows = rand_rows(rng, n)
        A = matrix(rows)
        B = matrix_from_adjugate(adjugate_table(A), det_poly(A).fpoly)
        assert B.entries == A.entries


def test_matrix_from_adjugate_rejects_corrupt_table(golden_a4):
    G = adjugate_table(golden_a4)
    f = det_poly(golden_a4).fpoly
    rows = [[G.entry(i, j) for j in range(4)] for i in range(4)]
    rows[0][1] = rows[0][1] + MPoly.const(4, 1)
    bad = AdjugateTable.of_entries(4, rows)
    with pytest.raises(VerificationError):
        matrix_from_adjugate(bad, f)


# -- Laplace expansion and signs ----------------------------------------------------


SMALL = st.integers(-3, 3)
Q_ENTRIES = st.one_of(SMALL, st.builds(Fraction, SMALL, st.integers(1, 4)))
QI_ENTRIES = st.one_of(Q_ENTRIES, st.builds(gaussian, Q_ENTRIES, Q_ENTRIES))


@st.composite
def laplace_inputs(draw):
    """Unfiltered n x n rows at n = 2..6 over Q or Q(i), zero entries
    included, sometimes with whole rows and columns set to zero."""
    n = draw(st.integers(2, 6))
    entry = draw(st.sampled_from((Q_ENTRIES, QI_ENTRIES)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for r in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows[r] = [0] * n
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(laplace_inputs())
def test_laplace_expansion_equals_det(rows):
    # At n <= 8 the Laplace check expands along every proper nonempty S.
    report = verify_identities(matrix(rows), ("laplace",))
    assert len(report.checks) == 2 ** len(rows) - 2
    assert report.all_ok, [c.indices for c in report.checks if not c.ok]


def test_laplace_expansion_reads_no_determinant(monkeypatch):
    A = matrix(rand_rows(random.Random(20), 6, FIELD_QI), FIELD_QI)
    d = det_fraction_free(A.rows_list())
    monkeypatch.setattr(symdet, "det_fraction_free", None)
    rows = symdet._int_parts(A.entries)
    assert all(symdet._laplace_sum(rows, S, {}) == d for S in ((0,), (1, 4), (0, 2, 5), (1, 2, 3, 4, 5)))


def _laplace_reference(rows, S):
    """The generalized Laplace expansion along the rows S, every block minor
    a permutation sum: sum over |T| = |S| of
    (-1)^(sum S + sum T) det A[S, T] det A[S^c, T^c]."""
    n = len(rows)
    Sc = [r for r in range(n) if r not in S]
    total = oracles.ZERO
    for T in combinations(range(n), len(S)):
        Tc = [c for c in range(n) if c not in T]
        upper = oracles.det_perm([[rows[i][j] for j in T] for i in S])
        lower = oracles.det_perm([[rows[i][j] for j in Tc] for i in Sc])
        term = oracles.cmul(upper, lower)
        total = oracles.cadd(total, oracles.cneg(term) if (sum(S) + sum(T)) % 2 else term)
    return total


# -- identity verification ----------------------------------------------------------


def test_verify_identities_all_pass():
    rng = random.Random(22)
    for _ in range(4):
        n = rng.randint(2, 4)
        field = FIELD_Q if rng.random() < 0.5 else FIELD_QI
        A = matrix(rand_rows(rng, n, field), field)
        report = verify_identities(A)
        assert report.all_ok, [c for c in report.checks if not c.ok]
        assert report.passed == len(report.checks)


def _old_form_checks(A, f, G):
    """Each identity check of verify_identities, with ok computed by building
    both sides separately and comparing them."""
    n = A.n
    x = [MPoly.var(n, k) for k in range(n)]
    d = oracles.det_perm(A.entries)
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                ok = rayleigh_difference(f, i, j) == G[i][j] * G[j][i]
                out["dodgson", (i, j)] = ok
                for k in range(n):
                    if k not in (i, j):
                        ok = affine_resultant(G[i][j], f, k) == G[i][k] * G[k][j]
                        out["resultant", (i, j, k)] = ok
    for size in range(1, n):
        for S in combinations(range(n), size):
            out["laplace", S] = _laplace_reference(A.entries, S) == d
    out["adjugate", ()] = all(
        sum((G[i][k] * A.entries[k][j] for k in range(n)), G[i][j] * x[j])
        == (f if i == j else MPoly.zero(n))
        for i in range(n)
        for j in range(n)
    )
    return out


DELTAS = (1, -1, 2, Fraction(1, 3), gaussian(0, 1), gaussian(1, -2))


def _one_coefficient_changed(rng, p, free=()):
    """p with a delta added to one coefficient: mostly one it has, else one
    of a random squarefree monomial free of the variables ``free`` (an
    adjugate entry (i, j) is free of x_i and x_j, and its table has no
    place for another term)."""
    terms = dict(p.terms)
    exp = rng.choice(sorted(terms)) if terms and rng.random() < 0.8 else tuple(
        rng.randint(0, 1) * (k not in free) for k in range(p.n)
    )
    terms[exp] = terms.get(exp, 0) + rng.choice(DELTAS)
    return MPoly(p.n, terms)


def test_verify_identities_on_corrupted_tables_match_the_old_form(monkeypatch):
    """Trials 0-15 corrupt one adjugate entry, 16-23 the pencil, 24-31 both;
    Gaussian and Fraction deltas land in Q tables and pencils too."""
    rng = random.Random(31)
    real_table, real_pencil = symdet.adjugate_table, symdet.det_poly
    failures = [0, 0]
    for trial in range(32):
        n = 4 + trial % 2
        field = FIELD_QI if trial % 4 >= 2 else FIELD_Q
        A = matrix(rand_rows(rng, n, field), field)
        rows = _grid(real_table(A))
        f = real_pencil(A).fpoly
        if trial < 16 or trial >= 24:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = _one_coefficient_changed(rng, rows[i][j], (i, j))
        if trial >= 16:
            f = _one_coefficient_changed(rng, f)
        bad = AdjugateTable.of_entries(n, rows)
        pencil = DeterminantalPencil(A, f)
        monkeypatch.setattr(symdet, "adjugate_table", lambda _A, bad=bad: bad)
        monkeypatch.setattr(symdet, "det_poly", lambda _A, pencil=pencil: pencil)
        report = verify_identities(A)
        got = {(c.identity, c.indices): c.ok for c in report.checks}
        assert got == _old_form_checks(A, f, _grid(bad))
        failures[trial >= 16] += report.failed
    assert min(failures) > 0


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_verify_and_laplace_leave_nothing_for_the_cyclic_gc(field):
    A = matrix(rand_rows(random.Random(5), 5, field), field)
    verify_identities(A)
    gc.collect()
    gc.disable()
    try:
        verify_identities(A)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_verify_laplace_alone_builds_no_pencil_or_table(field, monkeypatch):
    A = matrix(rand_rows(random.Random(7), 5, field), field)
    full = verify_identities(A)
    calls = []
    real_table, real_pencil = symdet.adjugate_table, symdet.det_poly
    monkeypatch.setattr(symdet, "adjugate_table", lambda B: calls.append("table") or real_table(B))
    monkeypatch.setattr(symdet, "det_poly", lambda B: calls.append("pencil") or real_pencil(B))
    alone = verify_identities(A, ("laplace",))
    assert calls == []
    assert alone.checks == tuple(c for c in full.checks if c.identity == "laplace")
    assert verify_identities(A, ("dodgson",)).all_ok
    assert sorted(calls) == ["pencil", "table"]


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_verify_packs_the_table_from_its_ranks(field, monkeypatch):
    """The adjugate table is packed straight from its coefficient tuples:
    no entry is built as a polynomial, and each packed entry is the one
    ``pack`` makes of that polynomial, its top 0 exactly when it is
    constant."""
    A = matrix(rand_rows(random.Random(11), 5, field), field)
    constant = matrix([[1, 0, 2], [0, 1, 0], [0, 3, 1]])  # G_01 = A_02 A_21 = 6
    tables = [adjugate_table(B) for B in (A, constant)]
    assert tables[1].entry(0, 1) == MPoly.const(3, 6)
    expected = [
        pack([det_poly(B).fpoly] + [G.entry(i, j) for i in range(G.n) for j in range(G.n)])[1:]
        for B, G in zip((A, constant), tables)
    ]
    assert {p.top for p in expected[1]} == {0, 1}

    def refuse(self, i, j):
        raise AssertionError("AdjugateTable.entry was called")

    monkeypatch.setattr(AdjugateTable, "entry", refuse)
    assert verify_identities(A).all_ok
    for G, want in zip(tables, expected):
        got = pack_ranked(G.coeffs, [m.pick for m in G.monomials()], G.n, want[0].width)
        assert [(p.top, p.gauss, p.items, p.scale, p.bound) for p in got] == [
            (p.top, p.gauss, p.items, p.scale, p.bound) for p in want
        ]


def test_verify_identities_unknown_name(golden_a4):
    with pytest.raises(ValueError):
        verify_identities(golden_a4, ("dodgson", "nonsense"))
