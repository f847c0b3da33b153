"""Diagonal equivalence, symmetrizing/hermitizing scalings, and recovery of
a conjugating diagonal from adjugate data."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pmfiber import (
    DiagonalCertificate,
    FIELD_Q,
    FIELD_QI,
    PreconditionError,
    VERDICT_NOT_SYMMETRIZABLE,
    VERDICT_OVER_EXTENSION,
    VERDICT_OVER_FIELD,
    VerificationError,
    diagonal_equivalence,
    gaussian,
    hermitian_equivalence,
    matrix,
    recover_diag_from_fiber,
    symmetrizability,
)
from pmfiber.scalars import conj, div_exact, scalar_re


def rand_full(rng, n, field=FIELD_Q):
    def cell():
        while True:
            if field == FIELD_QI:
                v = gaussian(rng.randint(-4, 4), rng.randint(-4, 4))
            else:
                v = rng.randint(-4, 4)
            if v:
                return v

    return matrix([[cell() for _ in range(n)] for _ in range(n)], field)


def rand_diag(rng, n, field=FIELD_Q):
    out = []
    while len(out) < n:
        if field == FIELD_QI:
            v = gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if v:
            out.append(v)
    return out


def conjugated(A, d, field):
    n = A.n
    rows = [
        [d[i] * div_exact(A.entries[i][j], d[j]) for j in range(n)]
        for i in range(n)
    ]
    return matrix(rows, field)


# -- diagonal equivalence -----------------------------------------------------------


def test_recovers_planted_conjugation():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 5)
        field = FIELD_Q if rng.random() < 0.5 else FIELD_QI
        A = rand_full(rng, n, field)
        B = conjugated(A, rand_diag(rng, n, field), field)
        cert = diagonal_equivalence(A, B)
        assert cert is not None and not cert.transposed
        assert cert.verifies(A, B)


def test_recovers_transposed_conjugation():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(2, 5)
        A = rand_full(rng, n)
        B = conjugated(A.transpose(), rand_diag(rng, n), FIELD_Q)
        cert = diagonal_equivalence(A, B)
        assert cert is not None and cert.verifies(A, B)


def test_inequivalent_pair(golden_a4, golden_b4):
    assert diagonal_equivalence(golden_a4, golden_b4) is None


def test_plain_beats_transposed_for_symmetric():
    A = matrix([[0, 2], [2, 0]])
    cert = diagonal_equivalence(A, A)
    assert cert is not None and not cert.transposed


def test_support_mismatch_is_rejected_quickly():
    A = matrix([[1, 2], [0, 1]])
    B = matrix([[1, 2], [3, 1]])
    assert diagonal_equivalence(A, B) is None


def test_size_and_field_mismatch_raise():
    A = matrix([[1]])
    B = matrix([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        diagonal_equivalence(A, B)
    C = matrix([[1]], FIELD_QI)
    with pytest.raises(PreconditionError):
        diagonal_equivalence(A, C)


def test_certificate_verifies_is_strict():
    A = matrix([[1, 2], [3, 4]])
    good = DiagonalCertificate((1, 2), False)
    assert good.conjugate(A).entries == ((1, 1), (6, 4))
    assert not good.verifies(A, A)
    with pytest.raises(PreconditionError):
        DiagonalCertificate((1, 0), False).conjugate(A)


def test_disconnected_support_components():
    # two independent 2-cycles scaled by unrelated factors
    A = matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    d = [1, 3, 1, Fraction(1, 5)]
    B = conjugated(A, d, FIELD_Q)
    cert = diagonal_equivalence(A, B)
    assert cert is not None and cert.verifies(A, B)


SMALL = st.integers(-3, 3)
Q_ENTRIES = st.one_of(st.just(0), SMALL, st.builds(Fraction, SMALL, st.integers(1, 4)))
QI_ENTRIES = st.one_of(Q_ENTRIES, st.builds(gaussian, Q_ENTRIES, Q_ENTRIES))
NONZERO_Q = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 4))
NONZERO_QI = st.one_of(NONZERO_Q, st.builds(gaussian, NONZERO_Q, Q_ENTRIES))


def _transposed(rows, tau=lambda x: x):
    return [[tau(x) for x in col] for col in zip(*rows)]


@st.composite
def scaling_pairs(draw):
    """(field, rows of A, rows of B), unfiltered, n = 1..5, with zeros, over
    Q (ints and Fractions) or Q(i).  A is sometimes drawn symmetric or
    Hermitian, so that scalings of A exist often.  B is a planted conjugate
    D*A*D^-1 or D*A^T*D^-1, that conjugate with one entry changed, or an
    independent draw."""
    n = draw(st.integers(1, 5))
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    entry, nonzero = (Q_ENTRIES, NONZERO_Q) if field == FIELD_Q else (QI_ENTRIES, NONZERO_QI)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("any", "symmetric", "hermitian")))
    for i in range(n):
        for j in range(i):
            if shape != "any":
                rows[i][j] = rows[j][i] if shape == "symmetric" else conj(rows[j][i])
        if shape == "hermitian":
            rows[i][i] = scalar_re(rows[i][i])
    kind = draw(st.sampled_from(("conjugate", "transposed", "changed", "independent")))
    if kind == "independent":
        return field, rows, [[draw(entry) for _ in range(n)] for _ in range(n)]
    d = [draw(nonzero) for _ in range(n)]
    base = _transposed(rows) if kind == "transposed" else rows
    other = [[d[i] * div_exact(x, d[j]) if x else 0 for j, x in enumerate(row)] for i, row in enumerate(base)]
    if kind == "changed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        other[i][j] += draw(nonzero)
    return field, rows, other


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scaling_pairs())
def test_scaling_questions_match_the_cycle_oracle(drawn):
    field, a_rows, b_rows = drawn
    A, B = matrix(a_rows, field), matrix(b_rows, field)
    cert = diagonal_equivalence(A, B)
    planted = oracles.scaling_exists(a_rows, b_rows) or oracles.scaling_exists(_transposed(a_rows), b_rows)
    assert (cert is not None) == planted
    assert cert is None or cert.verifies(A, B)
    for M, rows in ((A, a_rows), (B, b_rows)):
        transpose, adjoint = _transposed(rows), _transposed(rows, conj)
        real_diagonal = all(conj(rows[i][i]) == rows[i][i] for i in range(len(rows)))
        sym, herm = symmetrizability(M), hermitian_equivalence(M)
        assert sym.solvable == oracles.scaling_exists(rows, transpose)
        assert herm.solvable == (real_diagonal and oracles.scaling_exists(rows, adjoint, positive=True))
        for res, target, hermitian in ((sym, transpose, False), (herm, adjoint, True)):
            assert res.solvable == (res.e is not None)
            if res.e is not None:
                assert DiagonalCertificate(res.e, transposed=False).verifies(M, matrix(target, field))
            if res.witness_d is not None:
                image = res.witness_d.conjugate(M)
                assert res.witness_d.verifies(M, image)
                assert image.is_hermitian() if hermitian else image.is_symmetric()


# -- symmetrizability ---------------------------------------------------------------


def test_symmetrizable_over_field():
    A = matrix([[0, 1], [4, 0]])
    res = symmetrizability(A)
    assert res.verdict == VERDICT_OVER_FIELD
    assert res.e is not None and res.witness_d is not None
    S = res.witness_d.conjugate(A)
    assert S.entries == S.transpose().entries
    assert S.entries == ((0, 2), (2, 0))


def test_symmetrizable_needs_extension():
    A = matrix([[0, 1], [2, 0]])
    res = symmetrizability(A)
    assert res.verdict == VERDICT_OVER_EXTENSION
    assert res.e is not None and res.witness_d is None
    # cycle condition: e2/e1 = a12/a21 = 1/2, not a rational square
    assert div_exact(res.e[1], res.e[0]) == Fraction(1, 2)


def test_not_symmetrizable_cycle_conflict():
    A = matrix([[0, 1, 1], [1, 0, 1], [2, 1, 0]])
    res = symmetrizability(A)
    assert res.verdict == VERDICT_NOT_SYMMETRIZABLE
    assert res.e is None and res.witness_d is None
    assert not res.solvable


def test_not_symmetrizable_support_asymmetry():
    A = matrix([[0, 1], [0, 0]])
    assert symmetrizability(A).verdict == VERDICT_NOT_SYMMETRIZABLE


def test_symmetric_input_trivially_symmetrizable():
    A = matrix([[1, 5, 0], [5, 2, -1], [0, -1, 3]])
    res = symmetrizability(A)
    assert res.verdict == VERDICT_OVER_FIELD
    assert res.witness_d.conjugate(A).entries == A.entries


def test_planted_symmetrizable_instances():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(2, 5)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                S[i][j] = S[j][i] = v if (v or i == j) else 1
        d = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        B = conjugated(matrix(S), d, FIELD_Q)
        res = symmetrizability(B)
        assert res.solvable
        if res.verdict == VERDICT_OVER_FIELD:
            T = res.witness_d.conjugate(B)
            assert T.entries == T.transpose().entries


# -- hermitian scalings -------------------------------------------------------------


def test_hermitizable_golden_example():
    A = matrix([[1, gaussian(0, 2)], [gaussian(0, Fraction(-1, 2)), 1]], FIELD_QI)
    res = hermitian_equivalence(A)
    assert res.verdict == VERDICT_OVER_FIELD
    assert res.e == (1, 4)
    assert res.witness_d.d == (1, 2)
    H = res.witness_d.conjugate(A)
    assert H.entries == ((1, gaussian(0, 1)), (gaussian(0, -1), 1))


def test_hermitian_input_passes():
    A = matrix(
        [[2, gaussian(1, 1), 0], [gaussian(1, -1), 3, 5], [0, 5, -1]], FIELD_QI
    )
    res = hermitian_equivalence(A)
    assert res.verdict == VERDICT_OVER_FIELD
    H = res.witness_d.conjugate(A)
    assert all(
        H.entries[i][j] == conj(H.entries[j][i]) for i in range(3) for j in range(3)
    )


def test_non_real_diagonal_rejected():
    A = matrix([[gaussian(0, 1)]], FIELD_QI)
    assert hermitian_equivalence(A).verdict == VERDICT_NOT_SYMMETRIZABLE


def test_negative_ratio_rejected():
    # e2 = e1 * a12 / conj(a21) = -e1/4 < 0: no positive scaling exists
    A = matrix([[0, 1], [-4, 0]])
    assert hermitian_equivalence(A).verdict == VERDICT_NOT_SYMMETRIZABLE


def test_hermitizable_with_extension_root():
    # ratio 2 is positive but not a rational square
    A = matrix([[0, 2], [1, 0]])
    res = hermitian_equivalence(A)
    assert res.verdict == VERDICT_OVER_EXTENSION
    assert res.witness_d is None


# -- conjugator recovery ------------------------------------------------------------


def test_recover_diag_from_planted():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(3, 5)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = rng.randint(1, 4) if i != j else rng.randint(-2, 2)
        A = matrix(S)
        d = rand_diag(rng, n)
        B = conjugated(A, d, FIELD_Q)
        cert = recover_diag_from_fiber(A, B)
        assert cert.verifies(A, B)
        ratios = {div_exact(cert.d[i], d[i]) for i in range(n)}
        assert len(ratios) == 1


def test_recover_diag_requires_symmetric():
    A = matrix([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(PreconditionError):
        recover_diag_from_fiber(A, A)


def test_recover_diag_requires_irreducible():
    A = matrix([[1, 0], [0, 2]])
    with pytest.raises(PreconditionError):
        recover_diag_from_fiber(A, A)


def test_recover_diag_rejects_wrong_fiber():
    A = matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    B = matrix([[0, 2, 1], [2, 0, 1], [1, 1, 1]])
    with pytest.raises((VerificationError, PreconditionError)):
        recover_diag_from_fiber(A, B)


def test_non_real_ratio_rejected():
    # e_1 = e_0 * a_01 / conj(a_10) = i is not real: no Hermitian scaling.
    A = matrix([[0, gaussian(0, 1)], [1, 0]], FIELD_QI)
    assert hermitian_equivalence(A).verdict == VERDICT_NOT_SYMMETRIZABLE
