"""Acceptance suite.

Each criterion prints one ``ACCEPTANCE k: PASS`` / ``ACCEPTANCE k: FAIL`` line
directly to the terminal (bypassing capture) and then asserts.

Tolerances: every comparison is exact equality in Q or Q(i) - there is no
floating point and no numeric tolerance anywhere in this file.

Time budgets (wall clock, asserted): criterion 1 < 2 s, criterion 2 < 2 s,
criterion 3 < 60 s, criterion 7 < 120 s.  The remaining criteria have no
stated budget.
"""

import random
import time
from fractions import Fraction

from pmfiber import (
    DiagonalCertificate,
    MPoly,
    MULTI_POINT,
    SINGLE_POINT,
    adjugate_table,
    classify_fiber,
    cut_swap_witness,
    diagonal_equivalence,
    det_poly,
    find_cuts,
    frobenius_form,
    gaussian,
    hermitian_equivalence,
    is_irreducible,
    matrix,
    principal_minors,
    rayleigh_difference,
    recover_diag_from_fiber,
    stable_certify,
    structure_check,
    verify_identities,
)
from pmfiber.scalars import FIELD_Q, FIELD_QI, conj, div_exact
from pmfiber.selftest import planted_block_upper, planted_cut_instance
from pmfiber.structure import block_det_poly

import oracles
from conftest import A4_ROWS, B4_ROWS, A6_ROWS, a6_factors


def announce(capsys, k, body, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"criterion {k}: {elapsed:.1f}s over {budget}s budget"
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'}")


def rand_rows(rng, n, field, lo=-5, hi=5):
    if field == FIELD_QI:
        return [
            [gaussian(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)
        ]
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def rand_nonzero(rng, field):
    while True:
        if field == FIELD_QI:
            v = gaussian(rng.randint(-4, 4), rng.randint(-4, 4))
        else:
            v = rng.randint(-4, 4)
        if v:
            return v


def test_criterion_1(capsys):
    """4x4 golden: cut, adjugate spot checks, classification, and witness."""

    def body():
        A = matrix(A4_ROWS)
        B = matrix(B4_ROWS)

        cuts = find_cuts(A)
        assert [c.X for c in cuts] == [(0, 1)], "expected the single cut {1,2}"

        G = adjugate_table(A)
        x = [MPoly.var(4, k) for k in range(4)]
        assert G.entry(0, 1) == (x[2] + 3) * (x[3] + 3)
        assert G.entry(1, 3) == -1 * (3 * x[0] + 7) * (2 * x[2] + 3)
        assert G.entry(2, 0) == -1 * (x[1] - 1) * x[3]
        assert G.entry(3, 2) == -1 * (2 * x[0] + 5) * (x[1] - 2)

        res = classify_fiber(A)
        assert res.verdict == MULTI_POINT
        W = res.witness
        assert W is not None

        # all 16 principal minors agree, double-checked by the naive oracle
        assert principal_minors(W) == principal_minors(A)
        rows_a = [list(r) for r in A.entries]
        rows_w = [list(r) for r in W.entries]
        assert oracles.all_principal_minors(rows_w) == oracles.all_principal_minors(rows_a)

        # no diagonal-equivalence certificate back to A
        assert diagonal_equivalence(A, W) is None

        # the witness is the expected second fiber point (up to diagonal
        # conjugation / transposition) or literally equal to it
        assert W.entries == B.entries or diagonal_equivalence(B, W) is not None

    announce(capsys, 1, body, budget=2.0)


def test_criterion_2(capsys):
    """6x6 golden: pencil factorization and block structure."""

    def body():
        A = matrix(A6_ROWS)
        factors = a6_factors()
        product = MPoly.const(6, 1)
        for f in factors:
            product = product * f
        assert det_poly(A).fpoly == product

        form = frobenius_form(A)
        assert form.blocks == ((0, 4), (1, 3), (2, 5))
        assert [block_det_poly(A, b) for b in form.blocks] == factors

        report = structure_check(A)
        assert report.blocks == ((0, 4), (1, 3), (2, 5))
        assert report.free_positions == ((0, 1), (0, 2), (1, 2))

    announce(capsys, 2, body, budget=2.0)


def test_criterion_3(capsys):
    """Identity suite: 500 random matrices, both fields, zero failures."""

    def body():
        rng = random.Random(103)
        failures = []
        for t in range(500):
            n = 2 + t % 5
            field = FIELD_Q if t % 2 == 0 else FIELD_QI
            A = matrix(rand_rows(rng, n, field), field)
            report = verify_identities(A)
            if not report.all_ok:
                failures.append((t, [c for c in report.checks if not c.ok][:3]))
        assert not failures, failures[:5]

    announce(capsys, 3, body, budget=60.0)


def test_criterion_4(capsys):
    """Conjugation and transposition preserve all principal minors."""

    def body():
        rng = random.Random(104)
        failures = []
        for t in range(200):
            n = rng.randint(2, 5)
            field = FIELD_Q if t % 2 == 0 else FIELD_QI
            A = matrix(
                [[rand_nonzero(rng, field) for _ in range(n)] for _ in range(n)],
                field,
            )
            d = [rand_nonzero(rng, field) for _ in range(n)]
            B = DiagonalCertificate(tuple(d), False).conjugate(A)
            pm = principal_minors(A)
            if principal_minors(B) != pm:
                failures.append((t, "conjugation changed a minor"))
                continue
            if principal_minors(A.transpose()) != pm:
                failures.append((t, "transposition changed a minor"))
                continue
            cert = diagonal_equivalence(A, B)
            if cert is None or not cert.verifies(A, B):
                failures.append((t, "no valid certificate recovered"))
        assert not failures, failures[:5]

    announce(capsys, 4, body)


def test_criterion_5(capsys):
    """Irreducibility <=> nonzero adjugate entries <=> nonzero Rayleigh differences."""

    def body():
        rng = random.Random(105)
        densities = [0.25, 0.5, 0.75, 1.0]
        failures = []
        for t in range(200):
            n = rng.randint(3, 6)
            density = densities[t % 4]
            rows = [
                [
                    rng.randint(-5, 5) if rng.random() < density else 0
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            A = matrix(rows)
            irr = is_irreducible(A)
            G = adjugate_table(A)
            adj_nonzero = all(
                bool(G.entry(i, j))
                for i in range(n)
                for j in range(n)
                if i != j
            )
            f = det_poly(A).fpoly
            deltas_nonzero = all(
                bool(rayleigh_difference(f, i, j))
                for i in range(n)
                for j in range(i + 1, n)
            )
            if not (irr == adj_nonzero == deltas_nonzero):
                failures.append((t, irr, adj_nonzero, deltas_nonzero))
        assert not failures, failures[:5]

    announce(capsys, 5, body)


def test_criterion_6(capsys):
    """Planted block structure is recovered; pencil factors multiply back."""

    def body():
        rng = random.Random(106)
        failures = []
        for t in range(100):
            n = rng.randint(3, 8)
            A, m = planted_block_upper(rng, n)
            form = frobenius_form(A)
            if len(form.blocks) != m:
                failures.append((t, f"planted {m}, got {len(form.blocks)}"))
                continue
            product = MPoly.const(n, 1)
            for b in form.blocks:
                product = product * block_det_poly(A, b)
            if product != det_poly(A).fpoly:
                failures.append((t, "factor product mismatch"))
        assert not failures, failures[:5]

    announce(capsys, 6, body)


def test_criterion_7(capsys):
    """100 planted-cut instances: witness passes both postconditions."""

    def body():
        rng = random.Random(107)
        failures = []
        for t in range(100):
            n = 4 + t % 3
            A, X = planted_cut_instance(rng, n)
            W = cut_swap_witness(A, X)
            rows_a = [list(r) for r in A.entries]
            rows_w = [list(r) for r in W.entries]
            # brute-force minor comparison via the permutation-sum oracle
            if oracles.all_principal_minors(rows_w) != oracles.all_principal_minors(rows_a):
                failures.append((t, "principal minors differ"))
                continue
            if diagonal_equivalence(A, W) is not None:
                failures.append((t, "witness is equivalent to the input"))
        assert not failures, failures[:5]

    announce(capsys, 7, body, budget=120.0)


def test_criterion_8(capsys):
    """Symmetric irreducible conjugates classify SinglePoint; diagonal recovered."""

    def body():
        rng = random.Random(108)
        failures = []
        for t in range(100):
            n = rng.randint(3, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i == j:
                        rows[i][j] = rng.randint(-3, 3)
                    else:
                        rows[i][j] = rows[j][i] = rng.choice(
                            [x for x in range(-4, 5) if x]
                        )
            A = matrix(rows)
            d = [
                Fraction(rng.choice([x for x in range(-3, 4) if x]), rng.randint(1, 3))
                for _ in range(n)
            ]
            B = DiagonalCertificate(tuple(d), False).conjugate(A)
            if classify_fiber(B).verdict != SINGLE_POINT:
                failures.append((t, "classified MultiPoint"))
                continue
            cert = recover_diag_from_fiber(A, B)
            if not cert.verifies(A, B):
                failures.append((t, "recovered certificate invalid"))
                continue
            ratios = {div_exact(cert.d[i], d[i]) for i in range(n)}
            if len(ratios) != 1:
                failures.append((t, "not proportional to the planted diagonal"))
        assert not failures, failures[:5]

    announce(capsys, 8, body)


def test_criterion_9(capsys):
    """Stability certificates: Hermitian yes, non-real diagonal no."""

    def rand_hermitian(rng, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-4, 4)
            for j in range(i + 1, n):
                v = gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
                rows[i][j] = v
                rows[j][i] = conj(v)
        return matrix(rows, FIELD_QI)

    def body():
        rng = random.Random(109)
        failures = []

        # Hermitian inputs are always certified
        for t in range(30):
            H = rand_hermitian(rng, rng.randint(2, 6))
            if not stable_certify(H).certified:
                failures.append(("hermitian", t))

        # a non-real diagonal entry always blocks certification
        for t in range(30):
            n = rng.randint(2, 5)
            rows = rand_rows(rng, n, FIELD_QI, -3, 3)
            k = rng.randrange(n)
            rows[k][k] = gaussian(rng.randint(-2, 2), rng.choice([-2, -1, 1, 2]))
            A = matrix(rows, FIELD_QI)
            if stable_certify(A).certified:
                failures.append(("non-real-diagonal", t))
            if hermitian_equivalence(A).solvable:
                failures.append(("non-real-diagonal-scaling", t))

        # conjugating a Hermitian matrix by any complex diagonal stays certified
        for t in range(50):
            n = rng.randint(2, 5)
            H = rand_hermitian(rng, n)
            d = [rand_nonzero(rng, FIELD_QI) for _ in range(n)]
            A = DiagonalCertificate(tuple(d), False).conjugate(H)
            if not stable_certify(A).certified:
                failures.append(("conjugated", t))

        assert not failures, failures[:5]

    announce(capsys, 9, body)
