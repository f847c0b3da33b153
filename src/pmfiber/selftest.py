"""Seeded randomized property suites.

Every suite draws matrices from a deterministic generator (the seed fixes
the whole run), exercises one algebraic contract, and reports a failure
count with a few diagnostic messages.  The CLI exposes these through the
selftest subcommand; the test suite reuses the generators directly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .equiv import (
    DiagonalCertificate,
    diagonal_equivalence,
    hermitian_equivalence,
    recover_diag_from_fiber,
    symmetrizability,
)
from .errors import PreconditionError, VerificationError
from .fiber import (
    SINGLE_POINT,
    classify_fiber,
    cut_swap_witness,
    stable_certify,
    swap_factors_degenerate,
)
from .mpoly import rayleigh_difference
from .scalars import FIELD_Q, FIELD_QI, Scalar, conj, div_exact, gaussian
from .structure import is_irreducible, structure_check
from .symdet import (
    SquareMatrix,
    adjugate_table,
    det_poly,
    matrix,
    principal_minors,
    verify_identities,
)

# -- deterministic generators -----------------------------------------------------


def rand_scalar(rng: random.Random, field: str = FIELD_Q, lo: int = -5, hi: int = 5):
    re = rng.randint(lo, hi)
    if field == FIELD_QI:
        return gaussian(re, rng.randint(lo, hi))
    return re


def rand_nonzero_scalar(rng: random.Random, field: str = FIELD_Q, lo: int = -5, hi: int = 5):
    while True:
        x = rand_scalar(rng, field, lo, hi)
        if x:
            return x


def rand_matrix(
    rng: random.Random,
    n: int,
    field: str = FIELD_Q,
    density: float = 1.0,
    lo: int = -5,
    hi: int = 5,
) -> SquareMatrix:
    rows = [
        [
            rand_scalar(rng, field, lo, hi) if rng.random() < density else 0
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return matrix(rows, field)


def rand_full_support(rng: random.Random, n: int, field: str = FIELD_Q) -> SquareMatrix:
    rows = [[rand_nonzero_scalar(rng, field) for _ in range(n)] for _ in range(n)]
    return matrix(rows, field)


def rand_symmetric_irreducible(rng: random.Random, n: int) -> SquareMatrix:
    """Symmetric with every off-diagonal entry nonzero (hence irreducible)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-5, 5)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rand_nonzero_scalar(rng)
    return matrix(rows, FIELD_Q)


def rand_hermitian(rng: random.Random, n: int) -> SquareMatrix:
    rows: List[List[Scalar]] = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-5, 5)
        for j in range(i + 1, n):
            v = rand_nonzero_scalar(rng, FIELD_QI)
            rows[i][j] = v
            rows[j][i] = conj(v)
    return matrix(rows, FIELD_QI)


def rand_diag(rng: random.Random, n: int, field: str = FIELD_Q) -> List[Scalar]:
    return [rand_nonzero_scalar(rng, field, -4, 4) for _ in range(n)]


def planted_cut_instance(rng: random.Random, n: int, max_tries: int = 60):
    """(A, X): irreducible, not symmetrizable, with rank-one blocks across X.

    X takes a random admissible size and placement; the off-diagonal blocks
    are outer products of nonzero vectors, which keeps the support digraph
    strongly connected, and the diagonal blocks are dense.  Draws that are
    symmetrizable are rejected, as are draws on which both factor swaps
    stay diagonally equivalent to the input (see swap_factors_degenerate),
    so they carry no second fiber point reachable by swapping.
    """
    if n < 4:
        raise ValueError("planted cuts need n >= 4")
    for _ in range(max_tries):
        k = rng.randint(2, n - 2)
        perm = list(range(n))
        rng.shuffle(perm)
        X = tuple(sorted(perm[:k]))
        Xc = tuple(sorted(perm[k:]))
        rows = [[0] * n for _ in range(n)]
        for part in (X, Xc):
            for i in part:
                for j in part:
                    rows[i][j] = rand_nonzero_scalar(rng)
        u = [rand_nonzero_scalar(rng) for _ in X]
        v = [rand_nonzero_scalar(rng) for _ in Xc]
        w = [rand_nonzero_scalar(rng) for _ in Xc]
        z = [rand_nonzero_scalar(rng) for _ in X]
        for a, i in enumerate(X):
            for b, j in enumerate(Xc):
                rows[i][j] = u[a] * v[b]
                rows[j][i] = w[b] * z[a]
        A = matrix(rows, FIELD_Q)
        if symmetrizability(A).solvable:
            continue
        if swap_factors_degenerate(A, X):
            continue
        return A, X
    raise RuntimeError("could not plant a non-symmetrizable cut instance")


def planted_block_upper(rng: random.Random, n: int):
    """(A, m): a hidden block upper triangular matrix with m irreducible
    diagonal blocks, relabeled by a random permutation."""
    sizes: List[int] = []
    left = n
    while left > 0:
        if len(sizes) >= 1 and left <= 2:
            sizes.append(left)
            break
        sizes.append(rng.randint(1, max(1, min(3, left - 1))))
        left -= sizes[-1]
    if len(sizes) == 1:
        sizes = [1, n - 1] if n > 1 else [1]
    m = len(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    bounds = []
    for s in sizes:
        bounds.append((start, start + s))
        for i in range(start, start + s):
            for j in range(start, start + s):
                rows[i][j] = rng.randint(-4, 4) if i == j else rand_nonzero_scalar(rng)
        start += s
    for bi in range(m):
        for bj in range(bi + 1, m):
            for i in range(*bounds[bi]):
                for j in range(*bounds[bj]):
                    rows[i][j] = rng.randint(-3, 3)
    perm = list(range(n))
    rng.shuffle(perm)
    base = matrix(rows, FIELD_Q)
    return base.permuted(perm), m


# -- suite plumbing -----------------------------------------------------------------


class SuiteResult(NamedTuple):
    name: str
    trials: int
    failures: int
    messages: List[str]

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _collect(name: str, trials: int, body: Callable[[int], Optional[str]]) -> SuiteResult:
    failures = 0
    messages: List[str] = []
    for t in range(trials):
        msg = body(t)
        if msg is not None:
            failures += 1
            if len(messages) < 5:
                messages.append(f"trial {t}: {msg}")
    return SuiteResult(name, trials, failures, messages)


def _identity_suite(identity: str, lo: int = 2):
    def run(rng: random.Random, n: int, trials: int) -> SuiteResult:
        def body(t: int) -> Optional[str]:
            size = rng.randint(lo, max(lo, min(n, 6)))
            field = FIELD_Q if t % 2 == 0 else FIELD_QI
            A = rand_matrix(rng, size, field, density=0.85)
            report = verify_identities(A, (identity,))
            if report.all_ok:
                return None
            bad = [c for c in report.checks if not c.ok][:3]
            return f"{report.failed} failed checks, e.g. {[c.indices for c in bad]}"

        return _collect(identity, trials, body)

    return run


def _suite_minors_invariance(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(2, max(2, min(n, 6)))
        field = FIELD_Q if t % 2 == 0 else FIELD_QI
        A = rand_full_support(rng, size, field)
        d = rand_diag(rng, size, field)
        pm = principal_minors(A)
        if det_poly(A).minors() != pm:
            return "the minor walk disagrees with per-subset elimination"
        if principal_minors(DiagonalCertificate(tuple(d), False).conjugate(A)) != pm:
            return "conjugation changed a principal minor"
        if principal_minors(A.transpose()) != pm:
            return "transposition changed a principal minor"
        return None

    return _collect("minors_invariance", trials, body)


def _suite_equiv_recovery(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(2, max(2, min(n, 6)))
        field = FIELD_Q if t % 2 == 0 else FIELD_QI
        A = rand_full_support(rng, size, field)
        d = rand_diag(rng, size, field)
        B = DiagonalCertificate(tuple(d), False).conjugate(A)
        cert = diagonal_equivalence(A, B)
        if cert is None:
            return "no certificate found for a planted conjugation"
        if not cert.verifies(A, B):
            return "returned certificate does not verify"
        return None

    return _collect("equiv_recovery", trials, body)


def _suite_irreducibility(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(3, max(3, min(n, 6)))
        A = rand_matrix(rng, size, FIELD_Q, density=0.55)
        irr = is_irreducible(A)
        G = adjugate_table(A)
        all_nonzero = all(any(G.coeffs[i * size + j]) for i in range(size) for j in range(size) if i != j)
        f = det_poly(A).fpoly
        deltas_nonzero = all(
            not rayleigh_difference(f, i, j).is_zero()
            for i in range(size)
            for j in range(i + 1, size)
        )
        if irr != all_nonzero:
            return f"is_irreducible={irr} but adjugate nonzero={all_nonzero}"
        if irr != deltas_nonzero:
            return f"is_irreducible={irr} but Rayleigh differences nonzero={deltas_nonzero}"
        return None

    return _collect("irreducibility", trials, body)


def _suite_structure_planted(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(3, max(3, min(n, 8)))
        A, m = planted_block_upper(rng, size)
        report = structure_check(A)
        if len(report.blocks) != m:
            return f"planted {m} blocks, recovered {len(report.blocks)}"
        if not report.all_ok:
            return "block factor product or irreducibility witness failed"
        return None

    return _collect("structure_planted", trials, body)


def _suite_cut_witness(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(4, max(4, min(n, 6)))
        A, X = planted_cut_instance(rng, size)
        try:
            W = cut_swap_witness(A, X)
        except (PreconditionError, VerificationError) as exc:
            return f"witness construction failed: {exc}"
        if principal_minors(W) != principal_minors(A):
            return "witness has different principal minors"
        if diagonal_equivalence(A, W) is not None:
            return "witness is diagonally equivalent to the input"
        return None

    return _collect("cut_witness", trials, body)


def _suite_symmetric_fiber(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(3, max(3, min(n, 6)))
        A = rand_symmetric_irreducible(rng, size)
        d = rand_diag(rng, size)
        B = DiagonalCertificate(tuple(d), False).conjugate(A)
        if classify_fiber(B).verdict != SINGLE_POINT:
            return "conjugated symmetric matrix classified MultiPoint"
        cert = recover_diag_from_fiber(A, B)
        ratios = {div_exact(cert.d[i], d[i]) for i in range(size)}
        if len(ratios) != 1:
            return "recovered diagonal is not proportional to the planted one"
        return None

    return _collect("symmetric_fiber", trials, body)


def _suite_hermitian_certify(rng: random.Random, n: int, trials: int) -> SuiteResult:
    def body(t: int) -> Optional[str]:
        size = rng.randint(2, max(2, min(n, 6)))
        H = rand_hermitian(rng, size)
        d = rand_diag(rng, size, FIELD_QI)
        A = DiagonalCertificate(tuple(d), False).conjugate(H)
        if not stable_certify(A).certified:
            return "conjugated Hermitian matrix not certified"
        if hermitian_equivalence(A).verdict == "NotSymmetrizable":
            return "conjugated Hermitian matrix reported unscalable"
        rows = A.rows_list()
        rows[0][0] = gaussian(0, 1) + rows[0][0]
        spoiled = matrix(rows, FIELD_QI)
        if stable_certify(spoiled).certified:
            return "non-real diagonal certified"
        return None

    return _collect("hermitian_certify", trials, body)


SUITES: Dict[str, Callable[[random.Random, int, int], SuiteResult]] = {
    "dodgson": _identity_suite("dodgson"),
    "resultant": _identity_suite("resultant", lo=3),
    "laplace": _identity_suite("laplace"),
    "adjugate": _identity_suite("adjugate"),
    "minors_invariance": _suite_minors_invariance,
    "equiv_recovery": _suite_equiv_recovery,
    "irreducibility": _suite_irreducibility,
    "structure_planted": _suite_structure_planted,
    "cut_witness": _suite_cut_witness,
    "symmetric_fiber": _suite_symmetric_fiber,
    "hermitian_certify": _suite_hermitian_certify,
}


def run_selftest(
    n: int = 5,
    trials: int = 25,
    seed: int = 0,
    suites: Optional[Sequence[str]] = None,
) -> List[SuiteResult]:
    """Run the named suites (all by default), each on its own derived seed;
    PreconditionError unless ``n`` and ``trials`` are at least 1."""
    if n < 1 or trials < 1:
        raise PreconditionError(f"selftest needs n >= 1 and trials >= 1, got n = {n}, trials = {trials}")
    names = list(SUITES) if suites is None else list(suites)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        results.append(SUITES[name](rng, n, trials))
    return results
