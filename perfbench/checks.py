"""Output checks for the benchmark, written without pmfiber.

Every check recomputes what it needs with the small exact routines below
(Bareiss over Z and Z[i], Gaussian elimination over Q), so a defect in the
library cannot hide itself.  A check returns None when the output is right
and a short reason when it is not.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Op

# A parsed scalar: (re, im) with Fraction parts.
Pair = Tuple[Fraction, Fraction]

_RAT = r"[+-]?\d+(?:/\d+)?"
_IMAG = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?i$")
_BOTH = re.compile(rf"^({_RAT})([+-])(\d+(?:/\d+)?)?i$")

SAMPLES_PER_OP = 8


def parse_scalar(text: str) -> Pair:
    """The CLI's canonical scalar text ("3", "-1/2", "2-3i", "-i", "1/2i")."""
    s = text.strip()
    if re.fullmatch(_RAT, s):
        return Fraction(s), Fraction(0)
    m = _IMAG.match(s)
    if m:
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return Fraction(0), -mag if m.group(1) == "-" else mag
    m = _BOTH.match(s)
    if m:
        mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        return Fraction(m.group(1)), -mag if m.group(2) == "-" else mag
    raise ValueError(f"not a scalar: {text!r}")


def parse_poly(text: str, n: int) -> Dict[frozenset, Pair]:
    """A multiaffine polynomial in the CLI's text form, keyed by variable sets."""
    out: Dict[frozenset, Pair] = {}
    if text == "0":
        return out
    toks = text.split(" ")
    if len(toks) % 2 != 1:
        raise ValueError("malformed polynomial text")
    terms = [("+", toks[0])] + [(toks[k], toks[k + 1]) for k in range(1, len(toks), 2)]
    for sign, body in terms:
        if sign not in "+-":
            raise ValueError(f"bad term separator {sign!r}")
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        if body.startswith("("):
            close = body.index(")")
            coeff = parse_scalar(body[1:close])
            rest = body[close + 1 :]
            factors = rest[1:].split("*") if rest else []
        else:
            factors = body.split("*")
            if factors[0][0].isdigit():
                coeff = parse_scalar(factors.pop(0))
            else:
                coeff = (Fraction(1), Fraction(0))
        mono = set()
        for f in factors:
            if not f.startswith("x") or "^" in f:
                raise ValueError(f"bad monomial factor {f!r}")
            k = int(f[1:]) - 1
            if not 0 <= k < n or k in mono:
                raise ValueError(f"bad variable {f!r}")
            mono.add(k)
        key = frozenset(mono)
        if key in out:
            raise ValueError("repeated monomial")
        out[key] = coeff if sign == "+" else (-coeff[0], -coeff[1])
    return out


# -- exact elimination ----------------------------------------------------------------


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss over Z."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            a = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * p - a * m[k][j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    nrm = b[0] * b[0] + b[1] * b[1]
    re_, im_ = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    if re_ % nrm or im_ % nrm:
        raise ArithmeticError("inexact Gaussian division in Bareiss")
    return (re_ // nrm, im_ // nrm)


def det_gauss(rows: Sequence[Sequence[Tuple[int, int]]]) -> Tuple[int, int]:
    """Bareiss over Z[i], entries as (re, im) integer pairs."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, (1, 0)
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            swap = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None)
            if swap is None:
                return (0, 0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            a = m[i][k]
            for j in range(k + 1, n):
                x, y = _gmul(m[i][j], p), _gmul(a, m[k][j])
                m[i][j] = _gdiv((x[0] - y[0], x[1] - y[1]), prev)
        prev = p
    if not n:
        return (1, 0)
    last = m[n - 1][n - 1]
    return (sign * last[0], sign * last[1])


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """det over Q: clear each row's denominators, then Bareiss over Z."""
    scale = 1
    ints = []
    for row in rows:
        L = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        scale *= L
        ints.append([int(Fraction(x) * L) for x in row])
    return Fraction(det_int(ints), scale)


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- matrices of an op ------------------------------------------------------------------


def op_matrix(op: Op):
    """Entries as ints / Fractions (Q) or Gaussian integer pairs (Q(i))."""
    parsed = [[parse_scalar(x) for x in row] for row in op.rows]
    if op.field == "Q":
        return [[re_ for re_, _ in row] for row in parsed]
    return [[(int(re_), int(im_)) for re_, im_ in row] for row in parsed]


def _sub(M, rows, cols):
    return [[M[i][j] for j in cols] for i in rows]


def _det_of(M, field: str, rows, cols) -> Pair:
    sub = _sub(M, rows, cols)
    if field == "Q":
        return det_rational(sub), Fraction(0)
    d = det_gauss(sub)
    return Fraction(d[0]), Fraction(d[1])


def _sample_subsets(rng: random.Random, n: int, count: int) -> List[Tuple[int, ...]]:
    picks = [tuple(range(n)), ()]
    while len(picks) < count:
        picks.append(tuple(k for k in range(n) if rng.random() < 0.5))
    return picks


ZERO: Pair = (Fraction(0), Fraction(0))


# -- per-command checks ---------------------------------------------------------------


def check_minors(op: Op, doc: Dict, rng: random.Random) -> Optional[str]:
    table = doc["result"]["minors"]
    n = op.n
    if len(table) != 1 << n:
        return f"expected {1 << n} minors, got {len(table)}"
    M = op_matrix(op)
    for S in _sample_subsets(rng, n, SAMPLES_PER_OP):
        key = ",".join(str(k + 1) for k in S)
        want = _det_of(M, op.field, S, S) if S else (Fraction(1), Fraction(0))
        if parse_scalar(table[key]) != want:
            return f"minor {{{key}}} is {table[key]}, expected {want}"
    return None


def check_detpoly(op: Op, doc: Dict, rng: random.Random) -> Optional[str]:
    n = op.n
    f = parse_poly(doc["polynomials"]["f"], n)
    M = op_matrix(op)
    for S in _sample_subsets(rng, n, SAMPLES_PER_OP):
        comp = [k for k in range(n) if k not in S]
        want = _det_of(M, op.field, comp, comp) if comp else (Fraction(1), Fraction(0))
        if f.get(frozenset(S), ZERO) != want:
            return f"pencil coefficient of x^{list(S)} is wrong"
    return None


def adjugate_coefficient(M, field: str, n: int, i: int, j: int, S: Sequence[int]) -> Pair:
    """Coefficient of prod_{k in S} x_k in adj(diag(x) + A)[i][j].

    adj[i][j] is (-1)^(i+j) times the determinant of diag(x)+A without row j
    and column i.  Taking x_k (k in S) from its diagonal position, which sits
    at row k - [k > j] and column k - [k > i] of that minor, removes row and
    column k with sign (-1)^(row + col); removing one such pair leaves the
    parity of the others unchanged.
    """
    sign = -1 if (i + j) % 2 else 1
    for k in S:
        if ((k - (k > j)) + (k - (k > i))) % 2:
            sign = -sign
    rows = [r for r in range(n) if r != j and r not in S]
    cols = [c for c in range(n) if c != i and c not in S]
    d = _det_of(M, field, rows, cols) if rows else (Fraction(1), Fraction(0))
    return (sign * d[0], sign * d[1])


def check_adjugate(op: Op, doc: Dict, rng: random.Random) -> Optional[str]:
    n = op.n
    grid = doc["polynomials"]["adjugate"]
    if len(grid) != n or any(len(row) != n for row in grid):
        return "adjugate grid has the wrong shape"
    M = op_matrix(op)
    for t in range(SAMPLES_PER_OP):
        i = rng.randrange(n)
        j = i if t == 0 else rng.randrange(n)
        others = [k for k in range(n) if k not in (i, j)]
        S = tuple(k for k in others if rng.random() < 0.5)
        got = parse_poly(grid[i][j], n).get(frozenset(S), ZERO)
        if got != adjugate_coefficient(M, op.field, n, i, j, S):
            return f"adjugate entry ({i + 1},{j + 1}) coefficient of x^{list(S)} is wrong"
    return None


def check_verify(op: Op, doc: Dict, rng: random.Random) -> Optional[str]:
    n = op.n
    if doc["result"].get("all_ok") is not True:
        return "verify reported a failed identity"
    expected = {
        "dodgson": n * (n - 1),
        "resultant": n * (n - 1) * (n - 2),
        "laplace": (1 << n) - 2 if n <= 8 else None,
        "adjugate": 1,
    }
    report = doc["report"]
    for name, count in expected.items():
        slot = report.get(name)
        if slot is None or (count is not None and slot["checks"] != count):
            return f"identity {name}: expected {count} checks, got {slot}"
        if slot["passed"] != slot["checks"]:
            return f"identity {name}: {slot['checks'] - slot['passed']} checks failed"
    return None


# -- classification -------------------------------------------------------------------


def _rational_matrix(doc_matrix: Dict) -> List[List[Fraction]]:
    out = []
    for row in doc_matrix["entries"]:
        vals = [parse_scalar(x) for x in row]
        if any(im for _, im in vals):
            raise ValueError("imaginary entry in a Q witness")
        out.append([re_ for re_, _ in vals])
    return out


def all_minors(M: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    n = len(M)
    out = []
    for mask in range(1 << n):
        S = [k for k in range(n) if mask >> k & 1]
        out.append(det_rational(_sub(M, S, S)) if S else Fraction(1))
    return out


def diagonally_equivalent(A, B) -> bool:
    """Is B = D A D^-1 or D A^T D^-1 for an invertible diagonal D?"""
    n = len(A)
    At = [[A[j][i] for j in range(n)] for i in range(n)]
    return _conjugates(A, B) or _conjugates(At, B)


def _conjugates(A, B) -> bool:
    n = len(A)
    if any(bool(A[i][j]) != bool(B[i][j]) for i in range(n) for j in range(n)):
        return False
    d: List[Optional[Fraction]] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        todo = [root]
        while todo:
            i = todo.pop()
            for j in range(n):
                if d[j] is None and A[i][j]:
                    d[j] = d[i] * Fraction(A[i][j]) / B[i][j]  # B_ij = d_i A_ij / d_j
                    todo.append(j)
                elif d[j] is None and A[j][i]:
                    d[j] = d[i] * Fraction(B[j][i]) / A[j][i]  # B_ji = d_j A_ji / d_i
                    todo.append(j)
    return all(d[i] * A[i][j] == B[i][j] * d[j] for i in range(n) for j in range(n))


def _is_cut(A, X: Sequence[int]) -> bool:
    n = len(A)
    Xc = [k for k in range(n) if k not in X]
    if not 2 <= len(X) <= n - 2:
        return False
    return rank_rational(_sub(A, X, Xc)) <= 1 and rank_rational(_sub(A, Xc, X)) <= 1


def _block_upper_same_diagonal(A, W, order: Sequence[int], sizes: Sequence[int]) -> bool:
    """W is block upper triangular in the planted order, with A's diagonal blocks.

    Principal minors of such a matrix are products of its diagonal blocks'
    principal minors, so this proves that W and A share every minor.
    """
    block_of = []
    for b, s in enumerate(sizes):
        block_of += [b] * s
    n = len(A)
    for u in range(n):
        for v in range(n):
            a, w = A[order[u]][order[v]], W[order[u]][order[v]]
            if block_of[u] > block_of[v] and w:
                return False
            if block_of[u] == block_of[v] and a != w:
                return False
    return True


def _check_witness(op: Op, A, doc: Dict) -> Optional[str]:
    W = _rational_matrix(doc["witness"])
    if len(W) != op.n:
        return "witness has the wrong size"
    meta = op.meta
    shares = (
        op.kind == "reducible"
        and _block_upper_same_diagonal(A, W, meta["order"], meta["sizes"])
    ) or all_minors(W) == all_minors(A)
    if not shares:
        return "witness does not share the input's principal minors"
    if diagonally_equivalent(A, W):
        return "witness is diagonally equivalent to the input"
    return None


def _check_symmetrizer(A, cert: Dict) -> Optional[str]:
    n = len(A)
    e = [parse_scalar(x)[0] for x in cert["e"]]
    if len(e) != n or not all(e):
        return "symmetrizer e must have n nonzero entries"
    if any(e[i] * A[i][j] != e[j] * A[j][i] for i in range(n) for j in range(n)):
        return "e does not satisfy e_i a_ij = e_j a_ji"
    wd = cert.get("witness_d")
    if wd is not None:
        d = [parse_scalar(x)[0] for x in wd["d"]]
        base = [[A[j][i] for j in range(n)] for i in range(n)] if wd["transposed"] else A
        S = [[d[i] * base[i][j] / d[j] for j in range(n)] for i in range(n)]
        if any(S[i][j] != S[j][i] for i in range(n) for j in range(n)):
            return "witness_d does not symmetrize the input"
    return None


EXPECTED_VERDICTS = {
    # planted draws are unfiltered: a symmetrizable draw is a right answer too
    "planted": {("MultiPoint", "HasCutNotSymmetrizable"), ("SinglePoint", "Symmetrizable")},
    "symmetrizable": {("SinglePoint", "Symmetrizable")},
    "nocut": {("SinglePoint", "NoCut")},
    "reducible": {("MultiPoint", "Reducible")},
}


def check_classify(op: Op, doc: Dict, rng: random.Random) -> Optional[str]:
    res = doc["result"]
    verdict = (res["verdict"], res["reason"])
    if verdict not in EXPECTED_VERDICTS[op.kind]:
        return f"verdict {verdict} does not fit a {op.kind} input"
    A = op_matrix(op)
    if res["cut"] is not None and not _is_cut(A, [k - 1 for k in res["cut"]]):
        return f"reported cut {res['cut']} is not a cut"
    if verdict[0] == "MultiPoint":
        if "witness" not in doc:
            return "MultiPoint verdict without a witness"
        return _check_witness(op, A, doc)
    if "witness" in doc:
        return "SinglePoint verdict with a witness"
    if verdict[1] == "Symmetrizable":
        if res["cut"] is None or "certificate" not in doc:
            return "Symmetrizable verdict without its cut and certificate"
        return _check_symmetrizer(A, doc["certificate"])
    return None


CHECKS = {
    "minors": check_minors,
    "detpoly": check_detpoly,
    "adjugate": check_adjugate,
    "verify": check_verify,
    "classify": check_classify,
}

OK, REFUSED, WRONG = "ok", "refused", "wrong"


def check_output(op: Op, code: Optional[int], text: str, seed: int) -> Tuple[str, Optional[str]]:
    """Classify one op's outcome as ok, refused or wrong, with a reason.

    ``code`` is None when cli.main raised instead of returning.  Exit 4 with
    an error document is the CLI's documented "could not verify" answer: the
    op failed, but nothing false was claimed.  Every input is valid and
    within the size caps, so any other non-zero exit is wrong.
    """
    if code is None:
        return WRONG, "cli.main raised"
    try:
        doc = json.loads(text)
    except ValueError:
        return WRONG, "stdout is not one JSON document"
    if not isinstance(doc, dict) or doc.get("command") != op.command:
        return WRONG, "output document names the wrong command"
    if code != 0:
        if code == 4 and isinstance(doc.get("error"), str):
            return REFUSED, doc["error"][:120]
        return WRONG, f"exit {code} on a valid input"
    rng = random.Random(f"pmfiber-bench-check:{seed}:{op.index}")
    try:
        reason = CHECKS[op.command](op, doc, rng)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        reason = f"malformed output ({type(exc).__name__}: {exc})"
    return (OK, None) if reason is None else (WRONG, reason)
