"""Square matrices, principal minor vectors, and symbolic adjugate tables.

The central objects: for an n x n matrix A over Q or Q(i),

* the principal minor vector assigns to every subset S of {1..n} the minor
  det(A[S,S]), with the empty set mapping to 1;
* the determinantal pencil f(x1..xn) = det(diag(x) + A), a multiaffine
  polynomial whose coefficient on prod_{k in S} x_k is the minor of the
  complement of S;
* the adjugate table G with G * (diag(x) + A) = f * I, every entry an exact
  polynomial whose coefficients are signed almost-principal minors
  det(A[T+i, T+j]).

The pencil, the principal minors read off its coefficients (what ``pmfiber
minors`` prints) and the adjugate table come from one minor engine: a
depth-first walk over subsets that carries the bordered minors
det(A[T+i, T+j]) and updates them by Sylvester's identity with exact
(Bareiss) division, the exact form of the Schur-complement recursion of
Griffin and Tsatsomeros.  Each subset's minor is read at its parent, so
the partial walk behind the pencil stacks only the subsets with a
descendant, and the CLI prints the minors and the pencil's text from
them in canonical order with no sort.  The walk reaches the subsets of
each size in ascending order of their exponents, so the adjugate table
takes its coefficients in order, by appends.  Single determinants, and the per-subset
reference ``principal_minors``, come from one in-place fraction-free
(Bareiss) loop over a square matrix, ``det_fraction_free``; exact ranks
(``rank_exact``) from the walk's own elimination, ``_eliminate``, which
pivots until no nonzero entry is left.  The walk, a minor vector
(``PMVector``) and the pencil's exponents share one index, the subset mask,
and one ``mpoly.subset_table`` per n.  The adjugate table
(``AdjugateTable``) keeps each entry (i, j) only as one tuple of
coefficients on the monomials free of x_i and x_j, in descending grlex
order (``mpoly.free_monomials``), the order in which ``mpoly.ranked_texts``
writes them, so ``pmfiber adjugate`` prints it with no polynomial built;
``AdjugateTable.entry`` builds one entry.

The Laplace check of ``verify_identities`` reads its non-principal block
minors det A[R, C], which the walk does not carry, from a cofactor table
local to the call: built by row count, each minor expanded along the first
row of R from the layer below, keyed by row mask and then column mask.

``det_fraction_free``, the walk and the expansion all read the rows
``scalars._int_parts`` clears (each row times the lcm of its denominators,
as ``int`` lists) and run in Z, or in Z[i] on pairs of int parts with the
conjugate-and-norm quotient on Q(i) input; ``scalars._scaled`` divides each
value they return by its rows' scales, so all are exact over every
supported field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import prod
from operator import itemgetter, neg
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import SizeLimitError, VerificationError
from .mpoly import (
    FreeMonomials,
    MPoly,
    Packed,
    _rayleigh_pairs,
    _resultant_pairs,
    free_monomials,
    pack,
    pack_ranked,
    packed_product_terms,
    subset_table,
)
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    FIELDS,
    GaussianRational,
    Scalar,
    _int_parts,
    _IntParts,
    _scaled,
    conj,
    is_rational,
    normalize_scalar,
    scalar_format,
)

# The largest n each size-limited entry point accepts; the work grows like
# 2^n (minors, cuts; a block's pencil, with n its size) or n^2 2^n
# (adjugate table, identities).  This table is the one place a cap is written.
SIZE_LIMITS: Mapping[str, int] = MappingProxyType({
    "principal_minors": 16,
    "det_poly": 16,
    "adjugate_table": 12,
    "matrix_from_adjugate": 12,
    "verify_identities": 10,
    "find_cuts": 16,
    "block_det_poly": 12,
})


def check_size(name: str, n: int) -> None:
    """Raise SizeLimitError when n exceeds the cap SIZE_LIMITS gives ``name``."""
    cap = SIZE_LIMITS[name]
    if n > cap:
        raise SizeLimitError(f"{name} limited to n <= {cap}, got n = {n}")


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable n x n matrix with a declared coefficient field."""

    entries: Tuple[Tuple[Scalar, ...], ...]
    field: str

    @property
    def n(self) -> int:
        return len(self.entries)

    def rows_list(self) -> List[List[Scalar]]:
        return [list(r) for r in self.entries]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> List[List[Scalar]]:
        return [[self.entries[i][j] for j in cols] for i in rows]

    def block(self, indices: Sequence[int]) -> "SquareMatrix":
        idx = list(indices)
        return SquareMatrix(
            tuple(tuple(self.entries[i][j] for j in idx) for i in idx), self.field
        )

    def transpose(self) -> "SquareMatrix":
        n = self.n
        return SquareMatrix(
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)),
            self.field,
        )

    def permuted(self, order: Sequence[int]) -> "SquareMatrix":
        """Conjugate by the permutation: entry (u,v) comes from (order[u], order[v])."""
        return SquareMatrix(
            tuple(tuple(self.entries[u][v] for v in order) for u in order), self.field
        )

    def is_symmetric(self) -> bool:
        n = self.n
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def is_hermitian(self) -> bool:
        n = self.n
        return all(
            self.entries[i][j] == conj(self.entries[j][i])
            for i in range(n)
            for j in range(i, n)
        )

    def to_strings(self) -> List[List[str]]:
        return [[scalar_format(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "\n".join("  ".join(scalar_format(x) for x in row) for row in self.entries)


def matrix(rows: Sequence[Sequence[Scalar]], field: Optional[str] = None) -> SquareMatrix:
    """Build a SquareMatrix from nested sequences, inferring the field if omitted."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    for row in rows:
        for x in row:
            if type(x) not in (int, Fraction, GaussianRational):
                raise ValueError(
                    "matrix entries must be int, Fraction or GaussianRational, "
                    f"got {type(x).__name__}"
                )
    entries = tuple(tuple(normalize_scalar(x) for x in row) for row in rows)
    has_imag = any(not is_rational(x) for row in entries for x in row)
    if field is None:
        field = FIELD_QI if has_imag else FIELD_Q
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}")
    if field == FIELD_Q and has_imag:
        raise ValueError("imaginary entries in a matrix declared over Q")
    return SquareMatrix(entries, field)


def identity_matrix(n: int, field: str = FIELD_Q) -> SquareMatrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], field)


# -- exact elimination ----------------------------------------------------------


def det_fraction_free(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square matrix by one in-place fraction-free (Bareiss)
    loop on the rows ``_int_parts`` clears; ValueError unless they are square.

    Column k pivots on the first row from k down with a nonzero entry,
    swapped up, or the determinant is 0.  Each entry below and right of the
    pivots on 0..k is then a minor on their rows and columns plus its own,
    so dividing it by the previous pivot q is exact: floor division in Z, or
    in Z[i] the product with conj(q) floor-divided by |q|^2 (by q when q is
    real).  The determinant is the last pivot times the sign of the row
    swaps, over the product of the row scales.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("det_fraction_free needs a square matrix")
    R, I, scales = _int_parts(rows)
    sign, qr, qi = 1, 1, 0
    for k in range(n):
        r = k
        while not (R[r][k] or I and I[r][k]):
            r += 1
            if r == n:
                return 0
        if r != k:
            R[k], R[r] = R[r], R[k]
            if I:
                I[k], I[r] = I[r], I[k]
            sign = -sign
        Rk = R[k]
        pr = Rk[k]
        if I is None:
            for Rr in R[k + 1 :]:
                lr = Rr[k]
                for j in range(k + 1, n):
                    Rr[j] = (Rr[j] * pr - lr * Rk[j]) // qr
            qr = pr
            continue
        Ik = I[k]
        pi = Ik[k]
        # (x p - l k) / q = (x P - k L) / d with P = p conj(q), L = l conj(q)
        # and d = |q|^2, or P = p, L = l and d = q when q is real.
        Pr, Pi, d = (pr * qr + pi * qi, pi * qr - pr * qi, qr * qr + qi * qi) if qi else (pr, pi, qr)
        for r in range(k + 1, n):
            Rr, Ir = R[r], I[r]
            lr, li = Rr[k], Ir[k]
            Lr, Li = (lr * qr + li * qi, li * qr - lr * qi) if qi else (lr, li)
            for j in range(k + 1, n):
                xr = Rr[j]
                xi = Ir[j]
                kr = Rk[j]
                ki = Ik[j]
                Rr[j] = (xr * Pr - xi * Pi - kr * Lr + ki * Li) // d
                Ir[j] = (xr * Pi + xi * Pr - kr * Li - ki * Lr) // d
        qr, qi = pr, pi
    return _scaled(sign * qr, sign * qi, prod(scales))


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a rectangular matrix, by the minor walk's ``_eliminate``: the
    cleared rows padded with zeros to a k x k square (which keeps the rank)
    have rank k - m, m the size of the block left when no nonzero entry
    remains to pivot on.  ValueError on rows of unequal length."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("rank_exact needs rows of equal length")
    R, I, _ = _int_parts(rows)
    ncols = len(R[0]) if R else 0
    k = max(len(R), ncols)
    W = tuple(
        None if P is None else [row + [0] * (k - ncols) for row in P] + [[0] * k for _ in range(k - len(P))]
        for P in (R, I)
    )
    return k - _eliminate(W, k, 1 if I is None else (1, 0), 1)[1]


# -- principal minors and the determinantal pencil -------------------------------


@dataclass(frozen=True)
class PMVector:
    """All 2^n principal minors of an n x n matrix: ``by_mask[mask]`` is
    det A[S] for the 0-based subset S of the k with bit k of ``mask`` set."""

    n: int
    by_mask: Tuple[Scalar, ...]

    @property
    def values(self) -> Mapping[FrozenSet[int], Scalar]:
        """The minors keyed by subset, read-only."""
        subsets = (frozenset(compress(range(self.n), e)) for e in subset_table(self.n).exps)
        return MappingProxyType(dict(zip(subsets, self.by_mask)))

    def value(self, subset: Iterable[int]) -> Scalar:
        """det A[S], repeats allowed; KeyError for an index outside 0..n-1."""
        S = set(subset)
        if not S.issubset(range(self.n)):
            raise KeyError(f"subset {sorted(S)} not within 0..{self.n - 1}")
        return self.by_mask[sum(1 << k for k in S)]


@dataclass(frozen=True)
class DeterminantalPencil:
    """The pair (A, f) with f = det(diag(x1..xn) + A)."""

    base: SquareMatrix
    fpoly: MPoly

    def minors(self) -> PMVector:
        """The principal minors read off f: det A[S] is the coefficient on
        prod_{k not in S} x_k (0 where f has none), whose exponent is that of
        the complement mask: the ``subset_table`` exponents in reverse."""
        n, get = self.base.n, self.fpoly.terms.get
        return PMVector(n, tuple(map(get, reversed(subset_table(n).exps), repeat(0))))


@dataclass(frozen=True)
class AdjugateTable:
    """Adjugate G of diag(x) + A, with G*(diag(x)+A) = f*I, stored over the
    monomials each entry can hold: entry (i, j) is a minor of diag(x) + A
    with row j and column i deleted, so it is free of x_i and x_j.
    ``coeffs[i * n + j]`` lists its coefficients on the monomials free of
    x_i and x_j (of x_i alone when i == j) in descending grlex order,
    ``free_monomials(n, i, j)``, 0 where it has no such term: 2^(n-2)
    coefficients off the diagonal and 2^(n-1) on it.  That is the table's
    one form, which equality and hashing read: ``entry`` builds one entry as
    a polynomial, ``of_entries`` a table from polynomials."""

    n: int
    coeffs: Tuple[Tuple[Scalar, ...], ...]

    @classmethod
    def of_entries(cls, n: int, grid: Sequence[Sequence[MPoly]]) -> "AdjugateTable":
        """The table whose entries are the n x n grid of polynomials in n
        variables ``grid``; ValueError on any other shape or variable count,
        on an entry with an exponent above 1, or on an entry (i, j) with a
        term in x_i or x_j, which this form cannot hold and which no
        adjugate has."""
        polys = list(chain.from_iterable(grid))
        if len(grid) != n or any(len(row) != n for row in grid) or any(p.n != n for p in polys):
            raise ValueError(f"an adjugate table needs an {n} x {n} grid of polynomials in {n} variables")
        coeffs = []
        for (i, j), p in zip(((i, j) for i in range(n) for j in range(n)), polys):
            for exp in p.terms:
                if max(exp) > 1:
                    raise ValueError(f"adjugate entry {p} is not squarefree")
                if exp[i] or exp[j]:
                    raise ValueError(f"adjugate entry ({i + 1}, {j + 1}) has a term in x{i + 1} or x{j + 1}: {p}")
            coeffs.append(tuple(map(p.terms.get, free_monomials(n, i, j).exps, repeat(0))))
        return cls(n, tuple(coeffs))

    def entry(self, i: int, j: int) -> MPoly:
        """Entry (i, j) as a polynomial, built on each call; i and j index as in a sequence."""
        rows = range(self.n)
        i, j = rows[i], rows[j]  # IndexError on an index outside the table, not another entry
        terms = zip(free_monomials(self.n, i, j).exps, self.coeffs[i * self.n + j])
        return MPoly._raw(self.n, {exp: c for exp, c in terms if c})

    def monomials(self) -> List[FreeMonomials]:
        """Each entry's ``free_monomials``, in the order of ``coeffs``."""
        n = self.n
        return [free_monomials(n, i, j) for i in range(n) for j in range(n)]


def _minor_walk(
    A: SquareMatrix, full: bool
) -> Iterator[Tuple[int, Scalar, List[int], Optional[List[List[Scalar]]]]]:
    """Depth-first walk over every subset T of 0..n-1, each reached once.

    Yields ``(mask, det A[T], R, M)`` per subset, ``mask`` having bit k set
    for k in T.  With ``full`` R holds every index outside T and M is one
    iterable, to be read once before the next yield, of -det A[T+R[a],
    T+R[b]] for a, then b, in range(|R|) (T's rows and columns first in
    increasing order, row R[a] and column R[b] last; the sign is the
    adjugate's, see ``adjugate_table``); otherwise R holds the indices
    above max(T), all that T's descendants need, and M is None.  Each
    subset's minor is read at its parent: the partial walk yields every
    child there and stacks only those with a nonempty R, so a leaf (half of
    all subsets) costs no Sylvester step or stack entry; the full walk
    yields a node with its M when popped.

    The children of T are T+k for k above max(T), stacked in ascending k,
    so they are popped in descending k, each subtree before the next
    child: the full walk yields two subsets of one size in descending lex
    order of their sorted index lists.  That is ascending order of their
    exponent tuples: where the lists first differ, the one yielded later
    holds the smaller index, which is the first variable on which the
    exponent tuples differ, and the other set lacks it.  ``adjugate_table``
    reads the coefficients in that order.

    Each node carries a Bareiss elimination of A on T and R: pivot rows I
    and columns J from T, rows U = T - I and columns V = T - J without a
    pivot (|U| = |V| is the rank deficiency of A[T]), ``W[x][y] =
    det A[I+x, J+y]`` for x in U then R and y in V then R, p = det A[I, J],
    and s the sign of listing T as I then U times that of J then V.  A
    child T+k appends k to U and V and pivots on that block while it has a
    nonzero entry: since W vanishes on U x V, at most two exact steps of
    Sylvester's identity W'(x, y) = (W(u, v) W(x, y) - W(x, v) W(u, y)) / p
    (``_pivot``, inline in Z with no deficiency).  So a node costs
    O(|R|^2) however many of its ancestors have a zero determinant; while
    none has, U and V stay empty and the step is the Schur-complement
    recursion of Griffin and Tsatsomeros with pivot (k, k).

    The walk runs on the rows ``_int_parts`` clears: in Z with W = (real
    parts, None) and p an int, or in Z[i] with W = (real parts, imaginary
    parts) and p a pair of ints.  Each minor is divided by the scales of
    its rows, and a scalar is built only for the values yielded.
    """
    Wr, Wi, scales = _int_parts(A.entries)
    if all(c == 1 for c in scales):
        scales = None  # nothing to divide: every node's scale stays 1
    R = list(range(A.n))
    # (mask, max(T), R, W real, W imaginary or None, |U|, p, s, scale of T's rows, det A[T])
    stack = [(0, -1, R, Wr, Wi, 0, 1 if Wi is None else (1, 0), 1, 1, 1)]
    if not full:
        yield 0, 1, R, None
    while stack:
        mask, last, R, Wr, Wi, m, p, s, scale, d = stack.pop()
        if full:
            yield mask, d, R, _bordered((Wr, Wi), m, p, s, scales and [scale * scales[r] for r in R])
        inline = Wi is None and not m
        for a, k in enumerate(R):
            if k <= last:
                continue
            child_mask = mask | 1 << k
            child_R = R[:a] + R[a + 1 :] if full else R[a + 1 :]
            keep = [b for b in range(len(R)) if b != a] if full else range(a + 1, len(R))
            child_scale = scale * scales[k] if scales else 1
            q, push = Wr[a][a], full or child_R
            if inline and q:  # in Z with no deficiency: ``_pivot`` on (a, a)
                cd = s * q if child_scale == 1 else _scaled(s * q, 0, child_scale)
                if push:
                    Wa, rows = Wr[a], [Wr[x] for x in keep] if full else Wr[a + 1 :]
                    cW = [[(q * Wx[y] - Wx[a] * Wa[y]) // p for y in keep] for Wx in rows]
                    stack.append((child_mask, k, child_R, cW, None, 0, q, s, child_scale, cd))
            elif Wi is not None and not m and (q or Wi[a][a]):
                q = q, Wi[a][a]
                cd = _scaled(s * q[0], s * q[1], child_scale)
                if push:
                    cW = _pivot((Wr, Wi), a, a, keep, keep, p)
                    stack.append((child_mask, k, child_R, *cW, 0, q, s, child_scale, cd))
            else:
                at = list(range(m)) + [m + a] + [m + b for b in keep]
                W_at = tuple(None if P is None else [[P[x][y] for y in at] for x in at] for P in (Wr, Wi))
                cW, cm, q, cs = _eliminate(W_at, m + 1, p, s)
                cd = _node_minor(cm, q, cs, child_scale)
                if push:
                    stack.append((child_mask, k, child_R, *cW, cm, q, cs, child_scale, cd))
            if not full:
                yield child_mask, cd, child_R, None


def _node_minor(m: int, p, s: int, scale: int) -> Scalar:
    """det A[T] at a walk node: 0 with a rank deficiency m, else s p over T's row scale."""
    if m:
        return 0
    if type(p) is int:
        return s * p if scale == 1 else _scaled(s * p, 0, scale)
    return _scaled(s * p[0], s * p[1], scale)


def _pivot(W, u: int, v: int, rows: Sequence[int], cols: Sequence[int], p):
    """One exact Sylvester step on the walk's ``W = (real parts, imaginary
    parts or None)``: (W(u, v) W(x, y) - W(x, v) W(u, y)) / p for x in
    ``rows`` and y in ``cols``, which hold neither u nor v.  In Z the quotient is
    floor division; in Z[i] it is the product with conj(p) floor-divided,
    part by part, by |p|^2, or by p itself when p is real, as in
    ``det_fraction_free``.  ``_minor_walk`` takes the step in Z with u = v
    and no rank deficiency as an inline copy of the Z comprehension here."""
    Wr, Wi = W
    if Wi is None:
        Wu, q = Wr[u], Wr[u][v]
        return [[(q * Wx[y] - Wx[v] * Wu[y]) // p for y in cols] for Wx in [Wr[x] for x in rows]], None
    pr, pi = p
    qr, qi = Wr[u][v], Wi[u][v]
    # (x q - l k) / p = (x Q - k L) / d with Q = q conj(p), L = l conj(p)
    # and d = |p|^2, or Q = q, L = l and d = p when p is real.
    Qr, Qi, d = (qr * pr + qi * pi, qi * pr - qr * pi, pr * pr + pi * pi) if pi else (qr, qi, pr)
    Kr, Ki = Wr[u], Wi[u]
    outr, outi = [], []
    for x in rows:
        Xr, Xi = Wr[x], Wi[x]
        lr, li = Xr[v], Xi[v]
        Lr, Li = (lr * pr + li * pi, li * pr - lr * pi) if pi else (lr, li)
        outr.append([(Xr[y] * Qr - Xi[y] * Qi - Kr[y] * Lr + Ki[y] * Li) // d for y in cols])
        outi.append([(Xr[y] * Qi + Xi[y] * Qr - Kr[y] * Li - Ki[y] * Lr) // d for y in cols])
    return outr, outi


def _eliminate(W, m: int, p, s: int):
    """Pivot on nonzero entries of W's leading m x m block while there are
    any, dropping each pivot's row and column: ``(W, m, p, s)`` after.  A
    pivot's row and column move from place u of U and v of V to the end of
    I and J, which multiplies s by (-1)^(u+v)."""
    while True:
        Wr, Wi = W
        found = next(((u, v) for u in range(m) for v in range(m) if Wr[u][v] or Wi and Wi[u][v]), None)
        if found is None:
            return W, m, p, s
        u, v = found
        pivot = Wr[u][v] if Wi is None else (Wr[u][v], Wi[u][v])
        rest = range(len(Wr))
        W = _pivot(W, u, v, [x for x in rest if x != u], [y for y in rest if y != v], p)
        m, p, s = m - 1, pivot, s * (-1) ** (u + v)


def _bordered(W, m: int, p, s: int, scales: Optional[List[int]]) -> Iterable[Scalar]:
    """-det A[T+i, T+j] for i, j in R, row by row as one flat iterable:
    -s W(i, j) with no deficiency (in Z with row scales 1, a lazy negation
    of W's rows, or the rows themselves); with one row u and column v left
    (W(u, v) = 0) Sylvester's identity gives det A[T+i, T+j] = -s W(u, j)
    W(i, v) / p, s times the ``_pivot`` step on (u, v); with more,
    A[T+i, T+j] is singular.  Row i is divided by ``scales[i]``, the scale
    of the cleared rows T+i, unless ``scales`` is None (every row scale is
    1)."""
    Wr, Wi = W
    size = len(Wr) - m
    if m >= 2:
        return repeat(0, size * size)
    if m == 1:
        rest = range(1, len(Wr))
        Wr, Wi = _pivot(W, 0, 0, rest, rest, p)
    t = -s
    if scales is None:
        if Wi is None:
            values = chain.from_iterable(Wr)
            return values if t == 1 else map(neg, values)
        make = GaussianRational._make
        return [make(t * x, t * y) for Xr, Xi in zip(Wr, Wi) for x, y in zip(Xr, Xi)]
    if Wi is None:
        Wi = [[0] * size] * size
    return [_scaled(t * x, t * y, c) for Xr, Xi, c in zip(Wr, Wi, scales) for x, y in zip(Xr, Xi)]


def principal_minors(A: SquareMatrix) -> PMVector:
    """Every principal minor, one fraction-free elimination per subset: the
    reference for ``det_poly(A).minors()``, which reads them off one walk of
    the minor engine and is what ``pmfiber minors`` prints."""
    n = A.n
    check_size("principal_minors", n)
    subsets = [list(compress(range(n), e)) for e in subset_table(n).exps]
    return PMVector(n, tuple(det_fraction_free(A.submatrix(S, S)) for S in subsets))


def det_poly(A: SquareMatrix) -> DeterminantalPencil:
    """f(x) = det(diag(x) + A); coefficient on prod_{k in S} x_k is the minor
    of the complement of S."""
    n = A.n
    check_size("det_poly", n)
    exps = subset_table(n).exps[::-1]  # by the complement mask
    terms = {exps[mask]: d for mask, d, _, _ in _minor_walk(A, full=False) if d}
    return DeterminantalPencil(A, MPoly._raw(n, terms))


def adjugate_table(A: SquareMatrix) -> AdjugateTable:
    """Adjugate of M = diag(x) + A, read off one full walk of the minor engine.

    The coefficient of prod_{k in S} x_k in entry (i,j) is entry (i,j) of
    adj(A[U,U]) for U the complement of S.  With T = U - {i,j} that is
    det A[T] when i == j, and -det A[T+i, T+j] when i != j, for the bordered
    minor with T's rows and columns first: the cofactor sign of (i,j) in U
    and the signs of moving row i and column j from last place to their
    places in U multiply to -1.  The walk yields these coefficients as M.

    Every coefficient is appended to a list, with no index.  Entry (i, j)
    holds the monomials x^S for S within V, the indices other than i and j
    (other than i when i == j), its coefficient on x^S coming from the node
    T = V - S.  ``_minor_walk`` yields the subsets of one size in ascending
    order of their exponents, which complementing within V reverses: the
    coefficients from the nodes with |R| = r, appended to
    ``grids[r][i][j]``, are one degree of S in descending lex order, and
    those lists joined by |T| ascending are in the order of
    ``free_monomials(n, i, j)``.  At each node ``itemgetter(*R)`` picks the
    lists (i, j) for i and j in R, in M's order, and the diagonal
    lists (i, i) for det A[T], with no Python loop over either.  M's
    diagonal, -det A[T+i], is a coefficient on a monomial holding x_i,
    which no entry has: it goes to one shared list, emptied at every node.
    """
    n = A.n
    check_size("adjugate_table", n)
    spill: List[Scalar] = []
    # grids[r][i][j]: entry (i, j)'s coefficients from the subsets T with |R| = r
    grids = [[[spill if i == j else [] for j in range(n)] for i in range(n)] for _ in range(n + 1)]
    diagonals = [[[] for _ in range(n)] for _ in range(n + 1)]
    append = list.append
    for _, d, R, M in _minor_walk(A, full=True):
        if len(R) > 1:  # with one index ``itemgetter`` returns the item itself
            pick = itemgetter(*R)
            # list.append returns None, so ``any`` runs it on every pair
            any(map(append, chain.from_iterable(map(pick, pick(grids[len(R)]))), M))
            any(map(append, pick(diagonals[len(R)]), repeat(d)))
            spill.clear()
        elif R:
            diagonals[1][R[0]].append(d)
    for grid, diagonal in zip(grids, diagonals):
        for i, entry in enumerate(diagonal):
            grid[i][i] = entry
    grids.reverse()  # by |T| ascending
    return AdjugateTable(n, tuple(
        tuple(chain.from_iterable(grid[i][j] for grid in grids)) for i in range(n) for j in range(n)
    ))


def adjugate_pencil_product_ok(G: AdjugateTable, pencil: DeterminantalPencil) -> bool:
    """Exact check of G * (diag(x) + A) == f * I, each entry (i, j) as one
    signed sum of products that must vanish:
    sum_k G_ik * (A_kj + [k == j] x_j) - [i == j] f."""
    return _adjugate_sums_vanish(*_packed_operands(G, pencil))


def _packed_operands(
    G: AdjugateTable, pencil: DeterminantalPencil
) -> Tuple[Packed, List[List[Packed]], List[List[Packed]], Packed]:
    """f, the entries of G, those of diag(x) + A and the constant 1, each
    packed once, all with one field width: G's straight from its
    coefficients on each entry's free monomials (``pack_ranked``), the
    width being f's, which bounds the exponent sum of every product of
    these operands."""
    A, f = pencil.base, pencil.fpoly
    n = A.n
    M = [[MPoly.const(n, a) for a in row] for row in A.entries]
    for j in range(n):
        M[j][j] = M[j][j] + MPoly.var(n, j)
    packed = iter(pack([f, MPoly.const(n, 1)] + list(chain(*M))))
    pf, one = next(packed), next(packed)
    pM = [[next(packed) for _ in range(n)] for _ in range(n)]
    pG = iter(pack_ranked(G.coeffs, [m.pick for m in G.monomials()], n, pf.width))
    return pf, [[next(pG) for _ in range(n)] for _ in range(n)], pM, one


def _adjugate_sums_vanish(
    f: Packed, G: List[List[Packed]], M: List[List[Packed]], one: Packed
) -> bool:
    """``adjugate_pencil_product_ok`` on packed operands: M is diag(x) + A."""
    n = len(G)
    return all(
        not packed_product_terms(
            n, [(1, G[i][k], M[k][j]) for k in range(n)] + ([(-1, f, one)] if i == j else [])
        )
        for i in range(n)
        for j in range(n)
    )


def matrix_from_adjugate(H: AdjugateTable, f: MPoly, field: Optional[str] = None) -> SquareMatrix:
    """Recover B with adj(diag(x) + B) = H and det(diag(x) + B) = f.

    B_ii is the coefficient of prod_{k != i} x_k in f; off-diagonal B_ij is
    minus the coefficient of prod_{k not in {i,j}} x_k in H_ij, the first
    of its coefficients.  The result is verified by recomputing its
    adjugate table and determinantal pencil.
    """
    n = H.n
    check_size("matrix_from_adjugate", n)
    if f.n != n:
        raise ValueError("pencil polynomial has wrong variable count")
    subsets, full = subset_table(n), (1 << n) - 1
    rows = [
        [f.terms.get(subsets.exps[full ^ 1 << i], 0) if i == j else -H.coeffs[i * n + j][0] for j in range(n)]
        for i in range(n)
    ]
    B = matrix(rows, field)
    if adjugate_table(B) != H:
        raise VerificationError("recovered matrix does not reproduce the adjugate table")
    if det_poly(B).fpoly != f:
        raise VerificationError("recovered matrix does not reproduce the pencil determinant")
    return B


# -- generalized Laplace expansion ---------------------------------------------


def _laplace_sum(rows: _IntParts, srows: Tuple[int, ...], minors: Dict[int, dict]) -> Scalar:
    """det(A) by the generalized Laplace expansion along a sorted proper row
    subset S: the sum over |T| = |S| of sgn(S, T) det A[S, T] det A[S^c, T^c],
    on the rows ``_int_parts`` clears.  Every det A[R, C] comes from the
    cofactor table ``minors`` (see ``_cofactor_layer``), so expansions
    sharing it compute each minor once: the upper blocks of S are the lower
    blocks of its complement.  The sign of the term for the columns T is
    (-1)^(sum S + sum T), whose parity is that of the odd indices in S and
    T.  Each term is a product of minors of cleared rows, S's and the rest,
    so the sum is det(A) times the product of all row scales, divided out
    once at the end."""
    R, I, scales = rows
    scale = prod(scales)
    n = len(R)
    full = (1 << n) - 1
    odd = sum(1 << k for k in range(1, n, 2))
    smask = sum(1 << r for r in srows)
    upper = _cofactor_layer(rows, srows, minors)
    lower = _cofactor_layer(rows, [r for r in range(n) if not smask >> r & 1], minors)
    parity = (smask & odd).bit_count()
    if I is None:
        total = 0
        for T, u in upper.items():
            low = lower.get(full ^ T)
            if low:
                total += -u * low if (parity + (T & odd).bit_count()) & 1 else u * low
        return _scaled(total, 0, scale)
    tr = ti = 0
    for T, (ur, ui) in upper.items():
        low = lower.get(full ^ T)
        if low:
            lr, li = low
            sign = -1 if (parity + (T & odd).bit_count()) & 1 else 1
            tr += sign * (ur * lr - ui * li)
            ti += sign * (ur * li + ui * lr)
    return _scaled(tr, ti, scale)


def _cofactor_layer(rows: _IntParts, rowlist: Sequence[int], minors: Dict[int, dict]) -> dict:
    """det A'[R, C] for the sorted row list R = ``rowlist`` and every column
    set C of its size, as {column mask: minor}, A' being A with each row's
    denominators cleared (``_int_parts``): an ``int``, or a pair of ints
    (real, imaginary) over Z[i].  A zero minor may be absent.

    ``minors`` is the cofactor table: row mask -> such a layer.  The layers
    are built iteratively by row count along the suffixes of ``rowlist``,
    each from the layer below by expansion along its first row r:
    det A'[R, C] = sum over c in C of (-1)^(place of c in C) A'[r, c]
    det A'[R - r, C - c], pushed from every nonzero minor below into the
    masks one column larger.  A layer already in the table is not rebuilt.
    """
    R, I, _ = rows
    n = len(R)
    layer = minors.setdefault(0, {0: 1 if I is None else (1, 0)})
    mask = 0
    for r in reversed(rowlist):
        below = layer
        mask |= 1 << r
        layer = minors.get(mask)
        if layer is not None:
            continue
        layer = minors[mask] = {}
        get = layer.get
        row = R[r]
        if I is None:
            for C, d in below.items():
                if not d:
                    continue
                odd = False
                for c in range(n):
                    if C >> c & 1:
                        odd = not odd
                    elif row[c]:
                        key = C | 1 << c
                        layer[key] = get(key, 0) + (-row[c] * d if odd else row[c] * d)
            continue
        irow = I[r]
        for C, (dr, di) in below.items():
            if not (dr or di):
                continue
            odd = False
            for c in range(n):
                if C >> c & 1:
                    odd = not odd
                elif row[c] or irow[c]:
                    ar, ai = (-row[c], -irow[c]) if odd else (row[c], irow[c])
                    key = C | 1 << c
                    acc = get(key)
                    if acc is None:
                        layer[key] = [ar * dr - ai * di, ar * di + ai * dr]
                    else:
                        acc[0] += ar * dr - ai * di
                        acc[1] += ar * di + ai * dr
    return layer


# -- identity verification -------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    indices: Tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class IdentityReport:
    n: int
    checks: Tuple[IdentityCheck, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0


IDENTITIES = ("dodgson", "resultant", "laplace", "adjugate")


def verify_identities(A: SquareMatrix, identities: Sequence[str] = IDENTITIES) -> IdentityReport:
    """Exact checks tying the adjugate table to the pencil determinant.

    dodgson:   Delta_ij(f) == G_ij * G_ji for every pair i != j
    resultant: res_{x_k}(G_ij, f) == G_ik * G_kj for every k not in {i,j}
    laplace:   the two-sided expansion equals det(A) (all S for n <= 8,
               size <= 2 representatives above that)
    adjugate:  G * (diag(x) + A) == f * I

    Each polynomial identity is checked exactly, as signed sums of products
    that must vanish, so the terms that cancel are never built:
    b*c - a*d - G_ij*G_ji for dodgson, with f = a + b*x_i + c*x_j + d*x_i*x_j;
    G_ij|_{x_k=0} * df/dx_k - f|_{x_k=0} * dG_ij/dx_k - G_ik*G_kj for
    resultant; one sum per entry for adjugate (``adjugate_pencil_product_ok``).
    Every operand is packed once per call: f, each G_ij, the entries of
    diag(x) + A, and the slices f|_{x_k=0} and df/dx_k once per k; every
    further restriction or derivative is taken from a packed operand by key
    arithmetic.  The pencil, the table and the packed operands are built
    only when dodgson, resultant or adjugate is asked for.  The Laplace
    expansions read every minor det A[R, C] from one cofactor table, local
    to the call, built by expansion along rows; det(A) itself comes from a
    separate fraction-free elimination.
    Both sides of dodgson are symmetric in i, j, and the expansions along S
    and S^c are the same sum term for term (both subset lists are closed
    under complement), so each is computed once per pair and reported under
    both keys.
    """
    n = A.n
    check_size("verify_identities", n)
    unknown = [name for name in identities if name not in IDENTITIES]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    if {"dodgson", "resultant", "adjugate"}.intersection(identities):
        pencil = det_poly(A)
        f, G, M, one = _packed_operands(adjugate_table(A), pencil)
        f0 = [f.restrict(k) for k in range(n)]
        fd = [f.derivative(k) for k in range(n)]
    checks: List[IdentityCheck] = []
    if "dodgson" in identities:
        dodgson = {
            (i, j): not packed_product_terms(
                n, _rayleigh_pairs(f0[i], fd[i], j) + [(-1, G[i][j], G[j][i])]
            )
            for i, j in combinations(range(n), 2)
        }
        for i in range(n):
            for j in range(n):
                if i != j:
                    checks.append(IdentityCheck("dodgson", (i, j), dodgson[min(i, j), max(i, j)]))
    if "resultant" in identities:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for k in range(n):
                    if k == i or k == j:
                        continue
                    pairs = _resultant_pairs(G[i][j], f0[k], fd[k], k) + [(-1, G[i][k], G[k][j])]
                    ok = not packed_product_terms(n, pairs)
                    checks.append(IdentityCheck("resultant", (i, j, k), ok))
    if "laplace" in identities and n >= 2:
        d = det_fraction_free(A.entries)
        if n <= 8:
            subsets = [S for k in range(1, n) for S in combinations(range(n), k)]
        else:
            small = [S for k in (1, 2) for S in combinations(range(n), k)]
            subsets = small + [tuple(x for x in range(n) if x not in S) for S in small]
        rows, minors = _int_parts(A.entries), {}
        laplace: Dict[Tuple[int, ...], bool] = {}
        for S in subsets:
            comp = tuple(x for x in range(n) if x not in S)
            ok = laplace[S] = laplace[comp] if comp in laplace else _laplace_sum(rows, S, minors) == d
            checks.append(IdentityCheck("laplace", S, ok))
    if "adjugate" in identities:
        ok = _adjugate_sums_vanish(f, G, M, one)
        checks.append(IdentityCheck("adjugate", (), ok))
    return IdentityReport(n, tuple(checks))
