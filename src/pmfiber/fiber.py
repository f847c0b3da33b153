"""Fiber analysis for the principal minor map.

The fiber of A is the set of matrices sharing all 2^n principal minors.
Diagonal conjugation (with or without transposition) never changes the
minors, so the interesting question is when the fiber is a single such
equivalence class.  The classifier answers from A's structure: a single
class for an irreducible A with no cut or with a symmetric diagonal
conjugate, and otherwise a verified second fiber point, built either by
swapping the rank-one factors of A's two cross blocks at a cut (and
transposing one diagonal block) or by rewriting the strictly-upper pattern
of a reducible matrix.  Cuts are tried in find_cuts order; only when every
cut's swap is diagonally equivalent to A it has neither and raises, though
such a fiber is often a single class (see classify_fiber).  Each witness is
proved by its form, entry by entry (the swap form across the cut, or the
block form of a reducible matrix), and by having no diagonal equivalence to
A; no pencil is expanded.  find_cuts is a depth-first search that drops a
split once a cross block reaches rank 2.  The symmetric and stable
descriptions read structure_check's checked block report, whose pencils
block_det_poly caps by block size.  One test, _through_pivot,
reads rank at most one off the 2x2 minors through a pivot, with no
elimination: on each search step's new entries, and in _rank_one_factors on
a whole block through its first nonzero entry, which hands the swap its
factors.  rank_one_split is the same cut seen in the adjugate table, split
the same way: its factors are coefficient slices of one row and one column
of each cross block, with no evaluation point and no polynomial division;
no witness needs it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .equiv import (
    VERDICT_NOT_SYMMETRIZABLE,
    SymmetrizabilityResult,
    diagonal_equivalence,
    hermitian_equivalence,
    symmetrizability,
)
from .errors import PreconditionError, VerificationError
from .mpoly import MPoly, product_sum
from .scalars import Scalar, div_exact
from .structure import (
    StructureReport,
    frobenius_form,
    is_irreducible,
    same_block_form,
    structure_check,
)
from .symdet import (
    AdjugateTable,
    SquareMatrix,
    check_size,
    matrix,
)

SINGLE_POINT = "SinglePoint"
MULTI_POINT = "MultiPoint"

REASON_REDUCIBLE = "Reducible"
REASON_HAS_CUT = "HasCutNotSymmetrizable"
REASON_NO_CUT = "NoCut"
REASON_SYMMETRIZABLE = "Symmetrizable"
REASON_SMALL_N = "SmallN"

NO_WITNESS_SYMMETRIZABLE = (
    "matrix is diagonally equivalent to a symmetric matrix; "
    "its fiber is a single class and no witness exists"
)
# The transposed swap fails the same way, hence "both orientations".
_SWAP_REFUSAL = (
    "factor swap failed on both orientations (swap produced a diagonally "
    "equivalent matrix); factor swapping across this cut cannot leave the "
    "diagonal-equivalence class of the input"
)


class CutCertificate(NamedTuple):
    """A subset X with 2 <= |X| <= n-2 whose two off-diagonal blocks
    A[X,X^c] and A[X^c,X] both have rank at most one."""

    X: Tuple[int, ...]
    rank_xxc: int
    rank_xcx: int

    def complement(self, n: int) -> Tuple[int, ...]:
        inside = set(self.X)
        return tuple(j for j in range(n) if j not in inside)


def _split_indices(n: int, X: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    Xs = tuple(sorted(set(X)))
    if any(not 0 <= i < n for i in Xs):
        raise PreconditionError("cut indices out of range")
    if not 2 <= len(Xs) <= n - 2:
        raise PreconditionError(f"a cut needs 2 <= |X| <= n-2, got |X| = {len(Xs)}")
    inside = set(Xs)
    return Xs, tuple(j for j in range(n) if j not in inside)


def _through_pivot(E: Sequence[Sequence[Scalar]], pivot: Tuple[int, int], rows, cols) -> bool:
    """True when every 2x2 minor of E[rows, cols] through the nonzero entry
    pivot = (i0, j0) vanishes, E_ij E_i0j0 = E_ij0 E_i0j: for a block that
    holds the pivot, rank at most one.  It stops at the first failing entry."""
    i0, j0 = pivot
    e, top = E[i0][j0], E[i0]
    return all(E[i][j] * e == E[i][j0] * top[j] for i in rows for j in cols)


def _rank_one_factors(
    E: Sequence[Sequence[Scalar]], rows: Sequence[int], cols: Sequence[int]
) -> Optional[Tuple[Dict[int, Scalar], Dict[int, Scalar]]]:
    """The block E[rows, cols] as p q^T, or None when its rank is 2 or more.

    The block is tested through its first nonzero entry (i0, j0) in
    row-major order; p is column j0 and q is row i0 divided by E_i0j0.  A
    zero block gives empty p and q.  No elimination runs.
    """
    pivot = next(((i, j) for i in rows for j in cols if E[i][j]), None)
    if pivot is None:
        return {}, {}
    if not _through_pivot(E, pivot, rows, cols):
        return None
    i0, j0 = pivot
    return {i: E[i][j0] for i in rows}, {j: div_exact(E[i0][j], E[i0][j0]) for j in cols}


def is_cut(A: SquareMatrix, X: Sequence[int]) -> bool:
    Xs, Xc = _split_indices(A.n, X)
    E = A.entries
    return _rank_one_factors(E, Xs, Xc) is not None and _rank_one_factors(E, Xc, Xs) is not None


def _grown_pivots(blocks, pivots, rows, cols) -> Optional[List[Optional[Tuple[int, int]]]]:
    """The pivots of both cross blocks once F[rows, cols], one new row or
    column, joins each; None when a block reaches rank 2.  A block with no
    pivot is zero so far and takes its first nonzero new entry, if any."""
    grown = []
    for F, pivot in zip(blocks, pivots):
        if pivot is None:
            pivot = next(((i, j) for i in rows for j in cols if F[i][j]), None)
        elif not _through_pivot(F, pivot, rows, cols):
            return None
        grown.append(pivot)
    return grown


def find_cuts(A: SquareMatrix) -> List[CutCertificate]:
    """All cuts of A, each partition reported once by the side containing
    index 0 (the lexicographically smaller representative), sorted.

    A depth-first search puts each index 1..n-1 into X or its complement,
    each step adding one row or column to both cross blocks, A[X, X^c] and
    A[X^c, X] (read as rows X of A^T).  A branch is pruned as soon as a new
    entry gives a nonzero 2x2 minor through its block's pivot.  A generic
    full-support matrix takes O(n^2) tests; the search is exponential only
    where many splits of some 0..k keep both blocks at rank at most one, as
    when A has many cuts, and then costs O(n) per node.
    """
    n = A.n
    check_size("find_cuts", n)
    blocks = (A.entries, A.transpose().entries)
    cuts: List[CutCertificate] = []

    def search(k: int, X: Tuple[int, ...], out: Tuple[int, ...], pivots) -> None:
        if k == n:
            cuts.append(CutCertificate(X, *(int(p is not None) for p in pivots)))
            return
        if len(X) < n - 2 and (grown := _grown_pivots(blocks, pivots, (k,), out)):
            search(k + 1, X + (k,), out, grown)
        if len(out) < n - 2 and (grown := _grown_pivots(blocks, pivots, X, (k,))):
            search(k + 1, X, out + (k,), grown)

    if n >= 4:
        search(1, (0,), (), (None, None))
    cuts.sort(key=lambda c: c.X)
    return cuts


# -- rank-one factorization of the adjugate across a cut -------------------------


class FactorSplit(NamedTuple):
    """Factorizations G_ij = (-1)^i a_i b_j (rows X, columns X^c) and
    G_ij = (-1)^j c_i d_j (rows X^c, columns X), signs in 1-based parity.

    a and d are indexed by X and involve only X-variables; b and c are
    indexed by X^c and involve only X^c-variables.  All verified exactly.
    """

    X: Tuple[int, ...]
    Xc: Tuple[int, ...]
    a: Dict[int, MPoly]
    b: Dict[int, MPoly]
    c: Dict[int, MPoly]
    d: Dict[int, MPoly]


def _alt(i: int) -> int:
    """(-1)^i for the 1-based index of a 0-based position."""
    return -1 if i % 2 == 0 else 1


def _slice(p: MPoly, e: Tuple[int, ...], side: Sequence[int], scale: Scalar = 1) -> MPoly:
    """The terms of p whose exponents on ``side`` equal e's, those exponents
    set to 0 and the coefficients divided by ``scale``."""
    return MPoly._raw(p.n, {
        tuple(0 if k in side else x for k, x in enumerate(exp)): div_exact(c, scale)
        for exp, c in p.terms.items()
        if all(exp[k] == e[k] for k in side)
    })


def _split_block(
    G: AdjugateTable, rows: Sequence[int], cols: Sequence[int], sign
) -> Optional[Tuple[Dict[int, MPoly], Dict[int, MPoly]]]:
    """Nonzero (u, v) with G_rc = sign(r, c) u_r v_c on the block G[rows,
    cols], u_r free of the column variables and v_c of the row variables, or
    None when there are none.

    Take H_rc = sign(r, c) G_rc, its first nonzero entry (r0, c0) in
    row-major order and that entry's largest term s x^e.  If H_rc = U_r V_c,
    then s = alpha beta, alpha and beta the coefficients of e's row and
    column parts in U_r0 and V_c0; H_rc0 sliced at e's column exponents is
    beta U_r and H_r0c sliced at e's row exponents alpha V_c.  So u_r is
    the first slice over s and v_c the second, and each H_rc = u_r v_c is
    checked as one sum that must vanish.
    """
    n = G.n
    H = {(r, c): sign(r, c) * G.entry(r, c) for r in rows for c in cols}
    pivot = next((rc for rc, p in H.items() if p), None)
    if pivot is None:
        return None
    (r0, c0), (e, s) = pivot, max(H[pivot].terms.items())
    u = {r: _slice(H[r, c0], e, cols, s) for r in rows}
    v = {c: _slice(H[r0, c], e, rows) for c in cols}
    one = MPoly.const(n, 1)
    if not all(u.values()) or not all(v.values()) or any(
        product_sum(n, [(1, u[r], v[c]), (-1, H[r, c], one)]) for r, c in H
    ):
        return None
    return u, v


def rank_one_split(G: AdjugateTable, X: Sequence[int]) -> FactorSplit:
    """Split the two off-diagonal blocks of G into products of one-index factors.

    Each block's factors are coefficient slices of its entries in one row
    and one column (see _split_block), the way _rank_one_factors splits a
    block of A: no evaluation point and no polynomial division.  Every
    product identity is checked exactly, so a successful return is a proof
    that the factorization holds.
    """
    Xs, Xc = _split_indices(G.n, X)
    upper = _split_block(G, Xs, Xc, lambda i, j: _alt(i))
    lower = _split_block(G, Xc, Xs, lambda j, i: _alt(i))
    if upper is None or lower is None:
        raise VerificationError(f"rank-one splitting failed for X={Xs}; X is not a cut of an irreducible matrix")
    return FactorSplit(Xs, Xc, *upper, *lower)


# -- second fiber points ----------------------------------------------------------


def _inverse_order(order: Sequence[int]) -> List[int]:
    inv = [0] * len(order)
    for pos, orig in enumerate(order):
        inv[orig] = pos
    return inv


def _cut_sides(A: SquareMatrix, X: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """X and its complement, sorted, for a cut X of an irreducible A."""
    Xs, Xc = _split_indices(A.n, X)
    if not is_cut(A, Xs):
        raise PreconditionError(f"X = {Xs} is not a cut")
    if not is_irreducible(A):
        raise PreconditionError("matrix must be irreducible")
    return Xs, Xc


def _swap(A: SquareMatrix, Xs: Sequence[int], Xc: Sequence[int]) -> SquareMatrix:
    """The factor swap across the cut (Xs, Xc), in A's own indices.

    With A[X,X^c] = p q^T and A[X^c,X] = r s^T, it keeps A[X,X], transposes
    A[X^c,X^c] and sets the cross blocks to p r^T and q s^T.  p (resp. r) is
    the column, and q (resp. s) the row divided by the entry, through the
    first nonzero entry of the block (see _rank_one_factors).
    """
    E = A.entries
    p, q = _rank_one_factors(E, Xs, Xc)
    r, s = _rank_one_factors(E, Xc, Xs)
    rows: List[List[Scalar]] = [[0] * A.n for _ in range(A.n)]
    for i in Xs:
        for j in Xs:
            rows[i][j] = E[i][j]
    for i in Xc:
        for j in Xc:
            rows[i][j] = E[j][i]
    for i in Xs:
        for j in Xc:
            rows[i][j] = p[i] * r[j]
            rows[j][i] = q[j] * s[i]
    return matrix(rows, A.field)


def swap_factors_degenerate(A: SquareMatrix, X: Sequence[int]) -> bool:
    """True when factor swapping across the cut X cannot leave the
    diagonal-equivalence class of A: the swap (see cut_swap_witness) is
    diagonally equivalent to A, so cut_swap_witness has nothing to return.
    Instance generators use this to reject draws that the swap construction
    provably cannot separate.
    """
    return _proved_swap(A, *_cut_sides(A, X)) is None


def _same_swap_form(
    A: SquareMatrix, B: SquareMatrix, Xs: Sequence[int], Xc: Sequence[int]
) -> bool:
    """True when B is A's swap across the cut (Xs, Xc) up to one scalar:
    B[X,X] = A[X,X], B[X^c,X^c] = A[X^c,X^c]^T, and B_ij B_kl = A_ik A_jl
    for i, l in X and j, k in X^c.

    With A[X,X^c] = p q^T and A[X^c,X] = r s^T both nonzero (A is
    irreducible), the last identity says that the cross blocks of B are
    c p r^T and c^-1 q s^T for some c != 0.  B is then the swap conjugated
    by the diagonal matrix with c on X and 1 on X^c, so it has every
    principal minor of A, at O(|X|^2 |X^c|^2) cost.
    """
    E, F = A.entries, B.entries
    return (
        all(F[i][j] == E[i][j] for i in Xs for j in Xs)
        and all(F[i][j] == E[j][i] for i in Xc for j in Xc)
        and all(
            F[i][j] * F[k][l] == E[i][k] * E[j][l]
            for i in Xs
            for j in Xc
            for k in Xc
            for l in Xs
        )
    )


def cut_swap_witness(A: SquareMatrix, X: Sequence[int]) -> SquareMatrix:
    """A second fiber point for an irreducible, non-symmetrizable A with cut X.

    Up to relabeling A = [[M, p q^T], [r s^T, N]] across the cut, and the
    rank-one update identity gives the principal minor on S in X, T in X^c as

        det M_S det N_T - (s_S^T adj(M_S) p_S) (q_T^T adj(N_T) r_T),

    which (N, q, r) -> (N^T, r, q) leaves unchanged: that is the swap
    [[M, p r^T], [q s^T, N^T]].  The other swap, (M, p, s) -> (M^T, s, p),
    is its transpose, and diagonal equivalence (which allows transposition)
    puts both in the same class, so one is all there is to try.  The result
    is proved by its swap form (see _same_swap_form), which fixes every
    principal minor through that identity, and by having no diagonal
    equivalence to A.  A cut whose swap stays in A's class is a fact about
    the input, so it raises PreconditionError, as a symmetrizable A does.
    """
    if A.n < 4:
        raise PreconditionError("factor swapping needs n >= 4")
    Xs, Xc = _cut_sides(A, X)
    if symmetrizability(A).solvable:
        raise PreconditionError(NO_WITNESS_SYMMETRIZABLE)
    B = _proved_swap(A, Xs, Xc)
    if B is None:
        raise PreconditionError(_SWAP_REFUSAL)
    return B


def _proved_swap(A: SquareMatrix, Xs: Sequence[int], Xc: Sequence[int]) -> Optional[SquareMatrix]:
    """A's swap across the cut (Xs, Xc), proved a fiber point by its swap
    form, or None when it is diagonally equivalent to A."""
    B = _swap(A, Xs, Xc)
    if not _same_swap_form(A, B, Xs, Xc):
        raise VerificationError(
            "factor swap failed its swap-form check: the swap's blocks do not match the input's"
        )
    return B if diagonal_equivalence(A, B) is None else None


def reducible_witness(A: SquareMatrix) -> SquareMatrix:
    """A second fiber point for a reducible matrix.

    In the triangularizing order, every principal minor factors over the
    diagonal blocks, so the strictly-upper content is arbitrary: replacing
    the first block row's upper pattern by its 0/1 complement keeps all
    minors while forcing a different support.  Both postconditions are
    verified exactly: equal pencil determinants (whose coefficients are the
    principal minors), shown by the block form (see
    structure.same_block_form), and no diagonal equivalence to A.
    """
    form = frobenius_form(A)
    if len(form.blocks) < 2:
        raise PreconditionError("matrix is irreducible")
    n = A.n
    k = len(form.blocks[0])
    P = form.permuted
    rows = [list(r) for r in P.entries]
    for i in range(k):
        for j in range(k, n):
            rows[i][j] = 0 if P.entries[i][j] else 1
    B = matrix(rows, A.field).permuted(_inverse_order(form.order))
    if not same_block_form(form, B):
        raise VerificationError("complement pattern changed a principal minor")
    if diagonal_equivalence(A, B) is not None:
        raise VerificationError("complement pattern is still diagonally equivalent")
    return B


# -- the classifier ----------------------------------------------------------------


class FiberClassification(NamedTuple):
    """verdict SinglePoint means the fiber is one diagonal-equivalence class;
    MultiPoint comes with a verified witness from a different class."""

    verdict: str
    reason: str
    cut: Optional[CutCertificate]
    witness: Optional[SquareMatrix]
    symmetrizability: Optional[SymmetrizabilityResult]
    note: str


def classify_fiber(A: SquareMatrix) -> FiberClassification:
    """Decide whether the fiber of A is a single class, with proof either way.

    Reducible matrices always get a witness.  An irreducible matrix is
    reported a single class when n <= 3 (no cut exists, own reason code),
    when it has no cut, or when it is diagonally equivalent to a symmetric
    matrix.  Otherwise the witness of a second class is the factor swap
    across the first cut, in ``find_cuts`` order, whose swap is not
    diagonally equivalent to A.  Only when every cut's swap is, it raises
    ``VerificationError`` (CLI exit 4) instead of returning a verdict,
    though the fiber may be a single class.  That is the README's "honest
    edge case"; ROADMAP item 1 plans a proven verdict for it.
    """
    n = A.n
    if not is_irreducible(A):
        return FiberClassification(
            MULTI_POINT,
            REASON_REDUCIBLE,
            None,
            reducible_witness(A),
            None,
            "reducible: the strictly-upper blocks of the triangularized form "
            "can hold arbitrary values without changing any principal minor",
        )
    if n <= 3:
        return FiberClassification(
            SINGLE_POINT,
            REASON_SMALL_N,
            None,
            None,
            None,
            "no subset satisfies 2 <= |X| <= n-2 at this size, and irreducible "
            "matrices without cuts form single-class fibers",
        )
    cuts = find_cuts(A)
    if not cuts:
        return FiberClassification(
            SINGLE_POINT,
            REASON_NO_CUT,
            None,
            None,
            None,
            "irreducible and every off-diagonal block pair has rank >= 2",
        )
    sym = symmetrizability(A)
    if sym.solvable:
        note = "irreducible with a cut, but diagonally equivalent to a symmetric matrix"
        if sym.witness_d is None:
            note += " (the scaling needs square roots outside the base field)"
        return FiberClassification(
            SINGLE_POINT, REASON_SYMMETRIZABLE, cuts[0], None, sym, note
        )
    for k, cut in enumerate(cuts):
        witness = _proved_swap(A, cut.X, cut.complement(n))
        if witness is not None:
            across = "the first cut" + (" whose swap leaves the input's class" if k else "")
            note = f"swapping rank-one factors across {across} yields an inequivalent fiber point"
            return FiberClassification(
                MULTI_POINT, REASON_HAS_CUT, cut, witness, sym,
                "irreducible with a cut and not symmetrizable: " + note,
            )
    raise VerificationError(_SWAP_REFUSAL)


# -- symmetric and stable special cases ---------------------------------------------


class SymmetricFiberDescription(NamedTuple):
    irreducible: bool
    shape: Optional[StructureReport]
    note: str


def symmetric_fiber_describe(A: SquareMatrix) -> SymmetricFiberDescription:
    """Describe the whole fiber of a symmetric matrix.

    Irreducible: the fiber is exactly the diagonal conjugates of A.
    Reducible: symmetry forces a block-diagonal triangularized form, and the
    fiber is the set of block upper triangular matrices whose diagonal
    blocks are diagonally equivalent to A's, upper blocks free.
    """
    if not A.is_symmetric():
        raise PreconditionError("matrix must be symmetric")
    if is_irreducible(A):
        return SymmetricFiberDescription(
            True,
            None,
            "irreducible symmetric: the fiber is { D A D^-1 : D invertible "
            "diagonal }, a single equivalence class",
        )
    return SymmetricFiberDescription(
        False,
        structure_check(A),
        "reducible symmetric: block diagonal up to relabeling; fiber members "
        "are block upper triangular with diagonal blocks diagonally "
        "equivalent to these blocks and arbitrary strictly-upper content",
    )


class StableCertificate(NamedTuple):
    """Blockwise structural certificate that det(diag(x)+A) is real stable."""

    verdict: str
    blocks: Tuple[Tuple[int, ...], ...]
    reports: Tuple[SymmetrizabilityResult, ...]
    factors: Tuple[MPoly, ...]
    failing_block: Optional[Tuple[int, ...]]

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"


def stable_certify(A: SquareMatrix) -> StableCertificate:
    """Certify stability of the pencil determinant by block Hermitian scaling.

    Each irreducible diagonal block that is diagonally equivalent to a
    Hermitian matrix contributes a real stable factor.  The one exact check
    is structure_check's: A is block upper triangular in its Frobenius
    order, so the pencil determinant is the product of the block factors.
    Certified therefore implies stability; NotCertified names the first
    block with no Hermitian scaling.
    """
    checked = structure_check(A)
    if not checked.product_matches:
        raise VerificationError("A is not block upper triangular in its Frobenius order")
    blocks = checked.blocks
    reports = tuple(hermitian_equivalence(A.block(block)) for block in blocks)
    failing: Optional[Tuple[int, ...]] = None
    for block, report in zip(blocks, reports):
        if report.verdict == VERDICT_NOT_SYMMETRIZABLE:
            failing = block
            break
    verdict = "Certified" if failing is None else "NotCertified"
    return StableCertificate(verdict, blocks, reports, checked.factors, failing)
