"""Diagonal equivalence and symmetrizing scalings.

Two matrices are diagonally equivalent when B = D*A*D^-1 or B = D*A^T*D^-1
for an invertible diagonal D; both relations preserve all principal minors.
A is diagonally equivalent to a symmetric matrix iff the cycle condition
e_i * a_ij = e_j * a_ji admits a solution with all e_i nonzero (e plays the
role of d_i^2); the Hermitian analogue replaces a_ji by its conjugate and
demands real positive e.  Certificates are always verified entrywise before
being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .errors import PreconditionError, VerificationError
from .scalars import (
    FIELD_Q,
    Scalar,
    conj,
    div_exact,
    is_rational,
    normalize_scalar,
    scalar_im,
    sqrt_in_field,
)
from .structure import is_irreducible
from .symdet import SquareMatrix, matrix

VERDICT_OVER_FIELD = "SymmetricEquivalentOverField"
VERDICT_OVER_EXTENSION = "SymmetricEquivalentOverQuadraticExtension"
VERDICT_NOT_SYMMETRIZABLE = "NotSymmetrizable"


@dataclass(frozen=True)
class DiagonalCertificate:
    """d holds n nonzero scalars; B = D*A*D^-1, or B = D*A^T*D^-1 if transposed."""

    d: Tuple[Scalar, ...]
    transposed: bool

    def conjugate(self, A: SquareMatrix) -> SquareMatrix:
        if len(self.d) != A.n:
            raise PreconditionError("diagonal length does not match matrix size")
        if any(not x for x in self.d):
            raise PreconditionError("diagonal entries must be nonzero")
        base = A.transpose() if self.transposed else A
        n = base.n
        rows = [
            [self.d[i] * div_exact(base.entries[i][j], self.d[j]) if base.entries[i][j] else 0
             for j in range(n)]
            for i in range(n)
        ]
        return matrix(rows, base.field)

    def verifies(self, A: SquareMatrix, B: SquareMatrix) -> bool:
        if A.n != B.n or len(self.d) != A.n or any(not x for x in self.d):
            return False
        base = A.transpose() if self.transposed else A
        n = A.n
        return all(
            self.d[i] * base.entries[i][j] == B.entries[i][j] * self.d[j]
            for i in range(n)
            for j in range(n)
        )


def _propagate(n: int, ratio: Callable[[int, int], Optional[Scalar]]) -> List[Scalar]:
    """x with x[start] = 1 for the first index of each connected component
    and x[j] = x[i] * ratio(i, j) along the edges of a search from it;
    ratio(i, j) is None where i and j are not joined."""
    x: List[Optional[Scalar]] = [None] * n
    for start in range(n):
        if x[start] is not None:
            continue
        x[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j == i or x[j] is not None:
                    continue
                r = ratio(i, j)
                if r is not None:
                    x[j] = x[i] * r
                    queue.append(j)
    return x


def _solve_scaling(A: SquareMatrix, B: SquareMatrix) -> Optional[Tuple[Scalar, ...]]:
    """Find d with B_ij = d_i A_ij / d_j, by ratio propagation per component.

    Each component's first index gets d = 1.  With B = tau(A)^T this is the
    cycle condition e_i a_ij = e_j tau(a_ji) of a symmetrizing scaling.
    """
    n = A.n
    for i in range(n):
        for j in range(n):
            if bool(A.entries[i][j]) != bool(B.entries[i][j]):
                return None

    def ratio(i: int, j: int) -> Optional[Scalar]:
        # d_j = d_i * A_ij / B_ij, or through the edge j -> i
        if A.entries[i][j]:
            return div_exact(A.entries[i][j], B.entries[i][j])
        if A.entries[j][i]:
            return div_exact(B.entries[j][i], A.entries[j][i])
        return None

    d = _propagate(n, ratio)
    for i in range(n):
        for j in range(n):
            if d[i] * A.entries[i][j] != B.entries[i][j] * d[j]:
                return None
    return tuple(normalize_scalar(x) for x in d)


def diagonal_equivalence(
    A: SquareMatrix, B: SquareMatrix
) -> Optional[DiagonalCertificate]:
    """A verified certificate that B = D*A*D^-1 (or D*A^T*D^-1), else None."""
    if A.n != B.n:
        raise PreconditionError("matrices must have equal size")
    if A.field != B.field:
        raise PreconditionError("matrices must share a field")
    d = _solve_scaling(A, B)
    if d is not None:
        return DiagonalCertificate(d, transposed=False)
    d = _solve_scaling(A.transpose(), B)
    if d is not None:
        return DiagonalCertificate(d, transposed=True)
    return None


@dataclass(frozen=True)
class SymmetrizabilityResult:
    """verdict plus, when the cycle condition is solvable, the e-vector
    (squared scaling, component representatives normalized to 1) and, when
    square roots exist in the field, the verified witness D."""

    verdict: str
    e: Optional[Tuple[Scalar, ...]]
    witness_d: Optional[DiagonalCertificate]

    @property
    def solvable(self) -> bool:
        return self.verdict != VERDICT_NOT_SYMMETRIZABLE


def _witness_from_roots(
    A: SquareMatrix, roots: Tuple[Scalar, ...], hermitian: bool
) -> DiagonalCertificate:
    cert = DiagonalCertificate(roots, transposed=False)
    conjugated = cert.conjugate(A)
    ok = conjugated.is_hermitian() if hermitian else conjugated.is_symmetric()
    if not ok:
        raise VerificationError("scaling witness failed to symmetrize")
    return cert


def symmetrizability(A: SquareMatrix) -> SymmetrizabilityResult:
    """Is A diagonally conjugate to a symmetric matrix, and over which field?

    OverField when every e_i has a square root in A's declared field (the
    witness D = diag(sqrt(e_i)) is then verified); OverQuadraticExtension when
    the cycle condition is solvable but some root lives outside the field
    (several independent non-squares may in fact need a tower; no radicals
    are constructed either way).
    """
    e = _solve_scaling(A, A.transpose())
    if e is None:
        return SymmetrizabilityResult(VERDICT_NOT_SYMMETRIZABLE, None, None)
    roots = [sqrt_in_field(x, A.field) for x in e]
    if all(r is not None for r in roots):
        cert = _witness_from_roots(A, tuple(roots), hermitian=False)
        return SymmetrizabilityResult(VERDICT_OVER_FIELD, e, cert)
    return SymmetrizabilityResult(VERDICT_OVER_EXTENSION, e, None)


def hermitian_equivalence(A: SquareMatrix) -> SymmetrizabilityResult:
    """Is A diagonally conjugate to a Hermitian matrix?

    Requires a real diagonal and a solution of e_i * a_ij = e_j * conj(a_ji)
    with every e_i real and positive (e_i = |d_i|^2).  OverField when every
    e_i is a perfect square in Q, so D = diag(sqrt(e_i)) is rational and
    D*A*D^-1 is exactly Hermitian.
    """
    if any(scalar_im(A.entries[i][i]) != 0 for i in range(A.n)):
        return SymmetrizabilityResult(VERDICT_NOT_SYMMETRIZABLE, None, None)
    n = A.n
    adjoint = SquareMatrix(
        tuple(tuple(conj(A.entries[j][i]) for j in range(n)) for i in range(n)), A.field
    )
    e = _solve_scaling(A, adjoint)
    if e is None or not all(is_rational(x) and x > 0 for x in e):
        return SymmetrizabilityResult(VERDICT_NOT_SYMMETRIZABLE, None, None)
    roots = [sqrt_in_field(x, FIELD_Q) for x in e]
    if all(r is not None for r in roots):
        cert = _witness_from_roots(A, tuple(roots), hermitian=True)
        return SymmetrizabilityResult(VERDICT_OVER_FIELD, e, cert)
    return SymmetrizabilityResult(VERDICT_OVER_EXTENSION, e, None)


def recover_diag_from_fiber(A: SquareMatrix, B: SquareMatrix) -> DiagonalCertificate:
    """For symmetric irreducible A and B in its fiber, the verified conjugator.

    B in the fiber of such an A is D*A*D^-1 for a diagonal D that is unique
    once d_1 = 1 (irreducibility joins every index to the first), which is
    the certificate diagonal_equivalence finds; a B outside the fiber has
    none, and that is an error here.
    """
    if A.n != B.n:
        raise PreconditionError("matrices must have equal size")
    if not A.is_symmetric():
        raise PreconditionError("first matrix must be symmetric")
    if not is_irreducible(A):
        raise PreconditionError("first matrix must be irreducible")
    cert = diagonal_equivalence(A, B)
    if cert is None:
        raise VerificationError("recovered diagonal does not conjugate A onto B")
    return cert
