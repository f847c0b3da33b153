"""Diagonal equivalence and symmetrizing scalings.

Two matrices are diagonally equivalent when B = D*A*D^-1 or B = D*A^T*D^-1
for an invertible diagonal D; both relations preserve all principal minors.
A is diagonally equivalent to a symmetric matrix iff the cycle condition
e_i * a_ij = e_j * a_ji admits a solution with all e_i nonzero (e plays the
role of d_i^2); the Hermitian analogue replaces a_ji by its conjugate and
demands real positive e.

Each of these questions is one scaling solve: a search per support component
sets every d_j from the edge it is reached by, and only
DiagonalCertificate.verifies, the certificate's own entrywise check, accepts
the result.  A symmetrizing witness is checked by conjugation as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import PreconditionError, VerificationError
from .scalars import (
    FIELD_Q,
    Scalar,
    conj,
    div_exact,
    is_rational,
    normalize_scalar,
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
        d = self.d
        if A.n != B.n or len(d) != A.n or not all(d):
            return False
        base = A.transpose() if self.transposed else A
        return all(
            di * x == y * dj
            for di, row_a, row_b in zip(d, base.entries, B.entries)
            for x, y, dj in zip(row_a, row_b, d)
        )


def _solve_scaling(A: SquareMatrix, B: SquareMatrix) -> Optional[Tuple[Scalar, ...]]:
    """d with B_ij = d_i A_ij / d_j, or None.

    A search from the first index of each support component sets d = 1
    there and d_j = d_i A_ij / B_ij at each index j it reaches by an edge
    i -> j (d_i B_ji / A_ji by an edge j -> i); the certificate's own
    entrywise check then accepts d or refutes every solution.  With
    B = tau(A)^T this is the cycle condition e_i a_ij = e_j tau(a_ji) of a
    symmetrizing scaling.
    """
    n, a, b = A.n, A.entries, B.entries
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if (not x) != (not y):
                return None
    d: List[Optional[Scalar]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if d[j] is None and (a[i][j] or a[j][i]):
                    r = div_exact(a[i][j], b[i][j]) if a[i][j] else div_exact(b[j][i], a[j][i])
                    d[j] = d[i] * r
                    stack.append(j)
    if not DiagonalCertificate(tuple(d), transposed=False).verifies(A, B):
        return None
    return tuple(normalize_scalar(x) for x in d)


def diagonal_equivalence(A: SquareMatrix, B: SquareMatrix) -> Optional[DiagonalCertificate]:
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


def _scaling_verdict(
    A: SquareMatrix, e: Optional[Tuple[Scalar, ...]], hermitian: bool
) -> SymmetrizabilityResult:
    """NotSymmetrizable without e.  Otherwise OverField when every e_i has a
    square root in the field (Q for a Hermitian scaling), with the witness
    D = diag(sqrt(e_i)) checked by conjugation; else OverQuadraticExtension."""
    if e is None:
        return SymmetrizabilityResult(VERDICT_NOT_SYMMETRIZABLE, None, None)
    roots = [sqrt_in_field(x, FIELD_Q if hermitian else A.field) for x in e]
    if any(r is None for r in roots):
        return SymmetrizabilityResult(VERDICT_OVER_EXTENSION, e, None)
    cert = DiagonalCertificate(tuple(roots), transposed=False)
    image = cert.conjugate(A)
    if not (image.is_hermitian() if hermitian else image.is_symmetric()):
        raise VerificationError("scaling witness failed to symmetrize")
    return SymmetrizabilityResult(VERDICT_OVER_FIELD, e, cert)


def symmetrizability(A: SquareMatrix) -> SymmetrizabilityResult:
    """Is A diagonally conjugate to a symmetric matrix, and over which field?

    OverField when every e_i has a square root in A's declared field (the
    witness D = diag(sqrt(e_i)) is then verified); OverQuadraticExtension when
    the cycle condition is solvable but some root lives outside the field
    (several independent non-squares may in fact need a tower; no radicals
    are constructed either way).
    """
    return _scaling_verdict(A, _solve_scaling(A, A.transpose()), hermitian=False)


def hermitian_equivalence(A: SquareMatrix) -> SymmetrizabilityResult:
    """Is A diagonally conjugate to a Hermitian matrix?

    Requires a real diagonal and a solution of e_i * a_ij = e_j * conj(a_ji)
    with every e_i real and positive (e_i = |d_i|^2); the scaling's check
    on the diagonal, a_ii = conj(a_ii), is the first requirement.  OverField
    when every e_i is a perfect square in Q, so D = diag(sqrt(e_i)) is
    rational and D*A*D^-1 is exactly Hermitian.
    """
    adjoint = SquareMatrix(tuple(tuple(map(conj, col)) for col in zip(*A.entries)), A.field)
    e = _solve_scaling(A, adjoint)
    if e is not None and not all(is_rational(x) and x > 0 for x in e):
        e = None
    return _scaling_verdict(A, e, hermitian=True)


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
