"""Exception types shared across the package.

The CLI maps these onto process exit codes: bad input (ParseError,
PreconditionError) -> 2, SizeLimitError -> 3, VerificationError and any
other exception -> 4.
"""


class ParseError(ValueError):
    """Malformed scalar text or matrix file."""


class PreconditionError(ValueError):
    """An operation was called on input that violates its stated preconditions."""


class SizeLimitError(ValueError):
    """Input exceeds the configured size limit for an operation."""


class VerificationError(RuntimeError):
    """An internal exactness check failed; indicates a bug, not bad input."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""
