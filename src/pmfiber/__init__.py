"""Exact arithmetic for principal minors, determinantal pencils, and their fibers.

The package computes, over Q and Q(i):

* all 2^n principal minors of a square matrix and the multiaffine pencil
  det(diag(x) + A) together with its adjugate table;
* cuts (pairs of complementary index sets whose off-diagonal blocks both have
  rank at most one), irreducibility, and triangularized block structure;
* diagonal equivalence certificates, symmetrizing and hermitizing scalings,
  and reconstruction of a conjugating diagonal from minor data;
* fiber classification for the principal-minor map: either every matrix with
  the same principal minors is diagonally equivalent to the input, or an
  explicit inequivalent witness with identical minors is produced;
* blockwise stability certificates built from hermitizing scalings.

Everything is computed exactly; every certificate and witness is re-verified
before it is returned.
"""

from .equiv import (
    DiagonalCertificate,
    SymmetrizabilityResult,
    VERDICT_NOT_SYMMETRIZABLE,
    VERDICT_OVER_EXTENSION,
    VERDICT_OVER_FIELD,
    diagonal_equivalence,
    hermitian_equivalence,
    recover_diag_from_fiber,
    symmetrizability,
)
from .errors import (
    ExactDivisionError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    VerificationError,
)
from .fiber import (
    CutCertificate,
    FiberClassification,
    MULTI_POINT,
    SINGLE_POINT,
    StableCertificate,
    SymmetricFiberDescription,
    classify_fiber,
    cut_swap_witness,
    find_cuts,
    is_cut,
    rank_one_split,
    reducible_witness,
    stable_certify,
    swap_factors_degenerate,
    symmetric_fiber_describe,
)
from .mpoly import (
    MPoly,
    affine_resultant,
    poly_subset_map,
    poly_text,
    ranked_texts,
    rayleigh_difference,
)
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    FIELDS,
    GaussianRational,
    Scalar,
    gaussian,
    scalar_format,
    scalar_parse,
)
from .selftest import SUITES, SuiteResult, run_selftest
from .structure import (
    FrobeniusForm,
    StructureReport,
    block_det_poly,
    frobenius_form,
    is_irreducible,
    structure_check,
)
from .symdet import (
    AdjugateTable,
    DeterminantalPencil,
    IDENTITIES,
    IdentityReport,
    PMVector,
    SquareMatrix,
    adjugate_table,
    det_fraction_free,
    det_poly,
    matrix,
    matrix_from_adjugate,
    principal_minors,
    verify_identities,
)

__version__ = "0.1.0"

__all__ = [
    "AdjugateTable",
    "CutCertificate",
    "DeterminantalPencil",
    "DiagonalCertificate",
    "ExactDivisionError",
    "FIELD_Q",
    "FIELD_QI",
    "FIELDS",
    "FiberClassification",
    "FrobeniusForm",
    "GaussianRational",
    "IDENTITIES",
    "IdentityReport",
    "MPoly",
    "MULTI_POINT",
    "PMVector",
    "ParseError",
    "PreconditionError",
    "SINGLE_POINT",
    "SUITES",
    "Scalar",
    "SizeLimitError",
    "SquareMatrix",
    "StableCertificate",
    "StructureReport",
    "SuiteResult",
    "SymmetricFiberDescription",
    "SymmetrizabilityResult",
    "VERDICT_NOT_SYMMETRIZABLE",
    "VERDICT_OVER_EXTENSION",
    "VERDICT_OVER_FIELD",
    "VerificationError",
    "adjugate_table",
    "affine_resultant",
    "block_det_poly",
    "classify_fiber",
    "cut_swap_witness",
    "det_fraction_free",
    "det_poly",
    "diagonal_equivalence",
    "find_cuts",
    "frobenius_form",
    "gaussian",
    "hermitian_equivalence",
    "is_cut",
    "is_irreducible",
    "matrix",
    "matrix_from_adjugate",
    "principal_minors",
    "poly_subset_map",
    "poly_text",
    "ranked_texts",
    "rank_one_split",
    "rayleigh_difference",
    "recover_diag_from_fiber",
    "reducible_witness",
    "run_selftest",
    "scalar_format",
    "scalar_parse",
    "stable_certify",
    "structure_check",
    "swap_factors_degenerate",
    "symmetric_fiber_describe",
    "symmetrizability",
    "verify_identities",
]
