"""K-theory with finite coefficients of cyclic quotient singularities.

Pipeline: validated parameters -> truncated quiver -> path-count (Cartan)
matrix -> the integer matrix M -> kernel/cokernel over Z/l^nu, plus
closed-form family matrices, a published reference fixture, and a
verification mode that reports discrepancies between the two.  The result
types (QuotientParams, KTheoryReport, ...) are immutable named tuples.
"""

from .cartan import (
    NotHomogeneous,
    PathExplosion,
    cartan_matrix,
    path_counts_bruteforce,
    path_counts_gf,
)
from .errors import InputError
from .ktheory import (
    LOW_DIM_PARAMS,
    LOW_DIM_PRINTED_DET,
    LOW_DIM_PRINTED_MATRIX,
    MATRIX_SOURCES,
    TRIVIAL_GROUP,
    CorollaryNote,
    FiniteAbelianGroup,
    KTheoryReport,
    SourceUnavailable,
    VerificationReport,
    compute_ktheory,
    corollary_analysis,
    family_matrix_closed_form,
    matrix_from_source,
    mod_q_kernel_cokernel,
    multiset_number,
    pipeline_divisors,
    pipeline_matrix,
    verify_paper,
)
from .linalg import (
    IntMatrix,
    NotSkewSymmetric,
    NotUnipotent,
    OddSize,
    determinant,
    pfaffian,
    smith_certificate,
    smith_normal_form,
    theorem_matrix,
    unipotent_inverse,
)
from .params import (
    DimensionTooSmall,
    NonPositiveExponent,
    NotPrime,
    PrimeOutOfRange,
    PrimePower,
    QuotientParams,
    WeightNotCoprime,
    WeightOutOfRange,
    WeightSumMismatch,
    iter_weight_tuples,
    validate_params,
    validate_prime_power,
)
from .quiver import Arrow, Quiver, Relation, build_quiver, export_quiver, quiver_from_json

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "CorollaryNote",
    "DimensionTooSmall",
    "FiniteAbelianGroup",
    "InputError",
    "IntMatrix",
    "KTheoryReport",
    "LOW_DIM_PARAMS",
    "LOW_DIM_PRINTED_DET",
    "LOW_DIM_PRINTED_MATRIX",
    "MATRIX_SOURCES",
    "NonPositiveExponent",
    "NotHomogeneous",
    "NotPrime",
    "NotSkewSymmetric",
    "NotUnipotent",
    "OddSize",
    "PathExplosion",
    "PrimeOutOfRange",
    "PrimePower",
    "Quiver",
    "QuotientParams",
    "Relation",
    "SourceUnavailable",
    "TRIVIAL_GROUP",
    "VerificationReport",
    "WeightNotCoprime",
    "WeightOutOfRange",
    "WeightSumMismatch",
    "build_quiver",
    "cartan_matrix",
    "compute_ktheory",
    "corollary_analysis",
    "determinant",
    "export_quiver",
    "family_matrix_closed_form",
    "iter_weight_tuples",
    "matrix_from_source",
    "mod_q_kernel_cokernel",
    "multiset_number",
    "path_counts_bruteforce",
    "path_counts_gf",
    "pfaffian",
    "pipeline_divisors",
    "pipeline_matrix",
    "quiver_from_json",
    "smith_certificate",
    "smith_normal_form",
    "theorem_matrix",
    "unipotent_inverse",
    "validate_params",
    "validate_prime_power",
    "verify_paper",
]
