"""K-theory with finite coefficients of cyclic quotient singularities.

Pipeline: validated parameters -> truncated quiver -> path-count (Cartan)
matrix -> the integer matrix M -> kernel/cokernel over Z/l^nu, plus
closed-form family matrices, a published reference fixture, and a
verification mode that reports discrepancies between the two.  The result
types (QuotientParams, KTheoryReport, ...) are immutable named tuples; a
KTheoryReport stores its group once and reads the rest of the answer off it.

The quiver, the verification code and the general Smith eliminations,
which no ``compute`` or ``sweep`` answer runs, load on first use, and so do
the CLI's single-set commands, which a ``sweep`` process never runs.
``_LATE`` maps each of their names to its home module: ``quiver``,
``verification``, ``smith`` or ``commands``.  The PEP 562 ``__getattr__`` of
the package, ``linalg``, ``cartan``, ``ktheory``, ``cli`` and ``commands``
passes a name to ``_bind``, which binds it there from its home: one object
under every name.  Internal callers read a late name through
``sys.modules[__name__]``, so a wrapper set there is called.
"""

import importlib as _importlib

#: Each late name and its home; above the layer imports, which import ``_bind``.
_LATE = {
    **dict.fromkeys(
        ("Arrow", "Quiver", "Relation", "build_quiver", "export_quiver", "quiver_from_json"),
        "quiver",
    ),
    **dict.fromkeys(
        ("VerificationReport", "family_matrix_closed_form", "mod_q_kernel_cokernel",
         "multiset_number", "path_counts_bruteforce", "pfaffian", "verify_paper"),
        "verification",
    ),
    **dict.fromkeys(("_divisors_mod", "smith_certificate"), "smith"),
    **dict.fromkeys(
        ("_cmd_compute", "_cmd_quiver", "_cmd_cartan", "_cmd_matrix", "_cmd_snf",
         "_cmd_verify_paper"),
        "commands",
    ),
}


def _bind(namespace: dict, name: str):
    """Bind late ``name`` in a module's ``namespace`` from its home; return it."""
    if name not in _LATE:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(_importlib.import_module(f"{__name__}.{_LATE[name]}"), name)
    return value


from .cartan import NotHomogeneous, PathExplosion, cartan_matrix, path_counts_gf
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
    compute_ktheory,
    matrix_from_source,
    pipeline_divisors,
    pipeline_matrix,
)
from .linalg import (
    IntMatrix,
    NotSkewSymmetric,
    NotUnipotent,
    OddSize,
    determinant,
    smith_normal_form,
    theorem_matrix,
    unipotent_inverse,
)
from .params import (
    DimensionTooSmall,
    ExponentTooLarge,
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

def __getattr__(name):
    if name in ("quiver", "verification", "smith"):
        return _importlib.import_module(f"{__name__}.{name}")  # binds it here too
    return _bind(globals(), name)


__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "CorollaryNote",
    "DimensionTooSmall",
    "ExponentTooLarge",
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
