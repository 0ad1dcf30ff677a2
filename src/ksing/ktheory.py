"""K-theory groups with Z/q coefficients of a cyclic quotient singularity.

The groups in nonnegative even (resp. odd) degree are the cokernel
(resp. kernel) of the integer matrix M = (-1)**(d-1) C (C^-1)^T - Id
acting on (Z/q)**(n-1); all negative-degree groups vanish.  Kernel and
cokernel are read off the integral Smith normal form: both are isomorphic
to the direct sum of Z/gcd(d_i, q) over the divisors d_i (gcd(0, q) = q).

Besides the quiver pipeline, M can be taken from the closed-form family
matrices for n = d with all weights 1, or from the immutable reference
matrix shipped for (n, d, a) = (5, 3, (1, 2, 2)) exactly as printed in the
original published computation.  ``verify_paper`` compares those sources
against the pipeline and reports agreement or a structured discrepancy;
it never reconciles them silently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

from .cartan import cartan_matrix, path_counts_gf
from .errors import InputError
from .linalg import (
    IntMatrix,
    determinant,
    pfaffian,
    smith_normal_form,
    theorem_matrix,
)
from .params import DimensionTooSmall, PrimePower, QuotientParams, validate_params


class SourceUnavailable(InputError):
    """The requested matrix source does not apply to these parameters."""


MATRIX_SOURCES = ("theorem-pipeline", "closed-form-family", "paper-fixture")

#: Parameters of the published low-dimensional example.
LOW_DIM_PARAMS = QuotientParams(5, 3, (1, 2, 2))

#: The 4x4 matrix exactly as printed in the published computation for
#: LOW_DIM_PARAMS.  Shipped immutable; the pipeline never substitutes it.
LOW_DIM_PRINTED_MATRIX = IntMatrix(
    [
        [0, -1, -3, -3],
        [1, -1, -4, -6],
        [3, -2, -10, -13],
        [3, 0, -11, -19],
    ]
)

#: Determinant value claimed for LOW_DIM_PRINTED_MATRIX in the same source.
LOW_DIM_PRINTED_DET = 26


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form.

    ``invariant_factors`` is an ascending divisibility chain of integers
    >= 2; the empty tuple is the trivial group.

    >>> print(FiniteAbelianGroup.from_orders([2, 3]))
    Z/6
    >>> print(FiniteAbelianGroup.from_orders([2, 6, 4]))
    Z/2 ⊕ Z/2 ⊕ Z/12
    >>> print(FiniteAbelianGroup.from_orders([1, 1]))
    0
    """

    invariant_factors: tuple[int, ...]

    @classmethod
    def from_orders(cls, orders) -> "FiniteAbelianGroup":
        """Canonicalize an arbitrary multiset of cyclic orders.

        Each order m joins the ascending chain from the top: a factor f
        becomes lcm(f, m) and m carries on as gcd(f, m), which divides f,
        as Z/f ⊕ Z/m ≅ Z/gcd ⊕ Z/lcm; a last carry > 1 is the new first factor.
        """
        factors: list[int] = []
        for m in orders:
            m = operator.index(m)
            if m < 1:
                raise ValueError(f"cyclic order must be positive, got {m}")
            for i in range(len(factors) - 1, -1, -1):
                factors[i], m = math.lcm(factors[i], m), math.gcd(factors[i], m)
            if m > 1:
                factors.insert(0, m)
        return cls(tuple(factors))

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " ⊕ ".join(f"Z/{m}" for m in self.invariant_factors)


TRIVIAL_GROUP = FiniteAbelianGroup(())


@dataclass(frozen=True)
class CorollaryNote:
    """One logical consequence drawn from the computed groups.

    ``conclusion`` is "i" (some nonzero mod-q group at parity ``parity``
    forces, in every degree i >= 0 of that parity, at least one of the
    integral groups K_i, K_{i-1} to be nonzero) or "ii" (all mod-q groups
    vanish, so the integral groups in degrees >= 0 are uniquely
    q-divisible).  No integral K-groups are computed.
    """

    conclusion: str
    parity: Optional[str]
    statement: str


@dataclass(frozen=True)
class KTheoryReport:
    params: QuotientParams
    coefficient: PrimePower
    matrix_source: str
    matrix: IntMatrix
    divisors: tuple[int, ...]
    even_group: FiniteAbelianGroup
    odd_group: FiniteAbelianGroup
    negative_degrees: FiniteAbelianGroup = TRIVIAL_GROUP
    corollary_notes: tuple[CorollaryNote, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": {
                "n": self.params.n,
                "d": self.params.d,
                "weights": list(self.params.weights),
            },
            "coefficient": {
                "l": self.coefficient.l,
                "nu": self.coefficient.nu,
                "q": self.coefficient.q,
            },
            "matrix_source": self.matrix_source,
            "matrix": self.matrix.to_lists(),
            "divisors": list(self.divisors),
            "even_group": list(self.even_group.invariant_factors),
            "odd_group": list(self.odd_group.invariant_factors),
            "negative_degrees": list(self.negative_degrees.invariant_factors),
            "corollary": [
                {
                    "conclusion": note.conclusion,
                    "parity": note.parity,
                    "statement": note.statement,
                }
                for note in self.corollary_notes
            ],
            "verification": None,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "KTheoryReport":
        from .params import validate_prime_power

        p = payload["params"]
        c = payload["coefficient"]
        return cls(
            params=validate_params(p["n"], p["d"], p["weights"]),
            coefficient=validate_prime_power(c["l"], c["nu"]),
            matrix_source=payload["matrix_source"],
            matrix=IntMatrix(payload["matrix"]),
            divisors=tuple(payload["divisors"]),
            even_group=FiniteAbelianGroup(tuple(payload["even_group"])),
            odd_group=FiniteAbelianGroup(tuple(payload["odd_group"])),
            negative_degrees=FiniteAbelianGroup(
                tuple(payload["negative_degrees"])
            ),
            corollary_notes=tuple(
                CorollaryNote(n["conclusion"], n["parity"], n["statement"])
                for n in payload["corollary"]
            ),
        )


def multiset_number(d: int, r: int) -> int:
    """Number of multisets of size r drawn from d symbols.

    >>> multiset_number(3, 2)
    6
    """
    d = operator.index(d)
    r = operator.index(r)
    if d < 1 or r < 0:
        raise ValueError(f"need d >= 1 and r >= 0, got ({d}, {r})")
    return math.comb(d + r - 1, r)


def _family_odd(d: int) -> IntMatrix:
    k = d - 1
    ms = multiset_number

    def entry(i, j):
        if i < j:
            return -sum(ms(d, r) * ms(d, (j - i) + r) for r in range(i))
        if i == j:
            return -sum(ms(d, r) ** 2 for r in range(1, i))
        return (
            -sum(ms(d, (i - j) + r) * ms(d, r) for r in range(1, j))
            + ms(d, i - j)
        )

    return IntMatrix([[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)])


def _family_even(d: int) -> IntMatrix:
    k = d - 1
    ms = multiset_number

    def entry(i, j):
        if i < j:
            return sum(ms(d, r) * ms(d, (j - i) + r) for r in range(i))
        if i == j:
            return -2 + sum(ms(d, r) ** 2 for r in range(1, i))
        return (
            sum(ms(d, (i - j) + r) * ms(d, r) for r in range(1, j))
            - ms(d, i - j)
        )

    return IntMatrix([[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)])


def family_matrix_closed_form(d: int) -> IntMatrix:
    """Closed-form (d-1)x(d-1) matrix for n = d with all weights 1.

    Evaluates the published formulas verbatim (odd-d and even-d variants);
    whether they match the pipeline matrix is checked by verify_paper, not
    assumed here.
    """
    d = operator.index(d)
    if d < 3:
        raise DimensionTooSmall(f"closed-form family needs d >= 3, got {d}")
    return _family_odd(d) if d % 2 == 1 else _family_even(d)


def _groups_from_divisors(divisors, q: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup.from_orders(math.gcd(di, q) for di in divisors)


def mod_q_kernel_cokernel(
    m: IntMatrix, q: int
) -> tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    """Kernel and cokernel of a square integer matrix acting on (Z/q)^k.

    Both are the direct sum of Z/gcd(d_i, q) over the integral Smith
    divisors d_i, with gcd(0, q) = q; they are returned as (kernel,
    cokernel) in canonical form and always coincide.
    """
    q = operator.index(q)
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if not m.is_square:
        raise ValueError(f"need a square matrix, got {m.rows}x{m.cols}")
    group = _groups_from_divisors(smith_normal_form(m).divisors, q)
    return group, group


def pipeline_matrix(params: QuotientParams) -> IntMatrix:
    """End-to-end quiver pipeline: path counts -> Cartan -> theorem matrix."""
    return theorem_matrix(cartan_matrix(path_counts_gf(params)), params.d)


def _source_gap(params: QuotientParams, source: str) -> Optional[str]:
    """Why ``source`` does not cover ``params``, or None when it does.

    matrix_from_source raises this reason; ``ksing sweep`` skips the sets.
    """
    if source == "closed-form-family":
        if params.n != params.d or any(a != 1 for a in params.weights):
            return "closed-form-family applies only to n = d with all weights 1"
        if params.d < 3:
            return "closed-form-family needs d >= 3"
    elif source == "paper-fixture":
        if params != LOW_DIM_PARAMS:
            return "paper-fixture applies only to n = 5, d = 3, weights (1, 2, 2)"
    elif source != "theorem-pipeline":
        return f"unknown matrix source {source!r}; expected one of {MATRIX_SOURCES}"
    return None


def matrix_from_source(params: QuotientParams, source: str) -> IntMatrix:
    """Resolve the matrix M for one of MATRIX_SOURCES."""
    gap = _source_gap(params, source)
    if gap is not None:
        raise SourceUnavailable(gap)
    if source == "closed-form-family":
        return family_matrix_closed_form(params.d)
    if source == "paper-fixture":
        return LOW_DIM_PRINTED_MATRIX
    return pipeline_matrix(params)


def corollary_analysis(
    report: KTheoryReport, integral_hints=None
) -> tuple[CorollaryNote, ...]:
    """Logical conclusions about integral K-groups, without computing them."""
    q = report.coefficient.q
    extra = f" ({integral_hints})" if integral_hints else ""
    notes = []
    if report.even_group.is_trivial and report.odd_group.is_trivial:
        notes.append(
            CorollaryNote(
                "ii",
                None,
                f"every mod-{q} K-group in degree >= 0 vanishes, so the"
                f" integral K-groups in degrees >= 0 are uniquely"
                f" {q}-divisible{extra}",
            )
        )
        return tuple(notes)
    for parity, group in (("even", report.even_group), ("odd", report.odd_group)):
        if not group.is_trivial:
            notes.append(
                CorollaryNote(
                    "i",
                    parity,
                    f"the mod-{q} K-groups in {parity} degrees >= 0 are"
                    f" {group}, so for every {parity} i >= 0 the integral"
                    f" K-groups K_i and K_(i-1) cannot both vanish{extra}",
                )
            )
    return tuple(notes)


def compute_ktheory(
    params: QuotientParams,
    coeff: PrimePower,
    source: str = "theorem-pipeline",
) -> KTheoryReport:
    """Full report: matrix, divisors, even/odd groups, corollary notes."""
    m = matrix_from_source(params, source)
    divisors = smith_normal_form(m).divisors
    group = _groups_from_divisors(divisors, coeff.q)
    report = KTheoryReport(
        params=params,
        coefficient=coeff,
        matrix_source=source,
        matrix=m,
        divisors=divisors,
        even_group=group,
        odd_group=group,
    )
    return replace(report, corollary_notes=corollary_analysis(report))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a reference matrix against the pipeline.

    Disagreement is a report outcome, never an exception; entry_diffs
    lists (row, col, reference, computed) for every differing entry using
    1-based indices.
    """

    fixture: str
    params: QuotientParams
    reference_matrix: IntMatrix
    computed_matrix: IntMatrix
    agree: bool
    entry_diffs: tuple[tuple[int, int, int, int], ...]
    reference_det: int
    computed_det: int
    pfaffian: Optional[int]
    computed_det_is_square: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "verification": {
                "fixture": self.fixture,
                "params": {
                    "n": self.params.n,
                    "d": self.params.d,
                    "weights": list(self.params.weights),
                },
                "reference_matrix": self.reference_matrix.to_lists(),
                "computed_matrix": self.computed_matrix.to_lists(),
                "agree": self.agree,
                "entry_diffs": [list(t) for t in self.entry_diffs],
                "reference_det": self.reference_det,
                "computed_det": self.computed_det,
                "pfaffian": self.pfaffian,
                "computed_det_is_square": self.computed_det_is_square,
                "notes": list(self.notes),
            },
        }


def _entry_diffs(
    ref: IntMatrix, got: IntMatrix
) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(
        (i + 1, j + 1, ref[i, j], got[i, j])
        for i in range(ref.rows)
        for j in range(ref.cols)
        if ref[i, j] != got[i, j]
    )


def _is_perfect_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def verify_paper(fixture: str, d: Optional[int] = None) -> VerificationReport:
    """Compare a reference matrix with the pipeline and report the facts.

    fixture "low-dim-example": the published 4x4 matrix for n = 5, d = 3,
    weights (1, 2, 2) versus the pipeline, including both determinants and
    the Pfaffian identity det M = det(C - C^T) = Pf(C - C^T)**2 that the
    pipeline matrix satisfies for odd d and even size.

    fixture "family": the closed-form matrix for the given d versus the
    pipeline at n = d with all weights 1.
    """
    if fixture == "low-dim-example":
        params = LOW_DIM_PARAMS
        reference = LOW_DIM_PRINTED_MATRIX
    elif fixture == "family":
        if d is None:
            raise InputError("fixture 'family' needs a dimension d")
        d = operator.index(d)
        params = validate_params(d, d, (1,) * d)
        reference = family_matrix_closed_form(d)
    else:
        raise InputError(
            f"unknown fixture {fixture!r}; expected 'low-dim-example' or"
            f" 'family'"
        )

    computed = pipeline_matrix(params)
    diffs = _entry_diffs(reference, computed)
    ref_det = determinant(reference)
    got_det = determinant(computed)

    pf = None
    if params.d % 2 == 1 and params.vertex_count % 2 == 0:
        c = cartan_matrix(path_counts_gf(params))
        pf = pfaffian(c - c.transpose())

    notes = []
    if diffs:
        total = reference.rows * reference.cols
        notes.append(
            f"reference and pipeline matrices differ in {len(diffs)} of"
            f" {total} entries"
        )
    else:
        notes.append("reference and pipeline matrices agree exactly")
    notes.append(f"reference det = {ref_det}, pipeline det = {got_det}")
    if pf is not None:
        notes.append(
            f"pipeline det equals det(C - C^T) = Pf(C - C^T)**2 ="
            f" ({pf})**2 = {pf * pf}"
        )
    if fixture == "low-dim-example":
        notes.append(
            f"published determinant claim: {LOW_DIM_PRINTED_DET};"
            f" pipeline determinant is"
            f" {'a' if _is_perfect_square(got_det) else 'not a'} perfect square"
        )

    return VerificationReport(
        fixture=fixture,
        params=params,
        reference_matrix=reference,
        computed_matrix=computed,
        agree=not diffs,
        entry_diffs=diffs,
        reference_det=ref_det,
        computed_det=got_det,
        pfaffian=pf,
        computed_det_is_square=_is_perfect_square(got_det),
        notes=tuple(notes),
    )
