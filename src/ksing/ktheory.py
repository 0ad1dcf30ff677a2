"""K-theory groups with Z/q coefficients of a cyclic quotient singularity.

The groups in nonnegative even (resp. odd) degree are the cokernel
(resp. kernel) of the integer matrix M = (-1)**(d-1) C (C^-1)^T - Id
acting on (Z/q)**(n-1); all negative-degree groups vanish.  Kernel and
cokernel are read off the integral Smith normal form: both are isomorphic
to the direct sum of Z/gcd(d_i, q) over the divisors d_i (gcd(0, q) = q).
The divisors of the pipeline matrix depend only on (n, d) and come from a
(d-1)x(d-1) Toeplitz matrix, or from one small block per prime dividing n
(``pipeline_divisors``).

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
from typing import NamedTuple, Optional

from .cartan import cartan_matrix, path_counts_gf
from . import linalg
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


class FiniteAbelianGroup(NamedTuple):
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


class CorollaryNote(NamedTuple):
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


class KTheoryReport(NamedTuple):
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
            "params": self.params.to_json_dict(),
            "coefficient": self.coefficient._asdict(),
            "matrix_source": self.matrix_source,
            "matrix": self.matrix.to_lists(),
            "divisors": list(self.divisors),
            "even_group": list(self.even_group.invariant_factors),
            "odd_group": list(self.odd_group.invariant_factors),
            "negative_degrees": list(self.negative_degrees.invariant_factors),
            "corollary": [note._asdict() for note in self.corollary_notes],
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


def family_matrix_closed_form(d: int) -> IntMatrix:
    """Closed-form (d-1)x(d-1) matrix for n = d with all weights 1.

    Evaluates the published formulas.  Their odd-d and even-d variants are
    M = s * X - Id, s = (-1)**(d-1), for one X, the printed stand-in for
    C @ (C^-1)^T, in multiset numbers m_r = multiset_number(d, r): with
    e = |i - j| and 1-based i, j, X[i][j] = +-m_e - sum_(0<r<min(i, j))
    m_r * m_(e+r), the sign + for i >= j.  Whether the result matches the
    pipeline matrix is checked by verify_paper, not assumed here; it does
    only at d = 3.
    """
    d = operator.index(d)
    if d < 3:
        raise DimensionTooSmall(f"closed-form family needs d >= 3, got {d}")
    sign = 1 if d % 2 == 1 else -1
    ms = [multiset_number(d, r) for r in range(d - 1)]

    def x(i, j):
        if i < j:
            return -sum(map(operator.mul, ms[:i], ms[j - i:]))
        return ms[i - j] - sum(map(operator.mul, ms[1:j], ms[i - j + 1:]))

    return IntMatrix([[sign * x(i, j) - (i == j) for j in range(1, d)] for i in range(1, d)])


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
    group = _groups_from_divisors(smith_normal_form(m), q)
    return group, group


def pipeline_matrix(params: QuotientParams) -> IntMatrix:
    """End-to-end quiver pipeline: path counts -> Cartan -> theorem matrix."""
    return theorem_matrix(cartan_matrix(path_counts_gf(params)), params.d)


def pipeline_divisors(n: int, d: int) -> tuple[int, ...]:
    """Smith divisors of pipeline_matrix(p) for every valid p with this n, d.

    Statement.  Let g_n(y) = ((1 - y)**n - 1) / (-y), whose coefficient of
    y**i is (-1)**i * C(n, i + 1), and let G be the (d-1)x(d-1) lower
    triangular Toeplitz matrix with first column g_n mod y**(d-1); its
    diagonal is n and det G = n**(d-1).  The divisors of M are n - d ones
    followed by the divisors of G: coker M = Z[y]/(y**(d-1), g_n(y)),
    whatever the weights are.  With D = diag((-1)**i), D G D is the
    Toeplitz matrix of the C(n, i + 1), with the same divisors; matrices of
    that form are the ones eliminated below.

    Proof sketch.  Write k = n - 1, s = (-1)**(d-1), f(t) = prod_j
    (1 - t**a_j) = sum_i c_i t**i and N_m for the m x m lower shift, so
    that Q = C^-1 = f(N_k).

    (a) M C^T = sC - C^T and Q (sC - C^T) Q^T = sQ^T - Q, so M is
        equivalent to T_k = s f(N_k^T) - f(N_k).
    (b) As sum_j a_j = n, c_(n-i) = (-1)**d c_i, so the n x n matrix of
        multiplication by f on R = Z[x]/(x**n - 1) is exactly -T_n.  The
        all-ones vector lies in its kernel on both sides; adding all
        columns to the last and all rows to the last row gives
        T_n ~ diag(T_k, 0).  Hence coker M = tors R/(f).
    (c) If gcd(a, n) = 1 and ab = 1 mod n, then (1 - x**a) sum_(i<b) x**(ai)
        = 1 - x in R, so the ideal (f) is ((1 - x)**d): the weights drop
        out.
    (d) With y = 1 - x, R/((1 - x)**d) = Z[y]/(y**d, y g_n).  Its quotient
        by y is Z, and y Z[y]/(y**d, y g_n) = Z[y]/(y**(d-1), g_n) is
        finite as g_n(0) = n, so that is the torsion; as a Z-module it is
        the cokernel of G.
    (e) Sign: det M = det T_k by (a), as det C = det Q = 1.  By (b) T_n
        has eigenvalues -f(zeta) for zeta**n = 1, nonzero unless zeta = 1
        as every gcd(a_j, n) = 1, so the all-ones vector spans both its
        kernels and its (n, n) cofactor det T_k is the product of the
        nonzero eigenvalues over n.  As prod_(zeta != 1) (1 - zeta**a) = n
        for gcd(a, n) = 1, det M = (-1)**(n-1) * n**(d-1).

    Prime by prime.  With m = d - 1, trial division by p <= m, while p * p
    is at most the rest, splits n into the q = l**v || n with l <= m and a
    rest N with no prime up to m.  A q with v = 1 takes the closed form of
    (i); one with v >= 2 a block eliminated modulo l**E, see (j): that of
    (g) where q <= m, else G(q, d) of (f).  N (a prime n, say) takes
    G(N, d); see (h).

    (f) g_n(y) = prod Phi_e(1 - y) over the divisors e > 1 of n, and in
        Z_l[y]/(y**m) an element is a unit exactly when its constant term
        is; Phi_e(1) is p for e = p**k and 1 otherwise, so g_n = unit * g_q
        there.  Hence the l-part of coker G(n, d) is Z_l[y]/(y**m, g_q),
        which is coker G(q, d): that is an l-group, of order
        det G(q, d) = q**m.  So coker G(n, d) is the direct sum of the
        coker G(q, d), of coprime orders, and with each chain of m divisors
        ascending, the divisors of G are their entry-by-entry products.
    (g) The coefficient of y**(q-1) in g_q is (-1)**(q-1) C(q, q) = +-1, so
        Z[y]/(g_q) is free on 1, y, ..., y**(q-2), and Z[y]/(y**m, g_q) is
        the cokernel of multiplication by y**m there: the block whose row
        i holds the coefficients of y**(m+i) mod g_q (_companion_block).
        Its cokernel is generated by 1, ..., y**(m-1), so for q - 1 <= m
        its q - 1 divisors, after m - q + 1 ones, are those of G(q, d).
    (h) For a prime l | N and 0 < j <= m < l, j C(N, j) = N C(N-1, j-1), so
        G(N, d) is N times a unipotent matrix: its divisors are m copies of
        N, its content, which smith_normal_form reads off its first column.
    (i) g_q = prod_(i<=v) Phi_(l**i)(1 - y), and Z_l[y]/(Phi_(l**i)(1 - y))
        is Z_l[zeta] for zeta of order l**i, a discrete valuation ring with
        uniformizer y = 1 - zeta, in which l is a unit times
        y**phi(l**i) (Neukirch, Algebraic Number Theory, I.10; Washington,
        Cyclotomic Fields, ch. 1).  At v = 1 the l-part is thus O/y**m O
        for O = Z_l[zeta_l], free on 1, ..., y**(l-2); with
        m = a (l - 1) + r, y**m is a unit times l**a y**r, so the l - 1
        divisors are l - 1 - r copies of l**a, then r of l**(a+1).
    (j) By (i), l**ceil(m / phi(l**i)) lies in (y**m, Phi_(l**i)(1 - y)),
        and the product over i <= v of these ideals lies in (y**m, g_q).
        So l**E, E = sum_(i<=v) ceil(m / phi(l**i)), kills coker G(q, d):
        it is a multiple of the last divisor, the modulus _divisors_mod
        needs, and no determinant is taken.

    >>> pipeline_divisors(5, 3)
    (1, 1, 5, 5)
    """
    n = operator.index(n)
    d = operator.index(d)
    if not 2 <= d <= n:
        raise InputError(f"need 2 <= d <= n, got n = {n}, d = {d}")
    m = d - 1
    parts, rest, p = [], n, 2
    while p <= m and p * p <= rest:
        v = 0
        while rest % p == 0:
            rest //= p
            v += 1
        if v:
            parts.append((p, v))
        p += 1
    if rest > 1:
        # No prime below p divides rest: a prime if at most m, else an N (h).
        parts.append((rest, 1))
    chain = None
    for l, v in parts:
        q = l**v
        if l > m:  # q is N, see (h)
            block = smith_normal_form(
                IntMatrix.lower_toeplitz([math.comb(q, i) for i in range(1, d)])
            )
        elif v == 1:  # (i)
            a, r = divmod(m, l - 1)
            block = (l**a,) * (l - 1 - r) + (l ** (a + 1),) * r
        else:  # (j), on (g) or on D G(q, d) D, see the statement
            if q <= m:
                rows = _companion_block(q, m)
            else:
                g = [math.comb(q, i) for i in range(1, d)]
                rows = IntMatrix.lower_toeplitz(g).entries
            e = sum(-(-m // ((l - 1) * l**i)) for i in range(v))
            block = linalg._divisors_mod(rows, l**e)
        block = (1,) * (m - len(block)) + block
        chain = block if chain is None else tuple(map(operator.mul, chain, block))
    return (1,) * (n - d) + chain


def _companion_block(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients of y**(m + i) mod g_q, for i < q - 1.

    g_q has leading coefficient (-1)**(q-1) at y**(q-1), so y**(q-1) is
    sum_j (-1)**(q+j) C(q, j + 1) y**j modulo g_q; see pipeline_divisors (g).
    """
    top = [(-1) ** (q + j) * math.comb(q, j + 1) for j in range(q - 1)]
    r = [1] + [0] * (q - 2)
    rows = []
    for k in range(1, m + q - 1):
        t = r[-1]
        r = [0] + r[:-1]
        if t:
            r = [x + t * c for x, c in zip(r, top)]
        if k >= m:
            rows.append(tuple(r))
    return tuple(rows)


def pipeline_determinant(n: int, d: int) -> int:
    """det pipeline_matrix(p) = (-1)**(n-1) * n**(d-1); see pipeline_divisors (e)."""
    return (-1) ** (n - 1) * n ** (d - 1)


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
    return _corollary_notes(
        report.coefficient.q, report.even_group, report.odd_group, integral_hints
    )


def _corollary_notes(
    q: int, even: FiniteAbelianGroup, odd: FiniteAbelianGroup, integral_hints=None
) -> tuple[CorollaryNote, ...]:
    extra = f" ({integral_hints})" if integral_hints else ""
    notes = []
    if even.is_trivial and odd.is_trivial:
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
    for parity, group in (("even", even), ("odd", odd)):
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
    """Full report: matrix, divisors, even/odd groups, corollary notes.

    The pipeline source takes its divisors from pipeline_divisors, and its
    M builds its rows only when read: ``ksing compute`` prints them, ``ksing
    sweep`` never reads them.  The other sources take the Smith form of M.
    """
    m = matrix_from_source(params, source)
    if source == "theorem-pipeline":
        divisors = pipeline_divisors(params.n, params.d)
        orders = divisors[params.n - params.d:]  # the leading ones add nothing
    else:
        divisors = orders = smith_normal_form(m)
    group = _groups_from_divisors(orders, coeff.q)
    return KTheoryReport(
        params=params,
        coefficient=coeff,
        matrix_source=source,
        matrix=m,
        divisors=divisors,
        even_group=group,
        odd_group=group,
        corollary_notes=_corollary_notes(coeff.q, group, group),
    )


class VerificationReport(NamedTuple):
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
                "params": self.params.to_json_dict(),
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
    pipeline at n = d with all weights 1.  Only "family" takes a d.
    """
    if fixture == "low-dim-example":
        if d is not None:
            raise InputError(f"fixture 'low-dim-example' takes no dimension d, got {d}")
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
