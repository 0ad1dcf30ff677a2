"""K-theory groups with Z/q coefficients of a cyclic quotient singularity.

The groups in nonnegative even (resp. odd) degree are the cokernel
(resp. kernel) of the integer matrix M = (-1)**(d-1) C (C^-1)^T - Id
acting on (Z/q)**(n-1); all negative-degree groups vanish.  Kernel and
cokernel are read off the integral Smith normal form: both are isomorphic
to the direct sum of Z/gcd(d_i, q) over the divisors d_i (gcd(0, q) = q).
The divisors of the pipeline matrix depend only on (n, d): a closed form
gives the part of each prime l <= d - 1 dividing n, and the content of a
(d-1)x(d-1) Toeplitz matrix the rest (``pipeline_divisors``).

Besides the quiver pipeline, M can be taken from the closed-form family
matrices for n = d with all weights 1, or from the immutable reference
matrix shipped for (n, d, a) = (5, 3, (1, 2, 2)) exactly as printed in the
original published computation.  ``verify_paper`` compares those sources
against the pipeline and reports agreement or a structured discrepancy;
it never reconciles them silently.  It, VerificationReport, the closed form,
mod_q_kernel_cokernel and corollary_analysis load on first use.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple, Optional

from . import _bind
from .cartan import cartan_matrix, path_counts_gf
from .errors import InputError
from .linalg import IntMatrix, smith_normal_form, theorem_matrix
from .params import PrimePower, QuotientParams, validate_params, validate_prime_power


def __getattr__(name):
    return _bind(globals(), name)


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


def _groups_from_divisors(divisors, q: int) -> FiniteAbelianGroup:
    """The direct sum of the Z/gcd(d_i, q), for ``divisors`` a Smith chain.

    The chain must be nonnegative, each nonzero entry dividing the next, with
    zeros last, as smith_normal_form and pipeline_divisors return it.  Then
    each gcd(d_i, q) divides the next and gcd(0, q) = q comes last, so the
    gcds above 1 are already the invariant factors, in order.
    """
    return FiniteAbelianGroup(tuple([g for di in divisors if (g := math.gcd(di, q)) > 1]))


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
    Toeplitz matrix of the C(n, i + 1), with the same divisors, as (h) uses.

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
    rest N with no prime up to m.  A q takes the closed form of (k), of
    which (i) is the case v = 1; N (a prime n, say) takes G(N, d); see (h).

    (f) g_n(y) = prod Phi_e(1 - y) over the divisors e > 1 of n, and in
        Z_l[y]/(y**m) an element is a unit exactly when its constant term
        is; Phi_e(1) is p for e = p**k and 1 otherwise, so g_n = unit * g_q
        there.  Hence the l-part of coker G(n, d) is Z_l[y]/(y**m, g_q),
        which is coker G(q, d): that is an l-group, of order
        det G(q, d) = q**m.  So coker G(n, d) is the direct sum of the
        coker G(q, d), of coprime orders, and with each chain of m divisors
        ascending, the divisors of G are their entry-by-entry products.
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
    (k) The l-part is the sum of the Z/l**e(i, j) over the levels
        i = 1..v and the slots j < phi(l**i) with m - j >= l**(i-1), where
        e(i, j) = v - i + 1 + floor((m - j - l**(i-1)) / phi(l**i)).  A
        level holds at most two e.  A level i + 1 needs m >= l**i, and then
        its largest e, v - i + floor((m - l**i) / phi(l**(i+1))), is below
        the least of level i, v - i + 1 + floor((m - l**i + 1) / phi(l**i)):
        the levels from v down to 1, each ascending, give the chain.
        Proof, by induction on v.  The l-part is A_v / y**m A_v for
        A_v = Z_l[y]/(g_(l**v)), A_0 = 0, so its e are fixed by L_v(t), the
        length of A_v / (y**m, l**t): L_v(t) - L_v(t-1) of them are >= t.
        Let phi = phi(l**v), P = Phi_(l**v)(1 - y), O = Z_l[y]/(P) as in
        (i), and B = A_(v-1), local with maximal ideal (l, y) and of rank
        c = l**(v-1) - 1.  As P = Phi_l(x**(l**(v-1))) and
        x**(l**(v-1)) - 1 = -y g_(l**(v-1)), P = l in B; as P = y**phi mod
        l, P = eps y**phi + l h(y), eps = +-1, h(0) = 1, so y**phi =
        eps l (1 - h) in B and l = -eps y**phi / h in O.  With
        g_(l**(v-1)) = y**c mod l, A_v is the fibre product of B and O over
        B/lB = O/y**c O = F_l[y]/(y**c), of index l**c in B x O.  For t >= 1,
        (y**m, l**t) A_v maps onto y**min(m, t phi) O with kernel W x 0, so
        L_v(t) = min(m, t phi) - c + len B/W.  If t phi >= m,
        y**m (w, z) + l**t (w', z'), both pairs in A_v, lies in W x 0 iff
        z = -u z' for u = (-eps)**t y**(t phi - m) h**-t; then w = -u w'
        mod l, with h**-t cut mod y**c, and l**t - y**m u =
        l**t (1 - (h - 1)**t h**-t) in B, l**t times a unit, so
        W = l (l**(t-1), y**m) B and L_v(t) = m + L_(v-1)(t - 1).  If
        t phi < m, w' = -u w mod l for u = (-eps)**t y**(m - t phi) h**t,
        and y**m - l**t u = (eps l)**t y**(m - t phi) ((1 - h)**t - (-h)**t)
        in B, the bracket a unit, so W = l**t (l, y**(m - t phi)) B and
        L_v(t) = t c + min(m - c, t phi).  The e(i, j) obey the same
        recursion: level v, that of O/y**(m - c) O, adds min(m - c, t phi)
        if m > c, and the min(m, c) e below it, those of v - 1 plus one, add
        min(m, c) + L_(v-1)(t - 1), or t c if t phi < m, as then each
        e(i, j) >= 2 + floor((t phi - c) / phi(l**(v-1))) >= t l, since
        c < 2 phi(l**(v-1)).

    >>> pipeline_divisors(5, 3)
    (1, 1, 5, 5)
    >>> pipeline_divisors(16, 16)
    (2, 2, 2, 2, 2, 2, 2, 2, 16, 16, 16, 16, 512, 512, 262144)
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
        if l > m:  # l is N, see (h)
            block = smith_normal_form(
                IntMatrix.lower_toeplitz([math.comb(l, i) for i in range(1, d)])
            )
        else:  # (k): level 1 is (i) raised by v - 1; levels 2..v go before it
            a, r = divmod(m, l - 1)
            block = (l ** (a + v - 1),) * (l - 1 - r) + (l ** (a + v),) * r
            c, s = l, v - 2  # c = l**(i-1) and s = v - i at level i
            while s >= 0 and c <= m:
                a, r = divmod(m - c + 1, c * (l - 1))
                low = (l ** (s + a),) * (c * (l - 1) - r) if a else ()
                block = low + (l ** (s + a + 1),) * r + block
                c, s = c * l, s - 1
        block = (1,) * (m - len(block)) + block
        chain = block if chain is None else tuple(map(operator.mul, chain, block))
    return (1,) * (n - d) + chain


def pipeline_determinant(n: int, d: int) -> int:
    """det pipeline_matrix(p) = (-1)**(n-1) * n**(d-1); see pipeline_divisors (e)."""
    return (-1) ** (n - 1) * n ** (d - 1)


def matrix_from_source(params: QuotientParams, source: str) -> IntMatrix:
    """Resolve the matrix M for one of MATRIX_SOURCES; raise SourceUnavailable
    when the source is unknown or does not cover ``params``."""
    if source == "theorem-pipeline":
        return pipeline_matrix(params)
    if source == "closed-form-family":
        if params.n != params.d or any(a != 1 for a in params.weights):
            raise SourceUnavailable(
                "closed-form-family applies only to n = d with all weights 1"
            )
        if params.d < 3:
            raise SourceUnavailable("closed-form-family needs d >= 3")
        return sys.modules[__name__].family_matrix_closed_form(params.d)
    if source == "paper-fixture":
        if params != LOW_DIM_PARAMS:
            raise SourceUnavailable(
                "paper-fixture applies only to n = 5, d = 3, weights (1, 2, 2)"
            )
        return LOW_DIM_PRINTED_MATRIX
    raise SourceUnavailable(
        f"unknown matrix source {source!r}; expected one of {MATRIX_SOURCES}"
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
