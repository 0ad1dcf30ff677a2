"""The code that checks answers: no ``compute`` or ``sweep`` answer runs it.

Here are ``linalg``'s Pfaffian, ``cartan``'s brute-force path counts, and
``ktheory``'s closed-form family, mod-q kernel and cokernel, and
``verify_paper``.  ``import ksing`` does not load this module: its names
load on first use.  The Smith certificate lives in ``ksing.smith``, so
that the first ``verify_paper`` does not compile it.

>>> import ksing, ksing.linalg
>>> ksing.pfaffian is ksing.linalg.pfaffian is pfaffian
True
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional

from .cartan import NotHomogeneous, PathExplosion, cartan_matrix, path_counts_gf
from .errors import InputError
from .ktheory import (
    LOW_DIM_PARAMS,
    LOW_DIM_PRINTED_DET,
    LOW_DIM_PRINTED_MATRIX,
    FiniteAbelianGroup,
    _groups_from_divisors,
    pipeline_matrix,
)
from .linalg import IntMatrix, NotSkewSymmetric, OddSize, determinant, smith_normal_form
from .params import DimensionTooSmall, QuotientParams, validate_params


def pfaffian(m: IntMatrix) -> int:
    """Exact Pfaffian of an even-sized skew-symmetric integer matrix.

    Fraction-free Parlett-Reid elimination, the Pfaffian form of Bareiss:
    step k = 0, 2, 4, ... pivots on p = a[k][k+1], first swapping in a row
    and its column when that is 0 (Pf changes sign), and sets each a[i][j],
    k + 1 < i < j, to (p a[i][j] - a[k][i] a[k+1][j] + a[k][j] a[k+1][i])
    // prev, for prev the pivot before (1 at the start).  Then a[i][j] is
    the Pfaffian of the principal minor on rows 0..k+1, i, j, so by the
    Pfaffian form of Sylvester's identity, Pf(I) Pf(I+abcd) = Pf(I+ab)
    Pf(I+cd) - Pf(I+ac) Pf(I+bd) + Pf(I+ad) Pf(I+bc) (Tanner 1878; Knuth,
    "Overlapping Pfaffians", 1996), each division is exact, and the last
    pivot is Pf; a remainder raises ArithmeticError.  The sign convention
    is Pf([[0, a], [-a, 0]]) = a, and pfaffian(m)**2 == determinant(m).
    """
    if not m.is_square:
        raise NotSkewSymmetric(f"matrix is {m.rows}x{m.cols}, not square")
    n = m.rows
    e = m.entries
    for i in range(n):
        for j in range(i, n):
            if e[i][j] != -e[j][i]:
                raise NotSkewSymmetric(
                    f"entries ({i}, {j}) and ({j}, {i}) are {e[i][j]} and"
                    f" {e[j][i]}"
                )
    if n % 2 == 1:
        raise OddSize(f"Pfaffian needs even size, got {n}")
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(0, n - 1, 2):
        piv = next((j for j in range(k + 1, n) if a[k][j]), None)
        if piv is None:
            return 0
        if piv != k + 1:
            # Swap the row and the matching column; Pf changes sign.
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            sign = -sign
        rk, rk1 = a[k], a[k + 1]
        p = rk[k + 1]
        for i in range(k + 2, n):
            ri, x, y = a[i], rk[i], rk1[i]
            for j in range(i + 1, n):
                v, r = divmod(p * ri[j] - x * rk1[j] + rk[j] * y, prev)
                if r:
                    raise ArithmeticError(f"inexact Pfaffian step at ({i}, {j})")
                ri[j] = v
                a[j][i] = -v
        prev = p
    return sign * prev


#: The most classes path_counts_bruteforce carries along arrows, about 3 s
#: of work; read at each call.
MAX_CLASS_UPDATES = 10_000_000


def path_counts_bruteforce(q: Quiver) -> list[int]:
    """Path-class counts by one pass over the arrows per start vertex.

    A class is the multiset of its path's letters, held as one integer: with
    the distinct letters numbered 0..L-1 and B = q.vertex_count, the count of
    letter j is the digit of B**j.  A path has fewer than B arrows, so every
    count fits in its digit and different multisets are different integers.
    In order of target, each arrow carries the classes of its source, each
    plus B**j for its letter j, into its target.  Raises InputError for a
    quiver without vertices or an arrow that does not go up within the
    vertices, PathExplosion before the classes carried along arrows, summed
    over all start vertices, would pass MAX_CLASS_UPDATES, and
    NotHomogeneous unless the class count from i to i + s is the same for
    every start vertex i, as it is for every quiver build_quiver makes.

    >>> from ksing import build_quiver, validate_params
    >>> path_counts_bruteforce(build_quiver(validate_params(5, 3, (1, 2, 2))))
    [1, 1, 3, 3]
    """
    if q.vertex_count < 1:
        raise InputError("quiver has no vertices")
    if any(not 1 <= source < target <= q.vertex_count for source, target, _ in q.arrows):
        raise InputError(f"arrows must go up within vertices 1..{q.vertex_count}")
    digit = {
        letter: q.vertex_count**j
        for j, letter in enumerate(dict.fromkeys(letter for _, _, letter in q.arrows))
    }
    arrows = [
        (source, target, digit[letter])
        for source, target, letter in sorted(q.arrows, key=lambda a: a.target)
    ]

    updates = 0
    per_start: dict[int, dict[int, int]] = {}
    for start in range(1, q.vertex_count + 1):
        classes: dict[int, set[int]] = {start: {0}}
        for source, target, step in arrows:
            if source in classes:
                updates += len(classes[source])
                if updates > MAX_CLASS_UPDATES:
                    raise PathExplosion(f"more than {MAX_CLASS_UPDATES} class updates")
                classes.setdefault(target, set()).update([c + step for c in classes[source]])
        per_start[start] = {v - start: len(cls) for v, cls in classes.items()}

    base = per_start[1]
    for start in range(2, q.vertex_count + 1):
        for off in range(q.vertex_count - start + 1):
            if per_start[start].get(off, 0) != base.get(off, 0):
                raise NotHomogeneous(
                    f"path count from {start} at offset {off} differs from"
                    f" vertex 1"
                )
    return [base.get(s, 0) for s in range(q.vertex_count)]


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
    k = d - 1
    ms = [multiset_number(d, r) for r in range(k)]
    rows = [[0] * k for _ in range(k)]
    # Along diagonal e the sum grows by one term per step of min(i, j), so
    # each diagonal is one running sum: O(d^2) in all.
    for e, m_e in enumerate(ms):
        s = 0
        for t in range(k - e):  # 0-based (t + e, t) and (t, t + e)
            if t:
                s += ms[t] * ms[e + t]
            rows[t + e][t] = sign * (m_e - s) - (e == 0)
            if e:
                rows[t][t + e] = sign * (-m_e - s)
    return IntMatrix(rows)


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
    # Equal rows are skipped whole; only rows that differ are walked.
    return tuple(
        (i, j, x, y)
        for i, (ref_row, got_row) in enumerate(zip(ref.entries, got.entries), 1)
        if ref_row != got_row
        for j, (x, y) in enumerate(zip(ref_row, got_row), 1)
        if x != y
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
        # A mismatch is reported as found, not reconciled.
        claim = "equals" if pf * pf == got_det else f"{got_det} differs from"
        notes.append(
            f"pipeline det {claim} det(C - C^T) = Pf(C - C^T)**2 ="
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
