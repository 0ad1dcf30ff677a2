"""Exact integer matrix arithmetic.

Dense matrices over Python's arbitrary-precision integers: products,
transposes, unipotent-triangular inverses, determinants, Pfaffians, and
Smith normal form with unimodular transformation certificates.  There is
no floating point and no fixed-width fast path anywhere.

The unipotent inverse and the theorem matrix C @ (C^-1)^T work only where
the inverse is nonzero, so they cost O(k^2 * z) for z the most nonzeros in
a row or column of C^-1.  For a Cartan matrix C^-1 is lower Toeplitz with
first column the coefficients of prod_j (1 - t^a_j), so z <= 2^d however
large n is; a dense inverse costs O(k^3), as a dense product does.

Smith divisors of a square nonsingular matrix are computed with bounded
entries: +-1 pivots over Z, taken from the shortest rows, then elimination
modulo |det| (Kannan-Bachem, Hafner-McCurley), so intermediates stay near
the size of the determinant.  The U, V certificate comes from a separate
elimination over Z, one clearing round per pivot, built only when U, D or
V is read.  Its entries are not bounded: on the unit-weight family they
reach 1,155 bits at n = 19 and 29,760 bits at n = 32.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class NotUnipotent(ValueError):
    """Matrix is not square lower-triangular with unit diagonal."""


class NotSkewSymmetric(ValueError):
    """Matrix does not satisfy m^T = -m."""


class OddSize(ValueError):
    """Pfaffian requested for an odd-sized matrix."""


class IntMatrix:
    """Immutable dense integer matrix stored row-major as nested tuples."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        entries = tuple(
            tuple(operator.index(x) for x in row) for row in rows
        )
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.entries = entries

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by"
                f" {other.rows}x{other.cols}"
            )
        cols = list(zip(*other.entries))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return IntMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return IntMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self.entries])

    def __mul__(self, scalar) -> "IntMatrix":
        scalar = operator.index(scalar)
        return IntMatrix([[scalar * x for x in row] for row in self.entries])

    __rmul__ = __mul__

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs"
                f" {other.rows}x{other.cols}"
            )


class SnfDecomposition:
    """Smith normal form of ``matrix``, with its certificate on demand.

    ``divisors`` lists the full diagonal of D: nonnegative, each nonzero
    one divides the next, and zeros trail.  ``U``, ``D`` and ``V`` are the
    certificate U @ matrix @ V == D with U and V unimodular (|det| = 1).
    The certificate comes from a separate elimination whose entries are
    not bounded; it runs once, on the first read of U, D or V, so a caller
    that reads only ``divisors`` never pays for it.
    """

    __slots__ = ("matrix", "divisors", "_certificate")

    def __init__(self, matrix: IntMatrix, divisors: tuple[int, ...], certificate=None):
        self.matrix = matrix
        self.divisors = divisors
        self._certificate = certificate

    def _built(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        if self._certificate is None:
            self._certificate = _snf_certificate(self.matrix)
        return self._certificate

    @property
    def U(self) -> IntMatrix:
        return self._built()[0]

    @property
    def D(self) -> IntMatrix:
        return self._built()[1]

    @property
    def V(self) -> IntMatrix:
        return self._built()[2]


def unipotent_inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a lower-triangular unit-diagonal matrix.

    Forward substitution, column by column: entry (i, j) of the inverse is
    minus the sum of m[i][t] * inv[t][j] over the nonzeros inv[t][j] found
    so far in column j.  That costs O(k^2 * z) for z the most nonzeros in a
    column of the inverse, and O(k^3) for a dense inverse.  The inverse of a
    Cartan matrix is lower Toeplitz with first column the coefficients of
    prod_j (1 - t^a_j), a product of d binomials, so there z <= 2^d.  The
    result is again lower unipotent and m @ result == identity holds
    exactly.
    """
    if not m.is_square:
        raise NotUnipotent(f"matrix is {m.rows}x{m.cols}, not square")
    k = m.rows
    e = m.entries
    for i in range(k):
        if e[i][i] != 1:
            raise NotUnipotent(f"diagonal entry ({i}, {i}) is {e[i][i]}, not 1")
        for j in range(i + 1, k):
            if e[i][j] != 0:
                raise NotUnipotent(
                    f"entry ({i}, {j}) above the diagonal is {e[i][j]}"
                )
    inv = [[0] * k for _ in range(k)]
    for j in range(k):
        inv[j][j] = 1
        nonzeros = [(j, 1)]
        for i in range(j + 1, k):
            row = e[i]
            x = -sum(row[t] * y for t, y in nonzeros)
            if x:
                inv[i][j] = x
                nonzeros.append((i, x))
    return IntMatrix(inv)


def theorem_matrix(c: IntMatrix, d: int) -> IntMatrix:
    """The matrix (-1)**(d-1) * C @ (C^-1)^T - Id for a unipotent C.

    With Q = C^-1, entry (i, j) is sign * sum_t C[i][t] * Q[j][t] - [i == j],
    summed over the nonzeros of row j of Q only, in one pass.  The cost is
    O(k^2 * z) for z the most nonzeros in a row of Q: z <= 2^d for a Cartan
    matrix (see unipotent_inverse), while a dense Q costs O(k^3).
    """
    d = operator.index(d)
    if d < 2:
        raise ValueError(f"dimension d must be at least 2, got {d}")
    sign = 1 if d % 2 == 1 else -1
    q_rows = [
        [(t, x) for t, x in enumerate(row) if x]
        for row in unipotent_inverse(c).entries
    ]
    out = []
    for i, c_row in enumerate(c.entries):
        row = [sign * sum(c_row[t] * x for t, x in q_row) for q_row in q_rows]
        row[i] -= 1
        out.append(row)
    return IntMatrix(out)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    a = m.to_lists()
    n = m.rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Sylvester's identity makes this division exact.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def pfaffian(m: IntMatrix) -> int:
    """Exact Pfaffian of an even-sized skew-symmetric integer matrix.

    Parlett-Reid style elimination over exact rationals; the sign
    convention is Pf([[0, a], [-a, 0]]) = a.  Satisfies pfaffian(m)**2 ==
    determinant(m).
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
    a = [[Fraction(x) for x in row] for row in e]
    pf = Fraction(1)
    for k in range(0, n - 1, 2):
        piv = None
        for j in range(k + 1, n):
            if a[k][j] != 0:
                piv = j
                break
        if piv is None:
            return 0
        if piv != k + 1:
            # Swap the row and the matching column; Pf changes sign.
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            pf = -pf
        p = a[k][k + 1]
        pf *= p
        for i in range(k + 2, n):
            for j in range(i + 1, n):
                a[i][j] -= (a[k][i] * a[k + 1][j] - a[k][j] * a[k + 1][i]) / p
                a[j][i] = -a[i][j]
    if pf.denominator != 1:
        raise ArithmeticError(f"Pfaffian elimination ended at non-integer {pf}")
    return int(pf)


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form of m; the U, V certificate is built on demand.

    For square nonsingular m the divisors come from three steps whose
    entries stay bounded: unimodular eliminations on +-1 pivots over Z
    (each contributes a divisor 1), R = |det| of the block that remains
    (Bareiss), and an elimination of that block modulo R with extended
    gcds (Hafner-McCurley).  A singular or non-square m goes straight to
    the certificate elimination, which also gives the trailing zero
    divisors (gcd(0, q) = q downstream).  Reading U, D or V of the result
    runs that elimination, whose entries are unbounded.
    """
    if m.is_square:
        block = _unit_pivot_block(m)
        r = abs(determinant(IntMatrix(block))) if block else 1
        if r:
            ones = (1,) * (m.rows - len(block))
            return SnfDecomposition(m, ones + _divisors_mod(block, r))
    cert = _snf_certificate(m)
    diagonal = tuple(cert[1][i, i] for i in range(min(m.rows, m.cols)))
    return SnfDecomposition(m, diagonal, cert)


def _unit_pivot_block(m: IntMatrix) -> list[list[int]]:
    """Eliminate +-1 pivots of a square m; return the dense block left.

    Each step pivots on a +-1 entry of the shortest row that holds one,
    which keeps fill-in low, clears its column by walking the other rows
    and drops its row and column, until no +-1 entry is left.  With every
    pivot a unit, the block left is a Schur complement whose entries are
    minors of m, so they stay within the Hadamard bound.
    """
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m.entries)}
    left = set(range(m.cols))
    while True:
        by_length = sorted(rows, key=lambda i: len(rows[i]))
        units = ((i, j) for i in by_length for j, x in rows[i].items() if x == 1 or x == -1)
        pivot = next(units, None)
        if pivot is None:
            break
        i, j = pivot
        pivot_row = rows.pop(i)
        s = pivot_row.pop(j)
        left.discard(j)
        for row in rows.values():
            f = row.pop(j, 0) * s
            if f:
                for c, x in pivot_row.items():
                    y = row.get(c, 0) - f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
    order = sorted(left)
    return [[rows[i].get(j, 0) for j in order] for i in sorted(rows)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g == gcd(a, b) for a, b >= 0.

    Returns (a, 1, 0) whenever a divides b, so a pivot that already
    divides an entry is left in place; otherwise the row and column passes
    of _divisors_mod could undo each other forever.
    """
    if a and b % a == 0:
        return a, 1, 0
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def _divisors_mod(a: list[list[int]], r: int) -> tuple[int, ...]:
    """Smith divisors of a square nonsingular a, given r = |det a|.

    Works on the last row and column of the block, modulo r, with the
    unimodular 2x2 operations of extended gcds (Cohen, Algorithm 2.4.14):
    clear the row by column operations and the column by row operations
    until both stay clear, and fold in a row the pivot does not divide.
    The divisor is gcd(pivot, r); the lattice spanned by the rest of the
    block has index r / divisor, so r shrinks to that.  Divisors come out
    smallest first.
    """
    out = []
    for i in range(len(a) - 1, -1, -1):
        a = [[x % r for x in row[: i + 1]] for row in a[: i + 1]]
        pivot_row = a[i]
        while True:
            # Zero stands for r here, so that every gcd step below makes
            # the pivot strictly smaller and the loop ends.
            if pivot_row[i] == 0:
                pivot_row[i] = r
            for j in range(i - 1, -1, -1):
                b = pivot_row[j]
                if b:
                    g, u, v = _xgcd(pivot_row[i], b)
                    x, y = pivot_row[i] // g, b // g
                    for row in a:
                        ri, rj = row[i], row[j]
                        row[i] = (u * ri + v * rj) % r
                        row[j] = (x * rj - y * ri) % r
            moved = False
            for j in range(i - 1, -1, -1):
                b = a[j][i]
                if b:
                    g, u, v = _xgcd(pivot_row[i], b)
                    x, y = pivot_row[i] // g, b // g
                    other = a[j]
                    a[j] = [(x * t - y * p) % r for p, t in zip(pivot_row, other)]
                    if (u, v) != (1, 0):
                        pivot_row = a[i] = [
                            (u * p + v * t) % r for p, t in zip(pivot_row, other)
                        ]
                        moved = True
            if moved:
                continue
            g = math.gcd(pivot_row[i], r)
            if g == 1:
                break
            offender = next((row for row in a[:i] if any(x % g for x in row[:i])), None)
            if offender is None:
                break
            pivot_row = a[i] = [(p + t) % r for p, t in zip(pivot_row, offender)]
        out.append(g)
        r //= g
    return tuple(out)


def _snf_certificate(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Unimodular U, V and diagonal D with U @ m @ V == D.

    Reduction over Z on w = [[m, I], [I, 0]]: row operations on the top
    rows act on m and U, column operations on the left columns on m and V.
    Step t starts at the least nonzero |entry| left, then works in rounds:
    move the pivot to (t, t), reduce column t below it and row t right of
    it to floor remainders, and pivot next on the least remainder.  Once
    none is left, fold in a row the pivot does not divide, so that each
    divisor divides the next.  Entries are not bounded.
    """
    nrows, ncols = m.rows, m.cols
    w = [list(row) + [int(i == j) for j in range(nrows)] for i, row in enumerate(m.entries)]
    w += [[int(i == j) for j in range(ncols)] + [0] * nrows for i in range(ncols)]
    for t in range(min(nrows, ncols)):
        nonzero = [
            (abs(w[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if w[i][j]
        ]
        while nonzero:
            _, i, j = min(nonzero)
            w[i], w[t] = w[t], w[i]
            for row in w:
                row[j], row[t] = row[t], row[j]
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
            p = w[t][t]
            for i in range(t + 1, nrows):
                q = w[i][t] // p
                if q:
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
            for j in range(t + 1, ncols):
                q = w[t][j] // p
                if q:
                    for row in w:
                        row[j] -= q * row[t]
            nonzero = [(w[i][t], i, t) for i in range(t + 1, nrows) if w[i][t]]
            nonzero += [(w[t][j], t, j) for j in range(t + 1, ncols) if w[t][j]]
            if not nonzero:
                for i in range(t + 1, nrows):
                    if any(x % p for x in w[i][t + 1:ncols]):
                        w[t] = [x + y for x, y in zip(w[t], w[i])]
                        nonzero = [(p, t, t)]
                        break

    u = IntMatrix([row[ncols:] for row in w[:nrows]])
    d = IntMatrix([row[:ncols] for row in w[:nrows]])
    return u, d, IntMatrix([row[:ncols] for row in w[nrows:]])
