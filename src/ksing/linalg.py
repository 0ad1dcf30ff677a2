"""Exact integer matrix arithmetic.

Dense matrices over Python's arbitrary-precision integers: transposes,
differences and products, unipotent inverses, determinants, Pfaffians, and
Smith normal form with unimodular transformation certificates.  There is
no floating point, no rational arithmetic and no fixed-width fast path
anywhere: determinants (Bareiss) and Pfaffians (the Pfaffian analogue)
are fraction-free, and each of their divisions is exact.

Entries are checked where they come in, by ``IntMatrix(rows)`` and
``IntMatrix.lower_toeplitz(col)``; rows built here from checked matrices
are wrapped by ``_unchecked`` without a second pass over their entries.

The unipotent inverse and the theorem matrix C (C^-1)^T take only a C
built by ``lower_toeplitz``, which records its first column, and refuse
any other matrix with ValueError.  A Cartan matrix is such a C, and C^-1
is lower Toeplitz too, with first column the coefficients of
prod_j (1 - t^a_j): at most z <= 2^d nonzeros however large n is.  Such a
matrix builds its rows only when they are read, so the inverse solves its
first column only, in O(k * z), and each row of C (C^-1)^T is the row
above shifted right plus z products: the rows of C and C^-1 are never
built, and M costs O(k^2) list copying and O(k * z) multiplications.

Smith divisors of a square nonsingular matrix are computed with bounded
entries: +-1 pivots over Z, taken from the shortest rows, then the
content c of the k x k block left is divided out (exact, as SNF(c * A) =
c * SNF(A)), then elimination modulo |det| / c**k (Kannan-Bachem,
Hafner-McCurley), so intermediates stay near the size of the determinant.
The U, V certificate comes from a separate elimination over Z, one
clearing round per pivot, built only when U, D or V is read.  Its entries
are not bounded: on the unit-weight family they reach 1,155 bits at
n = 19 and 29,760 bits at n = 32.
"""

from __future__ import annotations

import math
import operator


class NotUnipotent(ValueError):
    """Matrix is not square lower-triangular with unit diagonal."""


class NotSkewSymmetric(ValueError):
    """Matrix does not satisfy m^T = -m."""


class OddSize(ValueError):
    """Pfaffian requested for an odd-sized matrix."""


class IntMatrix:
    """Immutable dense integer matrix stored row-major as nested tuples.

    ``first_column`` is recorded by ``lower_toeplitz``, else None; the rows
    of such a matrix are built from it on the first read of ``entries``.
    """

    __slots__ = ("entries", "first_column")

    def __init__(self, rows):
        entries = tuple(tuple(map(operator.index, row)) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.entries = entries
        self.first_column = None

    def __getattr__(self, name):
        # Python calls this only where normal lookup fails, so set slots
        # read at full speed; an unset ``entries`` holds the rows of a
        # lower_toeplitz matrix, built here on the first read.
        if name != "entries" or self.first_column is None:
            raise AttributeError(name)
        col = self.first_column
        k = len(col)
        # Row i is w[k - 1 - i : 2k - 1 - i].
        w = col[::-1] + (0,) * (k - 1)
        self.entries = tuple([w[s : s + k] for s in range(k - 1, -1, -1)])
        return self.entries

    @classmethod
    def lower_toeplitz(cls, col) -> "IntMatrix":
        """Lower-triangular Toeplitz matrix with entry (i, j) = col[i - j].

        >>> IntMatrix.lower_toeplitz([1, 1, 3, 3]).to_lists()
        [[1, 0, 0, 0], [1, 1, 0, 0], [3, 1, 1, 0], [3, 3, 1, 1]]
        """
        col = tuple(map(operator.index, col))
        if not col:
            raise ValueError("matrix needs at least one row and one column")
        m = object.__new__(cls)
        m.first_column = col
        return m

    @property
    def rows(self) -> int:
        return len(self.first_column or self.entries)

    @property
    def cols(self) -> int:
        return len(self.first_column or self.entries[0])

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
        return _unchecked(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by"
                f" {other.rows}x{other.cols}"
            )
        cols = list(zip(*other.entries))
        return _unchecked(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs"
                f" {other.rows}x{other.cols}"
            )
        return _unchecked(
            tuple(
                tuple(map(operator.sub, r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )


def _unchecked(entries: tuple) -> IntMatrix:
    """An IntMatrix of tuple rows built here from checked ones, unchecked."""
    m = object.__new__(IntMatrix)
    m.entries = entries
    m.first_column = None
    return m


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
    """Exact integer inverse of a unipotent lower-Toeplitz matrix.

    m must record its first column p (see lower_toeplitz), else ValueError;
    p[0] != 1 raises NotUnipotent.  The inverse is lower Toeplitz too, so
    only its column 0 is solved, by forward substitution from p alone:
    entry i is minus the sum of p[i - t] * inv[t] over the nonzeros inv[t]
    found so far.  That costs O(k * z) for z the nonzeros of the result,
    and no row of m or of the result is built.  A Cartan matrix is such an
    m, and its inverse's first column holds the coefficients of
    prod_j (1 - t^a_j), a product of d binomials, so z <= 2^d.

    >>> unipotent_inverse(IntMatrix.lower_toeplitz([1, 1, 3, 3])).to_lists()
    [[1, 0, 0, 0], [-1, 1, 0, 0], [-2, -1, 1, 0], [2, -2, -1, 1]]
    """
    p = m.first_column
    if p is None:
        raise ValueError("matrix has no recorded first column; use IntMatrix.lower_toeplitz")
    if p[0] != 1:
        raise NotUnipotent(f"diagonal entry (0, 0) is {p[0]}, not 1")
    k = len(p)
    col = [0] * k
    col[0] = 1
    nonzeros = [(0, 1)]
    for i in range(1, k):
        x = 0
        for t, y in nonzeros:  # entry (i, t) of m is p[i - t]
            x -= p[i - t] * y
        if x:
            col[i] = x
            nonzeros.append((i, x))
    return IntMatrix.lower_toeplitz(col)


def theorem_matrix(c: IntMatrix, d: int) -> IntMatrix:
    """The matrix (-1)**(d-1) * C (C^-1)^T - Id for a unipotent C.

    C must record its first column p, as for unipotent_inverse; then so
    does Q = C^-1, with first column q, and X = C Q^T has X[i][j] =
    X[i-1][j-1] + p_i * q_j; Id obeys the same recurrence with 1 in place
    of p_0 * q_0.  So row i of M is row i - 1 shifted right by one plus
    sign * p_i times the z nonzeros of q: O(k^2) list copying and O(k * z)
    multiplications, with z <= 2^d for a Cartan matrix.

    >>> theorem_matrix(IntMatrix.lower_toeplitz([1, 3]), 3).to_lists()
    [[0, -3], [3, -9]]
    """
    d = operator.index(d)
    if d < 2:
        raise ValueError(f"dimension d must be at least 2, got {d}")
    sign = 1 if d % 2 == 1 else -1
    k = c.rows
    q = unipotent_inverse(c)
    q_nonzeros = [(j, sign * x) for j, x in enumerate(q.first_column) if x]
    rows = []
    row = [-1] + [0] * (k - 1)
    for p in c.first_column:
        for j, x in q_nonzeros:
            row[j] += p * x
        rows.append(tuple(row))
        row.insert(0, 0)
        row.pop()
    return _unchecked(tuple(rows))


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    A matrix that records its first column (see lower_toeplitz) is
    triangular, so its determinant is the product of its diagonal.
    """
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    if m.first_column is not None:
        return m.first_column[0] ** m.rows
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


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form of m; the U, V certificate is built on demand.

    For square nonsingular m the divisors come from four steps whose
    entries stay bounded: unimodular eliminations on +-1 pivots over Z
    (each contributes a divisor 1), R = |det| of the k x k block A that
    remains (see determinant), its content c, and an elimination of A / c
    modulo R / c**k with extended gcds (Hafner-McCurley).  As SNF(c * B) =
    c * SNF(B), each divisor of A is c times one of A / c, and R / c**k = 1
    leaves nothing to eliminate, as for G(n, d) of ktheory.pipeline_divisors
    at prime n, which is n times a unipotent matrix.  A singular or
    non-square m goes straight to the certificate elimination, which also
    gives the trailing zero divisors (gcd(0, q) = q downstream).  Reading
    U, D or V of the result runs that elimination, whose entries are
    unbounded.
    """
    if m.is_square:
        block = _unit_pivot_block(m)
        ones = (1,) * (m.rows - len(block))
        if not block:
            return SnfDecomposition(m, ones)
        whole = block is m.entries  # then m keeps its recorded first column
        r = abs(determinant(m if whole else _unchecked(block)))
        if r:
            recorded = m.first_column if whole else None
            c = math.gcd(*(recorded or [x for row in block for x in row]))
            r //= c ** len(block)
            if r == 1:
                return SnfDecomposition(m, ones + (c,) * len(block))
            a = block if c == 1 else tuple(tuple(x // c for x in row) for row in block)
            return SnfDecomposition(m, ones + tuple(c * x for x in _divisors_mod(a, r)))
    cert = _snf_certificate(m)
    diagonal = tuple(cert[1][i, i] for i in range(min(m.rows, m.cols)))
    return SnfDecomposition(m, diagonal, cert)


def _unit_pivot_block(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Eliminate +-1 pivots of a square m; return the dense block left.

    Each step pivots on a +-1 entry of the shortest row that holds one,
    which keeps fill-in low, clears its column by walking the other rows
    and drops its row and column, until no +-1 entry is left.  With every
    pivot a unit, the block left is a Schur complement whose entries are
    minors of m, so they stay within the Hadamard bound.  An m without a
    +-1 entry is the block; so is every matrix ktheory.pipeline_divisors
    passes: G(n, d), whose entries are +-C(n, j) with 0 < j < n, and the
    companion blocks of g_(l**v), whose entries are all divisible by l.
    """
    # A recorded first column holds every nonzero entry of the matrix.
    lines = m.entries if m.first_column is None else (m.first_column,)
    if not any(1 in row or -1 in row for row in lines):
        return m.entries
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
    return tuple(tuple(rows[i].get(j, 0) for j in order) for i in sorted(rows))


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


def _divisors_mod(a: tuple[tuple[int, ...], ...], r: int) -> tuple[int, ...]:
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

    u = _unchecked(tuple(tuple(row[ncols:]) for row in w[:nrows]))
    d = _unchecked(tuple(tuple(row[:ncols]) for row in w[:nrows]))
    return u, d, _unchecked(tuple(tuple(row[:ncols]) for row in w[nrows:]))
