"""Exact integer matrix arithmetic.

Dense matrices over Python's arbitrary-precision integers: transposes,
differences and products, unipotent inverses, determinants, Pfaffians,
Smith divisors and unimodular Smith certificates.  There is no floating
point, no rational arithmetic and no fixed-width fast path anywhere:
determinants (Bareiss's two-step form) and Pfaffians (the Pfaffian
analogue) are fraction-free, and each of their divisions is exact.

Entries are checked where they come in, by ``IntMatrix(rows)`` and
``IntMatrix.lower_toeplitz(col)``; rows built here from checked matrices
are wrapped by ``_unchecked`` without a second pass over their entries.

The unipotent inverse and the theorem matrix M = +-C (C^-1)^T - Id take
only a C built by ``lower_toeplitz``, which records its first column, and
refuse any other matrix with ValueError.  A Cartan matrix is such a C, and
C^-1 is lower Toeplitz too, with first column the coefficients of
prod_j (1 - t^a_j): at most z <= 2^d nonzeros however large n is.  So the
inverse solves that column only, in O(k * z).  C, C^-1 and M build their
rows on the first read of ``entries``: M's where ``ksing compute`` and
``matrix`` print it, ``snf`` reduces it and ``verify-paper`` compares it,
never in ``ksing sweep``; those of C^-1 are never read.

smith_normal_form returns the divisors of a square nonsingular matrix
with bounded entries: its content c divided out, then, unless
r = |det| / c**k is 1, as it is for every pipeline matrix, the elimination
_divisors_mod over Z/r, a multiple of the last divisor (Storjohann 2000).
smith_certificate returns U, D, V from an elimination over Z whose entries
are not bounded; ``ksing snf`` runs it alone and prints the diagonal of D.
Those two eliminations live in ``ksing.smith`` and pfaffian in
``ksing.verification``; all three load on first use.
"""

from __future__ import annotations

import math
import operator
import sys

from . import _bind


def __getattr__(name):
    return _bind(globals(), name)


class NotUnipotent(ValueError):
    """Matrix is not square lower-triangular with unit diagonal."""


class NotSkewSymmetric(ValueError):
    """Matrix does not satisfy m^T = -m."""


class OddSize(ValueError):
    """Pfaffian requested for an odd-sized matrix."""


class IntMatrix:
    """Immutable dense integer matrix stored row-major as nested tuples.

    ``first_column`` is recorded by ``lower_toeplitz`` and
    ``unipotent_inverse``, else None.  A matrix from either of them or from
    ``theorem_matrix`` records its order and a builder instead of rows, and
    builds them on the first read of ``entries``.
    """

    __slots__ = ("entries", "first_column", "_order", "_build")

    def __init__(self, rows):
        entries = tuple(tuple(map(operator.index, row)) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.entries = entries
        self.first_column = self._order = self._build = None

    def __getattr__(self, name):
        # Called only where normal lookup fails, so set slots read at full
        # speed; the builder is module-level and holds no reference to self.
        if name != "entries" or self._build is None:
            raise AttributeError(name)
        build, *args = self._build
        self.entries = build(*args)
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
        return _deferred(len(col), col, _toeplitz_rows, col)

    @property
    def rows(self) -> int:
        return self._order or len(self.entries)

    @property
    def cols(self) -> int:
        return self._order or len(self.entries[0])

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
    m.first_column = m._order = m._build = None
    return m


def _deferred(order: int, first_column, *build) -> IntMatrix:
    """A square IntMatrix whose rows build[0](*build[1:]) makes when read."""
    m = object.__new__(IntMatrix)
    m.first_column, m._order, m._build = first_column, order, build
    return m


def _toeplitz_rows(col: tuple) -> tuple:
    k = len(col)
    w = col[::-1] + (0,) * (k - 1)  # row i is w[k - 1 - i : 2k - 1 - i]
    return tuple([w[s : s + k] for s in range(k - 1, -1, -1)])


def unipotent_inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unipotent lower-Toeplitz matrix.

    m must record its first column p (see lower_toeplitz), else ValueError;
    p[0] != 1 raises NotUnipotent.  The inverse is lower Toeplitz too, so
    only its column 0 is solved, by forward substitution from p alone:
    entry i is minus the sum of p[i - t] * inv[t] over the nonzeros inv[t]
    found so far.  That costs O(k * z) for z the nonzeros of the result,
    z <= 2^d for a Cartan m (see above), and builds no row of m or of it.

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
    col = tuple(col)  # ints solved from the checked p: no second check
    return _deferred(k, col, _toeplitz_rows, col)


def theorem_matrix(c: IntMatrix, d: int) -> IntMatrix:
    """The matrix (-1)**(d-1) * C (C^-1)^T - Id for a unipotent C.

    C must record its first column p, as for unipotent_inverse; then so
    does Q = C^-1, with first column q, and X = C Q^T has X[i][j] =
    X[i-1][j-1] + p_i * q_j; Id obeys the same recurrence with 1 in place
    of p_0 * q_0.  So row i of M is row i - 1 shifted right by one plus
    sign * p_i times the z nonzeros of q: O(k^2) list copying and O(k * z)
    multiplications, with z <= 2^d for a Cartan matrix, made on the first
    read of ``entries`` (``ksing compute``, ``matrix``, ``snf``, ``verify-paper``).

    >>> theorem_matrix(IntMatrix.lower_toeplitz([1, 3]), 3).to_lists()
    [[0, -3], [3, -9]]
    """
    d = operator.index(d)
    if d < 2:
        raise ValueError(f"dimension d must be at least 2, got {d}")
    sign = 1 if d % 2 == 1 else -1
    q = unipotent_inverse(c)
    return _deferred(c.rows, None, _theorem_rows, c.first_column, q.first_column, sign)


def _theorem_rows(p: tuple, q: tuple, sign: int) -> tuple:
    q_nonzeros = [(j, sign * y) for j, y in enumerate(q) if y]
    rows = []
    row = [-1] + [0] * (len(p) - 1)
    for x in p:
        for j, y in q_nonzeros:
            row[j] += x * y
        rows.append(tuple(row))
        row.insert(0, 0)
        row.pop()
    return tuple(rows)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    A matrix that records its first column (see lower_toeplitz) is
    triangular, so its determinant is the product of its diagonal.
    """
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    if m.first_column is not None:
        return m.first_column[0] ** m.rows
    return _bareiss_two_step(list(m.entries))


def _bareiss_two_step(a: list) -> int:
    """The determinant of the square matrix with rows a, by Bareiss's two-step form.

    Kept out of determinant, whose lower-Toeplitz path the sweep takes
    thousands of times: the closures here make their cells at every call.
    """
    # a holds rows and columns k.. of the elimination and prev its last
    # pivot.  Rows 0, 1 of a, the first pair whose 2x2 minor on columns
    # 0, 1 is nonzero, clear those two columns.
    sign = prev = 1
    while len(a) > 1:
        for r, row in enumerate(a):
            if row[0] or row[1]:
                break
        x, y = a[r][:2]
        for s in range(r + 1, len(a)):
            if x * a[s][1] != y * a[s][0]:
                break
        else:  # columns 0, 1 of a are dependent
            return 0
        for i, j in (0, r), (1, s):
            if i != j:
                a[i], a[j], sign = a[j], a[i], -sign
        (p, q, *top), (u, v, *nxt) = a[0], a[1]
        c0 = (p * v - q * u) // prev
        rows = []
        for row in a[2:]:
            x, y = row[0], row[1]
            # Sylvester's identity makes each of these divisions exact.
            c1, c2 = (q * x - p * y) // prev, (u * y - v * x) // prev
            rows.append(
                [(z * c0 + b * c1 + t * c2) // prev for z, b, t in zip(row[2:], nxt, top)]
            )
        a, prev = rows, c0
    return sign * (a[0][0] if a else prev)


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Smith divisors of m: the diagonal of D in smith_certificate(m).

    For square nonsingular m the divisors come from three steps whose
    entries stay bounded: R = |det m| (see determinant), the content c of
    m, and _divisors_mod, the elimination of m / c over Z/r for
    r = R / c**k.  As SNF(c * B) = c * SNF(B), each divisor of m is c times
    one of m / c, and r = 1 needs no elimination.  A lower-Toeplitz m gives
    R and c from its first column, so G(N, d) of ktheory.pipeline_divisors
    builds no row.  A singular or non-square m takes the diagonal of
    smith_certificate, with the trailing zero divisors (gcd(0, q) = q).

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    (1, 6)
    """
    if m.is_square:
        r = abs(determinant(m))
        if r:
            k = m.rows
            c = math.gcd(*(m.first_column or [x for row in m.entries for x in row]))
            r //= c**k
            if r == 1:
                return (c,) * k
            b = m.entries if c == 1 else tuple(tuple(x // c for x in row) for row in m.entries)
            return tuple(c * x for x in sys.modules[__name__]._divisors_mod(b, r))
    d = sys.modules[__name__].smith_certificate(m)[1]
    return tuple(d[i, i] for i in range(min(m.rows, m.cols)))

