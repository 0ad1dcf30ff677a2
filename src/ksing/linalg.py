"""Exact integer matrix arithmetic.

Dense matrices over Python's arbitrary-precision integers: transposes,
differences and products, unipotent inverses, determinants, Pfaffians,
Smith divisors and unimodular Smith certificates.  There is no floating
point, no rational arithmetic and no fixed-width fast path anywhere:
determinants (Bareiss) and Pfaffians (the Pfaffian analogue) are
fraction-free, and each of their divisions is exact.

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

Two eliminations give the Smith form.  smith_normal_form returns the
divisors of a square nonsingular matrix with bounded entries: +-1 pivots
over Z, the content c of the block left divided out, then elimination over
Z/r for a multiple r of the last divisor (Storjohann 2000).
smith_certificate returns U, D, V from an elimination over Z whose entries
are not bounded; ``ksing snf`` runs it alone and prints the diagonal of D.
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

    ``first_column`` is recorded by ``lower_toeplitz``, else None.  A matrix
    from ``lower_toeplitz`` or ``theorem_matrix`` records its order and a
    builder instead of rows, and builds them on the first read of ``entries``.
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
    return IntMatrix.lower_toeplitz(col)


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
    q_nonzeros = tuple((j, sign * x) for j, x in enumerate(q.first_column) if x)
    return _deferred(c.rows, None, _theorem_rows, c.first_column, q_nonzeros)


def _theorem_rows(p: tuple, q_nonzeros: tuple) -> tuple:
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


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Smith divisors of m: the diagonal of D in smith_certificate(m).

    For square nonsingular m the divisors come from four steps whose
    entries stay bounded: unimodular eliminations on +-1 pivots over Z
    (each contributes a divisor 1), R = |det| of the k x k block A that
    remains (see determinant), its content c, and _divisors_mod, the
    elimination of A / c over Z/r for r = R / c**k.  As SNF(c * B) =
    c * SNF(B), each divisor of A is c times one of A / c, and r = 1 needs
    none.  A lower-Toeplitz m with no +-1 entry is A itself, with R and c
    read off its first column, so G(N, d) of ktheory.pipeline_divisors builds
    no row.  A singular or non-square m takes the diagonal of
    smith_certificate, with the trailing zero divisors (gcd(0, q) = q).

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    (1, 6)
    """
    if m.is_square:
        col = m.first_column  # if recorded, it holds every nonzero entry of m
        a = m if col and 1 not in col and -1 not in col else _unchecked(_unit_pivot_block(m))
        k = a.rows
        ones = (1,) * (m.rows - k)
        if not k:
            return ones
        r = abs(determinant(a))
        if r:
            c = math.gcd(*(a.first_column or [x for row in a.entries for x in row]))
            r //= c**k
            if r == 1:
                return ones + (c,) * k
            b = a.entries if c == 1 else tuple(tuple(x // c for x in row) for row in a.entries)
            return ones + tuple(c * x for x in _divisors_mod(b, r))
    d = smith_certificate(m)[1]
    return tuple(d[i, i] for i in range(min(m.rows, m.cols)))


def _unit_pivot_block(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Eliminate +-1 pivots of a square m; return the dense block left.

    Each step pivots on a +-1 entry of the shortest row that holds one,
    which keeps fill-in low, clears its column by walking the other rows
    and drops its row and column, until no +-1 entry is left.  With every
    pivot a unit, the block left is a Schur complement whose entries are
    minors of m, so they stay within the Hadamard bound.  An m without a
    +-1 entry is the block.
    """
    if not any(1 in row or -1 in row for row in m.entries):
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


def _divisors_mod(a: tuple[tuple[int, ...], ...], r: int) -> tuple[int, ...]:
    """Smith divisors of a square nonsingular a, by elimination over Z/r.

    r is any positive multiple of the last divisor, such as |det a|: then
    coker a is a Z/r-module, and the divisors over Z/r are those over Z.

    An entry x prime to r is a unit, a divisor 1: the other rows minus
    multiples of x's row clear its column, and then clearing its row by
    column operations changes nothing else.  Units are tested modulo s,
    with s = l where r = l**e for the least prime l <= k + 1 dividing r
    (then x is a unit exactly when l does not divide it), else s = r.
    With no unit left, g = gcd(r, entries) divides every divisor to come;
    it is divided out of the block and out of r, and r / g is a multiple
    of the last divisor of a / g.  With no unit and
    g = 1, Z/r has stable rank 1 (Storjohann 2000, stab): later rows, each
    times the largest divisor of r prime to the first row's content, are
    added to the first row until that content is prime to r, and then
    columns to column 0 in the same way until the corner is a unit.  A row
    is reduced modulo r when it becomes the pivot row, not at each update,
    so each update is one product and a sum, adding less than r**2 to an
    entry.  The loop ends when r is 1 or the block is empty.  Divisors come
    out smallest first.
    """
    out, c = [], 1
    b = [list(row) for row in a]
    l = next((p for p in range(2, len(b) + 2) if r % p == 0), 1)
    s = l if pow(l, r.bit_length(), r) == 0 else r
    while r > 1 and b:
        for i, p in enumerate(b):
            j = next((j for j, x in enumerate(p) if x % s and math.gcd(x, s) == 1), None)
            if j is not None:
                break
        else:
            g = math.gcd(r, *[x for row in b for x in row])
            if g > 1:
                r //= g
                c *= g
                s = math.gcd(s, r)
                b = [[x // g % r for x in row] for row in b]
                continue
            i = j = 0
            p = b[0]
            for row in b[1:]:
                g = math.gcd(r, *p)
                if g == 1:
                    break
                t = _part_prime_to(r, g)
                p[:] = [(x + t * y) % r for x, y in zip(p, row)]
            for h in range(1, len(p)):
                if math.gcd(p[0], r) == 1:
                    break
                t = _part_prime_to(r, p[0])
                for row in b:
                    row[0] = (row[0] + t * row[h]) % r
        del b[i]
        p = [x % r for x in p]
        f = r - pow(p.pop(j), -1, r)
        nonzeros = [(h, x) for h, x in enumerate(p) if x]
        for row in b:
            y = row.pop(j) * f % r
            if y:
                for h, x in nonzeros:
                    row[h] += y * x
        out.append(c)
    return tuple(out) + (c,) * len(b)


def _part_prime_to(r: int, x: int) -> int:
    """The largest divisor of r prime to x."""
    g = math.gcd(r, x)
    while g > 1:
        r //= g
        g = math.gcd(r, g)
    return r


def smith_certificate(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Unimodular U, V and diagonal D with U @ m @ V == D.

    Reduction over Z on w = [[m, I], [I, 0]]: row operations on the top
    rows act on m and U, column operations on the left columns on m and V.
    Step t starts at the least nonzero |entry| left, then works in rounds:
    move the pivot to (t, t), reduce column t below it and row t right of
    it to floor remainders, and pivot next on the least remainder.  Once
    none is left, fold in a row the pivot does not divide, so that each
    divisor divides the next.  The diagonal of D is then smith_normal_form
    of m: nonnegative, each nonzero entry dividing the next, zeros last.
    Entries are not bounded: on the unit-weight family U and V reach 1,155
    bits at n = 19 and 29,760 bits at n = 32.

    >>> m = IntMatrix([[2, 4], [6, 8]])
    >>> u, d, v = smith_certificate(m)
    >>> d.to_lists(), u @ m @ v == d
    ([[2, 0], [0, 4]], True)
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
