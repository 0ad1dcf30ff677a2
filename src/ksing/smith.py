"""The general Smith eliminations: no pipeline answer runs them.

``linalg.smith_normal_form`` of a pipeline matrix divides out its content c
and finds |det| / c**k = 1, so it eliminates nothing.  The two eliminations
are here: ``_divisors_mod``, over Z/r, which smith_normal_form runs where
the content leaves r > 1, and ``smith_certificate``, over Z, which
``ksing snf`` runs and smith_normal_form takes for a singular or non-square
matrix.  ``import ksing`` does not load this module: its names load on
first use.
"""

from __future__ import annotations

import math

from .linalg import IntMatrix


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

    u = IntMatrix(row[ncols:] for row in w[:nrows])
    d = IntMatrix(row[:ncols] for row in w[:nrows])
    return u, d, IntMatrix(row[:ncols] for row in w[nrows:])


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
