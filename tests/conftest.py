"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
determinants by cofactor expansion, Pfaffians by the 4x4 combinatorial
formula and by Parlett-Reid elimination over the rationals, quivers by
the literal three-step truncation, kernels / cokernels over Z/q by
explicit enumeration of the map on (Z/q)^k, the unipotent inverse and
theorem matrix by their dense definitions over plain lists, the
closed-form family by a fresh sum per entry, Smith divisors by
extended gcds modulo |det| and by ksing.linalg._divisors_mod modulo a
proven power of l, path classes by sorted letter tuples, and weight
tuples from a list of every unit below n.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

import ksing.linalg
from ksing import (
    InputError,
    IntMatrix,
    NotHomogeneous,
    PathExplosion,
    QuotientParams,
    iter_weight_tuples,
)


def all_valid_params(max_n: int, max_d: int | None = None) -> list[QuotientParams]:
    """Every valid parameter tuple with n <= max_n (and optionally d <= max_d)."""
    out = []
    for n in range(2, max_n + 1):
        top = n if max_d is None else min(n, max_d)
        for d in range(2, top + 1):
            for weights in iter_weight_tuples(n, d):
                out.append(QuotientParams(n, d, weights))
    return out


def modules_after_main(argv: list[str]) -> set[str]:
    """The ``ksing`` modules loaded in a fresh process after ``import
    ksing.cli`` and ``ksing.cli.main(argv)``, which must return 0."""
    code = (
        "import contextlib, io, sys, ksing.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = ksing.cli.main({argv!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'ksing'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ksing.linalg.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    exit_code, *modules = out.split()
    assert exit_code == "0"
    return set(modules)


def weight_tuples_from_units(n: int, d: int):
    """Valid weight tuples for (n, d) in lexicographic order, from a list of
    every unit below n made first.

    An oracle for ksing.iter_weight_tuples, which tests each weight as it
    reaches it and forces the last one.
    """
    units = [a for a in range(1, n) if gcd(a, n) == 1]

    def extend(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                yield prefix
            return
        for a in units:
            if a > remaining - (slots - 1):
                break
            yield from extend(prefix + (a,), remaining - a, slots - 1)

    if d >= 2:
        yield from extend((), n, d)


def three_step_quiver(params: QuotientParams):
    """Literal three-step truncation on Z/nZ; returns (arrows, relations).

    Arrows are (source, target, letter) triples, relations (vertex, j, j')
    with j < j'.  A relation survives when all four arrows of its square
    do; the two sides are checked separately.
    """
    n, weights = params.n, params.weights
    full = {
        (i, (i + a) % n, j)
        for i in range(n)
        for j, a in enumerate(weights, 1)
    }
    no_wrap = {(i, t, j) for (i, t, j) in full if i < t}
    arrows = {(i, t, j) for (i, t, j) in no_wrap if i != 0 and t != 0}

    relations = set()
    for i in range(n):
        for j in range(1, len(weights) + 1):
            for jp in range(j + 1, len(weights) + 1):
                a, b = weights[j - 1], weights[jp - 1]
                side1 = (
                    (i, (i + a) % n, j) in arrows
                    and ((i + a) % n, (i + a + b) % n, jp) in arrows
                )
                side2 = (
                    (i, (i + b) % n, jp) in arrows
                    and ((i + b) % n, (i + a + b) % n, j) in arrows
                )
                assert side1 == side2, (
                    f"square ({i}, {j}, {jp}) of {params} has one side"
                    f" truncated but not the other"
                )
                if side1 and side2:
                    relations.add((i, j, jp))
    return arrows, relations


def path_counts_sorted_tuples(q, cap: int = 10_000_000) -> list[int]:
    """Path-class counts with each class a sorted tuple of its letters.

    An oracle for ksing.path_counts_bruteforce, which holds a class as one
    integer: the same walk over the arrows in order of target, the same
    checks and the same messages.
    """
    if cap < 0:
        raise InputError(f"raw path cap must be nonnegative, got {cap}")
    if q.vertex_count < 1:
        raise InputError("quiver has no vertices")
    if any(not 1 <= source < target <= q.vertex_count for source, target, _ in q.arrows):
        raise InputError(f"arrows must go up within vertices 1..{q.vertex_count}")
    arrows = sorted(q.arrows, key=lambda a: a.target)

    raw = 0
    per_start: dict[int, dict[int, int]] = {}
    for start in range(1, q.vertex_count + 1):
        paths = {start: 1}
        classes: dict[int, set[tuple[int, ...]]] = {start: {()}}
        for source, target, letter in arrows:
            if source in paths:
                raw += paths[source]
                if raw > cap:
                    raise PathExplosion(
                        f"more than {cap} raw paths; raise the cap to continue"
                    )
                paths[target] = paths.get(target, 0) + paths[source]
                classes.setdefault(target, set()).update(
                    tuple(sorted(c + (letter,))) for c in classes[source]
                )
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


def laplace_det(rows) -> int:
    """Cofactor-expansion determinant; exponential, for small matrices only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * x * laplace_det(minor)
    return total


def pfaffian4(m: IntMatrix) -> int:
    """The 4x4 Pfaffian a12*a34 - a13*a24 + a14*a23."""
    assert m.rows == m.cols == 4
    return m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]


def pfaffian_fractions(rows) -> int:
    """Pfaffian by Parlett-Reid elimination over Fractions.

    Pivots on (k, k + 1), swapping in the first later column with a
    nonzero entry in row k (Pf changes sign), and subtracts the rank-2
    update divided by the pivot; Pf is the product of the pivots.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    pf = Fraction(1)
    for k in range(0, n - 1, 2):
        piv = next((j for j in range(k + 1, n) if a[k][j]), None)
        if piv is None:
            return 0
        if piv != k + 1:
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
    assert pf.denominator == 1
    return int(pf)


def identity(k: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(k)] for i in range(k)])


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([[0] * cols for _ in range(rows)])


def matrix_sum(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return IntMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)])


def check_unipotent(m: IntMatrix) -> None:
    """Raise ValueError naming the first entry, row by row, that keeps m
    from being square, lower triangular and with ones on the diagonal."""
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, not square")
    for i, row in enumerate(m.entries):
        if row[i] != 1:
            raise ValueError(f"diagonal entry ({i}, {i}) is {row[i]}, not 1")
        for j in range(i + 1, m.cols):
            if row[j]:
                raise ValueError(f"entry ({i}, {j}) above the diagonal is {row[j]}")


def reference_inverse(m: IntMatrix) -> IntMatrix:
    """Dense forward substitution, row by row over every entry, of a
    matrix that check_unipotent accepts."""
    check_unipotent(m)
    k = m.rows
    e = m.entries
    inv = [[0] * k for _ in range(k)]
    for i in range(k):
        inv[i][i] = 1
        for j in range(i - 1, -1, -1):
            inv[i][j] = -sum(e[i][t] * inv[t][j] for t in range(j, i))
    return IntMatrix(inv)


def reference_theorem_matrix(c: IntMatrix, d: int) -> IntMatrix:
    """sign * C (C^-1)^T - Id entry by entry: (C Q^T)[i][j] = sum_t C[i][t] Q[j][t]."""
    sign = 1 if d % 2 == 1 else -1
    q = reference_inverse(c).entries
    return IntMatrix(
        [
            [sign * sum(x * y for x, y in zip(row, q_row)) - (i == j)
             for j, q_row in enumerate(q)]
            for i, row in enumerate(c.entries)
        ]
    )


def family_matrix_direct(d: int) -> list[list[int]]:
    """The closed-form family matrix with each entry a fresh sum, O(d^3).

    X[i][j] = +-m_e - sum_(0<r<min(i, j)) m_r * m_(e+r) for 1-based i, j,
    e = |i - j| and m_r the multiset numbers, the sign + for i >= j; then
    M = s * X - Id with s = (-1)**(d-1).
    """
    sign = 1 if d % 2 == 1 else -1
    ms = [comb(d + r - 1, r) for r in range(d - 1)]

    def x(i, j):
        if i < j:
            return -sum(a * b for a, b in zip(ms[:i], ms[j - i:]))
        return ms[i - j] - sum(a * b for a, b in zip(ms[1:j], ms[i - j + 1:]))

    return [[sign * x(i, j) - (i == j) for j in range(1, d)] for i in range(1, d)]


def random_int_matrix(rng, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng, k: int, steps: int = 12) -> IntMatrix:
    """Product of elementary shears, swaps and sign flips; |det| = 1."""
    m = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for t in range(k):
                m[i][t] += c * m[j][t]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g == gcd(a, b) for a, b >= 0.

    Returns (a, 1, 0) whenever a divides b, so a pivot that already
    divides an entry is left in place; otherwise the row and column passes
    of divisors_by_extended_gcds could undo each other forever.
    """
    if a and b % a == 0:
        return a, 1, 0
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def divisors_by_extended_gcds(a: tuple[tuple[int, ...], ...], r: int) -> tuple[int, ...]:
    """Smith divisors of a square nonsingular a, given r = |det a|.

    An oracle for ksing.linalg._divisors_mod, which pivots on units of Z/r
    and takes no extended gcd.

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
            g = gcd(pivot_row[i], r)
            if g == 1:
                break
            offender = next((row for row in a[:i] if any(x % g for x in row[:i])), None)
            if offender is None:
                break
            pivot_row = a[i] = [(p + t) % r for p, t in zip(pivot_row, offender)]
        out.append(g)
        r //= g
    return tuple(out)


def proven_exponent(l: int, v: int, m: int) -> int:
    """E = sum over i <= v of ceil(m / phi(l**i)).

    Modulo Phi_(l**i)(1 - y), y is a uniformizer of Z_l[zeta_(l**i)] and l
    a unit times y**phi(l**i), so l**ceil(m / phi(l**i)) lies in
    (y**m, Phi_(l**i)(1 - y)); the product over i <= v of these ideals lies
    in (y**m, g_q) for q = l**v.  So l**E kills Z_l[y]/(y**m, g_q), and it
    is a multiple of the last divisor of G(q, m + 1).
    """
    return sum(-(-m // (l**i - l ** (i - 1))) for i in range(1, v + 1))


def companion_block(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients of y**(m + i) mod g_q, for i < q - 1.

    g_q has leading coefficient (-1)**(q-1) at y**(q-1), so Z[y]/(g_q) is
    free on 1, ..., y**(q-2), with y**(q-1) = sum_j (-1)**(q+j) C(q, j + 1)
    y**j there.  Z[y]/(y**m, g_q) is the cokernel of multiplication by y**m
    on it, this block; for q - 1 <= m its q - 1 divisors, after m - q + 1
    ones, are those of G(q, m + 1).
    """
    top = [(-1) ** (q + j) * comb(q, j + 1) for j in range(q - 1)]
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


def divisors_modulo_l_e(l: int, v: int, d: int) -> tuple[int, ...]:
    """The d - 1 divisors of G(l**v, d), by _divisors_mod modulo l**E.

    The block is companion_block where q = l**v <= d - 1, else the Toeplitz
    matrix of the C(q, i), i < d, which has the divisors of G(q, d).  Each
    call is one ksing.linalg._divisors_mod, looked up on the module.
    """
    q, m = l**v, d - 1
    if q <= m:
        rows = companion_block(q, m)
    else:
        g = [comb(q, i) for i in range(1, d)]
        rows = tuple(tuple(g[i - j] if j <= i else 0 for j in range(m)) for i in range(m))
    block = ksing.linalg._divisors_mod(rows, l ** proven_exponent(l, v, m))
    return (1,) * (m - len(block)) + block


def divisors_of(q: int) -> list[int]:
    return [e for e in range(1, q + 1) if q % e == 0]


_VECTOR_CACHE: dict = {}


def _mod_q_vectors(q: int, k: int):
    """All of (Z/q)^k as a (q**k, k) int64 array, plus per-divisor data."""
    key = (q, k)
    if key not in _VECTOR_CACHE:
        idx = np.arange(q**k, dtype=np.int64)
        powers = q ** np.arange(k, dtype=np.int64)
        vecs = (idx[:, None] // powers[None, :]) % q
        per_divisor = {}
        for e in divisors_of(q):
            scaled = vecs * e % q
            per_divisor[e] = (
                (scaled == 0).all(axis=1),
                scaled @ powers,
            )
        _VECTOR_CACHE[key] = (vecs, powers, per_divisor)
    return _VECTOR_CACHE[key]


def mod_q_annihilator_counts(m: IntMatrix, q: int) -> dict[int, tuple[int, int]]:
    """For each e | q: (#kernel elements killed by e, #cokernel ditto).

    Fully enumerates the map x -> Mx on (Z/q)^k.  A finite abelian group
    annihilated by q is determined up to isomorphism by these counts, so
    matching them against a claimed group proves the isomorphism type.
    Entries stay far below 2**63: k * q^2 <= 7 * 169^2.
    """
    k = m.rows
    vecs, powers, per_divisor = _mod_q_vectors(q, k)
    mm = np.array([[x % q for x in row] for row in m.entries], dtype=np.int64)
    images = vecs @ mm.T % q
    kernel_mask = (images == 0).all(axis=1)
    in_image = np.zeros(q**k, dtype=bool)
    in_image[images @ powers] = True
    image_size = int(np.count_nonzero(in_image))
    out = {}
    for e, (killed_mask, scaled_keys) in per_divisor.items():
        ker = int(np.count_nonzero(kernel_mask & killed_mask))
        hits = int(np.count_nonzero(in_image[scaled_keys]))
        assert hits % image_size == 0
        out[e] = (ker, hits // image_size)
    return out


def predicted_annihilator_counts(orders, q: int) -> dict[int, int]:
    """Counts N_e = #{g : e*g = 0} for the direct sum of Z/m over orders."""
    return {e: prod(gcd(e, m) for m in orders) for e in divisors_of(q)}
