"""Validation of the singularity parameters and the coefficient prime power.

A cyclic quotient singularity is determined by the order n of the cyclic
group, the dimension d, and d weights a_1..a_d with 0 < a_j < n,
gcd(a_j, n) = 1 and a_1 + ... + a_d = n.  Weights are kept in input order:
equal weights give distinct parallel arrows downstream, so they are never
sorted or deduplicated.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterator, NamedTuple

from .errors import InputError


class DimensionTooSmall(InputError):
    """d < 2, or the weight list does not have exactly d entries."""


class WeightOutOfRange(InputError):
    """Some weight a_j violates 0 < a_j < n."""


class WeightNotCoprime(InputError):
    """Some weight shares a nontrivial factor with n."""


class WeightSumMismatch(InputError):
    """The weights do not sum to n."""


class NotPrime(InputError):
    """The coefficient base l is not a prime number."""


class NonPositiveExponent(InputError):
    """The coefficient exponent nu is < 1."""


class PrimeOutOfRange(InputError):
    """Primality is decided deterministically only for l < 2**64."""


class QuotientParams(NamedTuple):
    """Validated data (n, d, a_1..a_d) of a cyclic quotient singularity."""

    n: int
    d: int
    weights: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        """Number of quiver vertices after truncation, n - 1."""
        return self.n - 1

    def to_json_dict(self) -> dict:
        """The ``params`` object of every JSON output."""
        return {"n": self.n, "d": self.d, "weights": list(self.weights)}


class PrimePower(NamedTuple):
    """A coefficient modulus q = l**nu with l prime and nu >= 1."""

    l: int
    nu: int
    q: int


def validate_params(n, d, weights) -> QuotientParams:
    """Check all parameter invariants; raise on the first violated one.

    Conditions are checked in order: dimension, weight range, weight
    coprimality, weight sum.  The error class names the failed condition.
    """
    n = operator.index(n)
    d = operator.index(d)
    weights = tuple(operator.index(a) for a in weights)
    if d < 2:
        raise DimensionTooSmall(f"dimension d must be at least 2, got {d}")
    if len(weights) != d:
        raise DimensionTooSmall(
            f"expected d = {d} weights, got {len(weights)}"
        )
    for j, a in enumerate(weights, 1):
        if not 0 < a < n:
            raise WeightOutOfRange(
                f"weight a_{j} = {a} must satisfy 0 < a_{j} < n = {n}"
            )
    for j, a in enumerate(weights, 1):
        g = gcd(a, n)
        if g != 1:
            raise WeightNotCoprime(
                f"gcd(a_{j}, n) = gcd({a}, {n}) = {g}; every weight must be"
                f" coprime to n"
            )
    total = sum(weights)
    if total != n:
        raise WeightSumMismatch(f"weights sum to {total}, expected n = {n}")
    return QuotientParams(n, d, weights)


# Witnesses proving deterministic Miller-Rabin correct for all m < 3.3e24,
# which covers the supported range m < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_u64(m: int) -> bool:
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def validate_prime_power(l, nu) -> PrimePower:
    """Validate l prime and nu >= 1; return the exact modulus q = l**nu."""
    l = operator.index(l)
    nu = operator.index(nu)
    if nu < 1:
        raise NonPositiveExponent(f"exponent nu must be >= 1, got {nu}")
    if l >= 2**64:
        raise PrimeOutOfRange(
            f"prime base must be below 2**64, got {l}"
        )
    if not _is_prime_u64(l):
        raise NotPrime(f"coefficient base {l} is not prime")
    return PrimePower(l, nu, l**nu)


def iter_weight_tuples(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Yield every valid weight tuple for (n, d) in lexicographic order."""
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
