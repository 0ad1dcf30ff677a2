import itertools
import random
from math import gcd

import pytest

import ksing.params
from ksing import (
    DimensionTooSmall,
    ExponentTooLarge,
    InputError,
    NonPositiveExponent,
    NotPrime,
    PrimeOutOfRange,
    QuotientParams,
    WeightNotCoprime,
    WeightOutOfRange,
    WeightSumMismatch,
    iter_weight_tuples,
    validate_params,
    validate_prime_power,
)

from conftest import weight_tuples_from_units


def brute_valid_weights(n, d):
    return {
        w
        for w in itertools.product(range(1, n), repeat=d)
        if sum(w) == n and all(gcd(a, n) == 1 for a in w)
    }


def test_low_dim_example_params():
    p = validate_params(5, 3, [1, 2, 2])
    assert p == QuotientParams(5, 3, (1, 2, 2))
    assert p.vertex_count == 4


def test_smallest_admissible_case():
    assert validate_params(2, 2, [1, 1]) == QuotientParams(2, 2, (1, 1))


def test_non_coprime_weight_rejected():
    with pytest.raises(WeightNotCoprime):
        validate_params(4, 3, [1, 1, 2])


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        validate_params(5, 1, [5])
    with pytest.raises(DimensionTooSmall):
        validate_params(5, 3, [1, 2, 2, 0])  # length mismatch checked on d


def test_weight_out_of_range():
    with pytest.raises(WeightOutOfRange):
        validate_params(5, 3, [0, 3, 2])
    with pytest.raises(WeightOutOfRange):
        validate_params(5, 3, [5, -1, 1])
    # n < 2 leaves no admissible weight at all
    with pytest.raises(WeightOutOfRange):
        validate_params(1, 2, [1, 1])


def test_weight_sum_mismatch():
    with pytest.raises(WeightSumMismatch):
        validate_params(7, 2, [1, 2])


def test_range_check_precedes_coprimality():
    # weight 0 violates both range and coprimality; range wins
    with pytest.raises(WeightOutOfRange):
        validate_params(4, 2, [0, 4])


def test_weights_keep_input_order():
    assert validate_params(5, 3, [2, 1, 2]).weights == (2, 1, 2)


def test_enumeration_matches_bruteforce():
    # exhaustive over the full weight cube for n <= 12, d <= 5
    for n in range(2, 13):
        for d in range(2, 6):
            expected = brute_valid_weights(n, d)
            assert set(iter_weight_tuples(n, d)) == expected


def test_enumeration_matches_the_unit_list_oracle_in_order():
    for n in range(0, 17):
        for d in range(0, n + 2):
            assert list(iter_weight_tuples(n, d)) == list(weight_tuples_from_units(n, d))


def test_enumeration_yields_its_first_tuple_without_listing_the_units():
    # A list of the units below 10**20 could never be made.
    n = 10**20 + 1
    assert next(iter_weight_tuples(n, 3)) == (1, 1, n - 2)
    assert next(iter_weight_tuples(10**7 + 19, 3)) == (1, 1, 10**7 + 17)


def test_validate_accepts_exactly_the_valid_tuples():
    rng = random.Random(7)
    for n in range(2, 11):
        for d in range(2, 6):
            valid = brute_valid_weights(n, d)
            for w in valid:
                assert validate_params(n, d, w).weights == w
            universe = list(itertools.product(range(1, n), repeat=d))
            invalid = [w for w in universe if w not in valid]
            for w in rng.sample(invalid, min(25, len(invalid))):
                with pytest.raises(InputError):
                    validate_params(n, d, w)


def test_prime_power_examples():
    assert validate_prime_power(2, 1).q == 2
    assert validate_prime_power(13, 1).q == 13
    assert validate_prime_power(13, 3).q == 2197
    with pytest.raises(NotPrime):
        validate_prime_power(4, 1)


def test_prime_power_errors():
    with pytest.raises(NonPositiveExponent):
        validate_prime_power(3, 0)
    with pytest.raises(NonPositiveExponent):
        validate_prime_power(3, -2)
    for composite in (1, 0, -7, 341, 561, 3215031751, 2**61 + 1):
        with pytest.raises(NotPrime):
            validate_prime_power(composite, 1)
    with pytest.raises(PrimeOutOfRange):
        validate_prime_power(2**64 + 13, 1)


@pytest.mark.parametrize("l", [2, 3, 13, 2**61 - 1, 2**64 - 59])
def test_prime_power_refuses_a_modulus_past_its_bit_bound(l):
    # The bound is nu * l.bit_length() <= 65,536, checked before l**nu is
    # built: nu = 10**18 would never finish.
    top = ksing.params.MAX_MODULUS_BITS // l.bit_length()
    assert validate_prime_power(l, top).q == l**top
    for nu in (top + 1, 10**18):
        with pytest.raises(ExponentTooLarge, match=f"exponent nu = {nu} is too large"):
            validate_prime_power(l, nu)
    assert ksing.params.MAX_MODULUS_BITS == 65_536


def test_large_prime_accepted():
    mersenne = 2**61 - 1
    assert validate_prime_power(mersenne, 2).q == mersenne**2


def test_non_integer_inputs_rejected():
    with pytest.raises(TypeError):
        validate_params(5.0, 3, [1, 2, 2])
    with pytest.raises(TypeError):
        validate_params(5, 3, [1.5, 2, 1.5])
    with pytest.raises(TypeError):
        validate_prime_power(3.0, 1)


def test_params_are_immutable_values():
    p = validate_params(5, 3, (1, 2, 2))
    with pytest.raises(AttributeError):
        p.n = 7
    same = validate_params(5, 3, [1, 2, 2])
    assert p == same and hash(p) == hash(same)
    assert repr(p) == "QuotientParams(n=5, d=3, weights=(1, 2, 2))"
    coeff = validate_prime_power(3, 2)
    with pytest.raises(AttributeError):
        coeff.q = 10
    assert coeff == validate_prime_power(3, 2)
    assert hash(coeff) == hash(validate_prime_power(3, 2))
    assert repr(coeff) == "PrimePower(l=3, nu=2, q=9)"
