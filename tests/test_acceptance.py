"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Stated runtime bounds are asserted with wall-clock timing.
"""

import random
import time
from contextlib import contextmanager
from math import gcd

from ksing import (
    LOW_DIM_PARAMS,
    FiniteAbelianGroup,
    IntMatrix,
    build_quiver,
    cartan_matrix,
    compute_ktheory,
    determinant,
    mod_q_kernel_cokernel,
    path_counts_bruteforce,
    path_counts_gf,
    pfaffian,
    pipeline_matrix,
    smith_normal_form,
    validate_params,
    validate_prime_power,
)
from ksing.cli import main as cli_main

from conftest import (
    all_valid_params,
    matrix_sum,
    mod_q_annihilator_counts,
    predicted_annihilator_counts,
    random_int_matrix,
    random_unimodular,
)


@contextmanager
def criterion(label, description, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, (
            f"criterion {label} took {elapsed:.2f}s, bound is {max_seconds}s"
        )
    print(f"PASS criterion {label}: {description} ({elapsed:.2f}s)")


def test_criterion_1_family_reproduction():
    with criterion(
        1, "family n=d in {3,5,7} with q=d gives (Z/d)^(d-1)", max_seconds=5.0
    ):
        for d in (3, 5, 7):
            params = validate_params(d, d, (1,) * d)
            report = compute_ktheory(params, validate_prime_power(d, 1))
            expected = FiniteAbelianGroup((d,) * (d - 1))
            assert report.even_group == expected
            assert report.odd_group == expected


def test_criterion_2_fixture_reproduction():
    with criterion(
        2,
        "fixture det=26; Z/2 and Z/13 for nu in {1,2,3}; vanishing at 3,5,7,11",
        max_seconds=1.0,
    ):
        fixture_report = compute_ktheory(
            LOW_DIM_PARAMS, validate_prime_power(2, 1), "paper-fixture"
        )
        assert determinant(fixture_report.matrix) == 26
        for l, expected in ((2, (2,)), (13, (13,))):
            for nu in (1, 2, 3):
                report = compute_ktheory(
                    LOW_DIM_PARAMS, validate_prime_power(l, nu), "paper-fixture"
                )
                assert report.even_group.invariant_factors == expected
                assert report.odd_group.invariant_factors == expected
        for l in (3, 5, 7, 11):
            report = compute_ktheory(
                LOW_DIM_PARAMS, validate_prime_power(l, 1), "paper-fixture"
            )
            assert report.even_group.is_trivial
            assert report.odd_group.is_trivial


def test_criterion_3_oracle_equivalence():
    with criterion(
        3,
        "series path counts equal brute-force enumeration for n<=10, d<=6",
        max_seconds=60.0,
    ):
        grid = all_valid_params(10, 6)
        assert len(grid) > 100
        for params in grid:
            gf = path_counts_gf(params)
            brute = path_counts_bruteforce(build_quiver(params))
            assert gf == brute, params


def test_criterion_4_snf_certificates():
    with criterion(
        4, "SNF certificates and divisor invariance on 500 random matrices"
    ):
        rng = random.Random(2024)
        for trial in range(500):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_int_matrix(rng, rows, cols, 50)
            dec = smith_normal_form(m)
            assert dec.U @ m @ dec.V == dec.D, trial
            assert abs(determinant(dec.U)) == 1, trial
            assert abs(determinant(dec.V)) == 1, trial
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert dec.D[i, j] == 0
            nonzero = [x for x in dec.divisors if x]
            assert all(x > 0 for x in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0, trial
            assert nonzero == [x for x in dec.divisors if x][: len(nonzero)]
            assert list(dec.divisors[len(nonzero):]) == [0] * (
                len(dec.divisors) - len(nonzero)
            )
            left = random_unimodular(rng, rows)
            right = random_unimodular(rng, cols)
            assert smith_normal_form(left @ m @ right).divisors == dec.divisors


def test_criterion_5_kernel_cokernel_modular_oracle():
    with criterion(
        5,
        "kernel=cokernel canonical forms match explicit enumeration"
        " (n<=8, q in {2,3,4,5,8,9,13}, q^k<=1e6)",
    ):
        qs = (2, 3, 4, 5, 8, 9, 13)
        for params in all_valid_params(8):
            m = pipeline_matrix(params)
            k = m.rows
            for q in qs:
                kernel, cokernel = mod_q_kernel_cokernel(m, q)
                assert kernel == cokernel, (params, q)
                if q**k > 10**6:
                    continue
                counts = mod_q_annihilator_counts(m, q)
                predicted = predicted_annihilator_counts(
                    kernel.invariant_factors, q
                )
                for e, (n_ker, n_coker) in counts.items():
                    assert n_ker == predicted[e], (params, q, e)
                    assert n_coker == predicted[e], (params, q, e)


def test_criterion_6_determinant_identities():
    with criterion(
        6,
        "det identities: odd d det M = det(C-C^T) (0 or a Pfaffian square);"
        " even d |det M| = |det(C+C^T)|",
    ):
        for params in all_valid_params(10):
            c = cartan_matrix(path_counts_gf(params))
            m = pipeline_matrix(params)
            det_m = determinant(m)
            if params.d % 2 == 1:
                skew = c - c.transpose()
                assert det_m == determinant(skew), params
                if (params.n - 1) % 2 == 1:
                    assert det_m == 0, params
                else:
                    assert det_m == pfaffian(skew) ** 2, params
            else:
                assert abs(det_m) == abs(determinant(matrix_sum(c, c.transpose()))), params


def test_criterion_7_verification_report(capsys):
    with criterion(
        7,
        "verify-paper renders the low-dim discrepancy and the family d=3"
        " agreement",
    ):
        code = cli_main(["verify-paper", "--fixture", "low-dim-example"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reference det = 26" in out
        assert "perfect square" in out
        assert "pipeline det = 25" in out
        assert "DISCREPANCY" in out
        # entrywise diff is nonzero and rendered
        assert "entry differences" in out

        code = cli_main(["verify-paper", "--fixture", "family", "--d", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact agreement" in out
        assert "[ 0  -3 ]" in out
        assert "[ 3  -9 ]" in out


def test_criterion_8_report_shape():
    with criterion(
        8,
        "negative degrees trivial; mod-q groups vanish iff gcd(det M, q) = 1",
    ):
        qs = (2, 3, 4, 5, 7, 9, 13, 25)
        for params in all_valid_params(8):
            m = pipeline_matrix(params)
            det = determinant(m)
            for l, nu in ((2, 1), (3, 2), (5, 1), (7, 1), (13, 1)):
                coeff = validate_prime_power(l, nu)
                report = compute_ktheory(params, coeff)
                assert report.negative_degrees.is_trivial
                vanishes = (
                    report.even_group.is_trivial and report.odd_group.is_trivial
                )
                assert vanishes == (gcd(det, coeff.q) == 1), (params, coeff)
            for q in qs:
                kernel, cokernel = mod_q_kernel_cokernel(m, q)
                vanishes = kernel.is_trivial and cokernel.is_trivial
                assert vanishes == (gcd(det, q) == 1), (params, q)


def test_criterion_corollary_reporting():
    with criterion(
        "corollary",
        "conclusion (i) fires on the family inputs, (ii) on the vanishing"
        " fixture primes",
    ):
        for d in (3, 5, 7):
            report = compute_ktheory(
                validate_params(d, d, (1,) * d), validate_prime_power(d, 1)
            )
            assert [n.conclusion for n in report.corollary_notes] == ["i", "i"]
            assert {n.parity for n in report.corollary_notes} == {"even", "odd"}
        for l in (3, 5, 7, 11):
            report = compute_ktheory(
                LOW_DIM_PARAMS, validate_prime_power(l, 1), "paper-fixture"
            )
            assert [n.conclusion for n in report.corollary_notes] == ["ii"]
        for l in (2, 13):
            report = compute_ktheory(
                LOW_DIM_PARAMS, validate_prime_power(l, 1), "paper-fixture"
            )
            assert {n.conclusion for n in report.corollary_notes} == {"i"}
