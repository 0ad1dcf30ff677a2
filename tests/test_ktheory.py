import doctest
import itertools
import json
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ksing.cartan
import ksing.ktheory
import ksing.linalg
from ksing import (
    LOW_DIM_PARAMS,
    LOW_DIM_PRINTED_DET,
    LOW_DIM_PRINTED_MATRIX,
    DimensionTooSmall,
    FiniteAbelianGroup,
    InputError,
    IntMatrix,
    KTheoryReport,
    SourceUnavailable,
    TRIVIAL_GROUP,
    cartan_matrix,
    compute_ktheory,
    corollary_analysis,
    determinant,
    family_matrix_closed_form,
    matrix_from_source,
    mod_q_kernel_cokernel,
    multiset_number,
    path_counts_gf,
    pfaffian,
    pipeline_matrix,
    smith_normal_form,
    validate_params,
    validate_prime_power,
    verify_paper,
)
from ksing.ktheory import _family_even, _family_odd

from conftest import (
    mod_q_annihilator_counts,
    predicted_annihilator_counts,
)


def test_doctests():
    for module in (ksing.ktheory, ksing.cartan):
        result = doctest.testmod(module)
        assert result.failed == 0
        assert result.attempted > 0


class TestMultisetNumber:
    def test_examples(self):
        assert multiset_number(3, 0) == 1
        assert multiset_number(5, 1) == 5
        assert multiset_number(3, 2) == 6

    def test_counts_actual_multisets(self):
        for d in range(1, 6):
            for r in range(0, 6):
                enumerated = sum(
                    1 for _ in itertools.combinations_with_replacement(range(d), r)
                )
                assert multiset_number(d, r) == enumerated

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            multiset_number(0, 1)
        with pytest.raises(ValueError):
            multiset_number(3, -1)


class TestFiniteAbelianGroup:
    def test_canonicalization(self):
        assert FiniteAbelianGroup.from_orders([2, 3]).invariant_factors == (6,)
        assert FiniteAbelianGroup.from_orders([2, 2]).invariant_factors == (2, 2)
        assert FiniteAbelianGroup.from_orders([4, 2, 3]).invariant_factors == (2, 12)
        assert FiniteAbelianGroup.from_orders([12, 18]).invariant_factors == (6, 36)
        assert FiniteAbelianGroup.from_orders([]).is_trivial
        assert FiniteAbelianGroup.from_orders([1, 1, 1]).is_trivial

    def test_order_and_str(self):
        g = FiniteAbelianGroup.from_orders([2, 6])
        assert g.order == 12
        assert str(g) == "Z/2 ⊕ Z/6"
        assert str(TRIVIAL_GROUP) == "0"
        assert TRIVIAL_GROUP.order == 1

    def test_rejects_nonpositive_orders(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup.from_orders([0])


def reference_invariant_factors(orders):
    """Invariant factors by prime bucketing, as the seed library computed
    them: factor every order by trial division, sort each prime's exponents
    in descending order, and multiply the r-th largest power of every prime
    into the r-th factor from the top."""

    def factorize(m):
        out = {}
        p = 2
        while p * p <= m:
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
            p += 1 if p == 2 else 2
        if m > 1:
            out[m] = out.get(m, 0) + 1
        return out

    by_prime = {}
    for m in orders:
        for p, e in factorize(m).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    for exps in by_prime.values():
        exps.sort(reverse=True)
    length = max(len(exps) for exps in by_prime.values())
    factors = []
    for r in range(length):
        f = 1
        for p, exps in by_prime.items():
            if r < len(exps):
                f *= p ** exps[r]
        factors.append(f)
    return tuple(reversed(factors))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 10**4), max_size=10))
def test_from_orders_matches_prime_bucketing(orders):
    factors = FiniteAbelianGroup.from_orders(orders).invariant_factors
    assert factors == reference_invariant_factors(orders)
    assert all(f >= 2 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert prod(factors) == prod(orders)


class TestModQKernelCokernel:
    def test_multiplication_by_two_on_z4(self):
        ker, coker = mod_q_kernel_cokernel(IntMatrix([[-2]]), 4)
        assert ker == coker == FiniteAbelianGroup((2,))

    def test_zero_map(self):
        ker, coker = mod_q_kernel_cokernel(IntMatrix.zeros(2, 2), 3)
        assert ker == coker == FiniteAbelianGroup((3, 3))

    def test_printed_fixture_groups(self):
        for q, expected in ((2, (2,)), (13, (13,)), (5, ())):
            ker, coker = mod_q_kernel_cokernel(LOW_DIM_PRINTED_MATRIX, q)
            assert ker.invariant_factors == expected
            assert ker == coker

    def test_input_guards(self):
        with pytest.raises(ValueError):
            mod_q_kernel_cokernel(IntMatrix([[1]]), 1)
        with pytest.raises(ValueError):
            mod_q_kernel_cokernel(IntMatrix([[1, 2]]), 4)

    def test_agrees_with_explicit_enumeration(self):
        cases = [
            (IntMatrix([[-2]]), 4),
            (IntMatrix([[2, 1], [0, 2]]), 4),
            (IntMatrix([[6, 4], [2, 8]]), 12),
            (pipeline_matrix(LOW_DIM_PARAMS), 5),
            (LOW_DIM_PRINTED_MATRIX, 13),
        ]
        for m, q in cases:
            ker, coker = mod_q_kernel_cokernel(m, q)
            counts = mod_q_annihilator_counts(m, q)
            predicted_ker = predicted_annihilator_counts(ker.invariant_factors, q)
            predicted_coker = predicted_annihilator_counts(coker.invariant_factors, q)
            for e, (nk, nc) in counts.items():
                assert nk == predicted_ker[e], (m, q, e)
                assert nc == predicted_coker[e], (m, q, e)


class TestComputeKTheory:
    def test_family_d3(self):
        report = compute_ktheory(
            validate_params(3, 3, [1, 1, 1]), validate_prime_power(3, 1)
        )
        assert report.even_group == FiniteAbelianGroup((3, 3))
        assert report.odd_group == FiniteAbelianGroup((3, 3))
        assert report.negative_degrees.is_trivial

    def test_family_d5(self):
        report = compute_ktheory(
            validate_params(5, 5, [1] * 5), validate_prime_power(5, 1)
        )
        assert report.even_group == FiniteAbelianGroup((5, 5, 5, 5))

    def test_low_dim_pipeline_mod_7_vanishes(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(7, 1))
        assert report.even_group.is_trivial and report.odd_group.is_trivial
        assert gcd(determinant(report.matrix), 7) == 1

    def test_kernel_equals_cokernel_always(self):
        for n, d, w, l in ((5, 3, (1, 2, 2), 5), (4, 4, (1, 1, 1, 1), 2), (7, 2, (3, 4), 7)):
            report = compute_ktheory(
                validate_params(n, d, w), validate_prime_power(l, 2)
            )
            assert report.even_group == report.odd_group

    def test_group_invariant_under_weight_permutation(self):
        reports = [
            compute_ktheory(validate_params(5, 3, w), validate_prime_power(5, 1))
            for w in ((1, 2, 2), (2, 1, 2), (2, 2, 1))
        ]
        assert len({r.even_group for r in reports}) == 1
        assert len({r.divisors for r in reports}) == 1

    def test_fixture_source(self):
        report = compute_ktheory(
            LOW_DIM_PARAMS, validate_prime_power(2, 3), "paper-fixture"
        )
        assert report.matrix == LOW_DIM_PRINTED_MATRIX
        assert report.even_group == FiniteAbelianGroup((2,))
        assert report.matrix_source == "paper-fixture"

    def test_source_gating(self):
        with pytest.raises(SourceUnavailable):
            compute_ktheory(
                validate_params(5, 3, [1, 2, 2]),
                validate_prime_power(2, 1),
                "closed-form-family",
            )
        with pytest.raises(SourceUnavailable):
            compute_ktheory(
                validate_params(3, 3, [1, 1, 1]),
                validate_prime_power(2, 1),
                "paper-fixture",
            )
        with pytest.raises(SourceUnavailable):
            compute_ktheory(
                validate_params(2, 2, [1, 1]),
                validate_prime_power(2, 1),
                "closed-form-family",
            )
        with pytest.raises(SourceUnavailable):
            compute_ktheory(
                LOW_DIM_PARAMS, validate_prime_power(2, 1), "no-such-source"
            )

    def test_family_source_matches_closed_form(self):
        p = validate_params(4, 4, [1, 1, 1, 1])
        assert matrix_from_source(p, "closed-form-family") == family_matrix_closed_form(4)

    def test_report_json_round_trip(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(2, 2))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["schema_version"] == 1
        assert KTheoryReport.from_json_dict(payload) == report


class TestFamilyClosedForm:
    def test_d3_matrix(self):
        assert family_matrix_closed_form(3) == IntMatrix([[0, -3], [3, -9]])

    def test_d3_first_diagonal_entry_is_empty_sum(self):
        assert family_matrix_closed_form(3)[0, 0] == 0

    def test_prime_d_gives_zero_matrix_mod_d(self):
        for d in (3, 5, 7, 11):
            m = family_matrix_closed_form(d)
            assert all(x % d == 0 for row in m.entries for x in row)
            # and therefore the groups are (Z/d)^(d-1)
            ker, _ = mod_q_kernel_cokernel(m, d)
            assert ker.invariant_factors == (d,) * (d - 1)

    def test_prime_d_pipeline_matrix_also_vanishes_mod_d(self):
        # the Cartan matrix is the identity mod a prime d, so the whole
        # pipeline map is zero on (Z/d)^(d-1)
        for d in (3, 5, 7):
            m = pipeline_matrix(validate_params(d, d, (1,) * d))
            assert all(x % d == 0 for row in m.entries for x in row)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            family_matrix_closed_form(2)

    def test_even_odd_formula_relation(self):
        # evaluated at the same d, the two printed variants differ by
        # an overall sign and -2 on the diagonal
        for d in range(3, 9):
            odd = _family_odd(d)
            even = _family_even(d)
            assert even == -odd - 2 * IntMatrix.identity(d - 1)


class TestCorollaryAnalysis:
    def test_conclusion_i_fires_on_nonvanishing(self):
        report = compute_ktheory(
            validate_params(3, 3, [1, 1, 1]), validate_prime_power(3, 1)
        )
        notes = corollary_analysis(report)
        assert [n.conclusion for n in notes] == ["i", "i"]
        assert {n.parity for n in notes} == {"even", "odd"}
        assert all("3" in n.statement for n in notes)

    def test_conclusion_ii_fires_on_vanishing(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(7, 2))
        notes = corollary_analysis(report)
        assert [n.conclusion for n in notes] == ["ii"]
        assert notes[0].parity is None
        assert "49-divisible" in notes[0].statement

    def test_hints_are_recorded_not_interpreted(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(7, 1))
        notes = corollary_analysis(report, integral_hints="context")
        assert "context" in notes[0].statement

    def test_notes_attached_to_report(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(7, 1))
        assert report.corollary_notes == corollary_analysis(report)


class TestVerifyPaper:
    def test_low_dim_discrepancy_is_reported(self):
        report = verify_paper("low-dim-example")
        assert report.reference_det == LOW_DIM_PRINTED_DET == 26
        assert report.computed_det == 25
        assert report.pfaffian == -5
        assert report.computed_det_is_square
        assert not report.agree
        assert len(report.entry_diffs) == 8
        # nothing was silently patched on either side
        assert report.reference_matrix == LOW_DIM_PRINTED_MATRIX
        assert report.computed_matrix == pipeline_matrix(LOW_DIM_PARAMS)

    def test_family_d3_agrees_exactly(self):
        report = verify_paper("family", 3)
        assert report.agree
        assert report.entry_diffs == ()
        assert report.reference_matrix == report.computed_matrix == IntMatrix(
            [[0, -3], [3, -9]]
        )

    def test_family_larger_d_is_computed_not_assumed(self):
        for d in (4, 5, 6):
            report = verify_paper("family", d)
            assert report.agree == (not report.entry_diffs)
            assert report.reference_matrix == family_matrix_closed_form(d)
            assert report.computed_matrix == pipeline_matrix(
                validate_params(d, d, (1,) * d)
            )

    def test_fixture_validation(self):
        with pytest.raises(InputError):
            verify_paper("family")
        with pytest.raises(InputError):
            verify_paper("nonsense")

    def test_json_payload(self):
        payload = verify_paper("low-dim-example").to_json_dict()
        assert payload["schema_version"] == 1
        v = payload["verification"]
        assert v["reference_det"] == 26
        assert v["computed_det"] == 25
        assert v["agree"] is False
        assert len(v["entry_diffs"]) == 8
        json.dumps(payload)  # serializable


def test_vanishing_iff_det_coprime_to_q():
    for n, d, w in ((5, 3, (1, 2, 2)), (4, 4, (1, 1, 1, 1)), (6, 2, (1, 5))):
        params = validate_params(n, d, w)
        m = pipeline_matrix(params)
        det = determinant(m)
        for l, nu in ((2, 1), (3, 1), (5, 2), (13, 1)):
            coeff = validate_prime_power(l, nu)
            report = compute_ktheory(params, coeff)
            assert (
                report.even_group.is_trivial and report.odd_group.is_trivial
            ) == (gcd(det, coeff.q) == 1)


def test_divisors_match_snf():
    report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(5, 1))
    assert report.divisors == smith_normal_form(report.matrix).divisors


def test_compute_ktheory_never_builds_the_certificate(monkeypatch):
    def refuse(m):
        raise AssertionError("certificate elimination was run")

    monkeypatch.setattr(ksing.linalg, "_snf_certificate", refuse)
    coeff = validate_prime_power(5, 1)
    for params in (
        LOW_DIM_PARAMS,
        validate_params(21, 21, (1,) * 21),
        validate_params(101, 5, (1, 2, 3, 4, 91)),
    ):
        report = compute_ktheory(params, coeff)
        assert prod(report.divisors) == params.n ** (params.d - 1)
    assert mod_q_kernel_cokernel(LOW_DIM_PRINTED_MATRIX, 13)[0].order == 13


def assert_divisor_invariants(params, divisors):
    m = pipeline_matrix(params)
    assert len(divisors) == m.rows
    assert all(d > 0 for d in divisors)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert prod(divisors) == abs(determinant(m))
    # Observed on every set the certificate elimination can reach; the
    # Smith form computes |det| itself and does not rely on it.
    assert prod(divisors) == params.n ** (params.d - 1)


@pytest.mark.parametrize("n", range(21, 29))
def test_family_divisor_invariants_beyond_n_20(n):
    params = validate_params(n, n, (1,) * n)
    report = compute_ktheory(params, validate_prime_power(2, 1))
    assert_divisor_invariants(params, report.divisors)


@st.composite
def valid_params(draw, max_n=60, odd_d=False):
    if odd_d:
        # Weights are units, so an even n forces an even d.
        n = 2 * draw(st.integers(1, (max_n - 1) // 2)) + 1
        d = 2 * draw(st.integers(1, (n - 1) // 2)) + 1
    else:
        n = draw(st.integers(2, max_n))
        if n % 2:
            d = draw(st.integers(2, n))
        else:
            # Weights are units, so for even n they are odd and d must be even.
            d = 2 * draw(st.integers(1, n // 2))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    weights = []
    remaining = n
    for slot in range(d - 1):
        room = remaining - (d - 1 - slot)
        weights.append(draw(st.sampled_from([a for a in units if a <= room])))
        remaining -= weights[-1]
    assume(gcd(remaining, n) == 1)
    return validate_params(n, d, weights + [remaining])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(valid_params())
def test_divisor_invariants_on_random_parameters(params):
    divisors = smith_normal_form(pipeline_matrix(params)).divisors
    assert_divisor_invariants(params, divisors)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(valid_params(max_n=40, odd_d=True))
def test_pipeline_determinant_is_the_squared_pfaffian(params):
    # For odd d, M = (C - C^T)(C^T)^-1 with C^T unipotent, so det M is
    # Pf(C - C^T)**2.  The Pfaffian side never builds M.
    c = cartan_matrix(path_counts_gf(params))
    assert determinant(pipeline_matrix(params)) == pfaffian(c - c.transpose()) ** 2
