import doctest
import functools
import gc
import itertools
import json
import pickle
from math import comb, gcd, isqrt, prod

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
    pipeline_divisors,
    pipeline_matrix,
    smith_normal_form,
    validate_params,
    validate_prime_power,
    verify_paper,
)

from conftest import (
    all_valid_params,
    divisors_by_extended_gcds,
    divisors_modulo_l_e,
    family_matrix_direct,
    mod_q_annihilator_counts,
    predicted_annihilator_counts,
    proven_exponent,
    reference_theorem_matrix,
    zeros,
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


def _gcd_orders(divisors, q):
    return FiniteAbelianGroup.from_orders(gcd(di, q) for di in divisors)


def test_groups_from_a_divisor_chain_match_from_orders():
    # Every (n, d) of the grid, the unit-weight family and the few-weight
    # sets, at prime powers and at moduli with several primes.
    pairs = {(n, d) for n in range(2, 13) for d in range(2, n + 1)}
    pairs |= {(n, n) for n in range(3, 21)} | {(n, d) for n, d, _ in WIDE_SETS}
    chains = [pipeline_divisors(n, d) for n, d in sorted(pairs)]
    moduli = [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27, 47, 49, 6, 12, 30, 60, 210, 2310]
    mismatches = [
        (chain, q)
        for chain in chains
        for q in moduli
        for divisors in (chain, chain[chain.count(1):])
        if ksing.ktheory._groups_from_divisors(divisors, q) != _gcd_orders(divisors, q)
    ]
    assert mismatches == []
    # Chains whose last divisor has several primes, such as n = 6, are in.
    assert sum(len({p for p in (2, 3, 5, 7) if c[-1] % p == 0}) > 1 for c in chains) > 10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(1, 40), max_size=6),
    st.integers(0, 3),
    st.integers(2, 5000),
)
def test_groups_from_smith_diagonals_ending_in_zeros_match_from_orders(ones, steps, nulls, q):
    chain = [1] * ones
    for step in steps:
        chain.append((chain[-1] if chain else 1) * step)
    chain += [0] * nulls
    got = ksing.ktheory._groups_from_divisors(tuple(chain), q)
    assert got == _gcd_orders(chain, q)
    assert type(got) is FiniteAbelianGroup


class TestModQKernelCokernel:
    def test_multiplication_by_two_on_z4(self):
        ker, coker = mod_q_kernel_cokernel(IntMatrix([[-2]]), 4)
        assert ker == coker == FiniteAbelianGroup((2,))

    def test_zero_map(self):
        ker, coker = mod_q_kernel_cokernel(zeros(2, 2), 3)
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

    def test_reports_are_immutable_values(self):
        report = compute_ktheory(LOW_DIM_PARAMS, validate_prime_power(5, 1))
        for obj, field in (
            (report, "divisors"),
            (report.even_group, "invariant_factors"),
            (report.corollary_notes[0], "statement"),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, field, ())
        same = compute_ktheory(validate_params(5, 3, [1, 2, 2]), validate_prime_power(5, 1))
        assert report == same and hash(report) == hash(same)
        assert repr(report.even_group) == "FiniteAbelianGroup(invariant_factors=(5, 5))"

    def test_report_pickle_round_trip(self):
        # Lazily built Toeplitz rows and family matrices alike.
        for params, source in (
            (validate_params(61, 2, (1, 60)), "theorem-pipeline"),
            (validate_params(6, 6, (1,) * 6), "closed-form-family"),
        ):
            report = compute_ktheory(params, validate_prime_power(3, 2), source)
            copy = pickle.loads(pickle.dumps(report))
            assert copy == report and type(copy) is KTheoryReport
            assert copy.to_json_dict() == report.to_json_dict()


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

    @pytest.mark.parametrize("d", range(3, 31))
    def test_tabled_formulas_match_a_direct_evaluation(self, d):
        # The published formulas with every multiset number computed in place.
        ms, sign = multiset_number, 1 if d % 2 == 1 else -1

        def entry(i, j):
            if i < j:
                return -sign * sum(ms(d, r) * ms(d, (j - i) + r) for r in range(i))
            if i == j:
                return (sign - 1) - sign * sum(ms(d, r) ** 2 for r in range(1, i))
            return sign * (
                -sum(ms(d, (i - j) + r) * ms(d, r) for r in range(1, j)) + ms(d, i - j)
            )

        want = [[entry(i, j) for j in range(1, d)] for i in range(1, d)]
        assert family_matrix_closed_form(d).to_lists() == want

    def test_running_sums_match_a_fresh_sum_per_entry(self):
        # The library keeps one running sum per diagonal; the oracle sums
        # each entry afresh.
        for d in range(3, 41):
            assert family_matrix_closed_form(d).to_lists() == family_matrix_direct(d)


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
        ref, got = report.reference_matrix, report.computed_matrix
        assert report.entry_diffs == tuple(
            (i + 1, j + 1, ref[i, j], got[i, j])
            for i in range(4)
            for j in range(4)
            if ref[i, j] != got[i, j]
        )
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
        for d in (4, 5, 6, 11):
            report = verify_paper("family", d)
            assert report.agree == (not report.entry_diffs)
            ref, got = report.reference_matrix.entries, report.computed_matrix.entries
            assert report.entry_diffs == tuple(
                (i + 1, j + 1, ref[i][j], got[i][j])
                for i in range(d - 1)
                for j in range(d - 1)
                if ref[i][j] != got[i][j]
            )
            assert report.reference_matrix == family_matrix_closed_form(d)
            assert report.computed_matrix == pipeline_matrix(
                validate_params(d, d, (1,) * d)
            )

    def test_pfaffian_identity_is_checked_not_asserted(self, monkeypatch):
        import ksing.verification

        report = verify_paper("low-dim-example")
        assert report.notes[2] == (
            "pipeline det equals det(C - C^T) = Pf(C - C^T)**2 = (-5)**2 = 25"
        )
        # A wrong determinant is reported next to the Pfaffian, not replaced.
        monkeypatch.setattr(ksing.verification, "determinant", lambda m: 24)
        for fixture, d in ("low-dim-example", None), ("family", 5):
            report = verify_paper(fixture, d)
            assert report.computed_det == 24 and report.pfaffian is not None
            pf = report.pfaffian
            assert (
                f"pipeline det 24 differs from det(C - C^T) = Pf(C - C^T)**2 ="
                f" ({pf})**2 = {pf * pf}"
            ) in report.notes
            assert not any("equals" in note for note in report.notes)

    def test_fixture_validation(self):
        with pytest.raises(InputError):
            verify_paper("family")
        with pytest.raises(InputError):
            verify_paper("nonsense")
        with pytest.raises(InputError, match="no dimension"):
            verify_paper("low-dim-example", 7)

    def test_reports_are_immutable_values(self):
        report = verify_paper("family", 5)
        with pytest.raises(AttributeError):
            report.agree = True
        same = verify_paper("family", 5)
        assert report == same and hash(report) == hash(same)

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
    assert report.divisors == smith_normal_form(report.matrix)


def test_compute_ktheory_never_builds_the_certificate(monkeypatch):
    def refuse(m):
        raise AssertionError("certificate elimination was run")

    monkeypatch.setattr(ksing.linalg, "smith_certificate", refuse)
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
    # det G = n**(d-1) (see pipeline_divisors); the Smith form of M
    # computes |det| itself and does not rely on it.
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
    divisors = smith_normal_form(pipeline_matrix(params))
    assert_divisor_invariants(params, divisors)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(valid_params(max_n=40, odd_d=True))
def test_pipeline_determinant_is_the_squared_pfaffian(params):
    # For odd d, M = (C - C^T)(C^T)^-1 with C^T unipotent, so det M is
    # Pf(C - C^T)**2.  The Pfaffian side never builds M.
    c = cartan_matrix(path_counts_gf(params))
    assert determinant(pipeline_matrix(params)) == pfaffian(c - c.transpose()) ** 2


@pytest.mark.parametrize("d", range(3, 32, 2))
def test_family_determinant_is_the_squared_pfaffian(d):
    params = validate_params(d, d, (1,) * d)
    c = cartan_matrix(path_counts_gf(params))
    skew = c - c.transpose()
    assert pfaffian(skew) ** 2 == determinant(skew) == determinant(pipeline_matrix(params))


# The few-weight sets with n = 61..151 of the wide-lowdim benchmark workload.
WIDE_SETS = (
    (61, 2, (1, 60)),
    (101, 2, (1, 100)),
    (151, 2, (1, 150)),
    (81, 3, (1, 40, 40)),
    (101, 3, (1, 50, 50)),
    (141, 3, (1, 70, 70)),
    (77, 4, (1, 2, 3, 71)),
    (101, 4, (1, 2, 3, 95)),
    (121, 4, (1, 2, 3, 115)),
    (91, 5, (1, 2, 3, 4, 81)),
    (101, 5, (1, 2, 3, 4, 91)),
    (119, 5, (1, 2, 3, 4, 109)),
)


def assert_pipeline_divisors(params):
    want = smith_normal_form(pipeline_matrix(params))
    assert pipeline_divisors(params.n, params.d) == want


def test_pipeline_divisors_on_the_grid():
    grid = all_valid_params(12)
    assert len(grid) == 1318
    for params in grid:
        m = pipeline_matrix(params)
        assert pipeline_divisors(params.n, params.d) == smith_normal_form(m)
        assert determinant(m) == (-1) ** (params.n - 1) * params.n ** (params.d - 1)


@pytest.mark.parametrize("n", range(3, 29))
def test_pipeline_divisors_on_the_unit_weight_family(n):
    assert_pipeline_divisors(validate_params(n, n, (1,) * n))


@pytest.mark.parametrize("n, d, weights", WIDE_SETS)
def test_pipeline_divisors_on_few_weights_and_large_n(n, d, weights):
    assert_pipeline_divisors(validate_params(n, d, weights))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(valid_params())
def test_pipeline_divisors_on_random_parameters(params):
    assert_pipeline_divisors(params)


def test_pipeline_divisors_count_the_l_primary_summands():
    # ROADMAP item 4's summand count, from no elimination: modulo l, g_n is a
    # unit times y**(l**v - 1) for v = v_l(n), so exactly
    # min(l**v - 1, d - 1) divisors of G are divisible by l.
    checked = 0
    for n in range(2, 61):
        for d in range(2, min(n, 14) + 1):
            divisors = pipeline_divisors(n, d)
            for l in (2, 3, 5, 7, 11, 13):
                v = 0
                while n % l ** (v + 1) == 0:
                    v += 1
                count = sum(1 for x in divisors if x % l == 0)
                assert count == min(l**v - 1, d - 1), (n, d, l)
                checked += 1
    assert checked == 4134


def _prime_power_parts(n):
    """{l: v} with l**v || n, by trial division."""
    parts, p = {}, 2
    while n > 1:
        while n % p == 0:
            n //= p
            parts[p] = parts.get(p, 0) + 1
        p += 1
    return parts


@functools.lru_cache(maxsize=None)
def _divisors_of_g_by_extended_gcds(n, d):
    """Smith divisors of the signed G(n, d), whole, by extended gcds alone.

    The content step and the extended-gcd elimination modulo
    n**(d-1) / c**(d-1) give its divisors without smith_normal_form or any
    code of the library.
    """
    g = [(-1) ** i * comb(n, i + 1) for i in range(d - 1)]
    c = gcd(*g)
    rows = tuple(
        tuple(g[i - j] // c if j <= i else 0 for j in range(d - 1)) for i in range(d - 1)
    )
    r = (n // c) ** (d - 1)
    divisors = (1,) * (d - 1) if r == 1 else divisors_by_extended_gcds(rows, r)
    return tuple(c * x for x in divisors)


def test_prime_by_prime_route_matches_the_smith_form_of_g():
    # pipeline_divisors, one part per prime power (proof (f)-(k)), against
    # the extended-gcd elimination of all of G, which it never runs.
    checked = 0
    for n in range(2, 41):
        for d in range(2, n + 1):
            want = (1,) * (n - d) + _divisors_of_g_by_extended_gcds(n, d)
            assert pipeline_divisors(n, d) == want, (n, d)
            checked += 1
    assert checked == 780


def test_pipeline_divisors_eliminate_only_modulo_prime_powers(monkeypatch):
    # pipeline_divisors eliminates nothing: a part q = l**v with l <= d - 1
    # is the closed form (k), at v = 1 that of (i), and the rest N its
    # content (h).  The oracle divisors_modulo_l_e eliminates each part with
    # v >= 2 once, modulo l**E, pivoting on entries prime to l, and gives
    # the same l-part.
    divisors_mod = ksing.linalg._divisors_mod
    moduli = []

    def recording(a, r):
        moduli.append(r)
        return divisors_mod(a, r)

    monkeypatch.setattr(ksing.linalg, "_divisors_mod", recording)
    pairs = [(n, d) for n in range(2, 61) for d in range(2, n + 1)]
    pairs += [(202, 100), (58, 29), (240, 240)]
    chains = {}
    for n, d in pairs:
        chains[n, d] = divisors = pipeline_divisors(n, d)
        assert prod(divisors) == n ** (d - 1), (n, d)
    assert moduli == []
    want = []
    for n, d in pairs:
        for l, v in _prime_power_parts(n).items():
            if v >= 2 and l < d:
                want.append(l ** proven_exponent(l, v, d - 1))
                l_part = [_l_part(x, l) for x in chains[n, d][n - d:]]
                assert l_part == list(divisors_modulo_l_e(l, v, d)), (n, d, l)
    assert moduli == want
    assert len(moduli) == 729


def _slot_exponents(l, v, m):
    """e(i, j) = v - i + 1 + floor((m - j - l**(i-1)) / phi(l**i)), slot by
    slot over the slots j < phi(l**i) with m - j >= l**(i-1), listed from
    level i = v down to 1, each level from its last slot to its first."""
    out = []
    for i in range(v, 0, -1):
        phi = l**i - l ** (i - 1)
        out += [
            v - i + 1 + (m - j - l ** (i - 1)) // phi
            for j in reversed(range(phi))
            if m - j >= l ** (i - 1)
        ]
    return out


def _chain(l, exponents, m):
    """The m divisors with these exponents of l, after ones."""
    return (1,) * (m - len(exponents)) + tuple(l**e for e in exponents)


PRIME_POWERS_TO_64 = (4, 8, 16, 32, 64, 9, 27, 25, 49)


def test_l_part_at_v_at_least_2_matches_the_smith_form_of_g():
    # The closed form (k) against both oracles on all of G(q, d), d <= q:
    # the extended-gcd elimination and the elimination modulo l**E, whose
    # modulus is checked against the last divisor; and the formula, slot
    # by slot, against them.  Its list ascends as it stands.
    checked = 0
    for q in PRIME_POWERS_TO_64:
        (l, v), = _prime_power_parts(q).items()
        for d in range(2, q + 1):
            want = _divisors_of_g_by_extended_gcds(q, d)
            assert pipeline_divisors(q, d) == (1,) * (q - d) + want, (q, d)
            assert divisors_modulo_l_e(l, v, d) == want, (q, d)
            assert l ** proven_exponent(l, v, d - 1) % want[-1] == 0, (q, d)
            exponents = _slot_exponents(l, v, d - 1)
            assert exponents == sorted(exponents), (q, d)
            assert _chain(l, exponents, d - 1) == want, (q, d)
            checked += 1
    assert checked == 225


def _least_prime_above(m):
    p = m + 1
    while any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        p += 1
    return p


def test_l_part_at_v_at_least_2_above_q_matches_the_modular_oracle():
    # m = d - 1 from q to 3q, 5q + 3 and 8q, through n = q P for the least
    # prime P > m, so that l <= m: the oracle eliminates the companion
    # block of y**m on Z[y]/(g_q) modulo l**E.
    checked = 0
    for q in PRIME_POWERS_TO_64:
        (l, v), = _prime_power_parts(q).items()
        for m in [*range(q, 3 * q + 1), 5 * q + 3, 8 * q]:
            n, d = q * _least_prime_above(m), m + 1
            want = divisors_modulo_l_e(l, v, d)
            l_part = tuple(_l_part(x, l) for x in pipeline_divisors(n, d)[n - d:])
            assert l_part == want, (q, m)
            assert _chain(l, _slot_exponents(l, v, m), m) == want, (q, m)
            checked += 1
    assert checked == 495


def _valuation(x, l):
    """The exponent of l in x != 0, by repeated squaring of the divisor."""
    e = 0
    while x % l == 0:
        p, k = l, 1
        while x % (p * p) == 0:
            p, k = p * p, 2 * k
        x //= p
        e += k
    return e


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_l_part_at_v_at_least_2_counts_sums_and_ascends(data):
    # Past the oracles: q = l**v <= 5000 and m < 3q, at n = q s for a prime
    # s != l with q s > m, or s = 1.  Modulo l, g_q is y**(q-1) times a
    # unit, so there are min(m, q - 1) summands; det G(q, d) = q**m, so
    # their exponents sum to v m; and the chain ascends.
    l = data.draw(st.sampled_from((2, 3, 5, 7, 11)), label="l")
    v = data.draw(st.integers(2, max(v for v in range(2, 13) if l**v <= 5000)), label="v")
    q = l**v
    m = data.draw(st.integers(1, 3 * q - 1), label="m")
    s = 1 if q > m else next(p for p in (2, 3, 5) if p != l and q * p > m)
    n, d = q * s, m + 1
    exponents = [e for x in pipeline_divisors(n, d)[n - d:] if (e := _valuation(x, l))]
    assert len(exponents) == min(m, q - 1)
    assert sum(exponents) == v * m
    assert exponents == sorted(exponents)
    assert exponents == _slot_exponents(l, v, m)


def test_pipeline_report_leaves_the_rows_of_m_unbuilt():
    # The divisors come from (n, d) alone, so nothing reads M until it is
    # printed; once read, its rows are those of the dense route.  The report
    # holds no reference cycle, so reference counting frees it.
    params = validate_params(61, 3, (1, 1, 59))
    gc.collect()
    gc.disable()
    try:
        report = compute_ktheory(params, validate_prime_power(61, 1))
        m = report.matrix
        assert (m.rows, m.cols, m.is_square) == (60, 60, True)
        with pytest.raises(AttributeError):
            IntMatrix.entries.__get__(m)  # the slot, unset
        del report, m
        assert gc.collect() == 0
    finally:
        gc.enable()
    m = compute_ktheory(params, validate_prime_power(61, 1)).matrix
    assert m == reference_theorem_matrix(cartan_matrix(path_counts_gf(params)), 3)


def test_g_of_a_prime_n_is_never_built(monkeypatch):
    # Proof step (h): G(N, d) is N times a unipotent matrix, so its Smith
    # form reads |det| and the content off the recorded first column.
    snf = ksing.ktheory.smith_normal_form
    blocks = []

    def recording(m):
        blocks.append(m)
        return snf(m)

    monkeypatch.setattr(ksing.ktheory, "smith_normal_form", recording)
    for n, d in [(n, d) for n in (2, 3, 5, 7, 11, 13, 61, 151) for d in range(2, n + 1)] + [(77, 5)]:
        assert pipeline_divisors(n, d) == (1,) * (n - d) + (n,) * (d - 1)
    assert len(blocks) == 1 + 2 + 4 + 6 + 10 + 12 + 60 + 150 + 1
    for g in blocks:
        with pytest.raises(AttributeError):
            IntMatrix.entries.__get__(g)  # the slot, unset


def test_pipeline_divisors_take_no_bareiss_determinant(monkeypatch):
    # |det| of every block is known (proof (f)), so the only determinant
    # taken is the product of the diagonal of G(N, d), which records its
    # first column.
    determinant = ksing.linalg.determinant
    calls = []

    def recorded_only(m):
        assert m.first_column is not None, "Bareiss determinant taken"
        calls.append(m.rows)
        return determinant(m)

    monkeypatch.setattr(ksing.linalg, "determinant", recorded_only)
    for n in range(2, 61):
        for d in range(2, n + 1):
            pipeline_divisors(n, d)
    assert calls


def _l_part(x, l):
    part = 1
    while x % l == 0:
        x //= l
        part *= l
    return part


def _closed_form_l_part(n, d, l):
    """The closed form of proof step (i), written out: for v_l(n) = 1 the
    l-part is Z_l[zeta_l]/(pi**(d-1)), i.e. (Z/l**(q+1))**r +
    (Z/l**q)**(l-1-r) with d - 1 = q (l - 1) + r, after n - l trivial
    divisors."""
    q, r = divmod(d - 1, l - 1)
    return [1] * (n - l) + [l**q] * (l - 1 - r) + [l ** (q + 1)] * r


def _l_part_by_extended_gcds(n, d, l):
    """The l-part of pipeline_divisors(n, d) for l || n, by proof step (f):
    n - d ones, then the divisors of G(l, d), eliminated by extended gcds."""
    return [1] * (n - d) + list(_divisors_of_g_by_extended_gcds(l, d))


def test_l_part_at_v_1_is_the_closed_form():
    # The pipeline's l-part, which the closed form gives, against the
    # elimination of G(l, d); and that elimination against the closed form.
    checked = 0
    for n in range(2, 200):
        parts = _prime_power_parts(n)
        primes = [l for l in (2, 3, 5, 7, 11, 13) if parts.get(l) == 1]
        if not primes:
            continue
        for d in range(2, min(n, 40) + 1):
            divisors = pipeline_divisors(n, d)
            for l in primes:
                want = _l_part_by_extended_gcds(n, d, l)
                assert [_l_part(x, l) for x in divisors] == want, (n, d, l)
                assert want == _closed_form_l_part(n, d, l), (n, d, l)
                checked += 1
    assert checked == 6366


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_l_part_at_v_1_is_the_closed_form_on_random_draws(data):
    # Beyond the n < 200 grid: n = l * m with l not dividing m, n <= 3000.
    l = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = l * data.draw(st.integers(1, 3000 // l).filter(lambda m: m % l))
    d = data.draw(st.integers(2, min(n, 40)))
    divisors = pipeline_divisors(n, d)
    want = _l_part_by_extended_gcds(n, d, l)
    assert [_l_part(x, l) for x in divisors] == want
    assert want == _closed_form_l_part(n, d, l)


def _check_reach(n, d):
    divisors = pipeline_divisors(n, d)
    assert len(divisors) == n - 1
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert prod(divisors) == n ** (d - 1)
    for l, v in _prime_power_parts(n).items():
        assert sum(1 for x in divisors if x % l == 0) == min(l**v - 1, d - 1), l


@pytest.mark.parametrize("n", [81, 120, 128, 210, 240, 256, 343, 512, 729, 1024])
def test_pipeline_divisors_reach_n_equals_d_in_the_hundreds(n):
    # On a 2-vCPU Xeon, eliminating each part with v >= 2 modulo l**E took
    # 18 ms at 81, 0.17 s at 128, 2.8 s at 256, 0.84 s at 343 and over a
    # minute at 512; the closed form (k) takes under 0.05 ms at each n here.
    # These checks, the summand count and the exponent sum among them, hold
    # whichever route produced the divisors.
    _check_reach(n, n)


@pytest.mark.parametrize("n, d", [(202, 100), (58, 29)])
def test_pipeline_divisors_reach_a_prime_above_d(n, d):
    # The part at the prime 101 or 29 has content N and needs no
    # elimination (proof (h)); eliminating all of G took 80 ms and 2 ms.
    _check_reach(n, d)


def test_pipeline_divisors_refuses_d_outside_2_to_n():
    for n, d in ((5, 1), (3, 4)):
        with pytest.raises(InputError, match="2 <= d <= n"):
            pipeline_divisors(n, d)


def test_compute_ktheory_takes_pipeline_divisors_for_the_pipeline_only():
    coeff = validate_prime_power(13, 1)
    pipeline = compute_ktheory(LOW_DIM_PARAMS, coeff)
    assert pipeline.divisors == pipeline_divisors(5, 3)
    # The published matrix is not the pipeline's: its own Smith form gives
    # det 26, where the closed form gives 25.
    fixture = compute_ktheory(LOW_DIM_PARAMS, coeff, "paper-fixture")
    assert fixture.divisors == smith_normal_form(LOW_DIM_PRINTED_MATRIX)
    assert prod(fixture.divisors) == LOW_DIM_PRINTED_DET == 26
    family = compute_ktheory(validate_params(7, 7, (1,) * 7), coeff, "closed-form-family")
    assert family.divisors == smith_normal_form(family_matrix_closed_form(7))
