import gc
import math
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksing
from ksing import (
    IntMatrix,
    NotSkewSymmetric,
    NotUnipotent,
    OddSize,
    cartan_matrix,
    determinant,
    family_matrix_closed_form,
    path_counts_gf,
    pfaffian,
    pipeline_divisors,
    pipeline_matrix,
    smith_certificate,
    smith_normal_form,
    theorem_matrix,
    unipotent_inverse,
    validate_params,
)
import ksing.linalg

from conftest import (
    all_valid_params,
    divisors_by_extended_gcds,
    identity,
    laplace_det,
    matrix_sum,
    pfaffian4,
    pfaffian_fractions,
    random_int_matrix,
    random_unimodular,
    reference_inverse,
    reference_theorem_matrix,
    zeros,
)


# The unit-weight family and the wide-lowdim benchmark sets, up to k = 150.
FAMILY_AND_WIDE_SETS = [(n, n, (1,) * n) for n in range(3, 29)] + [
    (61, 2, (1, 60)),
    (81, 3, (1, 40, 40)),
    (77, 4, (1, 2, 3, 71)),
    (91, 5, (1, 2, 3, 4, 81)),
    (101, 2, (1, 100)),
    (151, 2, (1, 150)),
    (101, 3, (1, 50, 50)),
    (141, 3, (1, 70, 70)),
    (101, 4, (1, 2, 3, 95)),
    (121, 4, (1, 2, 3, 115)),
    (101, 5, (1, 2, 3, 4, 91)),
    (119, 5, (1, 2, 3, 4, 109)),
]


def random_unipotent(rng, k, bound=9):
    """A unipotent lower-Toeplitz matrix with first column entries in +-bound."""
    return IntMatrix.lower_toeplitz([1] + [rng.randint(-bound, bound) for _ in range(k - 1)])


def random_skew(rng, k, bound=9):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = rng.randint(-bound, bound)
            m[j][i] = -m[i][j]
    return IntMatrix(m)


class TestIntMatrix:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[]])
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(TypeError):
            IntMatrix([[1.5]])

    def test_lower_toeplitz_validation(self):
        with pytest.raises(TypeError):
            IntMatrix.lower_toeplitz([1, "2"])
        with pytest.raises(TypeError):
            IntMatrix.lower_toeplitz([1, 2.0])
        with pytest.raises(ValueError, match="at least one row"):
            IntMatrix.lower_toeplitz([])

    def test_arithmetic(self):
        # The operations kept: @ for checking U @ M @ V == D, and - with
        # transpose for C - C^T.
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a @ b == IntMatrix([[2, 1], [4, 3]])
        assert a - b == IntMatrix([[1, 1], [2, 4]])
        assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
        assert a[1, 0] == 3
        assert identity(2) @ a == a

    def test_shape_errors(self):
        a = IntMatrix([[1, 2]])
        with pytest.raises(ValueError):
            a @ a
        with pytest.raises(ValueError):
            a - IntMatrix([[1], [2]])

    def test_operations_with_a_non_matrix_defer_to_python(self):
        # Each returns NotImplemented, so == falls back to identity and the
        # arithmetic raises TypeError instead of a shape error.
        a = IntMatrix([[1]])
        assert a.__eq__([[1]]) is NotImplemented
        assert (a == [[1]]) is False and a != ((1,),)
        with pytest.raises(TypeError):
            a @ [[1]]
        with pytest.raises(TypeError):
            a - 1

    def test_repr(self):
        assert repr(IntMatrix([[1]])) == "IntMatrix([[1]])"
        assert repr(IntMatrix.lower_toeplitz([2, -1])) == "IntMatrix([[2, 0], [-1, 2]])"


class TestUnipotentInverse:
    def test_two_by_two(self):
        assert unipotent_inverse(IntMatrix.lower_toeplitz([1, 3])) == IntMatrix(
            [[1, 0], [-3, 1]]
        )

    def test_identity(self):
        eye = IntMatrix.lower_toeplitz([1, 0, 0, 0])
        assert eye == identity(4)
        assert unipotent_inverse(eye) == eye

    def test_low_dim_cartan(self):
        c = cartan_matrix([1, 1, 3, 3])
        inv = unipotent_inverse(c)
        assert inv == IntMatrix(
            [[1, 0, 0, 0], [-1, 1, 0, 0], [-2, -1, 1, 0], [2, -2, -1, 1]]
        )
        assert c @ inv == identity(4)

    def test_random_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            k = rng.randint(1, 8)
            m = random_unipotent(rng, k)
            assert m @ unipotent_inverse(m) == identity(k)

    def test_rejections(self):
        # Rows without a recorded first column are refused whatever they
        # hold, unipotent or not; a recorded column needs p[0] == 1.
        for rows in ([[1, 0], [3, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 5], [0, 1]]):
            with pytest.raises(ValueError) as info:
                unipotent_inverse(IntMatrix(rows))
            assert type(info.value) is ValueError
        with pytest.raises(NotUnipotent):
            unipotent_inverse(IntMatrix.lower_toeplitz([2, 0]))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0, 0], [0, 1, 0]], "matrix is 2x3, not square"),
            ([[1, 0], [4, 2]], "diagonal entry (1, 1) is 2, not 1"),
            ([[1, 0, 0], [0, 1, 7], [0, 0, 1]], "entry (1, 2) above the diagonal is 7"),
            ([[1, 0, 5], [0, 1, 0], [0, 0, 1]], "entry (0, 2) above the diagonal is 5"),
        ],
    )
    def test_rejection_messages(self, rows, message):
        # Rows that are not unipotent are refused for the missing column,
        # before any entry is read; the dense oracle that the library is
        # compared against names the entry at fault.
        m = IntMatrix(rows)
        for f in (unipotent_inverse, lambda c: theorem_matrix(c, 3)):
            with pytest.raises(ValueError) as info:
                f(m)
            assert type(info.value) is ValueError
            assert "IntMatrix.lower_toeplitz" in str(info.value)
        with pytest.raises(ValueError) as info:
            reference_inverse(m)
        assert str(info.value) == message

    def test_refusal_messages(self):
        # A refusal names the constructor to use instead.
        with pytest.raises(ValueError) as info:
            unipotent_inverse(IntMatrix([[1, 0], [4, 2]]))
        want = "matrix has no recorded first column; use IntMatrix.lower_toeplitz"
        assert str(info.value) == want
        with pytest.raises(NotUnipotent) as info:
            unipotent_inverse(IntMatrix.lower_toeplitz([2, 7]))
        assert str(info.value) == "diagonal entry (0, 0) is 2, not 1"


class TestAgainstDenseReference:
    """The zero-skipping inverse and one-pass M against the dense
    definitions of conftest."""

    @staticmethod
    def assert_matches(c, d):
        assert unipotent_inverse(c) == reference_inverse(c)
        assert theorem_matrix(c, d) == reference_theorem_matrix(c, d)

    def test_grid(self):
        for params in all_valid_params(12):
            self.assert_matches(cartan_matrix(path_counts_gf(params)), params.d)

    @pytest.mark.parametrize("n, d, weights", FAMILY_AND_WIDE_SETS)
    def test_family_and_wide_sets(self, n, d, weights):
        params = validate_params(n, d, weights)
        self.assert_matches(cartan_matrix(path_counts_gf(params)), d)

    def test_random_toeplitz_with_dense_inverse(self):
        # A dense first column gives a dense inverse, so z = k.
        rng = random.Random(29)
        for _ in range(40):
            k = rng.randint(1, 40)
            col = [1] + [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k - 1)]
            self.assert_matches(IntMatrix.lower_toeplitz(col), rng.randint(2, 7))

    @pytest.mark.parametrize("bound", [1, 9])
    def test_random_unipotent(self, bound):
        # bound=1 leaves about a third of the first column zero, so the
        # inverse has zeros to skip as well.
        rng = random.Random(61 + bound)
        for _ in range(100):
            k = rng.randint(1, 12)
            self.assert_matches(random_unipotent(rng, k, bound), rng.randint(2, 7))


class TestTrustBoundary:
    """Entries are checked where they come in, and only there."""

    def test_pipeline_entries_are_ints(self, monkeypatch):
        # Also the only blocks pipeline_divisors builds, G(N, d) for
        # smith_normal_form; it hands no rows to _divisors_mod.
        gs = []
        snf = ksing.ktheory.smith_normal_form

        def recording_snf(m):
            gs.append(m)
            return snf(m)

        def no_elimination(a, r):
            raise AssertionError("_divisors_mod called")

        monkeypatch.setattr(ksing.ktheory, "smith_normal_form", recording_snf)
        monkeypatch.setattr(ksing.linalg, "_divisors_mod", no_elimination)
        sets = all_valid_params(12) + [validate_params(*s) for s in FAMILY_AND_WIDE_SETS]
        recorded = 0
        for params in sets:
            c = cartan_matrix(path_counts_gf(params))
            pipeline_divisors(params.n, params.d)
            for m in (c, unipotent_inverse(c), theorem_matrix(c, params.d), *gs):
                assert type(m.entries) is tuple
                assert all(type(row) is tuple for row in m.entries)
                assert all(type(x) is int for row in m.entries for x in row)
            recorded += len(gs)
            gs.clear()
        assert recorded == 1164

    def test_rebuilt_toeplitz_is_refused(self):
        # The same rows without the recorded column: no second route.
        for n, d, weights in FAMILY_AND_WIDE_SETS[::6]:
            c = cartan_matrix(path_counts_gf(validate_params(n, d, weights)))
            rebuilt = IntMatrix(c.entries)
            assert rebuilt == c and rebuilt.first_column is None
            for call in (unipotent_inverse, lambda m: theorem_matrix(m, d)):
                with pytest.raises(ValueError, match="no recorded first column"):
                    call(rebuilt)

    def test_toeplitz_route_builds_no_rows_of_c_or_its_inverse(self):
        # No rows of C, C^-1 or M are built until read, not even for their
        # shape; C and C^-1 are read off their columns, and the rows of all
        # three, once read, are those of the dense route.
        for n, d, weights in FAMILY_AND_WIDE_SETS[::6]:
            c = cartan_matrix(path_counts_gf(validate_params(n, d, weights)))
            inverse = unipotent_inverse(c)
            m = theorem_matrix(c, d)
            shapes = [(x.rows, x.cols) for x in (c, inverse, m)]
            assert shapes == [(n - 1, n - 1)] * 3 and m.is_square
            for unbuilt in (c, inverse, m):
                with pytest.raises(AttributeError):
                    IntMatrix.entries.__get__(unbuilt)  # the slot, unset
            assert m == reference_theorem_matrix(c, d)
            assert inverse == reference_inverse(IntMatrix(c.entries))

    def test_deferred_rows_hold_no_reference_to_their_matrix(self):
        # The builder is a module-level function over recorded tuples, so
        # reference counting frees the matrix; the cyclic collector is not
        # needed.
        c = cartan_matrix(path_counts_gf(validate_params(61, 3, (1, 1, 59))))
        for m in (c, unipotent_inverse(c), theorem_matrix(c, 3)):
            build = m._build
            assert build[0].__qualname__ == build[0].__name__
            assert build[0].__closure__ is None
            seen, todo = set(), [build]
            while todo:
                obj = todo.pop()
                assert obj is not m
                if id(obj) in seen or isinstance(obj, types.FunctionType):
                    continue
                seen.add(id(obj))
                todo.extend(gc.get_referents(obj))

    def test_the_solved_inverse_column_is_not_checked_again(self, monkeypatch):
        # The inverse's column is solved from the checked column of C, so it
        # is recorded as it is, not passed through lower_toeplitz's checks.
        c = cartan_matrix(path_counts_gf(validate_params(61, 3, (1, 1, 59))))

        def refuse(col):
            raise AssertionError("lower_toeplitz was called")

        monkeypatch.setattr(IntMatrix, "lower_toeplitz", refuse)
        inverse = unipotent_inverse(c)
        m = theorem_matrix(c, 3)
        monkeypatch.undo()
        assert type(inverse.first_column) is tuple
        assert inverse == reference_inverse(IntMatrix(c.entries))
        assert m == reference_theorem_matrix(c, 3)

    @pytest.mark.parametrize("corner", [0, 2, -1])
    def test_recorded_column_rejects_as_the_rows_do(self, corner):
        toeplitz = IntMatrix.lower_toeplitz([corner, 3, 1])
        for call in (unipotent_inverse, lambda m: theorem_matrix(m, 3)):
            with pytest.raises(NotUnipotent) as info:
                call(toeplitz)
            assert str(info.value) == f"diagonal entry (0, 0) is {corner}, not 1"


class TestTheoremMatrix:
    def test_one_by_one(self):
        assert theorem_matrix(IntMatrix.lower_toeplitz([1]), 2) == IntMatrix([[-2]])

    def test_family_d3(self):
        m = theorem_matrix(IntMatrix.lower_toeplitz([1, 3]), 3)
        assert m == IntMatrix([[0, -3], [3, -9]])

    def test_low_dim_pipeline_matrix(self):
        # derived by hand: forward-substitution inverse of C, then the
        # product; independently pinned by the determinant identity below
        c = cartan_matrix([1, 1, 3, 3])
        m = theorem_matrix(c, 3)
        assert m == IntMatrix(
            [[0, -1, -2, 2], [1, -1, -3, 0], [3, -2, -7, 3], [3, 0, -8, -1]]
        )
        assert determinant(m) == determinant(c - c.transpose()) == 25

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            theorem_matrix(IntMatrix.lower_toeplitz([1]), 1)

    def test_odd_dimension_identity_on_random_unipotent(self):
        # C (C^-1)^T - Id = (C - C^T) (C^T)^-1, so the determinants agree
        rng = random.Random(23)
        for _ in range(60):
            k = rng.randint(1, 7)
            c = random_unipotent(rng, k, bound=5)
            d = rng.choice((3, 5, 7))
            m = theorem_matrix(c, d)
            assert determinant(m) == determinant(c - c.transpose())

    def test_even_dimension_factorization_on_random_unipotent(self):
        rng = random.Random(29)
        for _ in range(60):
            k = rng.randint(1, 7)
            c = random_unipotent(rng, k, bound=5)
            d = rng.choice((2, 4, 6))
            m = theorem_matrix(c, d)
            ct_inv = unipotent_inverse(c).transpose()
            # M = -(C + C^T)(C^T)^-1, so M + (C + C^T)(C^T)^-1 = 0.
            assert matrix_sum(m, matrix_sum(c, c.transpose()) @ ct_inv) == zeros(k, k)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix([[5]])) == 5
        assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0
        assert determinant(zeros(3, 3)) == 0

    def test_against_cofactor_expansion(self):
        rng = random.Random(37)
        for _ in range(200):
            k = rng.randint(1, 5)
            m = random_int_matrix(rng, k, k, 9)
            assert determinant(m) == laplace_det(m.to_lists())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix([[1, 2]]))


class TestPfaffian:
    def test_sign_convention(self):
        assert pfaffian(IntMatrix([[0, -1], [1, 0]])) == -1
        assert pfaffian(IntMatrix([[0, 7], [-7, 0]])) == 7

    def test_four_by_four_formula(self):
        rng = random.Random(41)
        for _ in range(100):
            m = random_skew(rng, 4)
            assert pfaffian(m) == pfaffian4(m)

    def test_square_is_determinant(self):
        rng = random.Random(43)
        for _ in range(80):
            k = rng.choice((2, 4, 6, 8))
            m = random_skew(rng, k)
            assert pfaffian(m) ** 2 == determinant(m)

    def test_low_dim_skew_pfaffian(self):
        c = cartan_matrix([1, 1, 3, 3])
        skew = c - c.transpose()
        assert pfaffian(skew) == pfaffian4(skew) == -5
        assert determinant(skew) == 25

    def test_rejections(self):
        with pytest.raises(OddSize):
            pfaffian(IntMatrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
        with pytest.raises(NotSkewSymmetric):
            pfaffian(IntMatrix([[1, 0], [0, 1]]))
        with pytest.raises(NotSkewSymmetric):
            pfaffian(IntMatrix([[0, 1], [1, 0]]))
        with pytest.raises(NotSkewSymmetric):
            pfaffian(IntMatrix([[0, 1, -1], [-1, 0, 2]]))

    def test_zero_pfaffian(self):
        assert pfaffian(zeros(4, 4)) == 0

    def test_matches_the_rational_elimination(self):
        # Sparse entries make zero pivots, hence swaps, and zero Pfaffians.
        rng = random.Random(47)
        swaps = zeros = 0
        for _ in range(400):
            k = rng.choice((2, 4, 6, 8, 10, 12))
            density = rng.random()
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.random() < density:
                        m[i][j] = rng.randint(-6, 6)
                        m[j][i] = -m[i][j]
            got = pfaffian(IntMatrix(m))
            assert got == pfaffian_fractions(m), m
            swaps += m[0][1] == 0 and any(m[0])
            zeros += got == 0
        assert swaps >= 20 and zeros >= 20


def assert_snf_certificate(m):
    """Check smith_certificate(m) and that smith_normal_form(m) is the
    diagonal of its D; return the certificate."""
    u, d, v = smith_certificate(m)
    divisors = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    k = min(m.rows, m.cols)
    assert divisors == tuple(d[i, i] for i in range(k))
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d[i, j] == 0
    nonzero = [x for x in divisors if x != 0]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail
    assert not any(
        divisors[i] == 0 and divisors[i + 1] != 0
        for i in range(len(divisors) - 1)
    )
    return u, d, v


class TestLowerToeplitzDeterminant:
    """A recorded first column gives det as the diagonal's product; it
    must agree with Bareiss on the same rows without the column."""

    def test_grid_g(self):
        for n in range(2, 13):
            for d in range(2, n + 1):
                g = IntMatrix.lower_toeplitz(
                    [(-1) ** i * math.comb(n, i + 1) for i in range(d - 1)]
                )
                assert determinant(g) == determinant(IntMatrix(g.entries)) == n ** (d - 1)

    def test_random_columns(self):
        rng = random.Random(53)
        for _ in range(200):
            col = [rng.randint(-3, 3) for _ in range(rng.randint(1, 9))]
            t = IntMatrix.lower_toeplitz(col)
            plain = IntMatrix(t.entries)
            assert determinant(t) == determinant(plain)
            assert smith_normal_form(t) == smith_normal_form(plain)


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
        assert_snf_certificate(IntMatrix([[2, 0], [0, 3]]))

    def test_one_by_one(self):
        assert smith_normal_form(IntMatrix([[-2]])) == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form(zeros(3, 3)) == (0, 0, 0)
        assert_snf_certificate(zeros(3, 3))

    def test_low_dim_fixture_divisors(self):
        from ksing import LOW_DIM_PRINTED_MATRIX

        assert smith_normal_form(LOW_DIM_PRINTED_MATRIX) == (1, 1, 1, 26)
        assert_snf_certificate(LOW_DIM_PRINTED_MATRIX)

    def test_random_certificates(self):
        rng = random.Random(47)
        for _ in range(150):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_int_matrix(rng, rows, cols, 30)
            assert_snf_certificate(m)

    def test_divisors_invariant_under_unimodular_transforms(self):
        rng = random.Random(53)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = random_int_matrix(rng, k, k, 20)
            base = smith_normal_form(m)
            left = random_unimodular(rng, k)
            right = random_unimodular(rng, k)
            assert smith_normal_form(left @ m @ right) == base

    def test_singular_square_keeps_the_trailing_zero(self):
        m = IntMatrix([[1, 2], [2, 4]])
        assert smith_normal_form(m) == (1, 0)
        assert_snf_certificate(m)

    def test_non_square_divisors_come_from_the_certificate(self):
        m = IntMatrix([[2, 4, 6], [4, 10, 12]])
        assert smith_normal_form(m) == (2, 2)
        assert_snf_certificate(m)

    def test_divisors_match_the_certificate_on_the_grid(self):
        # Every valid parameter set with n <= 12: the bounded-growth
        # divisors against the diagonal of the certificate elimination.
        grid = all_valid_params(12)
        assert len(grid) == 1318
        for params in grid:
            m = pipeline_matrix(params)
            d = smith_certificate(m)[1]
            assert smith_normal_form(m) == tuple(d[i, i] for i in range(m.rows)), params

    def test_certificate_entries_stay_small_on_the_family(self):
        # U, V reach 1,155 bits at n = 19 and 7,767 at n = 24; the gate
        # leaves room without letting the old 315,060-bit growth back in.
        for n in range(19, 25):
            m = pipeline_matrix(validate_params(n, n, (1,) * n))
            u, _, v = assert_snf_certificate(m)
            bits = max(abs(x).bit_length() for w in (u, v) for row in w.entries for x in row)
            assert bits <= 10_000, (n, bits)

    @staticmethod
    def certificate_diagonal(m):
        d = smith_certificate(m)[1]
        return tuple(d[i, i] for i in range(m.rows))

    def test_family_closed_form_matches_extended_gcds(self):
        # The general route serves the family and fixture sources; the
        # family's |det| reaches 333 digits at d = 40.  d = 4 is singular,
        # so the certificate gives its divisors.
        for d in range(3, 41):
            m = family_matrix_closed_form(d)
            got = smith_normal_form(m)
            r = abs(determinant(m))
            if d == 4:
                assert r == 0 and got == (2, 2, 0) == self.certificate_diagonal(m)
                continue
            assert r, d
            assert got == divisors_by_extended_gcds(m.entries, r), d
            assert math.prod(got) == r
            assert all(b % a == 0 for a, b in zip(got, got[1:])), d

    def test_content_scales_the_divisors(self):
        # SNF(c * A) = c * SNF(A); both sides also against the certificate.
        rng = random.Random(61)
        tried = 0
        while tried < 80:
            k = rng.randint(1, 6)
            if rng.random() < 0.5:
                a = random_int_matrix(rng, k, k, 9)
            else:
                a = IntMatrix.lower_toeplitz([rng.randint(-9, 9) for _ in range(k)])
            if determinant(a) == 0:
                continue
            tried += 1
            base = smith_normal_form(a)
            assert base == self.certificate_diagonal(a)
            for c in (2, 3, 6, 12):
                if a.first_column is None:
                    scaled = IntMatrix([[c * x for x in row] for row in a.entries])
                else:
                    scaled = IntMatrix.lower_toeplitz([c * x for x in a.first_column])
                got = smith_normal_form(scaled)
                assert got == tuple(c * x for x in base)
                assert got == self.certificate_diagonal(IntMatrix(scaled.entries))

    def test_unimodular_input_needs_no_elimination(self, monkeypatch):
        def no_elimination(a, r):
            raise AssertionError("_divisors_mod called")

        monkeypatch.setattr(ksing.linalg, "_divisors_mod", no_elimination)
        rng = random.Random(67)
        inputs = [identity(k) for k in range(1, 6)]
        inputs += [random_unimodular(rng, rng.randint(1, 6)) for _ in range(40)]
        inputs.append(IntMatrix([[2, 3], [3, 5]]))
        for m in inputs:
            assert smith_normal_form(m) == (1,) * m.rows

    def test_prime_g_needs_no_elimination(self, monkeypatch):
        # For prime p every entry of G is a multiple of p, so G = p * a
        # unipotent matrix and its divisors come from the content alone.
        def no_elimination(a, r):
            raise AssertionError("_divisors_mod called")

        monkeypatch.setattr(ksing.linalg, "_divisors_mod", no_elimination)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for d in range(2, p + 1):
                assert pipeline_divisors(p, d) == (1,) * (p - d) + (p,) * (d - 1)

    def test_divisor_product_is_absolute_determinant(self):
        rng = random.Random(59)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = random_int_matrix(rng, k, k, 12)
            prod = 1
            for x in smith_normal_form(m):
                prod *= x
            assert prod == abs(determinant(m))


FIRST_60_PRIMES = [p for p in range(2, 282) if all(p % q for q in range(2, p))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    l=st.sampled_from((2, 3, 5, 7)),
    exponents=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    cofactors=st.one_of(
        st.just([1] * 8),
        st.lists(st.sampled_from((1, 2, 3, 5, 6, 10, 15, 143)), min_size=8, max_size=8),
    ),
    scramble=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    row_0=st.sampled_from(("as drawn", "times l")),
    t=st.integers(0, 6),
)
@example(l=3, exponents=[1, 2, 2, 5], cofactors=[1] * 4, scramble=True, seed=1, row_0="as drawn", t=0)
@example(l=5, exponents=[0, 0, 1, 3], cofactors=[1] * 4, scramble=True, seed=2, row_0="times l", t=2)
@example(l=2, exponents=[0] * 7 + [70], cofactors=[1] * 8, scramble=True, seed=3, row_0="as drawn", t=1)
@example(l=2, exponents=[1, 0], cofactors=[1, 3], scramble=False, seed=0, row_0="as drawn", t=0)
@example(l=2, exponents=[1, 1, 0], cofactors=[3, 5, 15], scramble=False, seed=0, row_0="as drawn", t=3)
@example(l=2, exponents=[0] * 60, cofactors=FIRST_60_PRIMES, scramble=False, seed=0, row_0="as drawn", t=0)
@example(l=2, exponents=[0], cofactors=[1] * 8, scramble=False, seed=0, row_0="as drawn", t=2)
@example(l=3, exponents=[0] * 4, cofactors=[1] * 8, scramble=True, seed=4, row_0="as drawn", t=1)
def test_modular_divisors_match_the_certificate_and_extended_gcds(
    l, exponents, cofactors, scramble, seed, row_0, t
):
    # U diag(l**e_i * c_i) V with U, V unimodular (or the identity when not
    # scrambled).  With every c_i = 1, |det| is a power of l, and with every
    # e_i >= 1 no entry is prime to l; row 0 times l moves the first unit
    # pivot out of row 0.  The third example puts one divisor 2**70 after
    # six 1s, so six unit pivots run on entries far above a machine word.
    # Mixed primes in the c_i can leave no unit with gcd(r, entries) = 1,
    # as in the last three examples: diag(2, 3), diag(6, 10, 15) and the
    # diagonal of the first 60 primes, where each of the 59 divisors 1
    # needs the combination step.  The modulus may also be any multiple
    # (last divisor) * l**t, as for the l**E of the test oracle
    # divisors_modulo_l_e; the last two examples are unimodular with r = 4
    # and 3, so the block empties while r > 1, as ((1,),) with r = 4 does.
    rng = random.Random(seed)
    k = len(exponents)
    diagonal = [l**e * c for e, c in zip(exponents, cofactors)]
    m = IntMatrix([[x if i == j else 0 for j in range(k)] for i, x in enumerate(diagonal)])
    if scramble:
        m = random_unimodular(rng, k) @ m @ random_unimodular(rng, k)
    rows = m.to_lists()
    if row_0 == "times l":
        rows[0] = [l * x for x in rows[0]]
    m = IntMatrix(rows)
    r = abs(determinant(m))
    got = ksing.linalg._divisors_mod(m.entries, r)
    d = smith_certificate(m)[1]
    assert got == tuple(d[i, i] for i in range(k))
    assert got == divisors_by_extended_gcds(m.entries, r)
    assert ksing.linalg._divisors_mod(m.entries, got[-1] * l**t) == got

