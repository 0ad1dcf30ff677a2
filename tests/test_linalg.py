import random

import pytest

from ksing import (
    IntMatrix,
    NotSkewSymmetric,
    NotUnipotent,
    OddSize,
    cartan_matrix,
    determinant,
    path_counts_gf,
    pfaffian,
    pipeline_matrix,
    smith_normal_form,
    theorem_matrix,
    unipotent_inverse,
    validate_params,
)
from ksing.linalg import _unit_pivot_block

from conftest import (
    all_valid_params,
    laplace_det,
    pfaffian4,
    random_int_matrix,
    random_unimodular,
)


def random_unipotent(rng, k, bound=9):
    return IntMatrix(
        [
            [1 if i == j else (rng.randint(-bound, bound) if i > j else 0)
             for j in range(k)]
            for i in range(k)
        ]
    )


def reference_inverse(m):
    """Dense forward substitution, row by row over every entry."""
    k = m.rows
    e = m.entries
    inv = [[0] * k for _ in range(k)]
    for i in range(k):
        inv[i][i] = 1
        for j in range(i - 1, -1, -1):
            inv[i][j] = -sum(e[i][t] * inv[t][j] for t in range(j, i))
    return IntMatrix(inv)


def reference_theorem_matrix(c, d):
    """sign * C @ (C^-1)^T - Id through the dense matrix operations."""
    sign = 1 if d % 2 == 1 else -1
    return sign * (c @ reference_inverse(c).transpose()) - IntMatrix.identity(c.rows)


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

    def test_arithmetic(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a @ b == IntMatrix([[2, 1], [4, 3]])
        assert a + b == IntMatrix([[1, 3], [4, 4]])
        assert a - b == IntMatrix([[1, 1], [2, 4]])
        assert -a == IntMatrix([[-1, -2], [-3, -4]])
        assert 2 * a == IntMatrix([[2, 4], [6, 8]])
        assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
        assert a[1, 0] == 3
        assert IntMatrix.identity(2) @ a == a

    def test_shape_errors(self):
        a = IntMatrix([[1, 2]])
        with pytest.raises(ValueError):
            a @ a
        with pytest.raises(ValueError):
            a + IntMatrix([[1], [2]])


class TestUnipotentInverse:
    def test_two_by_two(self):
        assert unipotent_inverse(IntMatrix([[1, 0], [3, 1]])) == IntMatrix(
            [[1, 0], [-3, 1]]
        )

    def test_identity(self):
        eye = IntMatrix.identity(4)
        assert unipotent_inverse(eye) == eye

    def test_low_dim_cartan(self):
        c = cartan_matrix([1, 1, 3, 3])
        inv = unipotent_inverse(c)
        assert inv == IntMatrix(
            [[1, 0, 0, 0], [-1, 1, 0, 0], [-2, -1, 1, 0], [2, -2, -1, 1]]
        )
        assert c @ inv == IntMatrix.identity(4)

    def test_random_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            k = rng.randint(1, 8)
            m = random_unipotent(rng, k)
            assert m @ unipotent_inverse(m) == IntMatrix.identity(k)

    def test_rejections(self):
        with pytest.raises(NotUnipotent):
            unipotent_inverse(IntMatrix([[1, 0, 0], [0, 1, 0]]))
        with pytest.raises(NotUnipotent):
            unipotent_inverse(IntMatrix([[2, 0], [0, 1]]))
        with pytest.raises(NotUnipotent):
            unipotent_inverse(IntMatrix([[1, 5], [0, 1]]))


class TestAgainstDenseReference:
    """The zero-skipping inverse and one-pass M against the dense route."""

    @staticmethod
    def assert_matches(c, d):
        assert unipotent_inverse(c) == reference_inverse(c)
        assert theorem_matrix(c, d) == reference_theorem_matrix(c, d)

    def test_grid(self):
        for params in all_valid_params(12):
            self.assert_matches(cartan_matrix(path_counts_gf(params)), params.d)

    @pytest.mark.parametrize(
        "n, d, weights",
        [(n, n, (1,) * n) for n in range(3, 29)]
        + [
            (61, 2, (1, 60)),
            (81, 3, (1, 40, 40)),
            (77, 4, (1, 2, 3, 71)),
            (91, 5, (1, 2, 3, 4, 81)),
        ],
    )
    def test_family_and_wide_sets(self, n, d, weights):
        params = validate_params(n, d, weights)
        self.assert_matches(cartan_matrix(path_counts_gf(params)), d)

    @pytest.mark.parametrize("bound", [1, 9])
    def test_random_unipotent(self, bound):
        # bound=1 leaves about a third of the entries below the diagonal
        # zero, so the inverse has zeros to skip as well.
        rng = random.Random(61 + bound)
        for _ in range(100):
            k = rng.randint(1, 12)
            self.assert_matches(random_unipotent(rng, k, bound), rng.randint(2, 7))


class TestTheoremMatrix:
    def test_one_by_one(self):
        assert theorem_matrix(IntMatrix([[1]]), 2) == IntMatrix([[-2]])

    def test_family_d3(self):
        m = theorem_matrix(IntMatrix([[1, 0], [3, 1]]), 3)
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
            theorem_matrix(IntMatrix([[1]]), 1)

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
            assert m == -((c + c.transpose()) @ ct_inv)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix([[5]])) == 5
        assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0
        assert determinant(IntMatrix.zeros(3, 3)) == 0

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
        assert pfaffian(IntMatrix.zeros(4, 4)) == 0


def assert_snf_certificate(m, dec):
    assert dec.U @ m @ dec.V == dec.D
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    k = min(m.rows, m.cols)
    assert dec.divisors == tuple(dec.D[i, i] for i in range(k))
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert dec.D[i, j] == 0
    nonzero = [x for x in dec.divisors if x != 0]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail
    assert not any(
        dec.divisors[i] == 0 and dec.divisors[i + 1] != 0
        for i in range(len(dec.divisors) - 1)
    )


class TestUnitPivotBlock:
    """The +-1 elimination leaves a block with no unit entry and the same
    |det| as the matrix it started from."""

    @staticmethod
    def assert_block(m):
        block = _unit_pivot_block(m)
        assert not any(x in (1, -1) for row in block for x in row)
        r = abs(determinant(IntMatrix(block))) if block else 1
        assert r == abs(determinant(m))

    def test_grid(self):
        for params in all_valid_params(12):
            self.assert_block(pipeline_matrix(params))

    @pytest.mark.parametrize("n", range(3, 29))
    def test_family(self, n):
        self.assert_block(pipeline_matrix(validate_params(n, n, (1,) * n)))


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
        assert dec.divisors == (1, 6)
        assert_snf_certificate(IntMatrix([[2, 0], [0, 3]]), dec)

    def test_one_by_one(self):
        assert smith_normal_form(IntMatrix([[-2]])).divisors == (2,)

    def test_zero_matrix(self):
        dec = smith_normal_form(IntMatrix.zeros(3, 3))
        assert dec.divisors == (0, 0, 0)
        assert_snf_certificate(IntMatrix.zeros(3, 3), dec)

    def test_low_dim_fixture_divisors(self):
        from ksing import LOW_DIM_PRINTED_MATRIX

        dec = smith_normal_form(LOW_DIM_PRINTED_MATRIX)
        assert dec.divisors == (1, 1, 1, 26)
        assert_snf_certificate(LOW_DIM_PRINTED_MATRIX, dec)

    def test_random_certificates(self):
        rng = random.Random(47)
        for _ in range(150):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_int_matrix(rng, rows, cols, 30)
            assert_snf_certificate(m, smith_normal_form(m))

    def test_divisors_invariant_under_unimodular_transforms(self):
        rng = random.Random(53)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = random_int_matrix(rng, k, k, 20)
            base = smith_normal_form(m).divisors
            left = random_unimodular(rng, k)
            right = random_unimodular(rng, k)
            assert smith_normal_form(left @ m @ right).divisors == base

    def test_singular_square_keeps_the_trailing_zero(self):
        m = IntMatrix([[1, 2], [2, 4]])
        dec = smith_normal_form(m)
        assert dec.divisors == (1, 0)
        assert_snf_certificate(m, dec)

    def test_non_square_divisors_come_from_the_certificate(self):
        m = IntMatrix([[2, 4, 6], [4, 10, 12]])
        dec = smith_normal_form(m)
        assert dec.divisors == (2, 2)
        assert_snf_certificate(m, dec)

    def test_divisors_match_the_certificate_on_the_grid(self):
        # Every valid parameter set with n <= 12: the bounded-growth
        # divisors against the diagonal of the certificate elimination.
        grid = all_valid_params(12)
        assert len(grid) == 1318
        for params in grid:
            dec = smith_normal_form(pipeline_matrix(params))
            k = dec.matrix.rows
            assert dec.divisors == tuple(dec.D[i, i] for i in range(k)), params

    def test_certificate_entries_stay_small_on_the_family(self):
        # U, V reach 1,155 bits at n = 19 and 7,767 at n = 24; the gate
        # leaves room without letting the old 315,060-bit growth back in.
        for n in range(19, 25):
            m = pipeline_matrix(validate_params(n, n, (1,) * n))
            dec = smith_normal_form(m)
            assert_snf_certificate(m, dec)
            bits = max(
                abs(x).bit_length() for w in (dec.U, dec.V) for row in w.entries for x in row
            )
            assert bits <= 10_000, (n, bits)

    def test_divisor_product_is_absolute_determinant(self):
        rng = random.Random(59)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = random_int_matrix(rng, k, k, 12)
            prod = 1
            for x in smith_normal_form(m).divisors:
                prod *= x
            assert prod == abs(determinant(m))
