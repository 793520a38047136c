import math
import random
from fractions import Fraction

import pytest

from pirings import exact as ex
from pirings.exact import PiScalar


class TestExactSqrt:
    def test_perfect_square(self):
        assert ex.exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert isinstance(ex.exact_sqrt(Fraction(9, 4)), Fraction)

    def test_non_square_falls_back(self):
        val = ex.exact_sqrt(Fraction(2))
        assert isinstance(val, float)
        assert val == pytest.approx(math.sqrt(2))

    def test_negative(self):
        with pytest.raises(ValueError):
            ex.exact_sqrt(Fraction(-1))


class TestBareiss:
    def test_examples(self):
        assert ex.bareiss_det([[6, 2], [2, 1]]) == 2
        assert ex.bareiss_det([[2]]) == 2
        assert ex.bareiss_det([]) == 1

    def test_singular(self):
        assert ex.bareiss_det([[1, 2], [2, 4]]) == 0

    def test_pivoting(self):
        assert ex.bareiss_det([[0, 1], [1, 0]]) == -1

    def test_matches_cofactor_expansion(self):
        rng = random.Random(0)

        def cofactor(m):
            if len(m) == 1:
                return m[0][0]
            return sum((-1) ** j * m[0][j]
                       * cofactor([row[:j] + row[j + 1:] for row in m[1:]])
                       for j in range(len(m)))

        for _ in range(20):
            n = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            assert ex.bareiss_det(m) == cofactor(m)

    def test_int_det_examples(self):
        assert ex.int_det([]) == 1
        assert ex.int_det([[6, 2], [2, 1]]) == 2
        assert ex.int_det([[1, 2], [2, 4]]) == 0
        assert ex.int_det([[0, 1], [1, 0]]) == -1
        assert isinstance(ex.int_det([[3, 1], [4, 2]]), int)

    def test_int_det_matches_bareiss(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(n)]
                 for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                m[-1] = [a - 2 * b for a, b in zip(m[0], m[1])]
            assert ex.int_det(m) == ex.bareiss_det(m)

    def test_solve(self):
        x = ex.bareiss_solve([[6, 2], [2, 1]], [2, 1])
        assert x == [Fraction(0), Fraction(1)]

    def test_solve_singular(self):
        with pytest.raises(ValueError):
            ex.bareiss_solve([[1, 2], [2, 4]], [1, 1])


class TestGammaHalf:
    def test_integers(self):
        assert ex.gamma_half(2) == PiScalar(1)
        assert ex.gamma_half(8) == PiScalar(6)

    def test_half_integers(self):
        assert ex.gamma_half(1) == PiScalar(1, Fraction(1, 2))
        assert ex.gamma_half(3) == PiScalar(Fraction(1, 2), Fraction(1, 2))
        assert ex.gamma_half(5) == PiScalar(Fraction(3, 4), Fraction(1, 2))

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            ex.gamma_half(0)


class TestPiScalar:
    def test_arithmetic(self):
        a = PiScalar(2, 1)
        b = PiScalar(Fraction(1, 2), -1)
        assert a * b == PiScalar(1)
        assert a / b == PiScalar(4, 2)
        assert a + a == PiScalar(4, 1)
        assert a - a == PiScalar(0)
        assert (-a) == PiScalar(-2, 1)
        assert a ** 3 == PiScalar(8, 3)

    def test_mixed_exponent_addition_rejected(self):
        with pytest.raises(ValueError):
            PiScalar(1, 1) + PiScalar(1, 2)

    def test_zero_normalised(self):
        assert PiScalar(0, 5) == PiScalar(0)
        assert PiScalar(0, 5).pi_exp == 0

    def test_float(self):
        assert float(PiScalar(2, 1)) == pytest.approx(2 * math.pi)
        assert float(PiScalar(1, Fraction(1, 2))) == pytest.approx(
            math.sqrt(math.pi))

    def test_to_json(self):
        assert PiScalar(Fraction(3, 2), -2).to_json() == {
            "coeff": "3/2", "pi_exp": "-2"}
        assert PiScalar(5).to_json() == {"coeff": "5"}

    def test_exact_comparison(self):
        assert PiScalar(3) == 3
        assert PiScalar(3, 1) != 3
