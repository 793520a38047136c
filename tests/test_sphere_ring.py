import math
from fractions import Fraction

import pytest

from pirings import sphere_ring as sr
from pirings.exact import PiScalar, gamma_half


class TestKappa:
    def test_small_values(self):
        assert sr.kappa(0) == PiScalar(1)
        assert sr.kappa(1) == PiScalar(2)
        assert sr.kappa(2) == PiScalar(1, 1)
        assert sr.kappa(3) == PiScalar(Fraction(4, 3), 1)
        assert sr.kappa(4) == PiScalar(Fraction(1, 2), 2)

    def test_recursion(self):
        # kappa_n = kappa_{n-2} * 2 pi / n
        for n in range(2, 15):
            assert sr.kappa(n) == sr.kappa(n - 2) * PiScalar(Fraction(2, n), 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sr.kappa(-1)


class TestBallLength:
    def test_small_values(self):
        assert sr.ball_length(1) == PiScalar(2)
        assert sr.ball_length(2) == PiScalar(1, 1)
        assert sr.ball_length(3) == PiScalar(4)
        assert sr.ball_length(4) == PiScalar(Fraction(3, 2), 1)

    def test_matches_kappa_ratio(self):
        # ell(B_n) = n kappa_n / kappa_{n-1}
        for n in range(1, 13):
            assert sr.ball_length(n) == (
                PiScalar(n) * sr.kappa(n) / sr.kappa(n - 1))

    def test_gamma_recursion(self):
        # Gamma(x+1) = x Gamma(x) at half integers
        for two_k in range(1, 20):
            lhs = gamma_half(two_k + 2)
            rhs = PiScalar(Fraction(two_k, 2)) * gamma_half(two_k)
            assert lhs == rhs


class TestBallWedgeLength:
    def test_identity_case(self):
        assert sr.ball_wedge_length(3, 1, 0, PiScalar(5)) == PiScalar(5)

    def test_segment_with_ball_in_r2(self):
        # segment of length 1 wedged with one ball factor in R^2
        val = sr.ball_wedge_length(2, 1, 1, 1)
        assert val == PiScalar(2)

    def test_full_degree(self):
        # the wedge of n ball factors alone has length n! kappa_n
        for n in range(1, 6):
            val = sr.ball_wedge_length(n, 0, n, 1)
            assert val == PiScalar(math.factorial(n)) * sr.kappa(n)

    def test_overflow(self):
        with pytest.raises(ValueError):
            sr.ball_wedge_length(3, 2, 2, 1)


class TestSphereVolume:
    def test_circle(self):
        assert sr.sphere_volume(1) == PiScalar(2, 1)

    def test_two_sphere(self):
        assert sr.sphere_volume(2) == PiScalar(4, 1)

    def test_three_sphere(self):
        assert sr.sphere_volume(3) == PiScalar(2, 2)


class TestExpectedCount:
    def test_great_circles(self):
        # two great circles on S^2 meet in exactly 2 points on average;
        # vol(S^1)/vol(S^2) = 1/2
        assert sr.sphere_expected_count(2, [1, 1], [0.5, 0.5]) == 2.0

    def test_great_subspheres_any_dimension(self):
        for n in range(2, 7):
            r = float(sr.sphere_volume(n - 1) / sr.sphere_volume(n))
            val = sr.sphere_expected_count(n, [1] * n, [r] * n)
            assert val == pytest.approx(2.0, rel=1e-12)

    def test_mixed_codimensions(self):
        # a great S^2 and a great S^1 inside S^3
        r1 = float(sr.sphere_volume(2) / sr.sphere_volume(3))
        r2 = float(sr.sphere_volume(1) / sr.sphere_volume(3))
        assert sr.sphere_expected_count(3, [1, 2], [r1, r2]) == (
            pytest.approx(2.0, rel=1e-12))

    def test_ratio_scales_linearly(self):
        base = sr.sphere_expected_count(2, [1, 1], [0.5, 0.5])
        half = sr.sphere_expected_count(2, [1, 1], [0.25, 0.5])
        assert half == pytest.approx(base / 2)

    def test_exact_ratios_give_exact_value(self):
        assert sr.sphere_expected_count(
            3, [1, 2], [Fraction(1, 3), Fraction(1, 2)]) == PiScalar(
                Fraction(1, 6), 2)
        half = Fraction(1, 2)
        assert sr.sphere_expected_count(2, [1, 1], [half, half]) == 2

    def test_float_ratios_multiply_the_float_factor_in_order(self):
        for n, codims, ratios in ((2, [1, 1], [0.5, 0.5]),
                                  (5, [1, 1, 3], [0.3, 0.7, 0.1]),
                                  (4, [2, 1, 1], [0.2, 1 / 3, 0.9])):
            want = float(sr.sphere_expected_count(n, codims, [1] * len(codims)))
            for r in ratios:
                want *= r
            assert sr.sphere_expected_count(n, codims, ratios) == want

    def test_zero_ratio(self):
        assert sr.sphere_expected_count(2, [1, 1], [0.0, 1.0]) == 0.0

    def test_codim_sum_checked(self):
        with pytest.raises(ValueError):
            sr.sphere_expected_count(3, [1, 1], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sr.sphere_expected_count(2, [1, 1], [1.0])

    def test_negative_ratio(self):
        with pytest.raises(ValueError):
            sr.sphere_expected_count(2, [1, 1], [-1.0, 1.0])


class TestSphereRingElement:
    def test_truncation(self):
        b = sr.SphereRingElement.beta(2)
        assert (b * b * b).coeffs == [0, 0, 0]

    def test_multiply(self):
        b = sr.SphereRingElement.beta(3)
        assert (b * b).coeffs == [0, 0, 1, 0]

    def test_add_and_scalar(self):
        b = sr.SphereRingElement.beta(2)
        x = b + 2 * b
        assert x.coeffs == [0, 3, 0]

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            sr.SphereRingElement.beta(2) * sr.SphereRingElement.beta(3)
