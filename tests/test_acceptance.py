"""Acceptance gate: twelve criteria, one test each, pinned tolerances."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from pirings import cpn_ring as cp
from pirings import schubert as sb
from pirings import sphere_ring as sr
from pirings import zonoid as zn
from pirings.cpn_ring import RingElement
from pirings.exact import PiScalar, bareiss_det
from pirings.exterior import SimpleVector
from pirings.sampling import gaussian_ball, mc_wedge_length


def test_criterion_01_cp2_relations():
    start = time.monotonic()
    s, t = RingElement.s(2), RingElement.t(2)
    assert s * t == RingElement.monomial(2, 0, 3, Fraction(1, 3))
    assert s * s == RingElement.monomial(2, 0, 4, Fraction(1, 6))
    assert time.monotonic() - start < 1.0


def test_criterion_02_cp3_relations():
    start = time.monotonic()
    s, t = RingElement.s(3), RingElement.t(3)
    assert s * s == 2 * (s * t * t) - RingElement.monomial(
        3, 0, 4, Fraction(1, 2))
    assert s * t ** 3 == RingElement.monomial(3, 0, 5, Fraction(3, 10))
    assert s * s * t == RingElement.monomial(3, 0, 5, Fraction(1, 10))
    assert time.monotonic() - start < 1.0


def test_criterion_03_generators_and_relations():
    # F_1 = gamma - (1/2) pi^(-2) beta^2
    f1 = cp.relation_beta_gamma(1)
    assert f1 == {(1, 0): PiScalar(1), (0, 2): PiScalar(Fraction(-1, 2), -2)}
    # F_2 = gamma beta - (1/3) pi^(-2) beta^3
    f2 = cp.relation_beta_gamma(2)
    assert f2 == {(1, 1): PiScalar(1), (0, 3): PiScalar(Fraction(-1, 3), -2)}
    # F_3 = gamma^2 - 2 pi^(-2) gamma beta^2 + (1/2) pi^(-4) beta^4
    f3 = cp.relation_beta_gamma(3)
    assert f3 == {(2, 0): PiScalar(1), (1, 2): PiScalar(-2, -2),
                  (0, 4): PiScalar(Fraction(1, 2), -4)}
    # the degree-5 relation of relations(4) is (a multiple of)
    # f_5 = s^2 t - s t^3 + (1/5) t^5
    f5 = {(2, 1): Fraction(1), (1, 3): Fraction(-1), (0, 5): Fraction(1, 5)}
    rel = cp.relations(4)[0]["st"]
    lead = rel[(2, 1)]
    assert {k: v / lead for k, v in rel.items()} == f5


def test_criterion_04_dimension_and_hankel():
    for n in range(1, 9):
        for d in range(2 * n + 1):
            assert cp.dimension(n, d) == 1 + min(d // 2, (2 * n - d) // 2)
    for n in range(1, 11):
        for d in range(n + 1):
            mat = cp.hankel_matrix(n, d)
            for k in range(1, len(mat) + 1):
                assert bareiss_det([row[:k] for row in mat[:k]]) > 0


def test_criterion_05_codim2_identity():
    start = time.monotonic()
    rng = random.Random(12345)
    for n in range(2, 7):
        for _ in range(20):
            d = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            delta = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            assert (cp.self_intersection_via_ring(n, d, delta)
                    == cp.self_intersection_codim2(n, d, delta))
    assert time.monotonic() - start < 10.0


def test_criterion_06_f_k_identity():
    for k in range(41):
        if k % 2 == 1:
            assert cp.f_k(k) == 0
        else:
            assert cp.f_k(k) == math.comb(k, k // 2)


def test_criterion_07_mc_vs_ball_wedge_length():
    start = time.monotonic()
    for n in range(1, 7):
        ball = gaussian_ball(n)
        for i in range(1, n + 1):
            est = mc_wedge_length([ball] * i, 100000, seed=100 * n + i)
            exact = float(sr.ball_wedge_length(n, 0, i, 1))
            assert abs(est.mean - exact) < 3 * est.std_error
    assert time.monotonic() - start < 60.0


def test_criterion_08_tasaki_kernel_grid():
    grid = (0.0, 0.5, 1.0)
    for n in (2, 3):
        for x in grid:
            for y in grid:
                est = cp.mc_tasaki_kernel_d2(
                    n, x, y, 100000, seed=int(1000 * (n + x) + 10 * y))
                expect = float(cp.tasaki_kernel_d2(
                    n, Fraction(x), Fraction(y)))
                assert abs(est.mean - expect) < 3 * est.std_error


def test_criterion_09_schubert_shape_closed_forms():
    est = sb.mc_schubert_shape([(1,), (2, 1)], 2, 2, 100000, seed=21)
    assert abs(est.mean - 4 / math.pi ** 2) < 3 * est.std_error
    est = sb.mc_schubert_shape([(2,), (2,)], 2, 2, 100000, seed=22)
    assert abs(est.mean - 0.5) < 3 * est.std_error
    est = sb.mc_schubert_shape([(2,), (1, 1)], 2, 2, 100000, seed=23)
    assert est.max_value < 1e-10


def test_criterion_10_expected_degree():
    start = time.monotonic()
    est = sb.edeg22_calibrated(1000000, seed=31)
    assert abs(est.mean - 1.726) < 0.02
    assert est.ci(3.0)[1] < 2.0
    assert time.monotonic() - start < 120.0


def test_criterion_11_span_decompositions():
    start = time.monotonic()
    for k, m, d in [(2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 3, 3)]:
        report = sb.verify_span_decomposition(
            k, m, d, samples=200, seed=41)
        assert report["ok"], report
        for info in report["orbits"].values():
            assert info["rank"] == info["expected"]
        for info in report["wedges"].values():
            assert info["rank"] == info["expected"]
        assert report["max_cross_inner"] < 1e-9
    assert time.monotonic() - start < 30.0


def _random_zonotope(rng, n, ngens):
    atoms = []
    for _ in range(ngens):
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
               for _ in range(n)]
        if all(x == 0 for x in vec):
            vec[0] = Fraction(1)
        atoms.append((Fraction(rng.randint(1, 3), 2), SimpleVector(n, [vec])))
    return zn.VirtualZonoid(n, 1, atoms)


def _hull_volume(z):
    gens = [np.array([float(x) for x in v.factors[0]]) * float(w)
            for w, v in z.atoms]
    pts = [sum((s * g for s, g in zip(signs, gens)),
               np.zeros(z.ambient_dim))
           for signs in itertools.product((-0.5, 0.5), repeat=len(gens))]
    try:
        return ConvexHull(np.array(pts)).volume
    except QhullError:
        return 0.0


def test_criterion_12_sphere_counts_convolution_kaehler():
    # two great circles on S^2 meet in exactly 2 points
    assert sr.sphere_expected_count(2, [1, 1], [0.5, 0.5]) == 2.0
    # convolution identity: evaluating star(e^(L+L')) at K gives vol(K+L+L')
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        n = rng.choice((2, 3))
        k = _random_zonotope(rng, n, n + 1)
        l1 = _random_zonotope(rng, n, 2)
        l2 = _random_zonotope(rng, n, 2)
        combined = l1 + l2
        lhs = zn.crofton_evaluate_graded(zn.star_exp(combined), k)
        rhs = _hull_volume(k + combined)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
        assert lhs == zn.volume(k + combined)
        checked += 1
    # norm of the normalised Kaehler powers
    for n in range(1, 6):
        for k in range(n + 1):
            assert cp.omega_norm_sq(n, k) == math.comb(n, k)
