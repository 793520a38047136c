import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pirings import cpn_ring as cp, exact
from pirings.cpn_ring import RingElement
from pirings.exact import PiScalar, bareiss_det, bareiss_solve
from pirings.sphere_ring import ball_wedge_length

from calibration import assert_calibrated


class TestDimension:
    def test_examples(self):
        assert cp.dimension(2, 2) == 2
        assert cp.dimension(3, 3) == 2
        assert cp.dimension(4, 4) == 3
        assert cp.dimension(2, 5) == 0
        assert cp.dimension(2, -1) == 0

    def test_symmetry(self):
        for n in range(1, 9):
            for d in range(2 * n + 1):
                assert cp.dimension(n, d) == cp.dimension(n, 2 * n - d)

    def test_formula(self):
        for n in range(1, 9):
            for d in range(2 * n + 1):
                expect = 1 + min(d // 2, (2 * n - d) // 2)
                assert cp.dimension(n, d) == expect


def ball_wedge_monomial_length(n, j, i):
    """l(gamma^j beta^i) from l(gamma^j) = pi^(-j) n!/(n-j)! and the
    ball-wedge-length factor of R^(2n): the oracle of the closed form."""
    if j < 0 or i < 0:
        raise ValueError("negative exponent")
    if j > n or 2 * j + i > 2 * n:
        return PiScalar(0)
    base = PiScalar(Fraction(math.factorial(n), math.factorial(n - j)), -j)
    return ball_wedge_length(2 * n, 2 * j, i, base)


class TestMonomialLength:
    def test_gamma_powers(self):
        # l(gamma^j) = pi^(-j) n!/(n-j)!
        assert cp.monomial_length(2, 1, 0) == PiScalar(2, -1)
        assert cp.monomial_length(3, 2, 0) == PiScalar(6, -2)
        assert cp.monomial_length(3, 3, 0) == PiScalar(6, -3)

    def test_beta_powers(self):
        assert cp.monomial_length(2, 0, 3) == PiScalar(6, 2)
        assert cp.monomial_length(2, 1, 2) == PiScalar(4)

    def test_full_degree_st(self):
        # l(s^q t^(2(n-q))) = pi^(-n/3) n! binom(2(n-q), n-q)
        for n in range(1, 7):
            for q in range(n + 1):
                val = cp.monomial_length_st(n, q, 2 * (n - q))
                expect = PiScalar(
                    math.factorial(n) * math.comb(2 * (n - q), n - q),
                    -Fraction(n, 3))
                assert val == expect

    def test_vanishing_beyond_dimension(self):
        assert cp.monomial_length(2, 3, 0) == PiScalar(0)
        assert cp.monomial_length(2, 1, 3) == PiScalar(0)

    def test_moment_quadrature_oracle(self):
        # 4^i M_i = binom(2i, i) with M_i = (2/pi) int_0^(pi/2) sin^(2i)
        for i in range(9):
            m, _ = quad(lambda u: math.sin(u) ** (2 * i), 0, math.pi / 2)
            m *= 2 / math.pi
            assert 4 ** i * m == pytest.approx(math.comb(2 * i, i), rel=1e-6)

    def test_moment_exact(self):
        # the same moments exactly, by the Wallis recursion
        m = Fraction(1)
        for i in range(21):
            assert 4 ** i * m == math.comb(2 * i, i)
            m *= Fraction(2 * i + 1, 2 * i + 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_form_matches_the_ball_wedge_chain(self, data):
        n = data.draw(st.integers(0, 60))
        j = data.draw(st.integers(-2, n + 2))
        i = data.draw(st.integers(-2, 2 * n + 3))
        if j < 0 or i < 0:
            with pytest.raises(ValueError, match="negative exponent"):
                cp.monomial_length(n, j, i)
        else:
            assert (cp.monomial_length(n, j, i).terms
                    == ball_wedge_monomial_length(n, j, i).terms)

    def test_every_basis_length_matches_the_ball_wedge_chain(self):
        for n in (3, 17, 40):
            for d in range(2 * n + 1):
                for j in cp.j_set(n, d):
                    assert (cp.monomial_length(n, j, d - 2 * j).terms
                            == ball_wedge_monomial_length(
                                n, j, d - 2 * j).terms), (n, j, d)


def hankel_matrix(n, d):
    """The integer Hankel matrix pairing the degree-d basis monomials, d <= n,
    with their complements: entry (j1, j2) is binom(2(n-j1-j2), n-j1-j2),
    the rational part of l(s^(j1+j2) t^(2n-2j1-2j2)) / (pi^(-n/3) n!).
    The reductions solve the system on it: the oracle of reduce_monomial."""
    js = cp.j_set(n, d)
    return [[math.comb(2 * (n - a - b), n - a - b) for b in js] for a in js]


class TestHankel:
    def test_examples(self):
        assert hankel_matrix(2, 2) == [[6, 2], [2, 1]]
        assert hankel_matrix(1, 1) == [[2]]

    def test_positive_definite_minors(self):
        for n in range(1, 11):
            mat = hankel_matrix(n, n)
            for k in range(1, len(mat) + 1):
                minor = [row[:k] for row in mat[:k]]
                assert bareiss_det(minor) > 0


def cramer_reduce(n, big_j, tpow):
    """The reduction by Cramer's rule on Fraction Bareiss determinants."""
    d = 2 * big_j + tpow
    if d > 2 * n or big_j > n:
        return {}
    js = cp.j_set(n, d)
    if big_j in js:
        return {big_j: Fraction(1)}
    comp = 2 * n - d
    mat = hankel_matrix(n, comp)
    rhs = [math.comb(2 * (n - big_j - k), n - big_j - k)
           if big_j + k <= n else 0 for k in cp.j_set(n, comp)]
    det = bareiss_det(mat)
    out = {}
    for col, j in enumerate(js):
        mod = [row[:col] + [b] + row[col + 1:] for row, b in zip(mat, rhs)]
        c = bareiss_det(mod) / det
        if c != 0:
            out[j] = c
    return out


def solved_reductions(n, d):
    """The reductions of the out-of-basis monomials s^J t^(d - 2J) of a
    degree d > n, J -> map, from one Bareiss solve on the Hankel matrix of
    the complementary degree with one right-hand side per J."""
    js, comp = cp.j_set(n, d), 2 * n - d
    big_js = range(len(js), d // 2 + 1)
    rhs = [[math.comb(2 * (n - big_j - k), n - big_j - k) for big_j in big_js]
           for k in cp.j_set(n, comp)]
    det, y = bareiss_solve(hankel_matrix(n, comp), rhs)
    return {big_j: {j: Fraction(row[c], det) for j, row in zip(js, y) if row[c]}
            for c, big_j in enumerate(big_js)}


class TestReduceMonomial:
    def test_matches_cramer(self):
        for n in range(15):
            for big_j in range(n + 2):
                for tpow in range(2 * n + 2 - 2 * big_j):
                    assert (cp.reduce_monomial(n, big_j, tpow)
                            == cramer_reduce(n, big_j, tpow)), (n, big_j, tpow)

    def test_negative_exponent_rejected(self):
        for args in ((3, 2, -1), (3, -1, 2), (2, -1, -1)):
            with pytest.raises(ValueError):
                cp.reduce_monomial(*args)
        with pytest.raises(ValueError):
            RingElement.monomial(3, 0, -1)
        with pytest.raises(ValueError):
            RingElement.s(3, -1)

    def test_cached_result_is_read_only(self):
        red = cp.reduce_monomial(4, 3, 0)
        with pytest.raises(TypeError):
            red[0] = Fraction(7)
        assert cp.reduce_monomial(4, 3, 0) == cramer_reduce(4, 3, 0)

    def test_matches_the_hankel_solve(self):
        # every out-of-basis monomial for n <= 40, and every degree at n = 64
        for n in [*range(41), 64]:
            for d in range(n + 1, 2 * n + 1):
                for big_j, red in solved_reductions(n, d).items():
                    assert (cp.reduce_monomial(n, big_j, d - 2 * big_j)
                            == red), (n, big_j, d)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_hankel_solve_property(self, data):
        n = data.draw(st.integers(1, 60))
        d = data.draw(st.integers(n + 1, 2 * n))
        big_j = data.draw(st.integers(cp.dimension(n, d), d // 2))
        assert (cp.reduce_monomial(n, big_j, d - 2 * big_j)
                == solved_reductions(n, d)[big_j])

    def test_no_solver(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the ring called an exact solver")

        for name in ("_bareiss", "bareiss_det", "bareiss_solve", "int_det"):
            monkeypatch.setattr(exact, name, refuse)
        cp.reduce_monomial.cache_clear()
        n, d_x, delta_x = 32, Fraction(7, 3), Fraction(-5, 2)
        assert (cp.self_intersection_via_ring(n, d_x, delta_x)
                == cp.self_intersection_codim2(n, d_x, delta_x))
        for rel in cp.relations(n):
            assert cp.evaluate_relation_st(rel["st"], n).is_zero()


PI_EXPS = [Fraction(k, 3) for k in (-2, 0, 2, 4)]


def ring_elements(n, pi_exps=PI_EXPS):
    """Random elements of the ring of CP^n, mixing powers of pi, also
    within one coefficient."""
    keys = [(d, j) for d in range(2 * n + 1) for j in cp.j_set(n, d)]
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    scalar = st.dictionaries(st.sampled_from(pi_exps), coeff, min_size=1,
                             max_size=2).map(lambda terms: sum(
        (PiScalar(c, e) for e, c in terms.items()), PiScalar(0)))
    return st.dictionaries(st.sampled_from(keys), scalar, max_size=4).map(
        lambda c: RingElement(n, c))


@st.composite
def generator_sums(draw, n):
    """Sums of c * s^a t^b beta^p gamma^q, built through the generators."""
    total = RingElement.zero(n)
    for _ in range(draw(st.integers(1, 3))):
        term = RingElement.one(n).scale(
            Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))))
        for gen in ("s", "t", "beta", "gamma"):
            power = draw(st.integers(0, 2))
            if power:
                term = term * getattr(RingElement, gen)(n, power)
        total = total + term
    return total


@st.composite
def generator_triples(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(generator_sums(n)) for _ in range(3))


@st.composite
def ring_triples(draw):
    n = draw(st.integers(1, 5))
    elems = ring_elements(n)
    return draw(elems), draw(elems), draw(elems)


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_commutative(self, abc):
        a, b, _ = abc
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_associative(self, abc):
        a, b, c = abc
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_distributive(self, abc):
        a, b, c = abc
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=60, deadline=None)
    @given(generator_triples())
    def test_generator_sums_associative_distributive(self, abc):
        a, b, c = abc
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(ring_triples(), st.integers(0, 6))
    def test_power_is_repeated_product(self, abc, k):
        x = abc[0]
        product = RingElement.one(x.n)
        for _ in range(k):
            product = product * x
        assert x ** k == product

    @settings(max_examples=60, deadline=None)
    @given(generator_triples())
    def test_length_is_additive(self, abc):
        a, b, _ = abc
        la, lb = cp.length_by_degree(a), cp.length_by_degree(b)
        want = {d: la.get(d, PiScalar(0)) + lb.get(d, PiScalar(0))
                for d in set(la) | set(lb)}
        assert cp.length_by_degree(a + b) == {
            d: v for d, v in want.items() if v != 0}


def ring_expr(e):
    """e, with rational coefficients only, as a sum of c*s^j*t^i terms."""
    return " + ".join(f"{c}*s^{j}*t^{d - 2 * j}"
                      for (d, j), c in sorted(e.coeffs.items())) or "0"


class TestRingExpressionRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: ring_elements(n, [Fraction(0)])))
    def test_print_then_parse(self, e):
        assert RingElement.parse(e.n, ring_expr(e)) == e


@st.composite
def expression_terms(draw):
    """(n, [(coefficient, [(generator, power), ...]), ...]) with powers up
    to 2n + 1, so some terms land above the top degree."""
    n = draw(st.integers(0, 6))
    factor = st.tuples(st.sampled_from(["s", "t", "beta", "gamma"]),
                       st.integers(0, 2 * n + 1))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return n, draw(st.lists(st.tuples(coeff, st.lists(factor, max_size=4)),
                            min_size=1, max_size=4))


class TestParse:
    @settings(max_examples=80, deadline=None)
    @given(expression_terms())
    def test_matches_products_of_generators(self, n_terms):
        # the construction the reader replaced: each term a ring product
        # of generator powers, so this checks the one-monomial reading
        n, terms = n_terms
        text = " + ".join(
            "*".join([str(c)] + [f"{g}^{p}" for g, p in factors])
            for c, factors in terms)
        want = RingElement.zero(n)
        for c, factors in terms:
            elem = RingElement.one(n)
            for g, p in factors:
                elem = elem * getattr(RingElement, g)(n, p)
            want = want + elem.scale(c)
        assert RingElement.parse(n, text) == want

    def test_huge_power_is_zero_at_once(self):
        # beta^k carries pi^(2k/3), one PiScalar power, not k products
        assert RingElement.parse(2, "beta^1000000").is_zero()

    def test_monomial_is_product_of_powers(self):
        # reduction is a ring homomorphism on raw monomials
        for n in range(7):
            for a in range(2 * n + 2):
                for b in range(2 * n + 2):
                    assert (RingElement.monomial(n, a, b)
                            == RingElement.s(n, a) * RingElement.t(n, b))


class TestMultiply:
    def test_s_times_s_n2(self):
        s = RingElement.s(2)
        assert (s * s) == RingElement.monomial(2, 0, 4, Fraction(1, 6))

    def test_st_relation_n2(self):
        s, t = RingElement.s(2), RingElement.t(2)
        assert s * t == RingElement.monomial(2, 0, 3, Fraction(1, 3))

    def test_n3_relations(self):
        s, t = RingElement.s(3), RingElement.t(3)
        third = RingElement.monomial(3, 0, 5, Fraction(3, 10))
        assert s * t ** 3 == third
        assert s * s * t == RingElement.monomial(3, 0, 5, Fraction(1, 10))
        assert s * s == 2 * (s * t * t) - RingElement.monomial(
            3, 0, 4, Fraction(1, 2))

    def test_commutative_associative(self):
        rng = random.Random(0)
        for n in range(2, 7):
            elems = []
            for _ in range(3):
                d = rng.randint(1, n)
                j = rng.choice(cp.j_set(n, d))
                elems.append(RingElement(
                    n, {(d, j): Fraction(rng.randint(1, 5))}))
            a, b, c = elems
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_one_is_identity(self):
        x = RingElement.monomial(3, 1, 1)
        assert RingElement.one(3) * x == x

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            RingElement.s(3) ** -1

    def test_truncation_above_top_degree(self):
        t = RingElement.t(2)
        assert (t ** 5).is_zero()


class TestRelations:
    def test_f1(self):
        # gamma - (1/2) pi^(-2) beta^2
        rel = cp.relation_beta_gamma(1)
        assert rel[(1, 0)] == PiScalar(1)
        assert rel[(0, 2)] == PiScalar(Fraction(-1, 2), -2)

    def test_f2(self):
        rel = cp.relation_beta_gamma(2)
        assert rel[(1, 1)] == PiScalar(1)
        assert rel[(0, 3)] == PiScalar(Fraction(-1, 3), -2)

    def test_f3(self):
        rel = cp.relation_beta_gamma(3)
        assert rel[(2, 0)] == PiScalar(1)
        assert rel[(1, 2)] == PiScalar(-2, -2)
        assert rel[(0, 4)] == PiScalar(Fraction(1, 2), -4)

    def test_f4_st(self):
        # s^2 t - s t^3 + (1/5) t^5
        rel = cp.relation_st(4)
        assert rel == {(2, 1): Fraction(1), (1, 3): Fraction(-1),
                       (0, 5): Fraction(1, 5)}

    def test_relations_vanish_in_ring(self):
        for n in range(1, 9):
            pair = cp.relations(n)
            for entry in pair:
                assert cp.evaluate_relation_st(entry["st"], n).is_zero()

    def test_beta_gamma_relations_vanish_in_ring(self):
        # terms of F_m in (beta, gamma) carry different powers of pi
        for m in range(1, 7):
            rel = RingElement.zero(m)
            for (j, i), c in cp.relation_beta_gamma(m).items():
                rel = rel + (RingElement.gamma(m, j)
                             * RingElement.beta(m, i)).scale(c)
            assert rel.is_zero()

    def test_relations_nonzero_below(self):
        # F_{n+1} does not vanish in the ring of CP^{n+1}
        for n in range(1, 6):
            rel = cp.relation_st(n)
            assert not cp.evaluate_relation_st(rel, n + 1).is_zero()


class TestHardLefschetz:
    def test_multiplication_by_t_power_is_injective(self):
        # t^(2n-2d) maps degree d isomorphically onto degree 2n-d
        for n in range(1, 9):
            for d in range(n + 1):
                js = cp.j_set(n, d)
                images = []
                for j in js:
                    x = RingElement(n, {(d, j): Fraction(1)})
                    y = x * RingElement.t(n, 2 * (n - d))
                    images.append([
                        y.coeffs.get((2 * n - d, jj), PiScalar(0)).rational()
                        for jj in cp.j_set(n, 2 * n - d)])
                assert bareiss_det(images) != 0


class TestLength:
    def test_homogeneous(self):
        assert cp.length(RingElement.gamma(2)) == PiScalar(2, -1)
        assert cp.length(RingElement.beta(2, 3)) == PiScalar(6, 2)

    def test_zero(self):
        assert cp.length(RingElement.zero(3)) == PiScalar(0)

    def test_mixed_powers_of_pi(self):
        # the README expression: l(gamma) = 2/pi, l(beta^2) = 6 pi
        x = RingElement.gamma(2) - RingElement.beta(2, 2).scale(Fraction(1, 2))
        assert cp.length(x) == PiScalar(2, -1) - PiScalar(3, 1)

    def test_inhomogeneous_rejected(self):
        x = RingElement.t(2) + RingElement.t(2, 2)
        with pytest.raises(ValueError):
            cp.length(x)

    def test_by_degree(self):
        x = RingElement.t(2) + RingElement.t(2, 2)
        by_deg = cp.length_by_degree(x)
        assert set(by_deg) == {1, 2}

    def test_intersection_number(self):
        # l_n(1) = l(gamma^n) = pi^(-n) n!
        for n in range(1, 6):
            val = cp.intersection_number(RingElement.one(n), n)
            assert val == PiScalar(math.factorial(n), -n)


class TestCodim2:
    def test_coeff_examples(self):
        x_r, x_c = cp.codim2_coeffs(2, 1, 1)
        assert x_r == PiScalar(-1, -2)
        assert x_c == 3
        x_r, x_c = cp.codim2_coeffs(3, 2, -1)
        assert x_r == PiScalar(Fraction(3, 4), -2)
        assert x_c == Fraction(1, 2)

    def test_closed_form_examples(self):
        assert cp.self_intersection_codim2(2, 3, 1) == 11
        assert cp.self_intersection_codim2(3, 2, 1) == Fraction(59, 4)
        assert cp.self_intersection_codim2(3, 3, 0) == 27

    def test_ring_route_matches_closed_form(self):
        rng = random.Random(1)
        for n in range(2, 7):
            for _ in range(4):
                d = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                delta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                assert (cp.self_intersection_via_ring(n, d, delta)
                        == cp.self_intersection_codim2(n, d, delta))


    def test_ring_route_exact_at_n48(self):
        for d, delta in ((Fraction(3, 7), Fraction(-5, 2)), (2, 1)):
            assert (cp.self_intersection_via_ring(48, d, delta)
                    == cp.self_intersection_codim2(48, d, delta))


class TestFk:
    def test_values(self):
        assert [cp.f_k(k) for k in range(9)] == [1, 0, 2, 0, 6, 0, 20, 0, 70]

    def test_central_binomial(self):
        for k in range(0, 41):
            if k % 2 == 1:
                assert cp.f_k(k) == 0
            else:
                assert cp.f_k(k) == math.comb(k, k // 2)


class TestTasaki:
    def test_closed_form_values(self):
        assert cp.tasaki_kernel_d2(2, 0, 0) == Fraction(3, 4)
        assert cp.tasaki_kernel_d2(2, 1, 0) == Fraction(1, 2)
        assert cp.tasaki_kernel_d2(2, 1, 1) == 1
        assert cp.tasaki_kernel_d2(3, 0, 0) == Fraction(5, 8)

    def test_symmetry(self):
        for n in (2, 3, 4):
            for x in (Fraction(1, 4), Fraction(3, 4)):
                for y in (0, Fraction(1, 2), 1):
                    assert (cp.tasaki_kernel_d2(n, x, y)
                            == cp.tasaki_kernel_d2(n, y, x))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            cp.tasaki_kernel_d2(2, 2, 0)

    @pytest.mark.parametrize("x, y", [(-0.1, 0.5), (0.5, 1.5),
                                      (float("nan"), 0.5)])
    def test_mc_domain_checked(self, x, y):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            cp.mc_tasaki_kernel_d2(2, x, y, 100, seed=0)

    def test_mc_matches_closed_form(self):
        est = cp.mc_tasaki_kernel_d2(2, 0.5, 0.5, 200000, seed=3)
        expect = float(cp.tasaki_kernel_d2(2, Fraction(1, 2), Fraction(1, 2)))
        assert abs(est.mean - expect) < 3 * est.std_error

    @pytest.mark.parametrize("n, x, y", [(3, 0.3, 0.6), (6, 0.8, 0.1)])
    def test_mc_z_scores_are_calibrated(self, n, x, y):
        expect = float(cp.tasaki_kernel_d2(n, Fraction(x), Fraction(y)))
        assert_calibrated(
            lambda seed: cp.mc_tasaki_kernel_d2(n, x, y, 4000, seed), expect)


class TestKaehler:
    def test_omega_norms(self):
        for n in range(1, 6):
            for k in range(n + 1):
                assert cp.omega_norm_sq(n, k) == math.comb(n, k)

    def test_omega_element_coords(self):
        e = cp.omega_element(2, 1)
        assert e.coords == {(0, 1): 1, (2, 3): 1}
