import functools
import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from pirings import zonoid as zn
from pirings.exact import int_det
from pirings.exterior import (ExteriorElement, SimpleVector, expand,
                              hodge_star, wedge_inner, wedge_norm)
from pirings.sphere_ring import ball_wedge_length, kappa


def seg(n, vec, w=1):
    return zn.VirtualZonoid.segment(SimpleVector(n, [vec]), w)


def unit_square():
    return zn.VirtualZonoid(2, 1, [(1, SimpleVector(2, [(1, 0)])),
                                   (1, SimpleVector(2, [(0, 1)]))])


def hull_volume(z):
    """Brute-force zonotope volume oracle: hull of all sign combinations."""
    gens = [np.array([float(x) for x in v.factors[0]]) * float(w)
            for w, v in z.atoms]
    n = z.ambient_dim
    pts = []
    for signs in itertools.product((-0.5, 0.5), repeat=len(gens)):
        pts.append(sum((s * g for s, g in zip(signs, gens)),
                       np.zeros(n)))
    try:
        return ConvexHull(np.array(pts)).volume
    except QhullError:
        # flat zonotope
        return 0.0


def random_zonotope(rng, n, ngens):
    atoms = []
    for _ in range(ngens):
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
               for _ in range(n)]
        if all(x == 0 for x in vec):
            vec[0] = Fraction(1)
        atoms.append((Fraction(rng.randint(1, 3)), SimpleVector(n, [vec])))
    return zn.VirtualZonoid(n, 1, atoms)


class TestSupport:
    def test_segment(self):
        u = ExteriorElement(2, 1, {(0,): 1})
        assert zn.support(seg(2, (1, 0)), u) == Fraction(1, 2)

    def test_square_diagonal(self):
        u = ExteriorElement(2, 1, {(0,): 1, (1,): 1})
        assert zn.support(unit_square(), u) == 1

    def test_center_only(self):
        z = zn.VirtualZonoid(2, 1, [], ExteriorElement(2, 1, {(0,): 1}))
        assert zn.support(z, ExteriorElement(2, 1, {(0,): 1})) == 1

    def test_atom_order_irrelevant(self):
        rng = random.Random(0)
        a = unit_square()
        b = zn.VirtualZonoid(2, 1, list(reversed(a.atoms)))
        for _ in range(20):
            u = ExteriorElement(2, 1, {(0,): Fraction(rng.randint(-5, 5)),
                                       (1,): Fraction(rng.randint(-5, 5))})
            assert zn.support(a, u) == zn.support(b, u)

    def test_minkowski_sum_supports_add(self):
        rng = random.Random(1)
        a = random_zonotope(rng, 3, 3)
        b = random_zonotope(rng, 3, 2)
        for _ in range(100):
            u = ExteriorElement(3, 1, {(i,): Fraction(rng.randint(-4, 4))
                                       for i in range(3)})
            assert zn.support(a + b, u) == zn.support(a, u) + zn.support(b, u)


class TestLength:
    def test_three_four_five(self):
        assert zn.length(seg(2, (3, 4))) == 5

    def test_weighted(self):
        z = zn.VirtualZonoid(2, 1, [(2, SimpleVector(2, [(1, 0)])),
                                    (1, SimpleVector(2, [(0, 1)]))])
        assert zn.length(z) == 3

    def test_translation_invariant(self):
        z = unit_square()
        moved = z.translate(ExteriorElement(2, 1, {(0,): Fraction(7, 3)}))
        assert zn.length(moved) == zn.length(z) == 2


class TestWedge:
    def test_segment_wedge(self):
        w = zn.wedge([seg(2, (1, 0)), seg(2, (0, 1))])
        assert len(w.atoms) == 1
        assert zn.length(w) == 1

    def test_square_self_wedge(self):
        w = zn.wedge([unit_square(), unit_square()])
        assert zn.length(w) == 2

    def test_empty_product_raises(self):
        with pytest.raises(ValueError, match="empty product"):
            zn.wedge([])

    def test_parallel_vanishes(self):
        w = zn.wedge([seg(2, (1, 1)), seg(2, (1, 1))])
        assert w.atoms == []

    def test_center_combines(self):
        c = ExteriorElement(2, 1, {(0,): Fraction(1, 2)})
        c2 = ExteriorElement(2, 1, {(1,): Fraction(1, 2)})
        w = zn.wedge([seg(2, (1, 0)).translate(c), seg(2, (0, 1)).translate(c2)])
        # 2 * c ^ c2 has coefficient 1/2 on e1^e2
        assert w.center is not None
        assert w.center.coords == {(0, 1): Fraction(1, 2)}


class TestMixedVolume:
    def test_unit_segments(self):
        c = ExteriorElement(2, 1, {(0,): Fraction(1, 2)})
        c2 = ExteriorElement(2, 1, {(1,): Fraction(1, 2)})
        zs = [seg(2, (1, 0)).translate(c), seg(2, (0, 1)).translate(c2)]
        assert zn.mixed_volume(zs) == Fraction(1, 2)

    def test_square(self):
        assert zn.mixed_volume([unit_square(), unit_square()]) == 1

    def test_zero_zonoid(self):
        zero = zn.VirtualZonoid(2, 1, [])
        assert zn.mixed_volume([zero, unit_square()]) == 0

    def test_translation_invariant(self):
        rng = random.Random(2)
        a = random_zonotope(rng, 2, 3)
        b = random_zonotope(rng, 2, 2)
        shift = ExteriorElement(2, 1, {(0,): Fraction(5)})
        assert zn.mixed_volume([a, b]) == zn.mixed_volume(
            [a.translate(shift), b])

    def test_volume_against_hull_oracle(self):
        rng = random.Random(3)
        for n in (2, 3):
            for _ in range(8):
                z = random_zonotope(rng, n, rng.randint(n, n + 2))
                exact = float(zn.volume(z))
                oracle = hull_volume(z)
                assert exact == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def kappa_ratio_factor(n, d):
    """binom(n, d) / (kappa_(n-d) n!) times the length of the wedge of
    n - d balls with a degree-d body of length 1: the constant of V_d as a
    mixed volume with balls, the oracle of intrinsic_volume's 1/d!."""
    return (ball_wedge_length(n, d, n - d, 1) / kappa(n - d)
            * math.comb(n, d) / math.factorial(n)).rational()


class TestIntrinsicVolume:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_kappa_ratio_factor_is_one_over_d_factorial(self, nd):
        n, d = nd
        assert kappa_ratio_factor(n, d) == Fraction(1, math.factorial(d))

    def test_v1_segment(self):
        assert zn.intrinsic_volume(seg(2, (1, 0)), 1) == 1

    def test_square_area(self):
        assert zn.intrinsic_volume(unit_square(), 2) == 1

    def test_square_perimeter_half(self):
        assert zn.intrinsic_volume(unit_square(), 1) == 2

    def test_v0(self):
        assert zn.intrinsic_volume(unit_square(), 0) == 1

    def test_negative_weight_rejected(self):
        bad = zn.VirtualZonoid(2, 1, [(-1, SimpleVector(2, [(1, 0)]))])
        with pytest.raises(ValueError):
            zn.intrinsic_volume(bad, 1)


class TestPairing:
    def test_same_segment(self):
        assert zn.pairing(seg(2, (1, 0)), seg(2, (1, 0))) == 1

    def test_orthogonal_segments(self):
        assert zn.pairing(seg(2, (1, 0)), seg(2, (0, 1))) == 0

    def test_twice_support(self):
        k = seg(2, (1, 1))
        z = seg(2, (1, 0))
        u = ExteriorElement(2, 1, {(0,): 1})
        assert zn.pairing(k, z) == 2 * zn.support(k, u) == 1

    def test_symmetric_and_nonnegative_on_genuine(self):
        rng = random.Random(4)
        zs = [random_zonotope(rng, 3, 2) for _ in range(5)]
        for a in zs:
            assert zn.pairing(a, a) >= 0
            for b in zs:
                assert zn.pairing(a, b) == zn.pairing(b, a)
                assert zn.pairing(a, b) >= 0


class TestExp:
    def test_segment(self):
        parts = zn.exp_truncated(seg(2, (1, 0)), 2)
        assert zn.length(parts[0]) == 1
        assert zn.length(parts[1]) == 1
        assert zn.length(parts[2]) == 0

    def test_square_degree_two(self):
        parts = zn.exp_truncated(unit_square(), 2)
        assert zn.length(parts[2]) == 1

    def test_zero(self):
        parts = zn.exp_truncated(zn.VirtualZonoid(2, 1, []), 2)
        assert zn.length(parts[0]) == 1
        assert all(zn.length(p) == 0 for p in parts[1:])


class TestCrofton:
    def test_plane_projection(self):
        plane = zn.VirtualZonoid(
            2, 2, [(1, SimpleVector(2, [(1, 0), (0, 1)]))])
        assert zn.crofton_evaluate(plane, unit_square()) == 1

    def test_zero(self):
        zero = zn.VirtualZonoid(2, 2, [])
        assert zn.crofton_evaluate(zero, unit_square()) == 0

    def test_degree_zero_is_the_sum_of_the_weights(self):
        def scalar(*ws):
            return zn.VirtualZonoid(2, 0, [(w, SimpleVector(2, ())) for w in ws])

        got = zn.crofton_evaluate(scalar(2, 3), unit_square())
        assert type(got) is int and got == 5
        got = zn.crofton_evaluate(scalar(Fraction(1, 2), 3), unit_square())
        assert got == Fraction(7, 2)
        assert zn.crofton_evaluate(scalar(0.1, 0.2), unit_square()) == float(
            Fraction(0.1) + Fraction(0.2))
        assert zn.crofton_evaluate(scalar(), unit_square()) == 0

    def test_star_exp_gives_volume_of_sum(self):
        m = seg(2, (1, 0))
        parts = zn.star_exp(m)
        val = zn.crofton_evaluate_graded(parts, unit_square())
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_convolution_identity(self):
        # vol(.+L) * vol(.+L') = vol(.+L+L') evaluated at random zonotopes
        rng = random.Random(5)
        for n in (2, 3):
            for _ in range(5):
                k = random_zonotope(rng, n, n + 1)
                l1 = random_zonotope(rng, n, 2)
                l2 = random_zonotope(rng, n, 2)
                combined = l1 + l2
                lhs = zn.crofton_evaluate_graded(zn.star_exp(combined), k)
                rhs = hull_volume(k + combined)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestHodgeDual:
    def test_segment_in_r2(self):
        d = zn.hodge_dual(seg(2, (1, 0)))
        u = ExteriorElement(2, 1, {(1,): 1})
        assert float(zn.support(d, u)) == pytest.approx(0.5, abs=1e-12)
        assert float(zn.support(d, ExteriorElement(2, 1, {(0,): 1}))) == (
            pytest.approx(0.0, abs=1e-12))

    def test_isometry(self):
        rng = random.Random(6)
        for _ in range(5):
            z = random_zonotope(rng, 3, 3)
            assert float(zn.length(zn.hodge_dual(z))) == pytest.approx(
                float(zn.length(z)), rel=1e-10)

    def test_star_star_up_to_sign(self):
        rng = random.Random(7)
        z = random_zonotope(rng, 3, 3)
        back = zn.hodge_dual(zn.hodge_dual(z))
        for _ in range(10):
            u = ExteriorElement(3, 1, {(i,): rng.uniform(-1, 1)
                                       for i in range(3)})
            # degree 1 in R^3: star star = identity up to the global sign
            assert float(zn.support(back, u)) == pytest.approx(
                float(zn.support(z, u)), rel=1e-9, abs=1e-9)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(8)
        z = random_zonotope(rng, 3, 3).translate(
            ExteriorElement(3, 1, {(1,): Fraction(2, 3)}))
        data = json.loads(json.dumps(zn.to_json(z)))
        back = zn.from_json(data)
        for _ in range(20):
            u = ExteriorElement(3, 1, {(i,): Fraction(rng.randint(-4, 4))
                                       for i in range(3)})
            assert zn.support(back, u) == zn.support(z, u)


# --- the product engine against a brute-force ordered-product oracle -------

def frac_det(m):
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in m]
    n, out = len(m), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return out


def gram(rows, cols):
    return [[sum(a * b for a, b in zip(x, y)) for y in cols] for x in rows]


def ordered_products(bodies):
    """(weight, factor rows) of every ordered choice of one atom per body."""
    for combo in itertools.product(*(b.atoms for b in bodies)):
        yield (math.prod(w for w, _ in combo),
               [f for _, v in combo for f in v.factors])


def oracle_mixed_volume(bodies):
    n = len(bodies)
    return sum((w * abs(frac_det(rows)) for w, rows in ordered_products(bodies)),
               start=Fraction(0)) / math.factorial(n)


def oracle_wedge_length(bodies):
    return sum(w * float(frac_det(gram(rows, rows))) ** 0.5
               for w, rows in ordered_products(bodies))


def oracle_crofton(L, K):
    d = L.degree
    total = Fraction(0)
    for wl, a in L.atoms:
        for w, rows in ordered_products([K] * d):
            total += wl * w * abs(frac_det(gram(a.factors, rows)))
    return total / math.factorial(d)


COORDS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
WEIGHTS = st.builds(Fraction, st.integers(-2, 3), st.integers(1, 4))
SCALES = st.builds(Fraction, st.integers(-2, 2).filter(bool),
                   st.integers(1, 3))


def vectors(n):
    return st.lists(COORDS, min_size=n, max_size=n)


def numpy_ints(draw, xs):
    """xs as numpy int64s when they are integers and a draw says so."""
    if draw(st.booleans()) and all(x == int(x) for x in xs):
        return [np.int64(int(x)) for x in xs]
    return xs


@st.composite
def zonotopes(draw, n, min_atoms=1, max_atoms=3):
    """Rational degree-1 zonotopes with zero and parallel generators; some
    weights and generators are numpy integers."""
    atoms = [(numpy_ints(draw, [w])[0], numpy_ints(draw, v))
             for w, v in draw(st.lists(st.tuples(WEIGHTS, vectors(n)),
                                       min_size=min_atoms,
                                       max_size=max_atoms))]
    parallel = [(draw(WEIGHTS), [c * x for x in v])
                for c, (_, v) in zip(draw(st.lists(SCALES, max_size=2)), atoms)]
    zero = [(draw(WEIGHTS), [0] * n)] if draw(st.booleans()) else []
    return zn.VirtualZonoid(n, 1, [(w, SimpleVector(n, [v]))
                                   for w, v in atoms + parallel + zero])


@st.composite
def body_lists(draw, n):
    """n bodies in R^n with a repeat pattern such as [K, K, L]."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    distinct = {lab: draw(zonotopes(n, min_atoms=labels.count(lab)))
                for lab in labels}
    return [distinct[lab] for lab in labels]


@st.composite
def valuations(draw, n, d):
    """Rational degree-d zonoids in R^n (factors may be dependent)."""
    atoms = draw(st.lists(
        st.tuples(WEIGHTS.filter(bool),
                  st.lists(vectors(n), min_size=d, max_size=d)),
        min_size=1, max_size=2))
    return zn.VirtualZonoid(n, d, [(w, SimpleVector(n, fs)) for w, fs in atoms])


ENGINE = settings(max_examples=25, deadline=None)


class TestEngineAgainstOrderedOracle:
    @ENGINE
    @given(st.integers(2, 3).flatmap(body_lists))
    def test_mixed_volume(self, bodies):
        got = zn.mixed_volume(bodies)
        assert isinstance(got, Fraction)
        assert got == oracle_mixed_volume(bodies)

    @ENGINE
    @given(zonotopes(3), zonotopes(3))
    def test_kkl_in_r3(self, k, l):
        assert zn.mixed_volume([k, k, l]) == oracle_mixed_volume([k, k, l])
        assert zn.length(zn.wedge([k, k, l])) == oracle_mixed_volume(
            [k, k, l]) * 6

    @ENGINE
    @given(st.data())
    def test_crofton(self, data):
        d = data.draw(st.sampled_from((2, 3)))
        L = data.draw(valuations(3, d))
        K = data.draw(zonotopes(3, min_atoms=d, max_atoms=4))
        got = zn.crofton_evaluate(L, K)
        assert isinstance(got, Fraction)
        assert got == oracle_crofton(L, K)

    @pytest.mark.parametrize("d", [2, 3])
    def test_crofton_many_atoms(self, d):
        # each atom of L meets K's rows in one table of dot products, shared
        # by the C(13, d) subsets of K's 13 atoms (12 drawn, one of them
        # doubled as a parallel atom with a negative weight)
        rng = random.Random(40 + d)

        def rational():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        rows = [[rational() for _ in range(4)] for _ in range(12)]
        k_atoms = [(Fraction(rng.randint(1, 9), rng.randint(1, 9)), v)
                   for v in rows]
        k_atoms.append((Fraction(-1, 3), [2 * x for x in rows[0]]))
        K = zn.VirtualZonoid(4, 1, [(w, SimpleVector(4, [v]))
                                    for w, v in k_atoms])
        L = zn.VirtualZonoid(4, d, [
            (rational() or 1, SimpleVector(4, [[rational() for _ in range(4)]
                                               for _ in range(d)]))
            for _ in range(3)])
        got = zn.crofton_evaluate(L, K)
        assert isinstance(got, Fraction)
        assert got == oracle_crofton(L, K)

    @ENGINE
    @given(zonotopes(3), zonotopes(3))
    def test_partial_wedge_length(self, k, l):
        for bodies in ([k, k], [k, l]):
            got = float(zn.length(zn.wedge(bodies)))
            scale = oracle_wedge_length(
                [zn.VirtualZonoid(3, 1, [(abs(w), v) for w, v in b.atoms])
                 for b in bodies])
            assert abs(got - oracle_wedge_length(bodies)) <= 1e-12 * scale

    @ENGINE
    @given(st.integers(2, 3).flatmap(body_lists))
    def test_float_input(self, bodies):
        def convert(b, num):
            return zn.VirtualZonoid(b.ambient_dim, 1, [
                (num(w), SimpleVector(b.ambient_dim, [map(num, v.factors[0])]))
                for w, v in b.atoms])

        floats = [convert(b, float) for b in bodies]
        # floats are binary rationals, so their exact value is computable
        exact = [convert(b, Fraction) for b in floats]
        # a float determinant is good to a few eps of the Hadamard bound
        hadamard = sum(abs(w) * math.prod(math.hypot(*r) for r in rows)
                       for w, rows in ordered_products(floats))
        got = zn.mixed_volume(floats)
        assert abs(got - zn.mixed_volume(exact)) <= 1e-12 * hadamard


def oracle_integer_volume(bodies):
    """oracle_mixed_volume on integer rows, with |det|, which does not
    depend on the order of the rows, taken once per multiset of rows."""
    @functools.cache
    def abs_det(rows):
        return abs(int_det(rows))

    return sum((w * abs_det(tuple(sorted(map(tuple, rows))))
                for w, rows in ordered_products(bodies)),
               start=Fraction(0)) / math.factorial(len(bodies))


@st.composite
def integer_bodies(draw, n, max_atoms):
    """n degree-1 bodies in R^n in a repeat pattern such as [K, K, L],
    each with up to max_atoms integer generators, some of them zero or
    (negative) multiples of others, and weights of either sign."""
    def body(min_atoms):
        rows = []
        for _ in range(draw(st.integers(min_atoms, max_atoms))):
            kind = draw(st.sampled_from(("new", "new", "parallel", "zero")))
            if kind == "parallel" and rows:
                c = draw(st.sampled_from((-2, -1, 2, 3)))
                rows.append([c * x for x in draw(st.sampled_from(rows))])
            elif kind == "zero":
                rows.append([0] * n)
            else:
                rows.append(draw(st.lists(st.integers(-3, 3), min_size=n,
                                          max_size=n)))
        return zn.VirtualZonoid(n, 1, [(draw(WEIGHTS), SimpleVector(n, [r]))
                                       for r in rows])

    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    distinct = {lab: body(labels.count(lab)) for lab in labels}
    return [distinct[lab] for lab in labels]


class TestDeepTreesAgainstOrderedOracle:
    # depth 4 and 5 trees: each term's last row is a dot product with its
    # prefix's cofactors, and Crofton terms are Pluecker dot products
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from((4, 5)).flatmap(lambda n: integer_bodies(n, 8)))
    def test_full_degree(self, bodies):
        got = zn.mixed_volume(bodies)
        assert isinstance(got, Fraction)
        assert got == oracle_integer_volume(bodies)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_crofton_in_r5(self, data):
        d = data.draw(st.sampled_from((2, 3)))
        L = data.draw(valuations(5, d))
        K = data.draw(zonotopes(5, min_atoms=d, max_atoms=5))
        got = zn.crofton_evaluate(L, K)
        assert isinstance(got, Fraction)
        assert got == oracle_crofton(L, K)


class TestMixedVolumeProperties:
    @ENGINE
    @given(st.integers(2, 3).flatmap(
        lambda n: st.tuples(body_lists(n), st.permutations(range(n)))))
    def test_symmetric(self, case):
        bodies, perm = case
        assert zn.mixed_volume([bodies[i] for i in perm]) == zn.mixed_volume(
            bodies)

    @ENGINE
    @given(zonotopes(3), zonotopes(3), body_lists(3), st.booleans())
    def test_multilinear_under_minkowski_sums(self, a, b, bodies, repeat):
        rest = [bodies[1]] * 2 if repeat else bodies[1:]
        assert zn.mixed_volume([a + b] + rest) == (
            zn.mixed_volume([a] + rest) + zn.mixed_volume([b] + rest))


class TestExactRegressions:
    def test_tiny_square(self):
        eps = Fraction(1, 10**8)
        z = zn.VirtualZonoid(2, 1, [(1, SimpleVector(2, [(eps, 0)])),
                                    (1, SimpleVector(2, [(0, eps)]))])
        assert zn.volume(z) == Fraction(1, 10**16)
        assert zn.intrinsic_volume(z, 2) == Fraction(1, 10**16)

    def test_degenerate_mixed_volume_is_exact_zero(self):
        got = zn.mixed_volume([seg(2, (1, 1)), seg(2, (2, 2))])
        assert got == 0 and isinstance(got, Fraction)
        got = zn.volume(zn.VirtualZonoid(2, 1, []))
        assert got == 0 and isinstance(got, Fraction)

    def test_degenerate_crofton_is_exact_zero(self):
        plane = zn.VirtualZonoid(
            3, 2, [(1, SimpleVector(3, [(1, 0, 0), (0, 1, 0)]))])
        got = zn.crofton_evaluate(plane, seg(3, (1, 2, 3)))
        assert got == 0 and isinstance(got, Fraction)

    def test_degenerate_float_input_gives_float_zero(self):
        got = zn.mixed_volume([seg(2, (1.0, 1.0)), seg(2, (2.0, 2.0))])
        assert got == 0 and isinstance(got, float)
        plane = zn.VirtualZonoid(
            3, 2, [(1.0, SimpleVector(3, [(1.0, 0, 0), (0, 1.0, 0)]))])
        got = zn.crofton_evaluate(plane, seg(3, (0, 0, 1.0)))
        assert got == 0 and isinstance(got, float)

    def test_huge_float_input(self):
        # a float body is computed on its exact binary value and rounded
        # once, so 1e200 neither overflows nor passes for a zero
        big = seg(2, (1e200, 0.0))
        assert zn.mixed_volume([big, seg(2, (0.0, 1.0))]) == pytest.approx(
            5e199, rel=1e-12)
        assert zn.length(big) == 1e200
        # a true overflow (5e399) is inf, not 0.0
        assert zn.mixed_volume([big, seg(2, (0.0, 1e200))]) == math.inf

    @pytest.mark.parametrize("num", [float, Fraction])
    def test_length_whose_canonical_weights_leave_the_float_range(self, num):
        # weights over a common denominator beyond 2^1024, or a scale
        # 1/den below the least normal float, while the length is normal
        wide = zn.VirtualZonoid(2, 1, [
            (num(1), SimpleVector(2, [(num(1), num(1))])),
            (num(1), SimpleVector(2, [(num(1e-300) / 10**10, 0)]))])
        assert zn.length(wide) == math.sqrt(2)
        tiny = [[num(x) * num(1e-100) for x in r]
                for r in ((1, 2, 0, 0), (0, 1, 3, 0), (0, 0, 1, 1))]
        got = zn.length(zn.VirtualZonoid(4, 3, [(1, SimpleVector(4, tiny))]))
        assert got == pytest.approx(math.sqrt(47) * 1e-300, rel=1e-12, abs=0)

    def test_numpy_integers_are_read_exactly(self):
        body = zn.VirtualZonoid(2, 1, [
            (np.int64(2), SimpleVector(2, [(np.int64(3), np.int64(4))])),
            (1, SimpleVector(2, [(np.int64(0), 1)]))])
        assert zn.length(body) == 11
        assert zn.volume(body) == 6
        assert zn.to_json(body)["atoms"][0] == {"w": 2, "v": [[3, 4]]}

    def test_fraction_of_numpy_integer_does_not_wrap(self):
        f = Fraction(np.int64(3037000500))
        body = zn.VirtualZonoid(2, 2, [(1, SimpleVector(2, [(f, 1), (1, f)]))])
        assert zn.length(body) == 3037000500 ** 2 - 1

    def test_degree_zero_factors_do_not_vanish(self):
        two = zn.VirtualZonoid(2, 0, [(2, SimpleVector(2, ()))])
        w = zn.wedge([two, two, unit_square()])
        assert zn.length(w) == 8

    def test_parallel_atoms_merge(self):
        merged = zn.VirtualZonoid(2, 1, [(3, SimpleVector(2, [(1, 1)])),
                                         (1, SimpleVector(2, [(0, 1)]))])
        split = zn.VirtualZonoid(2, 1, [(1, SimpleVector(2, [(1, 1)])),
                                        (1, SimpleVector(2, [(-2, -2)])),
                                        (1, SimpleVector(2, [(0, 1)]))])
        assert len(zn.wedge([split, split]).atoms) == 1
        assert zn.volume(split) == zn.volume(merged) == 3


# --- length, pairing and JSON against the per-atom formulas ---------------

def oracle_length(z):
    """The per-atom formula: sum of w * |v|, each norm a Gram root."""
    return sum((w * wedge_norm([v]) for w, v in z.atoms), start=0)


def oracle_pairing(a, b):
    """Sum over atom pairs of w w' |<v, v'>|, each a Gram determinant."""
    return sum((w * w2 * abs(wedge_inner(v, v2))
                for w, v in a.atoms for w2, v2 in b.atoms), start=0)


def hadamard(z):
    """Sum of |w| prod |v_i|, the Hadamard bound of the length of z."""
    return sum(abs(w) * math.prod(math.hypot(*f) for f in v.factors)
               for w, v in z.atoms)


def binary_rationals(z):
    """z with every float weight and coordinate made its exact Fraction."""
    return zn.VirtualZonoid(z.ambient_dim, z.degree, [
        (Fraction(w), SimpleVector(z.ambient_dim,
                                   [map(Fraction, f) for f in v.factors]))
        for w, v in z.atoms])


def as_floats(z):
    """z with every weight and coordinate made a float."""
    return zn.VirtualZonoid(z.ambient_dim, z.degree, [
        (float(w), SimpleVector(z.ambient_dim,
                                [map(float, f) for f in v.factors]))
        for w, v in z.atoms])


def holds_float(*bodies):
    return any(isinstance(x, float) for z in bodies for w, v in z.atoms
               for x in (w, *itertools.chain(*v.factors)))


def rotation_rows(a, b, c, e):
    """Rows of the rotation of the quaternion (a, b, c, e), unnormalised:
    pairwise orthogonal, each of norm a^2 + b^2 + c^2 + e^2."""
    return [(a * a + b * b - c * c - e * e, 2 * (b * c - a * e),
             2 * (b * e + a * c)),
            (2 * (b * c + a * e), a * a - b * b + c * c - e * e,
             2 * (c * e - a * b)),
            (2 * (b * e - a * c), 2 * (c * e + a * b),
             a * a - b * b - c * c + e * e)]


@st.composite
def frames(draw, n):
    """n pairwise orthogonal integer rows of R^n (n = 3, 4) with integer
    norms, coordinates permuted: a rotation, padded by a fourth axis."""
    q = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)
             .filter(any))
    rows = [list(r) + [0] * (n - 3) for r in rotation_rows(*q)]
    rows += [[0, 0, 0, 1]] if n == 4 else []
    perm = draw(st.permutations(range(n)))
    return [[r[i] for i in perm] for r in rows]


@st.composite
def degenerate(draw, rows):
    """rows with some replaced by a zero row or a scaled copy (a repeat
    when the scale is 1) of an earlier row."""
    rows = [list(r) for r in rows]
    for i in range(len(rows)):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            rows[i] = [0] * len(rows[i])
        elif kind == "copy" and i:
            c = draw(SCALES)
            rows[i] = [c * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


@st.composite
def bodies(draw, n, d, kind="rational"):
    """Degree-d bodies in R^n with negative and zero weights, degenerate
    atoms and parallel copies of atoms.

    kind "rational": rational rows; "square": rows T Q_S for a rational
    d x d matrix T and d rows Q_S of an orthogonal frame, so every norm
    |det T| prod |q_i| is rational; "float": a rational body written in
    floats.
    """
    frame = draw(frames(n)) if kind == "square" else None
    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        if frame is None:
            rows = draw(st.lists(vectors(n), min_size=d, max_size=d))
        else:
            picks = draw(st.permutations(range(n)))[:d]
            coeffs = draw(st.lists(vectors(d), min_size=d, max_size=d))
            rows = [[sum(t * frame[s][j] for t, s in zip(coeff, picks))
                     for j in range(n)] for coeff in coeffs]
        atoms.append((draw(WEIGHTS), draw(degenerate(rows))))
    for c, (_, rows) in zip(draw(st.lists(SCALES, max_size=2)), list(atoms)):
        parallel = [[c * x for x in rows[0]], *rows[1:]] if rows else []
        atoms.append((draw(WEIGHTS), parallel))
    num = float if kind == "float" else Fraction
    return zn.VirtualZonoid(n, d, [
        (num(w), SimpleVector(n, [map(num, r) for r in rows]))
        for w, rows in atoms])


def body_pairs(kind):
    """Two bodies of one shape, degree 0 to 3 in R^3 or R^4."""
    return st.tuples(st.integers(3, 4), st.integers(0, 3)).flatmap(
        lambda nd: st.tuples(bodies(*nd, kind), bodies(*nd, kind)))


def assert_close(got, want, scale):
    """Equal to 1e-12 of a Hadamard bound: signed weights can cancel and
    degenerate atoms vanish, so the value itself is no scale."""
    assert abs(got - want) <= 1e-12 * scale


class TestLengthAndPairingAgainstPerAtomOracle:
    @ENGINE
    @given(body_pairs("square"))
    def test_length_rational_norms_exact(self, pair):
        for z in pair:
            got = zn.length(z)
            assert isinstance(got, Fraction)
            assert got == oracle_length(z)

    @ENGINE
    @given(body_pairs("rational"))
    def test_length_rational_rows(self, pair):
        for z in pair:
            got, want = zn.length(z), oracle_length(z)
            if isinstance(want, float):
                # an atom of weight 0 or with a zero row is an exact 0 here,
                # so got may still be a Fraction
                assert_close(got, want, hadamard(z))
            else:
                assert isinstance(got, Fraction) and got == want

    @ENGINE
    @given(body_pairs("float"))
    def test_length_float(self, pair):
        # on the floats themselves the formula loses half the digits on a
        # degenerate atom (its Gram root is sqrt(rounding error)) and
        # raises when that error is negative, so it runs on their exact
        # binary values
        for z in pair:
            exact = binary_rationals(z)
            assert_close(zn.length(z), oracle_length(exact), hadamard(z))

    @ENGINE
    @given(st.sampled_from(("square", "rational")).flatmap(body_pairs))
    def test_pairing_exact(self, pair):
        a, b = pair
        got = zn.pairing(a, b)
        assert isinstance(got, Fraction)
        assert got == oracle_pairing(a, b) == zn.pairing(b, a)

    @ENGINE
    @given(body_pairs("float"))
    def test_pairing_float(self, pair):
        a, b = map(binary_rationals, pair)
        assert_close(zn.pairing(*pair), oracle_pairing(a, b),
                     hadamard(pair[0]) * hadamard(pair[1]))

    def test_empty_body(self):
        empty = zn.VirtualZonoid(3, 2, [])
        assert zn.length(empty) == 0
        assert zn.pairing(empty, empty) == 0


class TestFloatInputIsRoundedOnce:
    """A float is a binary rational: a functional of float bodies is the
    same functional of their exact binary values, rounded once."""

    @ENGINE
    @given(st.integers(2, 3).flatmap(body_lists))
    def test_mixed_volume(self, bodies):
        floats = [as_floats(b) for b in bodies]
        got = zn.mixed_volume(floats)
        assert isinstance(got, float)
        assert got == float(zn.mixed_volume(map(binary_rationals, floats)))

    @ENGINE
    @given(body_pairs("float"))
    def test_pairing(self, pair):
        got = zn.pairing(*pair)
        assert isinstance(got, float) == holds_float(*pair)
        assert got == float(zn.pairing(*map(binary_rationals, pair)))

    @ENGINE
    @given(st.data())
    def test_crofton(self, data):
        d = data.draw(st.integers(0, 3))
        L = as_floats(data.draw(valuations(3, d)))
        K = as_floats(data.draw(zonotopes(3, min_atoms=d, max_atoms=4)))
        got = zn.crofton_evaluate(L, K)
        assert isinstance(got, float)
        assert got == float(zn.crofton_evaluate(binary_rationals(L),
                                                binary_rationals(K)))

    @ENGINE
    @given(zonotopes(4, min_atoms=3, max_atoms=4))
    def test_exp_truncated(self, L):
        L = as_floats(L)
        got = zn.exp_truncated(L, 4)
        want = zn.exp_truncated(binary_rationals(L), 4)
        assert [type(w) for w, _ in got[0].atoms] == [int]
        assert_rounded_once(got[1:], want[1:])

    @ENGINE
    @given(zonotopes(4, min_atoms=3, max_atoms=4))
    def test_star_exp(self, L):
        L = as_floats(L)
        assert_rounded_once(zn.star_exp(L), zn.star_exp(binary_rationals(L)))


def assert_rounded_once(got, want):
    """Each weight of the parts got is the float of the exact weight in
    want, on the same rows."""
    assert [[(w, v.factors) for w, v in p.atoms] for p in got] == [
        [(float(w), v.factors) for w, v in p.atoms] for p in want]
    assert all(isinstance(w, float) for p in got for w, _ in p.atoms)


@st.composite
def centers(draw, n, d, num):
    keys = list(itertools.combinations(range(n), d))
    picked = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    return ExteriorElement(n, d, {k: num(draw(COORDS)) for k in picked})


class TestJsonRoundTrip:
    @ENGINE
    @given(st.data())
    def test_atoms_center_and_length_survive(self, data):
        n, d = data.draw(st.integers(3, 4)), data.draw(st.integers(0, 3))
        kind = data.draw(st.sampled_from(("rational", "square", "float")))
        num = float if kind == "float" else Fraction
        z = data.draw(bodies(n, d, kind)).translate(
            data.draw(centers(n, d, num)))
        back = zn.from_json(json.loads(json.dumps(zn.to_json(z))))
        assert (back.ambient_dim, back.degree) == (n, d)
        assert [(w, v.factors) for w, v in back.atoms] == [
            (w, v.factors) for w, v in z.atoms]
        values = [x for w, v in back.atoms
                  for x in (w, *itertools.chain(*v.factors))]
        assert all(isinstance(x, float) == (kind == "float") for x in values)
        # an exact integer comes back a plain int, not a Fraction
        assert all(type(x) is int for x in values
                   if not isinstance(x, float) and x.denominator == 1)
        assert (back.center and back.center.coords) == (
            z.center and z.center.coords)
        assert zn.length(back) == zn.length(z)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# objects with a zonoid's keys, each value either of its own shape or an
# arbitrary JSON value, so that the draws reach every check
SIZES = st.integers(0, 3) | JSON_VALUES
ATOMS = st.fixed_dictionaries({"w": SIZES}, optional={
    "v": JSON_VALUES | st.lists(st.lists(SIZES, max_size=3), max_size=3),
}) | JSON_VALUES
CENTERS = st.dictionaries(st.sampled_from(("", "0", "1", "0,1", "1,0", "x")),
                          SIZES, max_size=2)
ZONOID_OBJECTS = st.fixed_dictionaries(
    {"ambient": SIZES, "degree": SIZES},
    optional={"atoms": JSON_VALUES | st.lists(ATOMS, max_size=3),
              "center": JSON_VALUES | CENTERS})


class TestJsonErrors:
    @settings(max_examples=200, deadline=None)
    @given(ZONOID_OBJECTS)
    def test_any_object_is_read_or_named(self, data):
        try:
            z = zn.from_json(data)
        except ValueError as exc:
            message = str(exc)
            assert (message.startswith("malformed zonoid JSON")
                    or "ambient" in message or "degree" in message)
            # and not a Python error passed on
            assert not any(s in message for s in (
                "object is not", "has no attribute", "indices must be"))
        else:
            assert isinstance(z, zn.VirtualZonoid)


# --- exact Hodge duals ----------------------------------------------------

def shapes():
    """(n, d) with n in 3, 4 and d from 0 to n."""
    return st.integers(3, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n)))


class TestHodgeDualProperties:
    @ENGINE
    @given(st.data())
    def test_dual_atom_expands_to_star(self, data):
        n, d = data.draw(shapes())
        rows = data.draw(st.lists(vectors(n), min_size=d, max_size=d))
        w = data.draw(WEIGHTS.filter(bool))
        v = SimpleVector(n, rows)
        star = hodge_star(expand(v)).scale(w)
        dual = zn.hodge_dual(zn.VirtualZonoid.segment(v, w)).atoms
        if star.is_zero():
            assert dual == []
            return
        (wd, vd), = dual
        assert all(type(x) in (int, Fraction)
                   for x in (wd, *itertools.chain(*vd.factors)))
        got = expand(vd).scale(wd)
        assert got.coords in (star.coords, (-star).coords)

    @ENGINE
    @given(st.data())
    def test_double_dual_keeps_support(self, data):
        n, d = data.draw(shapes())
        z = data.draw(bodies(n, d))
        u = data.draw(centers(n, d, Fraction))
        assert zn.support(zn.hodge_dual(zn.hodge_dual(z)), u) == zn.support(
            z, u)
