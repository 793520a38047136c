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
from pirings.exterior import ExteriorElement, SimpleVector


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


class TestIntrinsicVolume:
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


@st.composite
def zonotopes(draw, n, min_atoms=1, max_atoms=3):
    """Rational degree-1 zonotopes with zero and parallel generators."""
    atoms = draw(st.lists(st.tuples(WEIGHTS, vectors(n)),
                          min_size=min_atoms, max_size=max_atoms))
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
