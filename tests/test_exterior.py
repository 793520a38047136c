import itertools
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
import pytest

from pirings import exterior as ex
from pirings import schubert
from pirings.exact import int_det, pivot_rows_mod_p
from pirings.exterior import ExteriorElement, SimpleVector
from pirings.sampling import substream
from pirings.schubert import rational_schubert


def e(n, i):
    return SimpleVector(n, [[1 if j == i else 0 for j in range(n)]])


def rand_elem(n, d, rng):
    coords = {idx: Fraction(rng.randint(-5, 5))
              for idx in itertools.combinations(range(n), d)}
    return ExteriorElement(n, d, coords)


class TestWedgeNorm:
    def test_orthonormal(self):
        assert ex.wedge_norm([e(2, 0), e(2, 1)]) == 1

    def test_repeated_factor(self):
        assert ex.wedge_norm([e(2, 0), e(2, 0)]) == 0

    def test_sheared(self):
        # expand [(1,0),(1,1)] and take the norm of the single coefficient
        assert ex.wedge_norm([SimpleVector(2, [(1, 0)]),
                              SimpleVector(2, [(1, 1)])]) == 1

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            ex.wedge_norm([e(2, 0), e(2, 1), e(2, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ex.wedge_norm([e(2, 0), e(3, 1)])

    def test_norm_squared_is_self_inner(self):
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(2, 5)
            d = rng.randint(1, n)
            factors = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                       for _ in range(d)]
            s = SimpleVector(n, factors)
            norm = ex.wedge_norm([s])
            inner = ex.wedge_inner(s, s)
            assert abs(float(norm) ** 2 - float(inner)) <= 1e-12 * max(
                1.0, float(inner))


class TestWedgeInner:
    def test_basis(self):
        a = SimpleVector(3, [(1, 0, 0), (0, 1, 0)])
        assert ex.wedge_inner(a, a) == 1

    def test_orthogonal_basis_elements(self):
        a = SimpleVector(3, [(1, 0, 0), (0, 1, 0)])
        b = SimpleVector(3, [(1, 0, 0), (0, 0, 1)])
        assert ex.wedge_inner(a, b) == 0

    def test_mixed(self):
        a = SimpleVector(3, [(1, 0, 0), (0, 1, 0)])
        b = SimpleVector(3, [(1, 0, 1), (0, 1, 0)])
        assert ex.wedge_inner(a, b) == 1

    def test_swap_negates(self):
        a = SimpleVector(3, [(1, 2, 0), (0, 1, 1)])
        b = SimpleVector(3, [(0, 1, 1), (1, 2, 0)])
        ref = SimpleVector(3, [(1, 0, 0), (0, 1, 0)])
        assert ex.wedge_inner(a, ref) == -ex.wedge_inner(b, ref)

    def test_cauchy_schwarz(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 4)
            d = rng.randint(1, n)
            a = SimpleVector(n, [[rng.uniform(-1, 1) for _ in range(n)]
                                 for _ in range(d)])
            b = SimpleVector(n, [[rng.uniform(-1, 1) for _ in range(n)]
                                 for _ in range(d)])
            assert abs(ex.wedge_inner(a, b)) <= (
                ex.wedge_norm([a]) * ex.wedge_norm([b]) + 1e-12)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            ex.wedge_inner(e(3, 0), SimpleVector(3, [(1, 0, 0), (0, 1, 0)]))


class TestExpand:
    def test_basis_pair(self):
        s = SimpleVector(3, [(1, 0, 0), (0, 1, 0)])
        assert ex.expand(s).coords == {(0, 1): 1}

    def test_minors(self):
        s = SimpleVector(3, [(1, 1, 0), (0, 1, 1)])
        assert ex.expand(s).coords == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_scalar(self):
        s = SimpleVector(3, [])
        assert ex.expand(s).coords == {(): 1}

    def test_isometry_exact(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(2, 5)
            d = rng.randint(1, n)
            a = SimpleVector(n, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(n)] for _ in range(d)])
            b = SimpleVector(n, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(n)] for _ in range(d)])
            assert ex.expand(a).inner(ex.expand(b)) == ex.wedge_inner(a, b)

    def test_coordinate_cap(self):
        with pytest.raises(ValueError):
            ex.expand(SimpleVector(50, [[0.0] * 50] * 25))


class TestLaplaceStep:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(
            st.integers(-10**6, 10**6) | st.just(0), min_size=n, max_size=n),
            max_size=n))), st.data())
    def test_minors_match_int_det(self, shape, data):
        n, rows = shape
        # zero rows and repeats of earlier rows
        for i in range(len(rows)):
            pick = data.draw(st.sampled_from(["keep", "zero", "repeat"]))
            if pick == "zero":
                rows[i] = [0] * n
            elif pick == "repeat" and i:
                rows[i] = rows[data.draw(st.integers(0, i - 1))]
        minors = [1]
        for r, row in enumerate(rows, 1):
            minors = ex.laplace_step(minors, row, r)
        sets = list(itertools.combinations(range(n), len(rows)))
        assert minors == [int_det([[f[i] for i in s] for f in rows])
                          for s in sets]
        assert ex.expand(SimpleVector(n, rows)).coords == {
            s: m for s, m in zip(sets, minors) if m}
        if len(rows) == n - 1:
            for row in ([1] * n, rows[-1] if rows else [0] * n):
                assert ex.laplace_step(minors, row, n) == [
                    ex.dot(ex.cofactors(minors, n), row)]


class TestHodgeStar:
    def test_e1e2_in_r3(self):
        x = ExteriorElement(3, 2, {(0, 1): 1})
        assert ex.hodge_star(x).coords == {(2,): 1}

    def test_scalar_in_r2(self):
        x = ExteriorElement(2, 0, {(): 1})
        assert ex.hodge_star(x).coords == {(0, 1): 1}

    def test_e2e3_in_r3(self):
        x = ExteriorElement(3, 2, {(1, 2): 1})
        assert ex.hodge_star(x).coords == {(0,): 1}

    def test_star_star_sign(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for d in range(n + 1):
                x = rand_elem(n, d, rng)
                twice = ex.hodge_star(ex.hodge_star(x))
                assert twice.coords == x.scale((-1) ** (d * (n - d))).coords

    def test_defining_identity(self):
        # <x, y> = <vol, x ^ star y>, exactly on rational elements
        rng = random.Random(4)
        for n in range(1, 6):
            for d in range(n + 1):
                x = rand_elem(n, d, rng)
                y = rand_elem(n, d, rng)
                lhs = x.inner(y)
                w = ex.wedge_elements(x, ex.hodge_star(y))
                assert lhs == w.coords.get(tuple(range(n)), 0)

    def test_star_preserves_inner(self):
        rng = random.Random(5)
        for n in range(2, 6):
            for d in range(n + 1):
                x = rand_elem(n, d, rng)
                y = rand_elem(n, d, rng)
                assert x.inner(y) == ex.hodge_star(x).inner(ex.hodge_star(y))


class TestSpanRank:
    def test_degree_one(self):
        vs = [e(3, 0), e(3, 1), SimpleVector(3, [(1, 1, 0)])]
        assert len(pivot_rows_mod_p(schubert._plucker_residues(vs))) == 2

    def test_single(self):
        vs = [SimpleVector(3, [(1, 0, 0), (0, 1, 0)])]
        assert len(pivot_rows_mod_p(schubert._plucker_residues(vs))) == 1

    def test_schubert_box_orbit(self):
        rng = substream(17, 0)
        vs = rational_schubert((1,), 2, 2, rng, 200)
        assert len(pivot_rows_mod_p(schubert._plucker_residues(vs))) == 4


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_simple(draw):
    """Nonzero simple vectors of degree 1 to N in R^N, N <= 5, with
    rational factors."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, n))
    s = SimpleVector(n, draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=d, max_size=d)))
    assume(not ex.expand(s).is_zero())
    return s


class TestFactorizeSimple:
    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(2, 5)
            d = rng.randint(1, n - 1)
            s = SimpleVector(n, [[rng.uniform(-1, 1) for _ in range(n)]
                                 for _ in range(d)])
            elem = ex.expand(s)
            if all(abs(float(c)) < 1e-9 for c in elem.coords.values()):
                continue
            back = ex.factorize_simple(elem)
            redone = ex.expand(back)
            for idx in set(elem.coords) | set(redone.coords):
                assert abs(float(elem.coords.get(idx, 0.0))
                           - float(redone.coords.get(idx, 0.0))) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(rational_simple())
    def test_exact_round_trip(self, s):
        elem = ex.expand(s)
        back = ex.factorize_simple(elem)
        assert all(type(x) in (int, Fraction) for f in back.factors for x in f)
        assert ex.expand(back).coords == elem.coords

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ex.factorize_simple(ExteriorElement(3, 2))
