import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
import numpy as np

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

    def test_normal_floats_take_math_sqrt(self):
        for x in (Fraction(2, 3), 10**300 + 1, Fraction(1, 10**300 + 1)):
            assert ex.exact_sqrt(x) == math.sqrt(float(x))

    @pytest.mark.parametrize("x", [3 * 10**400, Fraction(3, 10**400),
                                   10**400 + 2 * 10**200])
    def test_beyond_the_float_range(self, x):
        # float(x) overflows or underflows, but the root is a normal float
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            want = float(mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator))
        got = ex.exact_sqrt(x)
        assert isinstance(got, float) and got == want

    def test_root_beyond_the_float_range(self):
        assert ex.exact_sqrt(2**2100 + 1) == math.inf
        assert ex.exact_sqrt(Fraction(1, 2**2200 + 1)) == 0.0


class TestBareiss:
    def test_examples(self):
        assert ex.bareiss_det([[6, 2], [2, 1]]) == 2
        assert ex.bareiss_det([[2]]) == 2
        assert ex.bareiss_det([]) == 1
        assert ex.bareiss_det([[Fraction(1, 2), 7], [0, 0.25]]) == Fraction(1, 8)
        for m in ([], [[2]], [[Fraction(1, 3), 1], [1, 3]]):
            assert type(ex.bareiss_det(m)) is Fraction

    def test_singular(self):
        assert ex.bareiss_det([[1, 2], [2, 4]]) == 0

    def test_numpy_integers(self):
        got = ex.bareiss_det([[np.int64(2), 1], [0, np.int64(1)]])
        assert type(got) is Fraction and got == 2
        big = np.int64(2**62)
        assert ex.bareiss_det([[big, 1], [big, 2]]) == 2**62
        assert ex.integer_row([np.int64(3), Fraction(1, 2)]) == ([6, 1], 2)
        assert all(type(x) is int for x in ex.integer_row([np.int64(3)])[0])

    def test_fraction_of_numpy_integer_does_not_wrap(self):
        # Fraction(np.int64(x)) keeps numpy ints as numerator and denominator
        f = Fraction(np.int64(3037000500))
        got = ex.bareiss_det([[f, 1], [1, f]])
        assert type(got) is Fraction and got == 3037000500 ** 2 - 1
        ints, scale = ex.integer_row([f, Fraction(np.int64(1), np.int64(2))])
        assert ints == [6074001000, 1] and scale == 2
        assert all(type(x) is int for x in ints + [scale])

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
        # D is the determinant 2, and Y = D x for x = (0, 1)
        assert ex.bareiss_solve([[6, 2], [2, 1]], [[2], [1]]) == (
            2, [[0], [2]])

    def test_solve_singular(self):
        with pytest.raises(ValueError):
            ex.bareiss_solve([[1, 2], [2, 4]], [[1], [1]])


def as_fraction(x):
    # Fraction of a numpy integer would keep numpy ints, which overflow
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def solve_scaled(matrix, rhs):
    """x = A^-1 b as Fractions, for entries of any exact type or floats:
    each equation is scaled to integers with exact.integer_row, and
    bareiss_solve solves for the one right-hand side."""
    rows = [ex.integer_row([*row, b])[0] for row, b in zip(matrix, rhs)]
    det, y = ex.bareiss_solve([r[:-1] for r in rows], [r[-1:] for r in rows])
    return [Fraction(v, det) for v, in y]


def gauss_solve(matrix, rhs):
    """Reference solver: Gauss-Jordan elimination on Fractions."""
    n = len(matrix)
    m = [[as_fraction(x) for x in row] + [as_fraction(b)]
         for row, b in zip(matrix, rhs)]
    for k in range(n):
        piv = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return [row[n] for row in m]


small_ints = st.integers(-9, 9)
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def systems(draw, entries):
    """A square system; rows of ints may be numpy int64 rows."""
    n = draw(st.integers(1, 6))
    mat = [[draw(entries) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entries) for _ in range(n)]
    mat = [list(map(np.int64, row))
           if all(type(x) is int for x in row) and draw(st.booleans())
           else row for row in mat]
    return mat, rhs


@st.composite
def blocks(draw):
    """A square integer matrix and integer rows with 0-3 right-hand sides."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    mat = [[draw(small_ints) for _ in range(n)] for _ in range(n)]
    return mat, [[draw(small_ints) for _ in range(r)] for _ in range(n)]


class TestBareissSolve:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(systems(small_ints), systems(rationals)))
    def test_matches_gauss(self, system):
        mat, rhs = system
        if ex.bareiss_det(mat) == 0:
            with pytest.raises(ValueError):
                solve_scaled(mat, rhs)
        else:
            x = solve_scaled(mat, rhs)
            assert x == gauss_solve(mat, rhs)
            assert all(isinstance(v, Fraction) for v in x)

    @settings(max_examples=200, deadline=None)
    @given(blocks())
    def test_integer_contract(self, block):
        # D = +-det A and A Y = D B, all in Python ints
        mat, rhs = block
        if ex.int_det(mat) == 0:
            with pytest.raises(ValueError):
                ex.bareiss_solve(mat, rhs)
            return
        det, y = ex.bareiss_solve(mat, rhs)
        assert abs(det) == abs(ex.int_det(mat))
        assert type(det) is int and all(type(v) is int for r in y for v in r)
        assert [[sum(a * row[c] for a, row in zip(arow, y))
                 for c in range(len(rhs[0]))] for arow in mat] == [
            [det * b for b in brow] for brow in rhs]

    @settings(max_examples=200, deadline=None)
    @given(blocks())
    def test_block_equals_columns(self, block):
        mat, rhs = block
        if ex.int_det(mat) == 0:
            return
        det, y = ex.bareiss_solve(mat, rhs)
        for c in range(len(rhs[0])):
            assert ex.bareiss_solve(mat, [[row[c]] for row in rhs]) == (
                det, [[row[c]] for row in y])

    @settings(max_examples=50, deadline=None)
    @given(systems(small_ints), st.data())
    def test_singular_raises(self, system, data):
        mat, rhs = system
        n = len(mat)
        # replace one row by a combination of the others
        r = data.draw(st.integers(0, n - 1))
        coeffs = [data.draw(small_ints) for _ in range(n)]
        mat[r] = [sum(c * mat[i][j] for i, c in enumerate(coeffs) if i != r)
                  for j in range(n)]
        with pytest.raises(ValueError):
            solve_scaled(mat, rhs)

    def test_needs_pivoting(self):
        # D is the determinant of the row-permuted matrix
        assert ex.bareiss_solve([[0, 1], [1, 0]], [[3], [4]]) == (
            1, [[4], [3]])
        assert ex.bareiss_solve([[0, 0, 1], [0, 2, 0], [3, 0, 0]],
                                [[1], [1], [1]]) == (6, [[2], [3], [6]])
        assert solve_scaled([[0, 0, 1], [0, 2, 0], [3, 0, 0]],
                            [1, 1, 1]) == [Fraction(1, 3), Fraction(1, 2), 1]

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 7)
            mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(n)] for _ in range(n)]
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(n)]
            if ex.bareiss_det(mat) == 0:
                continue
            want = sympy.Matrix(mat).LUsolve(sympy.Matrix(rhs))
            assert solve_scaled(mat, rhs) == [
                Fraction(int(v.p), int(v.q)) for v in want]

    def test_floats_are_read_exactly(self):
        assert solve_scaled([[0.5]], [0.25]) == [Fraction(1, 2)]

    def test_empty_system(self):
        assert ex.bareiss_solve([], []) == (1, [])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ex.bareiss_solve([[1, 2]], [[1]])
        with pytest.raises(ValueError):
            ex.bareiss_solve([[1]], [[1], [2]])
        with pytest.raises(ValueError):
            ex.bareiss_solve([[1, 0], [0, 1]], [[1], [1, 2]])


@st.composite
def low_rank(draw):
    """Integer matrices A B with inner dimension r, so rank at most r."""
    rows, cols, r = (draw(st.integers(lo, 6)) for lo in (1, 1, 0))
    a = [[draw(small_ints) for _ in range(r)] for _ in range(rows)]
    b = [[draw(small_ints) for _ in range(cols)] for _ in range(r)]
    return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(cols)]
            for i in range(rows)]


class TestRankModP:
    @settings(max_examples=100, deadline=None)
    @given(low_rank())
    def test_matches_rank_over_q(self, rows):
        sympy = pytest.importorskip("sympy")
        assert len(ex.pivot_rows_mod_p(rows)) == sympy.Matrix(rows).rank()

    def test_huge_entries(self):
        big = 3**200
        assert len(ex.pivot_rows_mod_p(
            [[big, 1], [2 * big, 2], [1, big]])) == 2

    def test_tall_matrix_stops_at_full_column_rank(self):
        def rows():
            yield from ([2, 0, 0], [0, 0, 0], [1, 3, 0], [4, 6, 0], [5, 1, 7])
            raise AssertionError("a row was read after full column rank")

        assert len(ex.pivot_rows_mod_p(rows())) == 3
        # tall and rank-deficient: every row is read
        tall = [[i, 2 * i, i * i] for i in range(40)]
        assert len(ex.pivot_rows_mod_p(tall)) == 2

    def test_never_above_rank_over_q(self):
        # the prime itself is zero mod p
        assert len(ex.pivot_rows_mod_p([[ex.P31, 0], [0, 1]])) == 1
        assert len(ex.pivot_rows_mod_p([])) == 0


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

    def test_mixed_exponent_sum_is_exact(self):
        total = PiScalar(1, 1) + PiScalar(1, 2)
        assert total.to_json() == [{"coeff": "1", "pi_exp": "1"},
                                   {"coeff": "1", "pi_exp": "2"}]
        assert total - PiScalar(1, 2) == PiScalar(1, 1)
        assert total != PiScalar(2, 1)
        assert float(total) == pytest.approx(math.pi + math.pi ** 2)

    def test_zero_normalised(self):
        assert PiScalar(0, 5) == PiScalar(0)
        assert PiScalar(0, 5) == 0 and hash(PiScalar(0, 5)) == hash(0)

    def test_float(self):
        assert float(PiScalar(2, 1)) == pytest.approx(2 * math.pi)
        assert float(PiScalar(1, Fraction(1, 2))) == pytest.approx(
            math.sqrt(math.pi))

    def test_to_json(self):
        assert PiScalar(Fraction(3, 2), -2).to_json() == {
            "coeff": "3/2", "pi_exp": "-2"}
        assert PiScalar(5).to_json() == {"coeff": "5"}
        assert PiScalar(0).to_json() == {"coeff": "0"}
        assert (PiScalar(-3, 1) + PiScalar(2, -1) + 4).to_json() == [
            {"coeff": "2", "pi_exp": "-1"}, {"coeff": "4"},
            {"coeff": "-3", "pi_exp": "1"}]

    def test_hash_agrees_with_equality(self):
        assert hash(PiScalar(3)) == hash(3)
        assert hash(PiScalar(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({3, PiScalar(3)}) == 1
        assert len({PiScalar(1, 1) + 1, PiScalar(1) + PiScalar(1, 1)}) == 1

    def test_rational(self):
        assert PiScalar(Fraction(2, 3)).rational() == Fraction(2, 3)
        assert PiScalar(0, 4).rational() == 0
        assert (PiScalar(2, 1) / PiScalar(4, 1)).rational() == Fraction(1, 2)
        for value in (PiScalar(1, 1), PiScalar(1) + PiScalar(1, -1)):
            with pytest.raises(ArithmeticError):
                value.rational()

    def test_division_needs_a_single_term(self):
        two_terms = PiScalar(1) + PiScalar(1, 1)
        half = Fraction(1, 2)
        assert two_terms / PiScalar(2, 1) == PiScalar(half, -1) + half
        assert two_terms / 2 == PiScalar(half) + PiScalar(half, 1)
        with pytest.raises(ArithmeticError):
            PiScalar(1) / two_terms
        with pytest.raises(ArithmeticError):
            two_terms ** -1
        with pytest.raises(ZeroDivisionError):
            PiScalar(1) / PiScalar(0)
        assert two_terms ** 2 == PiScalar(1) + PiScalar(2, 1) + PiScalar(1, 2)

    @pytest.mark.parametrize("base", [
        PiScalar(0), PiScalar(Fraction(-2, 3)), PiScalar(Fraction(3, 2), 1),
        PiScalar(1) + PiScalar(2, Fraction(2, 3))])
    def test_power_is_repeated_product(self, base):
        for k in range(7):
            assert base ** k == math.prod([base] * k, start=PiScalar(1))

    @pytest.mark.parametrize("pi_exp", [Fraction(1, 5), Fraction(1, 12),
                                        1 / 3, Fraction(-7, 4)])
    def test_exponent_must_be_a_sixth(self, pi_exp):
        # the float 1/3 is not 2/6 exactly, so it is refused, not rounded
        for coeff in (1, 0):
            with pytest.raises(ValueError, match="not a multiple of 1/6"):
                PiScalar(coeff, pi_exp)

    @pytest.mark.parametrize("pi_exp, same_as", [
        (0.5, Fraction(1, 2)), (Fraction(7, 6), Fraction(7, 6)),
        (-3, Fraction(-3)), (np.int64(2), Fraction(2))])
    def test_exponent_sixths_are_accepted(self, pi_exp, same_as):
        value = PiScalar(Fraction(2, 3), pi_exp)
        assert value.to_json() == {"coeff": "2/3", "pi_exp": str(same_as)}
        assert float(value) == 2 / 3 * math.pi ** float(same_as)

    def test_single_term_power_is_immediate(self):
        # one step, not a million PiScalar products
        assert PiScalar(2, Fraction(2, 3)) ** 1000000 == PiScalar(
            Fraction(2) ** 1000000, Fraction(2000000, 3))
        assert PiScalar(0) ** 1000000 == 0
        with pytest.raises(ZeroDivisionError):
            PiScalar(0) ** -1

    def test_float_operands_give_floats(self):
        a = PiScalar(3, 1) + Fraction(1, 2)
        assert a * 0.5 == float(a) * 0.5
        assert 0.5 * a == float(a) * 0.5
        assert a / 4.0 == float(a) / 4.0
        for got, want in [(a + 0.1, float(a) + 0.1), (0.1 + a, float(a) + 0.1),
                          (a - 0.1, float(a) - 0.1), (0.1 - a, 0.1 - float(a))]:
            assert type(got) is float and got == want
        assert PiScalar(1) + 0.1 == 1.1

    def test_exact_operands_stay_exact(self):
        a = PiScalar(3, 1)
        assert 1 + a == a + 1 == PiScalar(1) + a
        assert Fraction(1, 2) - a == PiScalar(Fraction(1, 2)) - a

    def test_exact_comparison(self):
        assert PiScalar(3) == 3
        assert PiScalar(3, 1) != 3

    def test_float_comparison_is_like_fraction(self):
        assert PiScalar(1) == 1.0 and 1.0 == PiScalar(1)
        assert PiScalar(Fraction(1, 2)) == 0.5
        assert PiScalar(0, 3) == 0.0
        # 1/10 has no exact binary value, so it equals no float
        assert PiScalar(Fraction(1, 10)) != 0.1
        assert Fraction(1, 10) != 0.1
        assert PiScalar(1, 1) != math.pi
        assert PiScalar(1) + PiScalar(1, 1) != 1.0 + math.pi
        assert PiScalar(1) != float("nan")
        assert hash(PiScalar(1)) == hash(1.0)
        assert hash(PiScalar(Fraction(-3, 4))) == hash(-0.75)


exponents = st.sampled_from([Fraction(k, 6) for k in range(-12, 13)])
pi_scalars = st.dictionaries(exponents, rationals, max_size=4).map(
    lambda terms: sum((PiScalar(c, e) for e, c in terms.items()),
                      PiScalar(0)))


def magnitude(x):
    """Sum of the absolute values of the terms, a scale for float checks."""
    terms = x.to_json()
    return sum(abs(float(PiScalar(Fraction(t["coeff"]),
                                  Fraction(t.get("pi_exp", 0)))))
               for t in (terms if isinstance(terms, list) else [terms]))


class TestPiScalarProperties:
    @settings(max_examples=200, deadline=None)
    @given(pi_scalars, pi_scalars, pi_scalars)
    def test_ring_axioms(self, a, b, c):
        zero, one = PiScalar(0), PiScalar(1)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a and a - a == zero and -(-a) == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a and a * zero == zero
        assert a * (b + c) == a * b + a * c
        assert hash((a + b) - b) == hash(a)

    @settings(max_examples=200, deadline=None)
    @given(pi_scalars, pi_scalars, rationals)
    def test_float_homomorphism(self, a, b, q):
        tol = 1e-12
        assert abs(float(a + b) - (float(a) + float(b))) <= tol * (
            magnitude(a) + magnitude(b))
        assert abs(float(a * b) - float(a) * float(b)) <= tol * (
            magnitude(a) * magnitude(b))
        assert abs(float(a * q) - float(a) * float(q)) <= tol * (
            magnitude(a) * abs(float(q)))

    @settings(max_examples=100, deadline=None)
    @given(pi_scalars, rationals.filter(bool), exponents)
    def test_division_inverts_a_single_term(self, a, q, e):
        divisor = PiScalar(q, e)
        assert (a / divisor) * divisor == a
        assert divisor * divisor ** -1 == PiScalar(1)


def by_fraction_exponent(c, e):
    """float, str and to_json of c pi^e, computed from the Fraction e."""
    if c == 0:
        return 0.0, "0", {"coeff": "0"}
    return (float(c) * math.pi ** float(e),
            str(c) if e == 0 else f"{c} * pi^({e})",
            {"coeff": str(c), **({"pi_exp": str(e)} if e else {})})


def views(x):
    return float(x), str(x), x.to_json()


sixths = st.integers(-60, 60).map(lambda k: Fraction(k, 6))


class TestPiScalarSixths:
    @settings(max_examples=200, deadline=None)
    @given(rationals, sixths, rationals, sixths, st.integers(-4, 4))
    def test_outputs_match_the_fraction_exponent(self, c1, e1, c2, e2, k):
        a, b = PiScalar(c1, e1), PiScalar(c2, e2)
        assert views(a) == by_fraction_exponent(c1, e1)
        assert views(a * b) == by_fraction_exponent(c1 * c2, e1 + e2)
        if c1 or k >= 0:
            assert views(a ** k) == by_fraction_exponent(c1 ** k, e1 * k)
