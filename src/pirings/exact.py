"""Exact scalar arithmetic helpers.

Everything in here is exact: fractions.Fraction, or Python ints inside
the fraction-free eliminations; a float is read by its binary value.
Scalars that involve powers of pi are PiScalars: finite sums of rational
multiples of pi**e, with e a multiple of 1/6.
"""

import contextlib
from fractions import Fraction
import math
import numbers
import operator


def is_exact(x):
    # numpy integers are Rational; a float is ruled out before the slow ABC
    return not isinstance(x, float) and isinstance(
        x, (int, Fraction, numbers.Rational))


def rounded(x, inexact):
    """x, or when inexact its nearest float, +-inf past the float range:
    the one rounding of an exact result computed from float input."""
    try:
        return float(x) if inexact else x
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def exact_sqrt(x):
    """Square root that stays a Fraction when x is a perfect square.

    Falls back to a float otherwise: math.sqrt(float(x)) when float(x) is
    a normal float, else the integer root of x scaled by 4^k to about 128
    bits, so that a root of a value beyond the float range is not lost.
    """
    if not is_exact(x):
        return math.sqrt(x)
    if x < 0:
        raise ValueError("negative argument")
    (n,), d = integer_row([x])
    p, q = math.isqrt(n), math.isqrt(d)
    if p * p == n and q * q == d:
        return Fraction(p, q)
    with contextlib.suppress(OverflowError):
        if (y := n / d) >= 2.0 ** -1022:  # the least normal float
            return math.sqrt(y)
    two_k = Fraction(2) ** ((d.bit_length() - n.bit_length()) // 2 + 64)
    return rounded(math.isqrt(n * two_k ** 2 // d) / two_k, True)


def _bareiss(m, width):
    """Fraction-free forward elimination of integer rows m, in place.

    Eliminates below the diagonal of the leading square part, updating
    columns up to width, and swaps rows to find nonzero pivots.  Every
    division is exact; afterwards m[k][k] is the leading k+1 minor of
    the row-permuted matrix.  Returns the sign of the row permutation,
    or 0 when the square part is singular.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return sign


def int_det(matrix):
    """Determinant of an integer matrix by Bareiss elimination.

    Every division in the elimination is exact, so the whole computation
    stays in Python ints and the result is an int.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    return _bareiss(m, n) * m[n - 1][n - 1]


def integer_row(row):
    """(ints, scale): the row times the lcm of its denominators, and that
    lcm.  The exact kernels read their numbers here: a float by its exact
    binary value, and one without as_integer_ratio (a numpy integer)
    through Fraction.  A ratio of numpy integers (from a Fraction of one)
    is read through int(), so that no kernel runs in wrapping int64."""
    try:
        ratios = [x.as_integer_ratio() for x in row]
    except AttributeError:
        ratios = [Fraction(x).as_integer_ratio() for x in row]
    if not all(type(p) is int and type(d) is int for p, d in ratios):
        ratios = [(int(p), int(d)) for p, d in ratios]
    scale = math.lcm(*[d for _, d in ratios])
    return [p * (scale // d) for p, d in ratios], scale


def bareiss_det(matrix):
    """Determinant as a Fraction, rounded once when an entry is a float.

    Each row is scaled to integers, int_det eliminates, and the product
    of the row scales is divided back out.
    """
    rows = [integer_row(row) for row in matrix]
    value = Fraction(int_det([ints for ints, _ in rows]),
                     math.prod(scale for _, scale in rows))
    return rounded(value, not all(is_exact(x) for row in matrix for x in row))


P31 = (1 << 31) - 1  # a Mersenne prime: a product of two residues is < 2^62


def pivot_rows_mod_p(rows):
    """Indices of the rows of a matrix of ints independent over GF(P31),
    hence over Q, of the rows before them, read up to full column rank;
    each row is reduced to int64 residues and eliminated in numpy."""
    import numpy as np
    pivots = {}  # index: (column, row with 1 there and 0 at earlier pivots)
    for i, row in enumerate(rows):
        row = (np.array(row, dtype=object) % P31).astype(np.int64)
        for c, prow in pivots.values():
            if a := row[c]:
                row = (row - a * prow) % P31
        if (nonzero := np.flatnonzero(row)).size:
            c = nonzero[0]
            pivots[i] = (c, row * pow(int(row[c]), -1, P31) % P31)
            if len(pivots) == len(row):
                break  # full column rank: no later row can add a pivot
    return list(pivots)


def bareiss_solve(matrix, rhs):
    """(D, Y) with Y = D A^-1 B, for a square integer matrix A and integer
    rows B, one column per right-hand side; all Python ints.  Its caller is
    schubert.rational_schubert (Cayley rotations); the CP^n ring reduces in
    closed form instead (cpn_ring.reduce_monomial).

    One fraction-free (Bareiss) elimination of [A | B] leaves an upper
    triangular system with last pivot D = det(row-permuted A); integer
    back-substitution divides exactly.  ValueError if A is singular."""
    n = len(matrix)
    if len(rhs) != n or {*map(len, matrix)} - {n} or len({*map(len, rhs)}) > 1:
        raise ValueError("need a square matrix and matching right-hand sides")
    m = [[*row, *b] for row, b in zip(matrix, rhs)]
    if not _bareiss(m, len(m[0]) if n else 0):
        raise ValueError("singular matrix")
    det = m[-1][n - 1] if n else 1
    y = [row[n:] for row in m]  # the last row's pivot is det: y is its tail
    for i in range(n - 2, -1, -1):
        row = m[i]
        y[i] = [(det * b - sum(map(operator.mul, row[i + 1:n], col))) // row[i]
                for b, col in zip(y[i], zip(*y[i + 1:]))]
    return det, y


def gamma_half(two_k):
    """Gamma(two_k / 2) as a PiScalar, for positive integer two_k.

    Integer arguments give factorials; half-integer arguments expand to
    a rational multiple of sqrt(pi).
    """
    if two_k <= 0:
        raise ValueError("argument must be positive")
    if two_k % 2 == 0:
        return PiScalar(math.factorial(two_k // 2 - 1))
    # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    k = (two_k - 1) // 2
    coeff = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return PiScalar(coeff, Fraction(1, 2))


class PiScalar:
    """A finite sum of rational multiples of powers of pi.

    terms maps 6e, an int, to the nonzero Fraction coefficient of pi**e;
    no other module reads it.  pi is transcendental, so this normal form
    is unique and == is exact.  PiScalar(coeff, pi_exp) is one term, and
    ValueError unless pi_exp is exactly a multiple of 1/6.  Division and
    negative powers need a single-term divisor or base.  Arithmetic with a
    float gives a float, and == with a float compares like Fraction == float.
    """

    __slots__ = ("terms",)

    def __init__(self, coeff, pi_exp=0):
        six_e = 6 * pi_exp if type(pi_exp) is int else 6 * Fraction(pi_exp)
        if six_e.denominator != 1:
            raise ValueError(f"pi exponent {pi_exp!r} is not a multiple of 1/6")
        coeff = Fraction(coeff)
        self.terms = {int(six_e): coeff} if coeff else {}

    @classmethod
    def _sum(cls, pairs):
        """The sum of c * pi**(k/6) over the (k, c) pairs."""
        terms = {}
        for k, c in pairs:
            terms[k] = terms[k] + c if k in terms else c
        out = cls.__new__(cls)
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar._sum((k1 + k2, c1 * c2)
                                 for k1, c1 in self.terms.items()
                                 for k2, c2 in other.terms.items())
        if is_exact(other):
            return PiScalar._sum((k, c * other) for k, c in self.terms.items())
        return float(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScalar):
            return self * other ** -1
        if is_exact(other):
            return self * (1 / Fraction(other))
        return float(self) / other

    def __add__(self, other):
        if not isinstance(other, PiScalar):
            if not is_exact(other):
                return float(self) + other
            other = PiScalar(other)
        return PiScalar._sum([*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1

    def __pow__(self, k):
        if len(self.terms) > 1:
            if k < 0:
                raise ArithmeticError(f"{self} is not a single power of pi")
            return math.prod([self] * k, start=PiScalar(1))
        if k < 0 and not self.terms:
            raise ZeroDivisionError("zero to a negative power")
        (six_e, c), = self.terms.items() or [(0, Fraction(0))]
        return PiScalar._sum([(six_e * k, c**k)])

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            return self.terms == other.terms
        if is_exact(other) or isinstance(other, float):
            # as for Fraction == float, only a rational value can be equal
            return self.terms.keys() <= {0} and self.rational() == other
        return NotImplemented

    def __hash__(self):
        # a rational value equals its Fraction, so it must hash like it
        if self.terms.keys() <= {0}:
            return hash(self.rational())
        return hash(frozenset(self.terms.items()))

    def __float__(self):
        return float(sum(float(c) * math.pi ** (k / 6)
                         for k, c in sorted(self.terms.items())))

    def rational(self):
        """The value as a Fraction; ArithmeticError if a power of pi is left."""
        if any(k != 0 for k in self.terms):
            raise ArithmeticError(f"{self} is not rational")
        return self.terms.get(0, Fraction(0))

    def __repr__(self):
        return f"PiScalar({self})"

    def __str__(self):
        return " + ".join(
            str(c) if k == 0 else f"{c} * pi^({Fraction(k, 6)})"
            for k, c in sorted(self.terms.items())) or "0"

    def to_json(self):
        """{"coeff": "p/q", "pi_exp": "e"} for a single term, with pi_exp
        left out when e is 0; a list of those, by exponent, for a sum."""
        if len(self.terms) > 1:
            return [PiScalar._sum([term]).to_json()
                    for term in sorted(self.terms.items())]
        (k, c), = self.terms.items() or [(0, 0)]
        out = {"coeff": str(c)}
        if k != 0:
            out["pi_exp"] = str(Fraction(k, 6))
        return out
