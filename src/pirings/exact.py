"""Exact scalar arithmetic helpers.

Everything in here is exact: fractions.Fraction, or Python ints inside
the fraction-free eliminations.  Scalars that involve powers of pi are kept
symbolic as a rational coefficient times pi**(rational exponent).
"""

from fractions import Fraction
import math


def is_exact(x):
    return isinstance(x, (int, Fraction))


def exact_sqrt(x):
    """Square root that stays a Fraction when x is a perfect square.

    Falls back to a float otherwise.
    """
    if is_exact(x):
        f = Fraction(x)
        if f < 0:
            raise ValueError("negative argument")
        p = math.isqrt(f.numerator)
        q = math.isqrt(f.denominator)
        if p * p == f.numerator and q * q == f.denominator:
            return Fraction(p, q)
        return math.sqrt(float(f))
    return math.sqrt(x)


def bareiss_det(matrix):
    """Determinant by fraction-free (Bareiss) elimination.

    Entries must be ints or Fractions; the result is exact.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def _integer_row(row):
    """The row scaled by the lcm of its denominators, as Python ints."""
    row = [x if isinstance(x, int) else Fraction(x) for x in row]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def bareiss_solve(matrix, rhs):
    """Solve a square system exactly; returns a list of Fractions.

    Each equation is first scaled to integer coefficients.  One
    fraction-free (Bareiss) elimination of the augmented matrix [A | b]
    then leaves an upper triangular system whose last pivot D is the
    determinant of the row-permuted A.  Back-substitution on the
    integers y = D x divides exactly, and each unknown is y_i / D.
    Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise ValueError("need a square matrix and a matching right-hand side")
    m = [_integer_row([*row, b]) for row, b in zip(matrix, rhs)]
    if not _bareiss(m, n + 1):
        raise ValueError("singular matrix")
    det = m[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return [Fraction(v, det) for v in y]


def gamma_half(two_k):
    """Gamma(two_k / 2) as a PiScalar, for positive integer two_k.

    Integer arguments give factorials; half-integer arguments expand to
    a rational multiple of sqrt(pi).
    """
    if two_k <= 0:
        raise ValueError("argument must be positive")
    if two_k % 2 == 0:
        k = two_k // 2
        return PiScalar(math.factorial(k - 1), 0)
    # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    k = (two_k - 1) // 2
    coeff = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return PiScalar(coeff, Fraction(1, 2))


class PiScalar:
    """A scalar of the form coeff * pi**pi_exp with rational coeff and exponent.

    The exponents that actually occur are multiples of 1/6.  Zero is
    normalised to exponent 0 so equality behaves.
    """

    __slots__ = ("coeff", "pi_exp")

    def __init__(self, coeff, pi_exp=0):
        self.coeff = Fraction(coeff)
        self.pi_exp = Fraction(pi_exp) if self.coeff != 0 else Fraction(0)

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.pi_exp + other.pi_exp)
        if is_exact(other):
            return PiScalar(self.coeff * other, self.pi_exp)
        return float(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScalar):
            if other.coeff == 0:
                raise ZeroDivisionError
            return PiScalar(self.coeff / other.coeff, self.pi_exp - other.pi_exp)
        if is_exact(other):
            return PiScalar(self.coeff / Fraction(other), self.pi_exp)
        return float(self) / other

    def __add__(self, other):
        if not isinstance(other, PiScalar):
            other = PiScalar(other)
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_exp != other.pi_exp:
            raise ValueError("cannot add pi-scalars with different exponents")
        return PiScalar(self.coeff + other.coeff, self.pi_exp)

    def __sub__(self, other):
        if not isinstance(other, PiScalar):
            other = PiScalar(other)
        return self + PiScalar(-other.coeff, other.pi_exp)

    def __neg__(self):
        return PiScalar(-self.coeff, self.pi_exp)

    def __pow__(self, k):
        return PiScalar(self.coeff**k, self.pi_exp * k)

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            return self.coeff == other.coeff and self.pi_exp == other.pi_exp
        if is_exact(other):
            return self == PiScalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.pi_exp))

    def __float__(self):
        return float(self.coeff) * math.pi ** float(self.pi_exp)

    def is_zero(self):
        return self.coeff == 0

    def __repr__(self):
        if self.pi_exp == 0:
            return f"PiScalar({self.coeff})"
        return f"PiScalar({self.coeff}, pi_exp={self.pi_exp})"

    def __str__(self):
        if self.pi_exp == 0:
            return str(self.coeff)
        return f"{self.coeff} * pi^({self.pi_exp})"

    def to_json(self):
        d = {"coeff": str(self.coeff)}
        if self.pi_exp != 0:
            d["pi_exp"] = str(self.pi_exp)
        return d
