"""The centered probabilistic intersection ring of complex projective space.

The ring is R[beta, gamma] modulo two relations; a monomial basis in
degree d is s^j t^(d-2j) for j in J(n, d), where t and s are the
rescaled generators t = pi^(-2/3) beta, s = pi^(2/3) gamma.  In this
basis a monomial outside the basis reduces by a rational hypergeometric
term in closed form (reduce_monomial), so ring arithmetic is exact and
solves no linear system.  The powers of pi that beta and gamma bring are
carried by the coefficients, which are PiScalars.  Only the Monte-Carlo
Tasaki estimate draws anything; it imports sampling when it is called,
so the exact commands never load it.
"""

from fractions import Fraction
import functools
import math
import re
from types import MappingProxyType

from .exact import PiScalar
from .sphere_ring import ball_wedge_length

_PI_2_3 = PiScalar(1, Fraction(2, 3))  # beta = pi^(2/3) t, s = pi^(2/3) gamma
# generator -> (s exponent, t exponent, power of pi^(2/3)) of its raw monomial
_GENERATORS = {"s": (1, 0, 0), "t": (0, 1, 0), "beta": (0, 1, 1),
               "gamma": (1, 0, -1)}
_TOKEN = re.compile(r"(?P<num>\.?\d[\d_.]*(?:[eE][-+]?\d+)?(?:/\d+)?)"
                    r"|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^])|(?P<bad>.)")


def j_set(n, d):
    """Basis indices in degree d: j = 0 .. min(floor(d/2), floor((2n-d)/2))."""
    if d < 0 or d > 2 * n:
        return []
    return list(range(min(d // 2, (2 * n - d) // 2) + 1))


def dimension(n, d):
    """Dimension of the degree-d graded piece."""
    return len(j_set(n, d))


def monomial_length(n, j, i):
    """Exact length of gamma^j beta^i in the ring of CP^n.

    Starts from l(gamma^j) = pi^(-j) n!/(n-j)! and attaches the beta
    powers through the ball-wedge-length factor in R^(2n).
    """
    if j < 0 or i < 0:
        raise ValueError("negative exponent")
    if j > n or 2 * j + i > 2 * n:
        return PiScalar(0)
    base = PiScalar(Fraction(math.factorial(n), math.factorial(n - j)), -j)
    return ball_wedge_length(2 * n, 2 * j, i, base)


def monomial_length_st(n, j, i):
    """Exact length of s^j t^i (rescaled basis monomials)."""
    return monomial_length(n, j, i) * _PI_2_3 ** (j - i)


@functools.lru_cache(maxsize=1 << 16)
def reduce_monomial(n, big_j, tpow):
    """Express the raw monomial s^big_j t^tpow in the basis of its degree
    d = 2 big_j + tpow, as a read-only map j -> coefficient.

    Outside the basis (J = big_j >= K = dimension(n, d)), the c_j of
    s^j t^(d-2j) match lengths with every monomial of degree 2n - d: for
    k < K, sum_j c_j binom(2(n-j-k), n-j-k) = binom(2(n-J-k), n-J-k), a
    system on the integer Hankel matrix of central binomials pairing the
    degree-(2n - d) basis with itself.  With b = 2(n - K) + 1 it solves to
        c_0 = -prod_(i<K) (i-n)(i+1) / (2(i-K)(2i-b))
              * prod_(K<=i<J) i(i-n) / (2(i-K+1)(2i-b)),
        c_(j+1) = c_j 2(j-J)(2j-b)(j-K+1) / ((j-n)(j+1)(j-J+1)),
    with no factor zero.  J = K: as binom(2v, v) = 4^v int x^v dmu(x) for
    the arcsine law mu on [0, 1], q(x) = sum_j c_j 4^-j x^(K-j) - 4^-K is
    orthogonal to degree < K for the weight x^(n-2K+1/2) (1-x)^(-1/2), so
    q = -4^-K 2F1(-K, n-K+1; n-2K+3/2; x), a shifted Jacobi polynomial.
    J > K: each row is a terminating balanced 4F3 at 1, and the formula
    equals the Bareiss solve of the system for every (n, J, tpow) with
    n <= 40 and every reduction at n = 48, 64, 80 and 100.
    """
    if big_j < 0 or tpow < 0:
        raise ValueError("negative exponent")
    d = 2 * big_j + tpow
    k = dimension(n, d)
    if d > 2 * n or big_j < k:
        return MappingProxyType({big_j: Fraction(1)} if k else {})
    # running ints, one Fraction per coefficient
    b, num, den = 2 * (n - k) + 1, -1, 1
    for i in range(k):
        num, den = num * (i - n) * (i + 1), den * 2 * (i - k) * (2 * i - b)
    for i in range(k, big_j):
        num, den = num * i * (i - n), den * 2 * (i - k + 1) * (2 * i - b)
    out = {}
    for j in range(k):
        if j:
            num *= 2 * (j - 1 - big_j) * (2 * j - 2 - b) * (j - k)
            den *= (j - 1 - n) * j * (j - big_j)
        out[j] = Fraction(num, den)
    return MappingProxyType(out)


class RingElement:
    """Element of the ring of CP^n over the (s, t) basis.

    coeffs maps (degree, j) to the nonzero PiScalar c of the term
    c s^j t^(degree - 2j).  A coefficient may mix powers of pi, so
    gamma = pi^(-2/3) s and beta = pi^(2/3) t stay exact and can be
    added freely.
    """

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        for (d, j), c in (coeffs or {}).items():
            if j not in j_set(n, d):
                raise ValueError(f"index {(d, j)} outside the basis")
            c = c if isinstance(c, PiScalar) else PiScalar(c)
            if c != 0:
                self.coeffs[(d, j)] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0, 0): 1})

    @classmethod
    def t(cls, n, power=1):
        return cls.monomial(n, 0, power)

    @classmethod
    def s(cls, n, power=1):
        return cls.monomial(n, power, 0)

    @classmethod
    def beta(cls, n, power=1):
        return cls.monomial(n, 0, power, _PI_2_3 ** power)

    @classmethod
    def gamma(cls, n, power=1):
        return cls.monomial(n, power, 0, _PI_2_3 ** -power)

    @classmethod
    def monomial(cls, n, s_exp, t_exp, coeff=1):
        c = coeff if isinstance(coeff, PiScalar) else PiScalar(coeff)
        return _reduced(n, {(s_exp, t_exp): c})

    @classmethod
    def parse(cls, n, text):
        """The element an expression like '2*s^2*t - 1/3*beta^3 + gamma' names.

        expr = term (sign term)*, term = sign* factor ('*' factor)*, and
        factor = (number | generator) ['^' exponent], where a number is
        what Fraction reads (1/3, 2.5, 1e-3) and an exponent a nonnegative
        integer.  Whitespace is dropped first, so '1 / 3' is 1/3.  Each
        term is one raw monomial; the terms are added in input order.
        """
        if not text:
            raise ValueError("missing ring expression")
        toks = [(m.lastgroup, m.group()) for m in _TOKEN.finditer(
            re.sub(r"\s+", "", text))] + [(None, "end of input")]
        if bad := [tok for kind, tok in toks if kind == "bad"]:
            raise ValueError(f"unexpected character {bad[0]!r} in {text!r}")
        total, i = cls.zero(n), 0
        while True:
            coeff, raw = Fraction(1), [0, 0, 0]  # s, t and pi^(2/3) powers
            while toks[i][1] in ("+", "-"):
                coeff, i = (-coeff if toks[i][1] == "-" else coeff), i + 1
            while True:
                kind, tok = toks[i]
                if kind not in ("num", "name"):
                    raise ValueError(f"expected a number or a generator, "
                                     f"got {tok!r} in {text!r}")
                if kind == "name" and tok not in _GENERATORS:
                    raise ValueError(f"unknown symbol {tok!r} in {text!r}; "
                                     f"generators are "
                                     f"{', '.join(_GENERATORS)}")
                exp = "1"
                if toks[i + 1][1] == "^":
                    exp, i = toks[i + 2][1], i + 2
                if not re.fullmatch(r"[0-9]+", exp):
                    raise ValueError(f"exponent of {tok!r} must be a "
                                     f"nonnegative integer, got {exp!r} "
                                     f"in {text!r}")
                if kind == "num":
                    try:
                        coeff *= Fraction(tok) ** int(exp)
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ValueError(f"{exc} in {text!r}") from None
                else:
                    raw = [r + g * int(exp)
                           for r, g in zip(raw, _GENERATORS[tok])]
                i += 1
                if toks[i][1] != "*":
                    break
                i += 1
            total += cls.monomial(n, raw[0], raw[1], coeff * _PI_2_3 ** raw[2])
            if toks[i][0] is None:
                return total
            if toks[i][1] not in ("+", "-"):
                raise ValueError(f"unexpected {toks[i][1]!r} in {text!r}")

    def is_zero(self):
        return not self.coeffs

    def scale(self, a):
        """a times self, for a rational or a PiScalar a."""
        a = a if isinstance(a, PiScalar) else PiScalar(a)
        return RingElement(self.n, {k: c * a for k, c in self.coeffs.items()})

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mixed rings")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return RingElement(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return self.scale(other)
        return multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        # repeated squaring: about 2 log2(k) products instead of k
        out, base = RingElement.one(self.n), self
        while k:
            if k & 1:
                out = multiply(out, base)
            k >>= 1
            if k:
                base = multiply(base, base)
        return out

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()

    def __repr__(self):
        if not self.coeffs:
            return f"RingElement(n={self.n}, 0)"
        terms = [f"({c}) s^{j} t^{d - 2 * j}"
                 for (d, j), c in sorted(self.coeffs.items())]
        return f"RingElement(n={self.n}, {' + '.join(terms)})"


def multiply(a, b):
    """Graded product; out-of-basis raw monomials are reduced exactly, each
    once: the products of terms are first summed per raw monomial."""
    if a.n != b.n:
        raise ValueError("mixed rings")
    n = a.n
    raw = {}
    for (d1, j1), c1 in a.coeffs.items():
        for (d2, j2), c2 in b.coeffs.items():
            if d1 + d2 <= 2 * n:
                key = (j1 + j2, d1 + d2 - 2 * (j1 + j2))
                raw[key] = raw.get(key, 0) + c1 * c2
    return _reduced(n, raw)


def _reduced(n, raw):
    """The element of CP^n summing c s^J t^k over the raw monomial map
    (J, k) -> c, each raw monomial reduced exactly, once."""
    out = {}
    for (big_j, tpow), c in raw.items():
        d = 2 * big_j + tpow
        for j, r in reduce_monomial(n, big_j, tpow).items():
            out[(d, j)] = out.get((d, j), 0) + c * r
    return RingElement(n, out)


def length_by_degree(e):
    """Length functional per degree, as exact PiScalars."""
    out = {}
    for (d, j), c in e.coeffs.items():
        out[d] = out.get(d, 0) + monomial_length_st(e.n, j, d - 2 * j) * c
    return {d: v for d, v in out.items() if v != 0}


def length(e):
    """Length of a homogeneous element (PiScalar); zero element gives 0."""
    by_deg = length_by_degree(e)
    if len(by_deg) > 1:
        raise ValueError("inhomogeneous element; use length_by_degree")
    return sum(by_deg.values(), PiScalar(0))


def intersection_number(alpha, j):
    """l_j(alpha) = l(alpha * gamma^j)."""
    n = alpha.n
    return length(multiply(alpha, RingElement.gamma(n, j)))


def relation_st(n):
    """The degree-(n+1) relation of CP^n over the (s, t) basis.

    Returned as a map (s_exp, t_exp) -> Fraction with monic lead term
    s^p (n odd) or s^p t (n even), p = ceil((n+1)/2) adjusted so the
    lead has total degree n+1.
    """
    p, tlead = (n + 1) // 2, (n + 1) % 2
    # the lead lies outside the basis, and no reduction has a zero coefficient
    red = reduce_monomial(n, p, tlead)
    return {(p, tlead): Fraction(1),
            **{(j, n + 1 - 2 * j): -c for j, c in red.items()}}


def relation_beta_gamma(n):
    """The same relation in (beta, gamma), normalised to a monic lead term.

    Coefficients are PiScalars; the key is (gamma_exp, beta_exp).
    """
    st = relation_st(n)
    # s^j t^i = pi^((2j - 2i)/3) gamma^j beta^i; the lead has the largest j
    lead_j, lead_i = max(st)
    return {(j, i): c * _PI_2_3 ** (j - i - lead_j + lead_i)
            for (j, i), c in st.items()}


def relations(n):
    """The pair (F_n, F_{n+1}) presenting the ring of CP^n.

    Each entry carries the relation in both coordinate systems.
    """
    return tuple(
        {"st": relation_st(m), "beta_gamma": relation_beta_gamma(m)}
        for m in (n, n + 1)
    )


def evaluate_relation_st(rel_st, n):
    """Evaluate a relation (in s, t form) inside the ring of CP^n."""
    return _reduced(n, rel_st)


def codim2_coeffs(n, d_x, delta_x):
    """Coefficients (x_r, x_c) of the class of a codimension-2 submanifold.

    x_r multiplies beta^2 and carries the pi^(-2); x_c multiplies gamma.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    d_x, delta_x = Fraction(d_x), Fraction(delta_x)
    x_r = PiScalar(-Fraction(n, 2 * (n - 1)) * delta_x, -2)
    x_c = d_x + Fraction(n, n - 1) * delta_x
    return x_r, x_c


def class_codim2(n, d_x, delta_x):
    """The degree-2 ring class x_r beta^2 + x_c gamma of a codim-2 submanifold."""
    x_r, x_c = codim2_coeffs(n, d_x, delta_x)
    return (RingElement.beta(n, 2).scale(x_r)
            + RingElement.gamma(n).scale(x_c))


def self_intersection_codim2(n, d_x, delta_x):
    """Expected count of n random copies of a codim-2 submanifold, closed form."""
    if n < 2:
        raise ValueError("need n >= 2")
    d_x, delta_x = Fraction(d_x), Fraction(delta_x)
    q = Fraction(n, 2 * (n - 1))
    return sum((math.comb(n, 2 * k) * math.comb(2 * k, k) * q ** (2 * k)
                * d_x ** (n - 2 * k) * delta_x ** (2 * k)
                for k in range(n // 2 + 1)), Fraction(0))


def self_intersection_via_ring(n, d_x, delta_x):
    """Same expected count, via vol(CP^n) * l(alpha^n) in the ring."""
    alpha = class_codim2(n, d_x, delta_x)
    val = length(alpha ** n) * PiScalar(Fraction(1, math.factorial(n)), n)
    return val.rational()


def f_k(k):
    """sum_j binom(k,j) binom(2j,j) (-1)^j 2^(k-j); 0 for odd k, central binomial else."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(math.comb(k, j) * math.comb(2 * j, j) * (-1) ** j * 2 ** (k - j)
               for j in range(k + 1))


def _check_tasaki_args(n, x, y):
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"arguments must lie in [0, 1], got x={x}, y={y}")


def tasaki_kernel_d2(n, x, y):
    """Closed-form degree-2 Tasaki kernel on [0,1]^2."""
    _check_tasaki_args(n, x, y)
    return ((1 + x) * (1 + y) + Fraction(n, n - 1) * (1 - x) * (1 - y)) / 4


def mc_tasaki_kernel_d2(n, x, y, samples, seed, workers=1):
    """Monte-Carlo estimate of the degree-2 Tasaki kernel.

    Averages n * |<h V_x, V_y>| over Haar unitaries h; the inner product
    of the two planes equals the norm of the wedge of h V_x with the
    Hodge dual of V_y.  The factor n puts the Haar expectation in the
    normalisation of the closed-form kernel (checked exactly at
    x = y = 1, where E|<h V_1, V_1>| = 1/n and the kernel is 1).  The
    trials are drawn by sampling.TasakiSampler, from the 2 x 2 corner of h.
    """
    _check_tasaki_args(n, x, y)
    from .sampling import SamplerZonoid, TasakiSampler, mc_wedge_length
    return mc_wedge_length([SamplerZonoid(n, TasakiSampler(n, x, y))],
                           samples, seed, workers)


def omega_element(n, k):
    """(1/k!) omega^k for the standard Kaehler form omega on R^(2n).

    With interleaved coordinates, omega = sum_j e_(2j) ^ e_(2j+1), and
    the normalised power has one unit coefficient per k-subset of the
    coordinate planes.
    """
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    import itertools
    from .exterior import ExteriorElement
    coords = {tuple(i for j in sub for i in (2 * j, 2 * j + 1)): Fraction(1)
              for sub in itertools.combinations(range(n), k)}
    return ExteriorElement(2 * n, 2 * k, coords)


def omega_norm_sq(n, k):
    """Exact squared norm of (1/k!) omega^k; equals binom(n, k)."""
    e = omega_element(n, k)
    return sum(c * c for c in e.coords.values())


__all__ = [
    "RingElement", "class_codim2", "codim2_coeffs", "dimension",
    "f_k", "intersection_number", "j_set", "length", "length_by_degree",
    "mc_tasaki_kernel_d2", "monomial_length",
    "monomial_length_st", "multiply", "omega_element", "omega_norm_sq",
    "reduce_monomial", "relation_beta_gamma", "relation_st",
    "relations", "self_intersection_codim2", "self_intersection_via_ring",
    "tasaki_kernel_d2", "evaluate_relation_st",
]
