"""Reference values computed without importing pirings.

Every output check of the benchmark compares against these.  They are
written from the mathematics, not from the package's code: integer
determinants, the zonotope subset-sum formula, a Gaussian-elimination
reduction in the ring of CP^n and the closed forms quoted in the paper.
"""

from fractions import Fraction
import itertools
import math


def int_det(rows):
    """Exact determinant of an integer matrix (Bareiss, exact division)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _integer_weights(bodies):
    """Clear weight denominators: w = W / den with integer W, common den."""
    den = math.lcm(*(Fraction(w).denominator for b in bodies for w, _ in b))
    return den, [[(int(Fraction(w) * den), v) for w, v in b] for b in bodies]


def mixed_volume(bodies):
    """(1/n!) * sum over one atom per body of w_1...w_n |det(v_1..v_n)|.

    bodies is a list of n lists of (weight, integer vector) in R^n.  When
    all bodies are the same list, the ordered sum collapses to a sum over
    n-subsets, which is what is evaluated then.
    """
    n = len(bodies)
    den, ints = _integer_weights(bodies)
    total = 0
    if all(b is bodies[0] for b in bodies):
        for combo in itertools.combinations(ints[0], n):
            total += math.prod(w for w, _ in combo) * abs(
                int_det([v for _, v in combo]))
        return Fraction(total, den ** n)
    for combo in itertools.product(*ints):
        total += math.prod(w for w, _ in combo) * abs(
            int_det([v for _, v in combo]))
    return Fraction(total, den ** n * math.factorial(n))


def crofton(l_atoms, k_atoms):
    """(1/d!) sum_{a in L} sum over ordered d-tuples of K of w_a w.. |<a, k^..>|.

    L atoms are (weight, list of d integer vectors); K atoms are
    (weight, integer vector).  The inner product of simple vectors is
    the determinant of the matrix of dot products.
    """
    d = len(l_atoms[0][1])
    total = Fraction(0)
    for wl, fl in l_atoms:
        for combo in itertools.product(k_atoms, repeat=d):
            gram = [[sum(x * y for x, y in zip(a, v)) for _, v in combo]
                    for a in fl]
            det = int_det(gram)
            if det:
                total += Fraction(wl) * math.prod(
                    Fraction(w) for w, _ in combo) * abs(det)
    return total / math.factorial(d)


def zonoid_length(atoms):
    """sum of w |v| for atoms whose vectors have integer norms."""
    total = Fraction(0)
    for w, v in atoms:
        sq = sum(x * x for x in v)
        root = math.isqrt(sq)
        if root * root != sq:
            raise ValueError("atom norm is not an integer")
        total += Fraction(w) * root
    return total


def pythagorean_vector(m, n, p, q):
    """Integer vector of R^3 with integer norm m^2 + n^2 + p^2 + q^2."""
    return [m * m + n * n - p * p - q * q, 2 * (m * q + n * p),
            2 * (n * q - m * p)]


# --- closed forms -------------------------------------------------------

def selfint_closed_form(n, d, delta):
    """sum_k C(n,2k) C(2k,k) q^(2k) d^(n-2k) delta^(2k), q = n / (2(n-1))."""
    q = Fraction(n, 2 * (n - 1))
    return sum(math.comb(n, 2 * k) * math.comb(2 * k, k) * q ** (2 * k)
               * Fraction(d) ** (n - 2 * k) * Fraction(delta) ** (2 * k)
               for k in range(n // 2 + 1))


def tasaki_kernel(n, x, y):
    """Degree-2 Tasaki kernel ((1+x)(1+y) + n/(n-1) (1-x)(1-y)) / 4."""
    return ((1 + x) * (1 + y) + n / (n - 1) * (1 - x) * (1 - y)) / 4


def ball_volume(k):
    """kappa_k = pi^(k/2) / Gamma(k/2 + 1)."""
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def ball_wedge_length(big_n, i):
    """Length of the i-th wedge power of the unit ball of R^N."""
    return (math.factorial(big_n) / math.factorial(big_n - i)
            * ball_volume(big_n) / ball_volume(big_n - i))


SHAPE_CLOSED_FORMS = {"1|2,1": 4 / math.pi ** 2, "2|2": 0.5}


# --- the ring of CP^n ---------------------------------------------------
#
# Elements are dicts (degree, j) -> {pi exponent: Fraction}; the basis
# monomial of index (d, j) is s^j t^(d - 2j), with t = pi^(-2/3) beta and
# s = pi^(2/3) gamma.  An out-of-basis monomial s^J t^T is replaced by the
# basis combination whose full-degree pairings agree with it.

def j_set(n, d):
    if d < 0 or d > 2 * n:
        return []
    return list(range(min(d // 2, (2 * n - d) // 2) + 1))


def _top(n, a):
    """Full-degree pairing of s^a t^(2n - 2a), up to a common factor."""
    return math.comb(2 * (n - a), n - a) if a <= n else 0


def _solve(mat, rhs):
    """Gauss-Jordan elimination over Fractions."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def reduce_monomial(n, big_j, tpow):
    """s^big_j t^tpow as {j: coefficient} over the basis of its degree."""
    d = 2 * big_j + tpow
    if d > 2 * n or big_j > n:
        return {}
    if big_j in j_set(n, d):
        return {big_j: Fraction(1)}
    comp = j_set(n, 2 * n - d)
    mat = [[_top(n, a + b) for b in comp] for a in comp]
    rhs = [_top(n, big_j + k) for k in comp]
    return {j: c for j, c in zip(j_set(n, d), _solve(mat, rhs)) if c}


def _add_term(out, key, pi_exp, c):
    if c == 0:
        return
    slot = out.setdefault(key, {})
    slot[pi_exp] = slot.get(pi_exp, 0) + c
    if slot[pi_exp] == 0:
        del slot[pi_exp]
        if not slot:
            del out[key]


def ring_monomial(n, s_exp, t_exp, coeff=Fraction(1), pi_exp=Fraction(0)):
    out = {}
    for j, c in reduce_monomial(n, s_exp, t_exp).items():
        _add_term(out, (2 * s_exp + t_exp, j), pi_exp, coeff * c)
    return out


def ring_multiply(n, a, b):
    out = {}
    for (d1, j1), p1 in a.items():
        for (d2, j2), p2 in b.items():
            tpow = d1 - 2 * j1 + d2 - 2 * j2
            d = 2 * (j1 + j2) + tpow
            for j, r in reduce_monomial(n, j1 + j2, tpow).items():
                for e1, c1 in p1.items():
                    for e2, c2 in p2.items():
                        _add_term(out, (d, j), e1 + e2, c1 * c2 * r)
    return out


def ring_add(a, b):
    out = {k: dict(v) for k, v in a.items()}
    for key, poly in b.items():
        for e, c in poly.items():
            _add_term(out, key, e, c)
    return out


def parse_ring_expr(n, text):
    """Sum of terms 'c*g^k*...' in the generators s, t, beta, gamma."""
    total = {}
    text = text.replace(" ", "")
    terms, start = [], 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        coeff, s_exp, t_exp, pi_exp = Fraction(sign), 0, 0, Fraction(0)
        for tok in term.lstrip("+-").split("*"):
            name, _, power = tok.partition("^")
            k = int(power) if power else 1
            if name == "s":
                s_exp += k
            elif name == "t":
                t_exp += k
            elif name == "gamma":
                s_exp += k
                pi_exp -= Fraction(2 * k, 3)
            elif name == "beta":
                t_exp += k
                pi_exp += Fraction(2 * k, 3)
            else:
                coeff *= Fraction(name) ** k
        total = ring_add(total, ring_monomial(n, s_exp, t_exp, coeff, pi_exp))
    return total


def monomial_length_st(n, j, i):
    """Float length of the basis monomial s^j t^i in the ring of CP^n.

    l(gamma^j beta^i) = pi^(-j) n!/(n-j)! * m!/(m-i)! * kappa_m / kappa_(m-i)
    with m = 2(n - j); s^j t^i = pi^((2j - 2i)/3) gamma^j beta^i.
    """
    if j > n or 2 * j + i > 2 * n:
        return 0.0
    m = 2 * (n - j)
    val = (math.pi ** -j * math.factorial(n) / math.factorial(n - j)
           * math.factorial(m) / math.factorial(m - i)
           * ball_volume(m) / ball_volume(m - i))
    return val * math.pi ** ((2 * j - 2 * i) / 3)


def length_by_degree(n, elem):
    """{degree: (value, scale)}; scale sums |terms| for a relative tolerance."""
    out = {}
    for (d, j), poly in elem.items():
        base = monomial_length_st(n, j, d - 2 * j)
        for e, c in poly.items():
            term = float(c) * math.pi ** float(e) * base
            val, scale = out.get(d, (0.0, 0.0))
            out[d] = (val + term, scale + abs(term))
    return out


def relation_st(m):
    """Monic degree-(m+1) relation of CP^m over (s, t): {(j, i): Fraction}."""
    p, tlead = ((m + 1) // 2, 0) if m % 2 else (m // 2, 1)
    out = {(p, tlead): Fraction(1)}
    for j, c in reduce_monomial(m, p, tlead).items():
        key = (j, m + 1 - 2 * j)
        out[key] = out.get(key, 0) - c
    return {k: v for k, v in out.items() if v}, (p, tlead)
