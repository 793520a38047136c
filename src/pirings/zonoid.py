"""Exact calculus of discrete virtual zonoids.

A virtual zonoid is a signed combination of centered segments
sum_i w_i * (1/2)[-v_i, v_i] plus an optional center, where the v_i are
simple vectors in an exterior power of R^N.  Support, length, pairing,
wedge products and the derived volume functionals are all finite sums,
so they stay exact on rational input.

Products go through one engine.  A body on exact input is brought to
canonical atoms: primitive integer factor rows (first nonzero entry
positive) whose contents move into the weight, with equal rows merged.
A power K^(wedge m) of a body of positive degree is m! times the sum
over m-subsets of its atoms, because a repeated atom wedges to zero and
the m! orderings of a subset give the same segment (Shephard 1974,
McMullen 1971).  So a product K_1^(m_1) ^ ... ^ K_r^(m_r) costs
prod_k C(#atoms of K_k, m_k) integer determinants.
"""

from fractions import Fraction
import itertools
import math
import sys

from .exact import exact_sqrt, int_det, is_exact
from .exterior import (
    ExteriorElement,
    SimpleVector,
    det,
    dot,
    expand,
    factorize_simple,
    hodge_star,
    wedge_elements,
    wedge_inner,
    wedge_norm,
)
from .sphere_ring import ball_wedge_length, kappa

# a float Gram determinant carries an error of a few machine epsilons
# times the Hadamard bound prod |v_i|^2; below this share it counts as zero
_GRAM_REL_TOL = 64 * sys.float_info.epsilon


class VirtualZonoid:
    """Atoms (weight, SimpleVector of common degree) plus an optional center."""

    def __init__(self, ambient_dim, degree, atoms=(), center=None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.atoms = []
        for w, v in atoms:
            if v.ambient_dim != ambient_dim or v.degree != degree:
                raise ValueError("atom shape mismatch")
            self.atoms.append((w, v))
        if center is not None:
            if center.ambient_dim != ambient_dim or center.degree != degree:
                raise ValueError("center shape mismatch")
            if center.is_zero():
                center = None
        self.center = center

    @classmethod
    def segment(cls, v, weight=1):
        """The centered segment weight * (1/2)[-v, v]."""
        return cls(v.ambient_dim, v.degree, [(weight, v)])

    @classmethod
    def scalar_one(cls, ambient_dim):
        """The degree-0 unit (the number 1 viewed as a zonoid)."""
        return cls(ambient_dim, 0, [(1, SimpleVector(ambient_dim, ()))])

    def translate(self, center):
        c = center if self.center is None else self.center + center
        return VirtualZonoid(self.ambient_dim, self.degree, self.atoms, c)

    def __add__(self, other):
        """Minkowski sum: concatenate atoms, add centers."""
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch")
        if self.center is None:
            c = other.center
        elif other.center is None:
            c = self.center
        else:
            c = self.center + other.center
        return VirtualZonoid(self.ambient_dim, self.degree,
                             self.atoms + other.atoms, c)

    def is_genuine(self):
        return all(w >= 0 for w, _ in self.atoms)

    def __repr__(self):
        return (f"VirtualZonoid(N={self.ambient_dim}, d={self.degree}, "
                f"atoms={len(self.atoms)}, center={self.center is not None})")


def support(z, u):
    """Support function h_z(u) for a direction u given as an ExteriorElement."""
    if u.ambient_dim != z.ambient_dim or u.degree != z.degree:
        raise ValueError("degree mismatch")
    total = 0
    for w, v in z.atoms:
        total += w * Fraction(1, 2) * abs(expand(v).inner(u))
    if z.center is not None:
        total += z.center.inner(u)
    return total


def length(z):
    """First intrinsic volume sum: sum of w_i ||v_i||.  Center is ignored."""
    return sum((w * wedge_norm([v]) for w, v in z.atoms), start=0)


def pairing(a, b):
    """<K, K'> = sum over atom pairs of w w' |<v, v'>| (centered parts only)."""
    if (a.ambient_dim, a.degree) != (b.ambient_dim, b.degree):
        raise ValueError("degree mismatch")
    total = 0
    for w, v in a.atoms:
        for w2, v2 in b.atoms:
            total += w * w2 * abs(wedge_inner(v, v2))
    return total


def _primitive(f):
    """(row, c) with f = +-c * row, row primitive with first nonzero entry > 0.

    c > 0, except that a zero vector gives (None, 0).
    """
    den = math.lcm(*(Fraction(x).denominator for x in f))
    ints = [Fraction(x).numerator * (den // Fraction(x).denominator) for x in f]
    g = math.gcd(*ints)
    if g == 0:
        return None, 0
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints), Fraction(abs(g), den)


def _canonical(z):
    """(exact, den, atoms): the atoms as (W, rows), each standing for W/den * rows.

    An exact body (every weight and coordinate an int or Fraction) gets
    primitive integer rows, equal rows merged, zero atoms dropped, atoms
    sorted and int W over one common denominator.  Any other body passes
    through unchanged with den = 1.
    """
    if not all(is_exact(w) and all(is_exact(x) for f in v.factors for x in f)
               for w, v in z.atoms):
        return False, 1, tuple((w, v.factors) for w, v in z.atoms)
    merged = {}
    for w, v in z.atoms:
        weight, rows = Fraction(w), []
        for f in v.factors:
            row, c = _primitive(f)
            weight *= c
            rows.append(row)
        if weight:
            rows = tuple(rows)
            merged[rows] = merged.get(rows, 0) + weight
    atoms = sorted((rows, w) for rows, w in merged.items() if w)
    den = math.lcm(*(w.denominator for _, w in atoms))
    return True, den, tuple((w.numerator * (den // w.denominator), rows)
                            for rows, w in atoms)


def _grouped(zs):
    """(exact, scale, groups) of the product of zs, groups as [(atoms, m)].

    The product is scale times the sum over an m-subset of the canonical
    atoms of each group of (prod W) [all rows], with
    scale = prod m! / den^m (a float on float input).  Equal bodies of
    positive degree form one group; a degree-0 atom does not wedge to zero
    with itself, so degree-0 bodies stay apart.
    """
    zs = list(zs)
    if not zs:
        raise ValueError("empty product")
    n = zs[0].ambient_dim
    if sum(z.degree for z in zs) > n:
        raise ValueError("degree overflow")
    groups, index = [], {}
    for z in zs:
        if z.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        key = (z.degree, *_canonical(z))
        if z.degree and key in index:
            groups[index[key]][1] += 1
        else:
            index[key] = len(groups)
            groups.append([key, 1])
    exact, scale = True, Fraction(1)
    for (_, z_exact, den, _), m in groups:
        exact = exact and z_exact
        scale *= Fraction(math.factorial(m), den ** m)
    if not exact:
        scale = float(scale)
    return exact, scale, [(atoms, m) for (*_, atoms), m in groups]


def _terms(groups):
    """(W, rows) for every choice of an m-subset of each group's atoms."""
    for pick in itertools.product(*(itertools.combinations(atoms, m)
                                    for atoms, m in groups)):
        w, rows = 1, ()
        for subset in pick:
            for a, r in subset:
                w *= a
                rows += r
        yield w, rows


def _norm(rows, n, exact):
    """|rows[0] ^ ... ^ rows[-1]|: |det| for n rows, else the Gram root."""
    det_ = int_det if exact else det
    if len(rows) == n:
        return abs(det_(rows))
    return exact_sqrt(max(det_([[dot(x, y) for y in rows] for x in rows]), 0))


def _products(zs):
    """(scale, terms) of the product of zs, terms as (W, rows, norm).

    Each term stands for the atom scale * W [rows].  Terms that vanish
    are left out: exactly on exact input, and relative to the Hadamard
    bound prod |row|^2 on float input.
    """
    exact, scale, groups = _grouped(zs)
    n = zs[0].ambient_dim
    terms = []
    for w, rows in _terms(groups):
        norm = _norm(rows, n, exact)
        if exact:
            if norm == 0:
                continue
        elif norm ** 2 <= _GRAM_REL_TOL * math.prod(dot(r, r) for r in rows):
            continue
        terms.append((w, rows, norm))
    return scale, terms


def _wedge_length(zs):
    """length(wedge(zs)), summed without building the product atoms."""
    scale, terms = _products(zs)
    return scale * sum((w * norm for w, _, norm in terms), start=0)


def wedge(zs):
    """Wedge product of virtual zonoids.

    Atoms are the nonzero subset products of the canonical atoms.  The
    center of the product is the wedge of the centers, scaled so that
    the represented expectation product comes out right (a zonoid with
    center c has mean segment expectation 2c).
    """
    zs = list(zs)
    scale, terms = _products(zs)
    n = zs[0].ambient_dim
    atoms = [(scale * w, SimpleVector(n, rows)) for w, rows, _ in terms]
    center = None
    if all(z.center is not None for z in zs):
        c = zs[0].center
        for z in zs[1:]:
            c = wedge_elements(c, z.center)
        center = c.scale(2 ** (len(zs) - 1))
        if center.is_zero():
            center = None
    return VirtualZonoid(n, sum(z.degree for z in zs), atoms, center)


def mixed_volume(zs):
    """Mixed volume of n degree-1 zonoids in R^n: length(wedge)/n!."""
    zs = list(zs)
    if (not zs or len(zs) != zs[0].ambient_dim
            or any(z.degree != 1 for z in zs)):
        raise ValueError("need exactly n zonoids of degree 1 in R^n")
    return _wedge_length(zs) / math.factorial(len(zs))


def volume(z):
    """Volume of the zonotope generated by a degree-1 zonoid in R^n."""
    if z.degree != 1:
        raise ValueError("volume needs a degree-1 zonoid")
    return mixed_volume([z] * z.ambient_dim)


def intrinsic_volume(z, d):
    """d-th intrinsic volume of a genuine degree-1 zonoid in R^n."""
    if not z.is_genuine():
        raise ValueError("intrinsic volumes need nonnegative weights")
    n = z.ambient_dim
    if not 0 <= d <= n:
        raise ValueError("d out of range")
    if d == 0:
        return 1
    ell = _wedge_length([z] * d)
    # binom(n,d)/kappa_{n-d} * MV(z[d], B[n-d]); the ball factor collapses
    # the constant to an exact rational
    factor = (ball_wedge_length(n, d, n - d, 1) / kappa(n - d)
              * math.comb(n, d) / math.factorial(n))
    assert factor.pi_exp == 0
    if is_exact(ell):
        return factor.coeff * ell
    return float(factor.coeff) * ell


def exp_truncated(L, max_degree):
    """Graded parts of e^L = sum_d (1/d!) L^(wedge d), degrees 0..max_degree."""
    if L.degree != 1:
        raise ValueError("exponential needs a degree-1 zonoid")
    parts = [VirtualZonoid.scalar_one(L.ambient_dim)]
    for d in range(1, max_degree + 1):
        zd = wedge([L] * d)
        inv = Fraction(1, math.factorial(d))
        atoms = [(w * inv, v) for w, v in zd.atoms]
        center = zd.center.scale(inv) if zd.center is not None else None
        parts.append(VirtualZonoid(L.ambient_dim, d, atoms, center))
    return parts


def crofton_evaluate(L, K):
    """Crofton valuation of L at a degree-1 zonoid K: (1/d!) <L, K^(wedge d)>.

    <a_1^...^a_d, k_1^...^k_d> = det(<a_i, k_j>), so each term is the
    determinant of a d x d block of the table of dot products.
    """
    if K.degree != 1:
        raise ValueError("K must have degree 1")
    if L.ambient_dim != K.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = L.degree
    if d == 0:
        return sum((w for w, _ in L.atoms), start=0)
    l_exact, l_den, l_atoms = _canonical(L)
    k_exact, k_den, k_atoms = _canonical(K)
    exact = l_exact and k_exact
    picks = [(math.prod(k_atoms[j][0] for j in s), s)
             for s in itertools.combinations(range(len(k_atoms)), d)]
    total = 0 if exact else 0.0
    for wl, rows in l_atoms:
        table = [[dot(a, k) for _, (k,) in k_atoms] for a in rows]
        for wk, s in picks:
            block = [[t[j] for j in s] for t in table]
            total += wl * wk * abs(int_det(block) if exact else det(block))
    # the d! orderings of each d-subset of K cancel the 1/d! of the valuation
    return total * Fraction(1, l_den * k_den ** d)


def crofton_evaluate_graded(parts, K):
    """Sum of crofton_evaluate over a list of graded parts (e.g. star of e^L)."""
    return sum(crofton_evaluate(p, K) for p in parts)


def hodge_dual(z, orientation=1):
    """Hodge dual: atoms and center mapped through the star isometry."""
    n = z.ambient_dim
    atoms = []
    for w, v in z.atoms:
        star = hodge_star(expand(v), orientation)
        if star.degree == 0:
            # orientation is not part of the zonoid data, keep the weight sign
            c = abs(star.coords.get((), 0))
            atoms.append((w * c, SimpleVector(n, ())))
        else:
            atoms.append((w, factorize_simple(star)))
    center = None
    if z.center is not None:
        center = hodge_star(z.center, orientation)
    return VirtualZonoid(n, n - z.degree, atoms, center)


def star_exp(L, orientation=1):
    """Graded parts of star(e^L); evaluating them via crofton gives vol(. + L)."""
    n = L.ambient_dim
    return [hodge_dual(p, orientation) for p in reversed(exp_truncated(L, n))]


def _num_to_json(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, int):
        return x
    return float(x)


def _num_from_json(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    return x


def to_json(z):
    out = {
        "ambient": z.ambient_dim,
        "degree": z.degree,
        "atoms": [
            {"w": _num_to_json(w), "v": [[_num_to_json(x) for x in f]
                                         for f in v.factors]}
            for w, v in z.atoms
        ],
    }
    if z.center is not None:
        out["center"] = {
            ",".join(map(str, k)): _num_to_json(c)
            for k, c in z.center.coords.items()
        }
    return out


def from_json(data):
    if not isinstance(data, dict):
        raise ValueError("a zonoid must be a JSON object")
    try:
        return _from_json(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed zonoid JSON: {exc}") from exc


def _from_json(data):
    n = data["ambient"]
    d = data["degree"]
    if not (isinstance(n, int) and isinstance(d, int) and 0 <= d <= n):
        raise ValueError("ambient and degree must be integers with "
                         "0 <= degree <= ambient")
    atoms = []
    for a in data.get("atoms", []):
        w = _num_from_json(a["w"])
        factors = [[_num_from_json(x) for x in f] for f in a["v"]]
        v = SimpleVector(n, factors)
        if v.degree != d:
            raise ValueError("atom degree mismatch")
        atoms.append((w, v))
    center = None
    if "center" in data and data["center"]:
        coords = {}
        for key, c in data["center"].items():
            idx = tuple(int(i) for i in key.split(",")) if key else ()
            coords[idx] = _num_from_json(c)
        center = ExteriorElement(n, d, coords)
    return VirtualZonoid(n, d, atoms, center)
