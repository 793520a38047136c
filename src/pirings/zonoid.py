"""Exact calculus of discrete virtual zonoids.

A virtual zonoid is a signed combination of centered segments
sum_i w_i * (1/2)[-v_i, v_i] plus an optional center, where the v_i are
simple vectors in an exterior power of R^N.  Support, length, pairing,
wedge products and the derived volume functionals are all finite sums,
so they stay exact on rational input.

Products go through one engine.  A body is brought to canonical atoms:
primitive integer factor rows (first nonzero entry positive) whose
contents move into the weight, with equal rows merged.  A float is a
binary rational, so a body with floats is read by its exact value, and
the exact result is rounded once to a float at the end.
A power K^(wedge m) of a body of positive degree is m! times the sum
over m-subsets of its atoms, because a repeated atom wedges to zero and
the m! orderings of a subset give the same segment (Shephard 1974,
McMullen 1971).  The terms of K_1^(m_1) ^ ... ^ K_r^(m_r) are the leaves
of a tree walked depth first, each row extending the minors of the rows
before it by one exterior.laplace_step; pairings and Crofton values are
dot products of these Pluecker vectors (Cauchy-Binet).
"""

from fractions import Fraction
import functools
import json
import math

from .exact import exact_sqrt, integer_row, is_exact, rounded
from .exterior import (
    ExteriorElement,
    SimpleVector,
    cofactors,
    dot,
    expand,
    factorize_simple,
    hodge_star,
    laplace_step,
    wedge_elements,
)


class VirtualZonoid:
    """Atoms (weight, SimpleVector of common degree) plus an optional center."""

    def __init__(self, ambient_dim, degree, atoms=(), center=None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.atoms = [(w, v) for w, v in atoms]
        if any((v.ambient_dim, v.degree) != (ambient_dim, degree)
               for _, v in self.atoms):
            raise ValueError("atom shape mismatch")
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

    def translate(self, center):
        c = center if self.center is None else self.center + center
        return VirtualZonoid(self.ambient_dim, self.degree, self.atoms, c)

    def __add__(self, other):
        """Minkowski sum: concatenate atoms, add centers."""
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch")
        z = VirtualZonoid(self.ambient_dim, self.degree,
                          self.atoms + other.atoms, self.center)
        return z if other.center is None else z.translate(other.center)

    def is_genuine(self):
        return all(w >= 0 for w, _ in self.atoms)

    def __repr__(self):
        return (f"VirtualZonoid(N={self.ambient_dim}, d={self.degree}, "
                f"atoms={len(self.atoms)}, center={self.center is not None})")


def support(z, u):
    """Support function h_z(u) for a direction u given as an ExteriorElement."""
    if u.ambient_dim != z.ambient_dim or u.degree != z.degree:
        raise ValueError("degree mismatch")
    inexact, den, atoms = _canonical(z)
    total = sum((w * abs(expand(SimpleVector(z.ambient_dim, rows)).inner(u))
                 for w, rows in atoms), start=0) * Fraction(1, 2 * den)
    total = rounded(total, inexact)
    if z.center is not None:
        total += z.center.inner(u)
    return total


def length(z):
    """First intrinsic volume sum: sum of w_i ||v_i||, the product engine's
    length of one factor on the canonical atoms.  Center is ignored."""
    return _wedge_length([z])


def pairing(a, b):
    """<K, K'> = sum over atom pairs of w w' |<v, v'>| (centered parts only),
    on the canonical atoms, where <v, v'> = det(<v_i, v'_j>) is the dot
    product of their Pluecker vectors (Cauchy-Binet)."""
    if (a.ambient_dim, a.degree) != (b.ambient_dim, b.degree):
        raise ValueError("degree mismatch")
    a_inexact, a_den, a_atoms = _canonical(a)
    b_inexact, b_den, b_atoms = _canonical(b)
    total = _paired([(a_atoms, 1)], [(b_atoms, 1)], a.ambient_dim)
    return rounded(total * Fraction(1, a_den * b_den),
                   a_inexact or b_inexact)


def _paired(groups, other, n):
    """The exact int sum of W W' |<p, p'>| over the engine's terms (W, p)
    of the product of groups and (W', p') of that of other."""
    other_terms = _walk(other, n)
    return sum((w * wo * abs(dot(p, po)) for w, _, p in _walk(groups, n)
                for wo, _, po in other_terms), start=0)


def _primitive(f):
    """(row, c, q) with f = +-(c/q) * row, row primitive with first nonzero
    entry > 0 and c, q > 0 ints; a zero vector gives (None, 0, 1)."""
    ints, q = integer_row(f)
    c = math.gcd(*ints)
    if c == 0:
        return None, 0, 1
    if next(x for x in ints if x) < 0:
        c = -c
    return tuple(x // c for x in ints), abs(c), q


def _canonical(z):
    """(inexact, den, atoms): the atoms as (W, rows), each standing for
    W/den * rows, and whether a weight or coordinate of z is a float.

    Rows are primitive integer rows, equal rows are merged, zero atoms
    dropped, atoms sorted and W ints over the least common denominator.
    Every number is read through exact.integer_row, a float by its exact
    binary value, and weights are summed as numerator/denominator pairs
    of ints, with no Fraction arithmetic.
    """
    inexact = not all(is_exact(w) and all(is_exact(x) for f in v.factors
                                          for x in f) for w, v in z.atoms)
    nums, w_den = integer_row([w for w, _ in z.atoms])
    merged = {}
    for num, (_, v) in zip(nums, z.atoms):
        den, rows = w_den, []
        for f in v.factors:
            row, c, q = _primitive(f)
            num *= c
            den *= q
            rows.append(row)
        if num:
            merged.setdefault(tuple(rows), []).append((num, den))
    common = math.lcm(*(d for ws in merged.values() for _, d in ws))
    sums = ((rows, sum(n * (common // d) for n, d in ws))
            for rows, ws in merged.items())
    atoms = sorted((rows, w) for rows, w in sums if w)
    g = math.gcd(common, *(w for _, w in atoms))
    return inexact, common // g, tuple((w // g, rows) for rows, w in atoms)


def _grouped(zs):
    """(inexact, scale, groups) of the product of zs, groups as [(atoms, m)].

    The product is scale times the sum over an m-subset of the canonical
    atoms of each group of (prod W) [all rows], with the Fraction
    scale = prod m! / den^m; inexact tells whether an input held a float.
    Equal bodies of positive degree form one group; a degree-0 atom does
    not wedge to zero with itself, so degree-0 bodies stay apart.  The
    empty product is the degree-0 unit: no group and the int scale 1.
    """
    zs = list(zs)
    n = zs[0].ambient_dim if zs else 0
    if sum(z.degree for z in zs) > n:
        raise ValueError("degree overflow")
    inexact, groups, index = False, [], {}
    canonical = functools.cache(_canonical)  # a repeated body is read once
    for z in zs:
        if z.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        z_inexact, den, atoms = canonical(z)
        inexact = inexact or z_inexact
        key = (z.degree, den, atoms)
        if z.degree and key in index:
            groups[index[key]][1] += 1
        else:
            index[key] = len(groups)
            groups.append([key, 1])
    scale = math.prod(Fraction(math.factorial(m), den ** m)
                      for (_, den, _), m in groups)
    return inexact, scale, [(atoms, m) for (*_, atoms), m in groups]


def _walk(groups, n):
    """(W, rows, minors) of each choice of an m-subset of each group's
    atoms whose wedge is nonzero, in lexicographic order: W the product of
    the weights, minors the Pluecker coordinates of the rows, each row
    extending those before it by one Laplace step (a one-row pick that
    fills R^n by a dot product with their cofactors)."""
    levels = [(atoms, left) for atoms, m in groups
              for left in range(m, 0, -1)]
    if not levels:
        return [(1, (), (1,))]
    out = []

    def visit(level, start, w, rows, minors):
        atoms, left = levels[level]
        cof = cofactors(minors, n) if len(rows) + 1 == n else None
        for i in range(start, len(atoms) - left + 1):
            a, arows = atoms[i]
            if cof is not None and len(arows) == 1:
                m = (dot(cof, arows[0]),)
            else:
                m = minors
                for r, row in enumerate(arows, len(rows) + 1):
                    m = laplace_step(m, row, r)
            if level + 1 < len(levels) and any(m):
                visit(level + 1, i + 1 if left > 1 else 0, w * a,
                      rows + arows, m)
            elif any(m):
                out.append((w * a, rows + arows, tuple(m)))

    visit(0, 0, 1, (), (1,))
    return out


def _wedge_length(zs, factor=1):
    """factor * length(wedge(zs)), rounded once on float input, a term's
    norm the root of its sum of squared minors.  A sum with an irrational
    (float) norm is taken in floats, or exactly on the norms' binary
    values when a weight or the scale is beyond the float range."""
    inexact, scale, groups = _grouped(zs)
    n = zs[0].ambient_dim
    full = sum(z.degree for z in zs) == n  # a term's one minor is its det
    terms = [(w, abs(m[0]) if full else exact_sqrt(dot(m, m)))
             for w, _, m in _walk(groups, n)]
    try:
        total = sum((w * norm for w, norm in terms), start=0)
        if not isinstance(total, float) or (
                math.isfinite(total) and float(scale) >= 2.0 ** -1022):
            return rounded(factor * (scale * total), inexact)
    except OverflowError:
        pass
    total = sum(w * Fraction(norm) for w, norm in terms)
    return rounded(factor * scale * total, True)


def wedge(zs, factor=1):
    """factor times the wedge product of virtual zonoids.

    Atoms are the nonzero subset products of the canonical atoms, their
    weights rounded once on float input.  The center is the wedge of the
    centers, scaled so that the represented expectation product comes out
    right (a zonoid with center c has mean segment expectation 2c).
    """
    zs = list(zs)
    if not zs:
        raise ValueError("empty product")
    inexact, scale, groups = _grouped(zs)
    n = zs[0].ambient_dim
    atoms = [(rounded(factor * scale * w, inexact), SimpleVector(n, rows))
             for w, rows, _ in _walk(groups, n)]
    center = None
    if all(z.center is not None for z in zs):
        center = functools.reduce(wedge_elements, [z.center for z in zs])
        center = center.scale(2 ** (len(zs) - 1) * factor)
    return VirtualZonoid(n, sum(z.degree for z in zs), atoms, center)


def mixed_volume(zs):
    """Mixed volume of n degree-1 zonoids in R^n: length(wedge)/n!."""
    zs = list(zs)
    if (not zs or len(zs) != zs[0].ambient_dim
            or any(z.degree != 1 for z in zs)):
        raise ValueError("need exactly n zonoids of degree 1 in R^n")
    return _wedge_length(zs, Fraction(1, math.factorial(len(zs))))


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
    # binom(n,d)/kappa_{n-d} * MV(z[d], B[n-d]) = length(z^(wedge d))/d!
    return _wedge_length([z] * d, Fraction(1, math.factorial(d)))


def exp_truncated(L, max_degree):
    """Graded parts of e^L = sum_d (1/d!) L^(wedge d), degrees 0..max_degree."""
    if L.degree != 1:
        raise ValueError("exponential needs a degree-1 zonoid")
    n = L.ambient_dim
    return [VirtualZonoid(n, 0, [(1, SimpleVector(n, ()))])] + [
        wedge([L] * d, Fraction(1, math.factorial(d)))
        for d in range(1, max_degree + 1)]


def crofton_evaluate(L, K):
    """Crofton valuation of L at a degree-1 zonoid K: (1/d!) <L, K^(wedge d)>,
    the dot products of the Pluecker vectors of the canonical atoms of L
    with those of the engine's terms of K^(wedge d), each expanded once."""
    if K.degree != 1:
        raise ValueError("K must have degree 1")
    if L.ambient_dim != K.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n, d = L.ambient_dim, L.degree
    k_inexact, scale, groups = _grouped([K] * d)
    l_inexact, l_den, l_atoms = _canonical(L)
    value = scale * _paired(groups, [(l_atoms, 1)], n)
    # the d! orderings in the scale cancel the 1/d! of the valuation; at
    # d = 0 the scale is the int 1, and a sum of int weights stays an int
    den = l_den * math.factorial(d)
    return rounded(value if den == 1 else Fraction(value, den),
                   l_inexact or k_inexact)


def crofton_evaluate_graded(parts, K):
    """Sum of crofton_evaluate over a list of graded parts (e.g. star of e^L)."""
    return sum(crofton_evaluate(p, K) for p in parts)


def hodge_dual(z):
    """Hodge dual: canonical atoms (those of nonzero wedge) and center
    mapped through the star isometry; exact rows, and float weights on
    float input."""
    n = z.ambient_dim
    inexact, den, canon = _canonical(z)
    atoms = []
    for w, rows in canon:
        w *= Fraction(1, den)
        star = hodge_star(expand(SimpleVector(n, rows)))
        if star.is_zero():
            continue
        if star.degree == 0:
            # orientation is not part of the zonoid data, keep the weight sign
            atoms.append((rounded(w * abs(star.coords[()]), inexact),
                          SimpleVector(n, ())))
        else:
            atoms.append((rounded(w, inexact), factorize_simple(star)))
    center = None if z.center is None else hodge_star(z.center)
    return VirtualZonoid(n, n - z.degree, atoms, center)


def star_exp(L):
    """Graded parts of star(e^L); evaluating them via crofton gives vol(. + L).
    The parts of e^L are dualised at the exact value of L (its canonical
    atoms), and each weight is rounded once on float input."""
    n = L.ambient_dim
    inexact, den, atoms = _canonical(L)
    exact = VirtualZonoid(n, L.degree, [(Fraction(w, den), SimpleVector(n, rows))
                                        for w, rows in atoms], L.center)
    duals = (hodge_dual(p) for p in exp_truncated(exact, n))
    return [VirtualZonoid(n, p.degree, [(rounded(w, inexact), v)
                                        for w, v in p.atoms], p.center)
            for p in reversed(list(duals))]


def _num_to_json(x):
    if not is_exact(x):
        return float(x)
    (p,), q = integer_row([x])
    return p if q == 1 else f"{p}/{q}"


def _malformed(what):
    return ValueError(f"malformed zonoid JSON: {what}")


def _num_from_json(x):
    """An int or a finite float as is, a numeric string as a Fraction."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and math.isfinite(x):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise _malformed(f"{json.dumps(x)} is not a number (use an integer, a "
                     "finite decimal or \"p/q\")")


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
    except KeyError as exc:
        raise _malformed(f"missing key {exc}") from None


def _from_json(data):
    n = data["ambient"]
    d = data["degree"]
    # type, not isinstance: a JSON true is a bool, which is an int
    if not (type(n) is int and type(d) is int and 0 <= d <= n):
        raise _malformed("ambient and degree must be integers with "
                         "0 <= degree <= ambient")
    listed = data.get("atoms", [])
    if not isinstance(listed, list):
        raise _malformed('"atoms" must be a list')
    atoms = []
    for i, a in enumerate(listed):
        if not isinstance(a, dict):
            raise _malformed(f"atom {i} must be an object")
        w = _num_from_json(a["w"])
        if not (isinstance(a["v"], list)
                and all(isinstance(f, list) for f in a["v"])):
            raise _malformed(f'atom {i} "v" must be a list of factor lists')
        factors = [[_num_from_json(x) for x in f] for f in a["v"]]
        if len(factors) != d:
            raise _malformed(f"atom {i} has {len(factors)} factors, "
                             f"not degree {d}")
        for j, f in enumerate(factors):
            if len(f) != n:
                raise _malformed(f"atom {i} factor {j} has length {len(f)}, "
                                 f"not ambient {n}")
        atoms.append((w, SimpleVector(n, factors)))
    center = data.get("center")
    if not isinstance(center, (dict, type(None))):
        raise _malformed('"center" must be an object')
    coords = {}
    for key, c in (center or {}).items():
        try:
            idx = tuple(int(i) for i in key.split(",")) if key else ()
        except ValueError:
            raise _malformed(f"center key {key!r} is not comma-separated "
                             "integers") from None
        if any(not 0 <= i < n for i in idx):
            raise _malformed(f"center key {key!r} has an index outside "
                             f"0..{n - 1}")
        if len(idx) != d or len(set(idx)) != d:
            raise _malformed(f"center key {key!r} does not name {d} "
                             "distinct indices")
        coords[idx] = _num_from_json(c)
    return VirtualZonoid(n, d, atoms, ExteriorElement(n, d, coords))
