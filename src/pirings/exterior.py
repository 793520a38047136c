"""Exterior algebra kernel over Euclidean R^N.

Simple (decomposable) elements are kept as lists of factor vectors, so
wedge norms and inner products come straight from Gram determinants.
General elements carry sparse coordinates indexed by sorted tuples of
basis indices (0-based).

Every determinant is exact: exact.bareiss_det for Gram determinants and
integer minors of the factors scaled to integers for coordinates, each
rounded once to a float when an input number is a float.
"""

from fractions import Fraction
import itertools
import math
import operator

from .exact import (bareiss_det, exact_sqrt, int_det, integer_row, is_exact,
                    rounded)

COORD_CAP = 10**6


def dot(a, b):
    return sum(map(operator.mul, a, b))


def _minors(rows, n):
    """The coordinates of the wedge of d integer rows of length n: their
    d x d minors, keyed by the index sets in lexicographic order."""
    d = len(rows)
    if math.comb(n, d) > COORD_CAP:
        raise ValueError(
            f"binom({n},{d}) exceeds the coordinate cap of {COORD_CAP}")
    return {idx: int_det([[f[i] for i in idx] for f in rows])
            for idx in itertools.combinations(range(n), d)}


class SimpleVector:
    """A wedge product v_1 ^ ... ^ v_d of vectors in R^N.

    Zero factors (d = 0) encode the scalar 1.
    """

    __slots__ = ("ambient_dim", "factors")

    def __init__(self, ambient_dim, factors=()):
        self.ambient_dim = ambient_dim
        factors = tuple(tuple(f) for f in factors)
        for f in factors:
            if len(f) != ambient_dim:
                raise ValueError("factor length does not match ambient_dim")
        if len(factors) > ambient_dim:
            raise ValueError("degree exceeds ambient dimension")
        self.factors = factors

    @property
    def degree(self):
        return len(self.factors)

    def __repr__(self):
        return f"SimpleVector({self.ambient_dim}, {list(self.factors)})"


def wedge_inner(a, b):
    """<v_1^...^v_d, w_1^...^w_d> = det [<v_i, w_j>]."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    gram = [[dot(v, w) for w in b.factors] for v in a.factors]
    return bareiss_det(gram)


def wedge_norm(parts):
    """Norm of the wedge of all the factors of the given simple vectors."""
    parts = list(parts)
    if not parts:
        return 1
    n = parts[0].ambient_dim
    factors = []
    for p in parts:
        if p.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        factors.extend(p.factors)
    if len(factors) > n:
        raise ValueError("total degree exceeds ambient dimension")
    s = SimpleVector(n, factors)
    return exact_sqrt(wedge_inner(s, s))


class ExteriorElement:
    """Sparse element of Lambda^d(R^N), coordinates over sorted index tuples."""

    __slots__ = ("ambient_dim", "degree", "coords")

    def __init__(self, ambient_dim, degree, coords=None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.coords = {}
        if coords:
            for idx, c in coords.items():
                idx = tuple(sorted(idx))
                if len(idx) != degree or len(set(idx)) != degree:
                    raise ValueError("bad index set")
                if any(i < 0 or i >= ambient_dim for i in idx):
                    raise ValueError("index out of range")
                if c != 0:
                    self.coords[idx] = self.coords.get(idx, 0) + c
        self.coords = {k: v for k, v in self.coords.items() if v != 0}

    def inner(self, other):
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch")
        keys = self.coords.keys() & other.coords.keys()
        return sum(self.coords[k] * other.coords[k] for k in keys)

    def scale(self, a):
        return ExteriorElement(
            self.ambient_dim, self.degree,
            {k: a * v for k, v in self.coords.items()},
        )

    def __add__(self, other):
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch")
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return ExteriorElement(self.ambient_dim, self.degree, out)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.coords

    def __repr__(self):
        return f"ExteriorElement({self.ambient_dim}, {self.degree}, {self.coords})"


def expand(s):
    """Coordinates of a simple vector: the d x d minors of its factors,
    each factor scaled to integers once and the product of the scales
    divided back out; rounded once on float input."""
    rows = [integer_row(f) for f in s.factors]
    scale = math.prod(q for _, q in rows)
    inexact = not all(is_exact(x) for f in s.factors for x in f)
    minors = _minors([ints for ints, _ in rows], s.ambient_dim)
    return ExteriorElement(s.ambient_dim, s.degree, {
        idx: rounded(Fraction(m, scale), inexact)
        for idx, m in minors.items() if m})


def _merge_sign(i_tuple, j_tuple):
    """Sign of sorting the concatenation of two disjoint sorted tuples.

    Returns (sign, merged tuple), or (0, None) on a repeated index.
    """
    if set(i_tuple) & set(j_tuple):
        return 0, None
    merged = i_tuple + j_tuple
    # count inversions between the two blocks
    inv = 0
    for a in i_tuple:
        for b in j_tuple:
            if a > b:
                inv += 1
    return (-1) ** inv, tuple(sorted(merged))


def wedge_elements(x, y):
    """Wedge product of two coordinate elements."""
    if x.ambient_dim != y.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = x.ambient_dim
    d = x.degree + y.degree
    if d > n:
        raise ValueError("degree overflow")
    coords = {}
    for i_idx, a in x.coords.items():
        for j_idx, b in y.coords.items():
            sgn, merged = _merge_sign(i_idx, j_idx)
            if sgn == 0:
                continue
            coords[merged] = coords.get(merged, 0) + sgn * a * b
    return ExteriorElement(n, d, coords)


def hodge_star(x, orientation=1):
    """Hodge star with respect to the volume form orientation * e_1^...^e_N.

    Defined by <a, b> = <vol, a ^ star(b)>; on basis elements this sends
    e_I to sgn(I, I^c) e_{I^c}.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    n = x.ambient_dim
    full = set(range(n))
    coords = {}
    for idx, c in x.coords.items():
        comp = tuple(sorted(full - set(idx)))
        sgn, _ = _merge_sign(idx, comp)
        coords[comp] = orientation * sgn * c
    return ExteriorElement(n, n - x.degree, coords)


def factorize_simple(elem):
    """Factors of a nonzero simple element x, exact on exact input: with J
    the index set of the largest |x_J|, factor i is +-x_{(J - j_i) + k},
    k = 0..N-1, the sign that of sorting k into the place of j_i.  These
    wedge to x_J^(d-1) x, so the first is divided by x_J^(d-1)."""
    n, d = elem.ambient_dim, elem.degree
    if d == 0:
        raise ValueError("degree-0 elements have no factor list")
    if not elem.coords:
        raise ValueError("the zero element has no factor list")
    top, xj = max(elem.coords.items(), key=lambda kv: abs(kv[1]))
    factors = []
    for i, ji in enumerate(top):
        rest = top[:i] + top[i + 1:]
        factors.append([
            (-1) ** sum(min(ji, k) < j < max(ji, k) for j in rest)
            * elem.coords.get(tuple(sorted(rest + (k,))), 0)
            for k in range(n)])
    scale = (Fraction(xj) if is_exact(xj) else xj) ** (d - 1)
    factors[0] = [c / scale for c in factors[0]]
    return SimpleVector(n, factors)
