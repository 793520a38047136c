"""Exterior algebra kernel over Euclidean R^N.

Simple (decomposable) elements are kept as lists of factor vectors, so
wedge norms and inner products come straight from Gram determinants.
General elements carry sparse coordinates indexed by sorted tuples of
basis indices (0-based).

Every determinant is exact: exact.bareiss_det for Gram determinants, and
for coordinates one Laplace recursion (laplace_step) over the factors
scaled to integers, which the zonoid engine and the span checks (mod P31)
share; a result is rounded once to a float on float input.
"""

from fractions import Fraction
import functools
import itertools
import math
import operator

from .exact import bareiss_det, exact_sqrt, integer_row, is_exact, rounded

COORD_CAP = 10**6


def dot(a, b):
    return sum(map(operator.mul, a, b))


@functools.cache
def laplace_plan(n, r):
    """Laplace expansion of r x r minors along the last row, as (sign,
    cols, parents) for t = r - 1, ..., 0: over the r-subsets S of range(n)
    in lexicographic order, cols lists s_t, parents the position of
    S - {s_t} among the (r - 1)-subsets, and sign is (-1)^(r - 1 - t)."""
    sets = list(itertools.combinations(range(n), r))
    index = {s: i for i, s in
             enumerate(itertools.combinations(range(n), r - 1))}
    return tuple(((-1) ** (r - 1 - t), [s[t] for s in sets],
                  [index[s[:t] + s[t + 1:]] for s in sets])
                 for t in reversed(range(r)))


def laplace_step(minors, row, r):
    """The C(n, r) minors of r integer rows from the C(n, r - 1) minors of
    the first r - 1 and the last row, n = len(row); lexicographic order."""
    (_, cols, parents), *rest = laplace_plan(len(row), r)
    out = [row[c] * minors[p] for c, p in zip(cols, parents)]
    for sign, cols, parents in rest:
        x = row if sign > 0 else [-y for y in row]
        out = [o + x[c] * minors[p] for o, c, p in zip(out, cols, parents)]
    return out


def cofactors(minors, n):
    """The signed cofactors c of n - 1 rows from their C(n, n - 1) minors:
    dot(c, row) is the one minor of laplace_step(minors, row, n)."""
    return [sign * minors[p] for sign, _, (p,) in reversed(laplace_plan(n, n))]


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
    if (a.ambient_dim, a.degree) != (b.ambient_dim, b.degree):
        raise ValueError(f"shape mismatch: (N, d) = {a.ambient_dim, a.degree}"
                         f" and {b.ambient_dim, b.degree}")
    gram = [[dot(v, w) for w in b.factors] for v in a.factors]
    return bareiss_det(gram)


def wedge_norm(parts):
    """Norm of the wedge of all the factors of the given simple vectors."""
    parts = list(parts)
    if not parts:
        return 1
    if len(dims := {p.ambient_dim for p in parts}) > 1:
        raise ValueError("ambient dimension mismatch")
    s = SimpleVector(dims.pop(), [f for p in parts for f in p.factors])
    return exact_sqrt(wedge_inner(s, s))


class ExteriorElement:
    """Sparse element of Lambda^d(R^N), coordinates over sorted index tuples."""

    __slots__ = ("ambient_dim", "degree", "coords")

    def __init__(self, ambient_dim, degree, coords=None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        merged = {}
        for idx, c in (coords or {}).items():
            idx = tuple(sorted(idx))
            if len(idx) != degree or len(set(idx)) != degree:
                raise ValueError("bad index set")
            if any(i < 0 or i >= ambient_dim for i in idx):
                raise ValueError("index out of range")
            merged[idx] = merged.get(idx, 0) + c
        self.coords = {k: v for k, v in merged.items() if v != 0}

    def inner(self, other):
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch")
        keys = self.coords.keys() & other.coords.keys()
        return sum(self.coords[k] * other.coords[k] for k in keys)

    def scale(self, a):
        return ExteriorElement(self.ambient_dim, self.degree,
                               {k: a * v for k, v in self.coords.items()})

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
    """Coordinates of a simple vector: the minors of its factors scaled to
    integers, one laplace_step each, over the product of the scales and
    rounded once on float input.  The cap bounds the widest step."""
    n, d = s.ambient_dim, s.degree
    if math.comb(n, r := min(d, n // 2)) > COORD_CAP:
        raise ValueError(
            f"binom({n},{r}) exceeds the coordinate cap of {COORD_CAP}")
    minors, scale = [1], 1
    for r, f in enumerate(s.factors, 1):
        ints, q = integer_row(f)
        minors, scale = laplace_step(minors, ints, r), scale * q
    inexact = not all(is_exact(x) for f in s.factors for x in f)
    return ExteriorElement(n, d, {
        idx: rounded(Fraction(m, scale), inexact)
        for idx, m in zip(itertools.combinations(range(n), d), minors) if m})


def _merge_sign(i_tuple, j_tuple):
    """(sign, merged tuple) of sorting the concatenation of two disjoint
    sorted tuples, the sign (-1)^(inversions between the blocks); (0, None)
    on a repeated index."""
    if set(i_tuple) & set(j_tuple):
        return 0, None
    inv = sum(a > b for a in i_tuple for b in j_tuple)
    return (-1) ** inv, tuple(sorted(i_tuple + j_tuple))


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
            if sgn:
                coords[merged] = coords.get(merged, 0) + sgn * a * b
    return ExteriorElement(n, d, coords)


def hodge_star(x):
    """Hodge star with respect to the volume form e_1^...^e_N.

    Defined by <a, b> = <vol, a ^ star(b)>; on basis elements this sends
    e_I to sgn(I, I^c) e_{I^c}.
    """
    n = x.ambient_dim
    full = set(range(n))
    coords = {}
    for idx, c in x.coords.items():
        comp = tuple(sorted(full - set(idx)))
        coords[comp] = _merge_sign(idx, comp)[0] * c
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
