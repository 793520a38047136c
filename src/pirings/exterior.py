"""Exterior algebra kernel over Euclidean R^N.

Simple (decomposable) elements are kept as lists of factor vectors, so
wedge norms and inner products come straight from Gram determinants.
General elements carry sparse coordinates indexed by sorted tuples of
basis indices (0-based).
"""

from fractions import Fraction
import itertools
import math
import operator

import numpy as np

from .exact import bareiss_det, exact_sqrt, is_exact

COORD_CAP = 10**6
DEFAULT_RANK_TOL = 1e-9


def dot(a, b):
    return sum(map(operator.mul, a, b))


def det(rows):
    """Determinant, exact when every entry is int/Fraction."""
    if all(is_exact(x) for row in rows for x in row):
        return bareiss_det(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def _check_cap(n, d):
    if math.comb(n, d) > COORD_CAP:
        raise ValueError(
            f"binom({n},{d}) exceeds the coordinate cap of {COORD_CAP}"
        )


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
    if a.degree == 0:
        return Fraction(1) if _all_exact(a) and _all_exact(b) else 1.0
    gram = [[dot(v, w) for w in b.factors] for v in a.factors]
    return det(gram)


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


def _all_exact(s):
    return all(is_exact(x) for f in s.factors for x in f)


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

    def norm(self):
        return exact_sqrt(sum(c * c for c in self.coords.values()))

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
    """Coordinates of a simple vector: d x d minors of the factor matrix."""
    n, d = s.ambient_dim, s.degree
    _check_cap(n, d)
    if d == 0:
        one = Fraction(1) if _all_exact(s) else 1.0
        return ExteriorElement(n, 0, {(): one})
    coords = {}
    for idx in itertools.combinations(range(n), d):
        minor = [[s.factors[r][i] for i in idx] for r in range(d)]
        val = det(minor)
        if val != 0:
            coords[idx] = val
    return ExteriorElement(n, d, coords)


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


def span_rank(vs, rel_tol=DEFAULT_RANK_TOL):
    """Numeric rank of the span of simple vectors, via expanded coordinates."""
    vs = list(vs)
    if not vs:
        return 0
    n, d = vs[0].ambient_dim, vs[0].degree
    for v in vs:
        if v.ambient_dim != n or v.degree != d:
            raise ValueError("mixed ambient dimension or degree")
    _check_cap(n, d)
    keys = list(itertools.combinations(range(n), d))
    key_pos = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(vs), len(keys)))
    for r, v in enumerate(vs):
        for idx, c in expand(v).coords.items():
            mat[r, key_pos[idx]] = float(c)
    return rank_of_matrix(mat, rel_tol)


def rank_of_matrix(mat, rel_tol=DEFAULT_RANK_TOL):
    """Rank by SVD; singular values below rel_tol * sigma_max count as zero."""
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if len(sv) == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def factorize_simple(elem):
    """Recover a simple-vector factorization from coordinates.

    Returns a SimpleVector s with expand(s) equal to elem up to float
    error.  Only valid for elements that really are simple; used by the
    Hodge dual of zonoid atoms, where simplicity is guaranteed.
    """
    n, d = elem.ambient_dim, elem.degree
    if d == 0:
        raise ValueError("degree-0 elements have no factor list")
    if d == n:
        # scalar multiple of the volume form
        c = elem.coords.get(tuple(range(n)), 0)
        basis = [[Fraction(1) if i == j else Fraction(0) for i in range(n)]
                 for j in range(n)]
        basis[0] = [c * x for x in basis[0]]
        return SimpleVector(n, basis)
    # the span of a simple element x is the kernel of v -> v ^ x
    cols = []
    for j in range(n):
        ej = ExteriorElement(n, 1, {(j,): 1})
        w = wedge_elements(ej, elem)
        col = np.zeros(math.comb(n, d + 1))
        keys = list(itertools.combinations(range(n), d + 1))
        pos = {k: i for i, k in enumerate(keys)}
        for idx, c in w.coords.items():
            col[pos[idx]] = float(c)
        cols.append(col)
    mat = np.array(cols).T  # maps R^n -> Lambda^{d+1}
    u, sv, vt = np.linalg.svd(mat)
    # kernel basis: rows of vt with the d smallest singular values
    basis = vt[n - d:, :]
    s = SimpleVector(n, [tuple(row) for row in basis])
    e = expand(s)
    scale2 = sum(float(c) ** 2 for c in e.coords.values())
    if scale2 == 0:
        raise ValueError("element is zero or not simple")
    # align scale and sign with the target element
    proj = sum(float(e.coords.get(k, 0.0)) * float(c)
               for k, c in elem.coords.items())
    factor = proj / scale2
    first = [factor * x for x in basis[0]]
    return SimpleVector(n, [tuple(first)] + [tuple(r) for r in basis[1:]])
