"""Young diagrams, Littlewood-Richardson coefficients and Schubert sampling.

The combinatorics here backs the decomposition of exterior powers of
R^k (x) R^m into spans of rotated Schubert simple vectors, and the
calibrated expected-degree pipeline for lines in projective 3-space
(the Grassmannian G(2,4) case, k = m = 2).
"""

from fractions import Fraction
import itertools
import math

from .exact import P31, bareiss_solve, pivot_rows_mod_p
from .exterior import SimpleVector, laplace_plan, wedge_inner
from .sampling import (
    Estimate,
    FixedSampler,
    SamplerZonoid,
    SchubertSampler,
    mc_wedge_length,
    substream,
)


class YoungDiagram:
    """A partition: weakly decreasing positive parts, trailing zeros dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i] if i < len(self.parts) else 0

    def __eq__(self, other):
        if isinstance(other, YoungDiagram):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self == YoungDiagram(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __le__(self, other):
        """Containment of diagrams."""
        return all(self[i] <= other[i] for i in range(len(self)))

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"YoungDiagram{self.parts}"

    def fits(self, k, m):
        return len(self.parts) <= k and (not self.parts or self.parts[0] <= m)

    def boxes(self):
        return [(i, j) for i, p in enumerate(self.parts) for j in range(p)]


def as_diagram(x):
    return x if isinstance(x, YoungDiagram) else YoungDiagram(x)


def transpose(lam):
    lam = as_diagram(lam)
    if not lam.parts:
        return YoungDiagram()
    return YoungDiagram(
        [sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0])])


def dual(lam, k, m):
    """Complement of the diagram in the k x m rectangle, rotated 180 degrees."""
    lam = as_diagram(lam)
    if not lam.fits(k, m):
        raise ValueError("diagram does not fit the rectangle")
    return YoungDiagram([m - lam[k - 1 - i] for i in range(k)])


def outer_corners(lam):
    """Corners (row, column count) where a box can be removed, 1-based rows."""
    lam = as_diagram(lam)
    out = []
    for i, p in enumerate(lam.parts):
        if p > lam[i + 1]:
            out.append((i + 1, p))
    return out


def v_lambda(lam, k, m):
    """The coordinate Schubert simple vector: wedge of e_i (x) f_j over boxes."""
    lam = as_diagram(lam)
    if not lam.fits(k, m):
        raise ValueError("diagram does not fit the rectangle")
    factors = []
    for i, j in lam.boxes():
        vec = [Fraction(0)] * (k * m)
        vec[i * m + j] = Fraction(1)
        factors.append(vec)
    return SimpleVector(k * m, factors)


def _lr_fillings(outer, inner, content):
    """Count LR skew tableaux of shape outer/inner with the given content.

    Fillings are column-strict down, weakly increasing along rows, and
    the reverse reading word is a lattice word.
    """
    rows = len(outer)
    cells = []
    for i in range(rows):
        lo = inner[i] if i < len(inner) else 0
        for j in range(lo, outer[i]):
            cells.append((i, j))
    # reading order: rows top to bottom, right to left, so the lattice
    # condition can be checked incrementally
    cells.sort(key=lambda c: (c[0], -c[1]))
    nvals = len(content)
    remaining = list(content)
    grid = {}
    count = 0

    def place(pos, counts):
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        i, j = cells[pos]
        for v in range(nvals):
            if remaining[v] == 0:
                continue
            # lattice word: value v+1 may not outnumber value v so far
            if v > 0 and counts[v] + 1 > counts[v - 1]:
                continue
            left = grid.get((i, j + 1))  # right neighbour, read earlier
            if left is not None and v > left:
                continue
            up = grid.get((i - 1, j))
            if up is not None and v <= up:
                continue
            grid[(i, j)] = v
            remaining[v] -= 1
            counts[v] += 1
            place(pos + 1, counts)
            counts[v] -= 1
            remaining[v] += 1
            del grid[(i, j)]

    place(0, [0] * nvals)
    return count


def lr_coefficients(lam, mu):
    """Littlewood-Richardson table: nu -> c^nu_{lam, mu}, by tableau count."""
    lam, mu = as_diagram(lam), as_diagram(mu)
    total = lam.size + mu.size
    rows_max = len(lam) + len(mu)
    cols_max = lam[0] + mu[0] if total else 0
    table = {}
    for nu_parts in _partitions(total, rows_max, cols_max):
        nu = YoungDiagram(nu_parts)
        if not lam <= nu:
            continue
        c = _lr_fillings(nu.parts, lam.parts, mu.parts)
        if c:
            table[nu] = c
    return table


def _partitions(total, max_rows, max_part):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        if max_rows == 0:
            return
        for rest in _partitions(total - first, max_rows - 1, first):
            yield (first,) + rest


def lr_set(lam, mu, k, m):
    """Diagrams nu inside the k x m rectangle with c^nu_{lam, mu} > 0."""
    return {nu for nu in lr_coefficients(lam, mu) if nu.fits(k, m)}


def schur_dim(lam, k):
    """Dimension of the Schur module S_lam(C^k), hook-content formula."""
    lam = as_diagram(lam)
    if len(lam) > k:
        return 0
    num, den = 1, 1
    tr = transpose(lam)
    for i, j in lam.boxes():
        num *= k + j - i
        den *= (lam[i] - j) + (tr[j] - i) - 1  # hook length
    return num // den


def span_dim(lam, k, m):
    """Real dimension of the span of the rotated Schubert vectors for lam."""
    lam = as_diagram(lam)
    return schur_dim(lam, k) * schur_dim(transpose(lam), m)


def duality_nonvanishing(lam, mu, k, m):
    """Whether complementary Schubert classes pair nontrivially.

    True exactly when mu is the dual (rotated complement) of lam;
    cross-checked against the LR rule producing the full rectangle.
    """
    lam, mu = as_diagram(lam), as_diagram(mu)
    if lam.size + mu.size != k * m:
        raise ValueError("diagrams are not complementary in size")
    is_dual = mu == dual(lam, k, m)
    rect = YoungDiagram([m] * k)
    via_lr = rect in lr_set(lam, mu, k, m)
    if is_dual != via_lr:
        raise AssertionError("duality criteria disagree")
    return is_dual


def mc_schubert_shape(lams, k, m, samples, seed, workers=1):
    """Monte-Carlo mean of ||h_1 v_1 ^ ... ^ h_s v_s|| over independent rotations.

    Diagram i draws its rotations from slot i of the seed.
    """
    zs = [SamplerZonoid(1.0, SchubertSampler(as_diagram(l).parts, k, m))
          for l in lams]
    return mc_wedge_length(zs, samples, seed, workers)


def rational_schubert(parts, k, m, rng, size):
    """size rotates of the Schubert vector of a diagram with integer
    coordinates: box (i, j) goes to P e_i (x) R f_j, each of P and R being
    (I - S) adj(I + S), det(I + S) times the Cayley rotation of a skew S
    with entries uniform on [-B, B], B = 4 k m (k + m).  It is the Y of
    exact.bareiss_solve(I + S, I - S); no pivot is zero, as the leading
    minors of I + S are at least 1, so D = det(I + S).
    """
    lam = as_diagram(parts)
    if not lam.fits(k, m):
        raise ValueError("diagram does not fit the rectangle")
    box = 4 * k * m * (k + m)
    rotations = []
    for n, cols in ((k, len(lam)), (m, lam[0])):
        pairs = list(itertools.combinations(range(n), 2))
        out = []
        for skew in rng.integers(-box, box + 1, (size, len(pairs))).tolist():
            a = [[int(i == j) for j in range(n)] for i in range(n)]
            b = [row[:] for row in a]
            for (i, j), x in zip(pairs, skew):
                a[i][j], a[j][i], b[i][j], b[j][i] = x, -x, -x, x
            _, y = bareiss_solve(a, b)
            out.append(list(zip(*y))[:cols])  # the first cols columns
        rotations.append(out)
    return [SimpleVector(k * m, [[x * y for x in p[i] for y in r[j]]
                                 for i, j in lam.boxes()])
            for p, r in zip(*rotations)]


def _plucker_residues(vectors):
    """Pluecker coordinates mod P31 of a list of simple vectors of one
    shape with integer factors: a (samples, C(N, d)) int64 array over the
    index sets in lexicographic order.  The minors of the first r factors
    come from those of the first r - 1 by Laplace expansion along factor
    r (exterior.laplace_plan), over all samples at once, with every
    product of residues reduced."""
    import numpy as np
    n, d = vectors[0].ambient_dim, vectors[0].degree
    factors = np.array([v.factors for v in vectors], dtype=object)
    factors = (factors.reshape(len(vectors), d, n) % P31).astype(np.int64)
    minors = np.ones((len(vectors), 1), dtype=np.int64)
    for r in range(1, d + 1):
        minors = sum(s * (factors[:, r - 1, cols] * minors[:, parents] % P31)
                     for s, cols, parents in laplace_plan(n, r)) % P31
    return minors


def verify_span_decomposition(k, m, d, samples=200, seed=0):
    """Check the orthogonal decomposition of degree-d wedges of R^k (x) R^m.

    Draws rational orbits of each Schubert vector of size d
    (rational_schubert) and compares the ranks of their Pluecker rows mod
    P31 to the Schur dimensions, checks cross-orbit orthogonality with
    exact Gram determinants (by Cauchy-Binet, the dot products of the
    integer Pluecker rows) between the pivot samples (a basis) of the
    orbits, and compares wedge-span ranks to the LR prediction.  A rank
    over GF(2^31 - 1) is never above the rank over Q, which is never above
    the Schur or LR dimension, so a match proves both.  A coordinate of at
    most k m boxes has degree at most k m (k + m) < (2B + 1) / 8 in the
    skew entries, so by Schwartz-Zippel N draws whose span has dimension r
    fall short of rank r with probability at most C(N, r-1) 8^(r-1-N);
    as a rank over N draws is at most N, a budget N below the largest
    expected dimension r is refused before anything is drawn.
    The prime only adds the chance that a nonzero minor of the true rank
    vanishes mod P31: a rank that reads short, a visible failure and never
    a false pass.
    """
    if k < 1 or m < 1:
        raise ValueError(f"k and m must be at least 1, got k={k}, m={m}")
    if not 0 <= d <= k * m:
        raise ValueError(f"d must be in [0, k*m] = [0, {k * m}], got {d}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    diagrams = [YoungDiagram(p) for p in _partitions(d, k, m)]
    wedges = {(a, b): sum(span_dim(nu, k, m) for nu in lr_set(a, b, k, m))
              for a, b in itertools.combinations_with_replacement(diagrams, 2)
              if a.size + b.size <= k * m}
    need = max([*wedges.values(), *(span_dim(lam, k, m) for lam in diagrams)])
    report = {"k": k, "m": m, "d": d, "orbits": {}, "wedges": {}, "ok": True}
    # every draw uses the one key seed, on its own slot
    slots = itertools.count()

    def draw(lam):
        rng = substream(seed, next(slots))  # a bad seed is reported first
        if samples < need:
            raise ValueError(f"samples must be at least {need}, the largest "
                             f"expected rank (--spans-samples), got {samples}")
        return rational_schubert(lam.parts, k, m, rng, samples)

    def record(group, key, rank, expected):
        report[group][key] = {
            "rank": rank, "expected": expected, "match": rank == expected}
        report["ok"] &= rank == expected

    basis = {}
    for lam in diagrams:
        orbit = draw(lam)
        basis[lam] = [orbit[i]
                      for i in pivot_rows_mod_p(_plucker_residues(orbit))]
        record("orbits", str(lam.parts), len(basis[lam]), span_dim(lam, k, m))
    total = sum(span_dim(lam, k, m) for lam in diagrams)
    report["total"] = {"sum": total, "ambient": math.comb(k * m, d),
                       "match": total == math.comb(k * m, d)}
    report["ok"] &= report["total"]["match"]
    report["max_cross_inner"] = int(max(
        (abs(wedge_inner(x, y)) for a, b in itertools.combinations(diagrams, 2)
         for x in basis[a] for y in basis[b]), default=0))
    report["orthogonal"] = report["max_cross_inner"] == 0
    report["ok"] &= report["orthogonal"]
    # wedge spans: rank of sampled V_lam ^ V_mu should match the LR sum
    for (a, b), expected in wedges.items():
        rank = len(pivot_rows_mod_p(_plucker_residues(
            [SimpleVector(k * m, va.factors + vb.factors)
             for va, vb in zip(draw(a), draw(b))])))
        record("wedges", f"{a.parts}^{b.parts}", rank, expected)
    return report


def edeg22_calibrated(samples, seed, workers=1):
    """Calibrated expected degree for four random Schubert conditions on G(2,4).

    The unknown cell and group volumes cancel in the combination
    E4 * sqrt(D11 * D22) / (D3 * D4), where each factor is a shape
    expectation: E4 over four single-box conditions, D11/D22 over the
    two self-dual pairs, D3/D4 over a complementary pair plus two boxes.
    Four of the five factors are known constants:

    - D11 = D22 = 1/2.  The (1,1) Schubert plane is R^2 (x) f, which
      O(2) on the first factor fixes.  The wedge of R^2 (x) f with
      R^2 (x) R_theta f has norm sin^2(theta), whose Haar mean is 1/2.
      D22 follows by transposing the two factors.
    - D3 = D4 = 8/pi^3.  Rotate the (1,1) plane to R^2 (x) f and take f'
      orthogonal to f.  Modulo that plane the two boxes q (x) r and
      q' (x) r' become (r.f') q (x) f' and (r'.f') q' (x) f', so the norm
      is |r.f'| |r'.f'| |det[q q']|, a product of three independent
      factors each of mean 2/pi.  D4 follows by transposing.

    So the expected degree is E4 * (1/2) / (8/pi^3)^2 = (pi^6/128) * E4,
    and only E4 is estimated; its standard error scales by the same
    constant.  E4 is the mean norm of g_1 v ^ g_2 v ^ g_3 v ^ g_4 v for
    v = e_1 (x) f_1 and independent Haar g_i on O(2) x O(2).  That norm
    is invariant under a common rotation, so g_1 is taken to be the
    identity (the g_1^-1 g_i are again independent and Haar): slot 0 of
    the seed holds v fixed and draws nothing, and slots 1 to 3 draw the
    three rotations.  components holds the E4 estimate.
    """
    # v = e_1 (x) f_1, coordinate 0 of R^2 (x) R^2
    fixed = SamplerZonoid(1.0, FixedSampler([[1.0, 0.0, 0.0, 0.0]]))
    rotated = SamplerZonoid(1.0, SchubertSampler((1,), 2, 2))
    e4 = mc_wedge_length([fixed] + [rotated] * 3, samples, seed, workers)
    scale = math.pi ** 6 / 128
    return Estimate(scale * e4.mean, scale * e4.std_error, samples, seed,
                    scale * e4.max_value, components={"E4": e4})


def asymptotic_edeg2(m):
    """Leading-term asymptotic of the expected degree of G(2, m+2)."""
    if m < 1:
        raise ValueError("m must be positive")
    return (2.0 / 3.0) / math.sqrt(math.pi) * (math.pi ** 2 / 4.0) ** m \
        / math.sqrt(m)
