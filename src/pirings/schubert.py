"""Young diagrams, Littlewood-Richardson coefficients and Schubert sampling.

The combinatorics here backs the decomposition of exterior powers of
R^k (x) R^m into spans of rotated Schubert simple vectors, and the
calibrated expected-degree pipeline for lines in projective 3-space
(the Grassmannian G(2,4) case, k = m = 2).  The functions that draw
import sampling when they are called, so the combinatorics (`schubert
lr`) never loads it, nor numpy with it.
"""

import itertools
import math


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


def lr_coefficients(lam, mu):
    """Littlewood-Richardson table: nu -> c^nu_{lam, mu}, one count per LR
    tableau of shape nu/lam and content mu, built value by value.

    The boxes of value v = 1, 2, ... extend the shape by a horizontal strip
    of mu_v boxes, chosen row by row from the top: row r gains at most
    shape[r-1] - shape[r] boxes.  The reverse reading word is a lattice
    word exactly when, down to each row, the v's number at most the
    (v-1)'s in the rows above it (Fulton, Young Tableaux, ch. 5).
    """
    lam, mu = as_diagram(lam), as_diagram(mu)
    table = {}

    def add(v, shape, gained):
        """Place the values v+1.. on shape; gained[r] counts row r's v's."""
        if v == len(mu):
            nu = YoungDiagram(shape)
            table[nu] = table.get(nu, 0) + 1
            return
        old, prev = shape + (0,), gained + (0,)

        def strip(r, rows, left, room):
            # room: the v's in the rows above r less the (v+1)'s there
            if not left:
                new = tuple(p for p in rows + old[r:] if p)
                add(v + 1, new, tuple(a - b for a, b in zip(new, old)))
            elif r < len(old):
                most = min(left, room, old[r - 1] - old[r] if r else left)
                for a in range(most + 1):
                    strip(r + 1, rows + (old[r] + a,), left - a,
                          room - a + prev[r])

        strip(0, (), mu[v], 0 if v else mu[0])  # the 1's have no bound

    add(0, lam.parts, (0,) * len(lam))
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


def mc_schubert_shape(lams, k, m, samples, seed, workers=1):
    """Monte-Carlo mean of ||h_1 v_1 ^ ... ^ h_s v_s|| over independent rotations.

    The norm is invariant under moving every factor by one rotation, so
    the diagram with the most boxes (the first of them on ties) is held
    at the identity, and the others are drawn as rotations modulo its
    coordinate span (SchubertSampler's `fixed`): each trial has the law
    of s independent rotations, with s - 1 of them drawn.  The drawn
    diagrams, the nonempty ones other than the fixed one, draw on slots
    0, 1, ... of the seed in order.  With none of them the wedge is the
    fixed unit vector, and every sample is 1.
    """
    from .sampling import (SamplerZonoid, SchubertSampler, mc_wedge_length,
                           run_blocks)
    lams = [as_diagram(l) for l in lams]
    if not lams:
        raise ValueError("mc_schubert_shape needs at least one diagram")
    if not all(l.fits(k, m) for l in lams):
        raise ValueError("diagram does not fit the rectangle")
    fixed = max(range(len(lams)), key=lambda i: lams[i].size)
    zs = [SamplerZonoid(1.0, SchubertSampler(l.parts, k, m, lams[fixed]))
          for i, l in enumerate(lams) if i != fixed and l.size]
    if not zs:
        return run_blocks(samples, seed, lambda b, size: (size, 1.0, 0.0, 1.0),
                          workers)
    return mc_wedge_length(zs, samples, seed, workers)


def rational_schubert(parts, k, m, rng, size):
    """size rotates of the Schubert vector of a diagram with integer
    coordinates: box (i, j) goes to P e_i (x) R f_j, each of P and R being
    (I - S) adj(I + S), det(I + S) times the Cayley rotation of a skew S
    with entries uniform on [-B, B], B = 4 k m (k + m).  It is the Y of
    exact.bareiss_solve(I + S, I - S); no pivot is zero, as the leading
    minors of I + S are at least 1, so D = det(I + S).
    """
    from .exact import bareiss_solve
    from .exterior import SimpleVector
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
    from .exact import P31
    from .exterior import laplace_plan
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
    from .exact import pivot_rows_mod_p
    from .exterior import SimpleVector, wedge_inner
    from .sampling import substream
    if k < 1 or m < 1:
        raise ValueError(f"k and m must be at least 1, got k={k}, m={m}")
    if not 0 <= d <= k * m:
        raise ValueError(f"d must be in [0, k*m] = [0, {k * m}], got {d}")
    if samples < 1:
        raise ValueError(
            f"samples must be at least 1 (--spans-samples), got {samples}")
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


def _ellipke(m):
    """(E(m), K(m)), the complete elliptic integrals of the second and
    first kind at parameter m in [0, 1], elementwise over an array m.

    Arithmetic-geometric mean (Abramowitz and Stegun 17.6): from a_0 = 1,
    b_0 = sqrt(1 - m), c_0 = sqrt(m), a_(n+1) = (a_n + b_n) / 2,
    b_(n+1) = sqrt(a_n b_n) and c_(n+1) = (a_n - b_n) / 2, K = pi / (2 a_N)
    and E = K (1 - sum_n 2^(n-1) c_n^2).  It stops once every c_N is below
    1e-9 a_N, after which a_N moves by less than a rounding error.  At
    m = 1, where the mean does not converge, E = 1 and K = inf.  The
    sequences are updated in place, so a call holds a few arrays the size
    of m at a time: m, a, b, c, the sum and one scratch array.
    """
    import numpy as np
    m = np.asarray(m, dtype=float)
    one = m == 1  # any b_0 > 0 runs there; those entries are set at the end
    a, tmp = np.ones_like(m), np.where(one, 0.5, 1 - m)
    b = np.sqrt(tmp)
    c, total, weight = np.empty_like(m), m / 2, 0.5
    while True:
        np.subtract(a, b, out=c)
        c /= 2              # c_(n+1)
        b *= a
        np.sqrt(b, out=b)   # b_(n+1)
        a -= c              # a_(n+1) = a_n - c_(n+1) = (a_n + b_n) / 2
        weight *= 2
        np.multiply(weight, c, out=tmp)
        tmp *= c
        total += tmp        # + weight c^2
        if np.all(c <= np.multiply(1e-9, a, out=tmp)):
            break
    k = np.divide(np.pi / 2, a, out=a)
    e = np.subtract(1, total, out=total)
    e *= k
    e[one], k[one] = 1.0, np.inf
    return e, k


def _circle_abs_mean(h1, h2):
    """E|q^T C r| for q and r independent and uniform on the unit circle,
    elementwise over arrays of matrices C = [[c00, c01], [c10, c11]], each
    given by its two hypotenuses |(c00 + c11, c01 - c10)| and
    |(c00 - c11, c01 + c10)|, in either order, as h1 and h2.

    With the singular values s_1 >= s_2 of C and the angles x, y of q and
    r in its singular bases, q^T C r = A cos(x - y) + B cos(x + y) up to
    sign, where A = (s_1 + s_2) / 2 and B = (s_1 - s_2) / 2, and x - y and
    x + y are again independent and uniform.  The mean over x - y is
    (2 / pi) (sqrt(A^2 - t^2) + t arcsin(t / A)) at t = B cos(x + y), and
    its mean over x + y is (4 A / pi^2) (2 E(m) - (1 - m) K(m)) with
    m = (B / A)^2: 8 A / pi^2 at m = 1 (det C = 0), and 0 at A = 0.
    2A and 2B are the larger and the smaller of h1 and h2, the lengths
    sqrt(|C|_F^2 +- 2 det C), each a hypotenuse, so nothing cancels and no
    SVD is needed.  The arrays are reused in place, as in _ellipke, h1
    among them.
    """
    import numpy as np
    a2, m = np.maximum(h1, h2), np.minimum(h1, h2, out=h1)  # 2A and 2B
    np.divide(m, a2, out=m, where=a2 > 0)  # B / A, and 0 where A = 0
    m *= m
    e, k = _ellipke(m)
    k[m == 1] = 0.0  # (1 - m) K(m) -> 0 as m -> 1
    k *= np.subtract(1, m, out=m)
    e *= 2
    e -= k
    e *= a2
    e *= 2 / np.pi ** 2
    return e


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
    constant.  E4 is the mean of |det[v_0; v_1; v_2; v_3]| for
    v_i = q_i (x) r_i, the box e_1 (x) f_1 moved by independent Haar
    pairs (q_i, r_i) on O(2) x O(2), in the coordinates
    (q (x) r)_(2a+b) = q_a r_b.  The determinant is invariant under a
    common rotation, so v_0 = e_1 (x) f_1, coordinate 0.  Expanding along
    it, det = w . v_3[1:] with w = v_1[1:] x v_2[1:], which is
    q_3^T C r_3 for C = [[0, w_0], [w_1, w_2]].  The last pair is averaged
    exactly (_circle_abs_mean), so each sample is that conditional mean;
    only v_1 and v_2 are drawn, slot s in {1, 2} of the seed drawing q_s
    and then r_s, one Haar column of O(2) each.  components holds the E4
    estimate.
    """
    from .sampling import (Estimate, block_stats, haar_orthogonal, run_blocks,
                           substream)
    # after sampling, so that its compile runs before numpy is loaded: the
    # process's peak memory then holds less at once
    import numpy as np

    def pair(slot, b, size):
        rng = substream(seed, slot, b)
        return [haar_orthogonal(2, rng, size, cols=1).T[0] for _ in range(2)]

    def block_fn(b, size):
        (q, r), (s, t) = pair(1, b, size), pair(2, b, size)
        # w = v_1[1:] x v_2[1:] for v_1 = q (x) r and v_2 = s (x) t, whose
        # coordinates 1 to 3 are (q_0 r_1, q_1 r_0, q_1 r_1):
        #   w_0 = q_1 s_1 (r_0 t_1 - r_1 t_0),
        #   w_1 = r_1 t_1 (q_1 s_0 - q_0 s_1),
        #   w_2 = q_0 r_1 s_1 t_0 - q_1 r_0 s_0 t_1.
        # Every row is read by two of them, so w_2 takes a new row; then
        # w_0 goes over r_0 and w_1 over t_0, which no later term reads,
        # with one more row for the partial products: 10 rows at the peak.
        w2 = q[0] * r[1]
        w2 *= s[1]
        w2 *= t[0]
        tmp = q[1] * r[0]
        tmp *= s[0]
        tmp *= t[1]
        w2 -= tmp
        w0, w1 = r[0], t[0]
        np.multiply(r[1], t[0], out=tmp)
        w0 *= t[1]
        w0 -= tmp
        w0 *= np.multiply(q[1], s[1], out=tmp)
        np.multiply(q[1], s[0], out=w1)
        w1 -= np.multiply(q[0], s[1], out=tmp)
        w1 *= np.multiply(r[1], t[1], out=tmp)
        del q, s
        # C = [[0, w_0], [w_1, w_2]] has the hypotenuses |(w_2, w_0 - w_1)|
        # and |(w_2, w_0 + w_1)|, written over r: the kernel reads only them
        np.subtract(w0, w1, out=tmp)
        w0 += w1
        np.hypot(w2, tmp, out=r[1])
        np.hypot(w2, w0, out=r[0])
        del t, w1, w2, tmp
        return block_stats(_circle_abs_mean(*r))

    e4 = run_blocks(samples, seed, block_fn, workers)
    scale = math.pi ** 6 / 128
    return Estimate(scale * e4.mean, scale * e4.std_error, samples, seed,
                    scale * e4.max_value, components={"E4": e4})
