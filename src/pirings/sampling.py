"""Seeded samplers and Monte-Carlo estimators for zonoid wedge lengths.

Reproducibility contract: each (seed, estimator slot, block of trials)
triple gets its own SFC64 generator, seeded by numpy's SeedSequence with
(slot, block) as its spawn key.  Trials are processed in fixed-size
blocks, so the result is bit-identical regardless of how the blocks are
scheduled across workers.

A block is batch-last: trial s of a block of d vectors in R^N is column
s of a (d, N, size) array.  Each sampler fills its own rows of that
array in place, and one Gram-Schmidt pass over it gives both the Haar
draws (its Q) and the wedge norms (the product of the norms it divides
by).  Gaussians come from numpy's ziggurat implementation, and a Haar
draw makes only the Gaussian columns that it returns.  A Gaussian factor
of a wedge has no rows in the block: its residual after the other rows
is a standard Gaussian in their orthogonal complement, so its norm is a
chi variable, and two consecutive Gaussian factors together draw one
Gamma variate per trial.

The Tasaki kernel's sampler draws only the 2 x 2 corner of its Haar
unitary, with the rest of the two Gaussian columns carried by one
normal and two Gamma variates (_unitary_corner).

numpy is imported inside the functions that build arrays, not at module
level, so that the commands of the CLI that import this module but draw
nothing (`schubert lr`, through schubert) start without it.  Each
estimator imports it, and the CLI loads every package module that a
command calls, on the calling thread before run_blocks starts any
other worker.
"""

import math
import numbers

BLOCK = 1 << 13
DEFAULT_Z = 3.0


def _check_seed(seed):
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def substream(seed, slot, block=0):
    """Independent generator for the given (seed, slot, block) triple.

    Raises ValueError unless seed is a non-negative integer.
    """
    _check_seed(seed)
    import numpy as np
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(int(seed), spawn_key=(slot, block))))


class Estimate:
    """A Monte-Carlo mean with its standard error.

    max_value, the largest sample, takes no part in ==; components holds
    the estimates this one is combined from, by name.  A plain class
    rather than a dataclass: importing dataclasses pulls in inspect, ast
    and dis, which every command would pay for at start-up.
    """

    __slots__ = ("mean", "std_error", "samples", "seed", "max_value",
                 "components")

    def __init__(self, mean, std_error, samples, seed, max_value=None,
                 components=None):
        self.mean = mean
        self.std_error = std_error
        self.samples = samples
        self.seed = seed
        self.max_value = max_value
        self.components = {} if components is None else components

    def _compared(self):
        return (self.mean, self.std_error, self.samples, self.seed,
                self.components)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"Estimate({fields})"

    def ci(self, z=DEFAULT_Z):
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)

    def to_json(self, z=DEFAULT_Z):
        lo, hi = self.ci(z)
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "z": z,
            "ci": [lo, hi],
        }


def _gram_schmidt(v, pairs=False):
    """Orthonormalise the columns v[0], v[1], ... in place, batched.

    v has shape (c, N, *batch): column j of every matrix in the batch is
    v[j], so each step runs over the whole batch at once.  Returns
    (v, norms): v then holds the Q of the thin QR factorisation with
    diag(R) > 0, and norms, of shape batch, is the product of diag(R),
    which is the wedge norm ||v_0 ^ ... ^ v_(c-1)|| of the input
    columns (1 when c = 0).  Each column is orthogonalised against the
    earlier ones twice (classical Gram-Schmidt with reorthogonalisation,
    "twice is enough"), which keeps Q^T Q = I to rounding for any
    numerically nonsingular input; the norm product is off by a few
    N c eps times the product of the column norms (Hadamard's bound).
    A column that is exactly dependent on the earlier ones stays 0 and
    makes the product 0.

    With pairs=True, v holds realified complex columns in its even slots
    (interleaved real and imaginary parts); each odd slot is filled with
    i times the column before it.  Real Gram-Schmidt on g_0, i g_0, g_1,
    i g_1, ... is complex Gram-Schmidt on g_0, g_1, ...: projecting onto
    the real span of q_k and i q_k is the complex projection onto q_k,
    and i q_j is orthogonal to q_j already.  norms is then the product
    over the even slots only.
    """
    import numpy as np
    norms = np.ones(v.shape[2:])
    for j in range(0, v.shape[0], 2 if pairs else 1):
        for _ in range(2 if j else 0):
            coef = np.einsum("ki...,i...->k...", v[:j], v[j])
            v[j] -= np.einsum("ki...,k...->i...", v[:j], coef)
        norm = np.sqrt(np.einsum("i...,i...->...", v[j], v[j]))
        v[j] /= np.where(norm > 0, norm, 1.0)
        norms *= norm
        if pairs:
            np.negative(v[j, 1::2], out=v[j + 1, 0::2])
            v[j + 1, 1::2] = v[j, 0::2]
    return v, norms


def _check_cols(n, cols):
    cols = n if cols is None else cols
    if not 0 <= cols <= n:
        raise ValueError(f"cols must lie in [0, {n}], got {cols}")
    return cols


def haar_orthogonal(n, rng, size, cols=None):
    """The first `cols` columns (default all n) of Haar orthogonal matrices.

    Returns a (size, n, cols) array, the transposed view of a batch-last
    (cols, n, size) array, which .T gives back.  Only the n * cols
    Gaussians that those columns read are drawn, in that batch-last
    order.  Gram-Schmidt of the Gaussian columns is the Q factor of QR
    with the signs of diag(R) made positive, which is Haar distributed
    (Mezzadri 2007), and its first cols columns depend only on the first
    cols Gaussian columns.
    """
    cols = _check_cols(n, cols)
    return _gram_schmidt(rng.standard_normal((cols, n, size)))[0].T


def haar_unitary_realified(n, rng, size, cols=None):
    """Realified first `cols` columns (default all n) of Haar unitaries.

    U acts on C^n = R^(2n) with interleaved real and imaginary parts, so
    the result has 2 * cols real columns: those of U e_j and U (i e_j) for
    j < cols.  As for haar_orthogonal, the result is the transposed view
    of a batch-last array, and only the 2n * cols Gaussians of the
    returned complex columns are drawn, each column as 2n interleaved
    real and imaginary parts.  The Gram-Schmidt Q is QR's Q with the
    phases of diag(R) removed (Mezzadri 2007).
    """
    import numpy as np
    cols = _check_cols(n, cols)
    v = np.empty((2 * cols, 2 * n, size))
    v[0::2] = rng.standard_normal((cols, 2 * n, size))
    return _gram_schmidt(v, pairs=True)[0].T


class GaussianSampler:
    """Standard Gaussian vector in R^N (degree 1).

    It has no draw: mc_wedge_length draws the chi norm of its residual
    instead of its N coordinates.
    """

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.degree = 1


class SchubertSampler:
    """Random rotate of the coordinate Schubert simple vector in R^(k m),
    modulo the coordinate Schubert vector of a `fixed` diagram.

    Draws (Q, R) Haar on O(k) x O(m) and wedges Q e_i (x) R f_j over the
    boxes of the diagram, row-major, in the coordinates
    (q (x) r)_(a m + b) = q_a r_b.  A full row (parts[i] == m) spans
    q_i (x) R^m whatever R is, so it takes f_j in place of R f_j, which
    changes the wedge by det R = +-1 only.  Only the columns the boxes
    touch are computed: len(parts) of Q, and of R the first part below m
    (none when every row is full).  The coordinates of the
    boxes (a, b) of `fixed` (none by default) are left out, so each row is
    projected onto the orthogonal complement of the fixed diagram's span,
    of dimension ambient_dim = k m - |fixed|: wedged with the fixed
    vector, the rows have the norm that the projected rows have alone.
    """

    def __init__(self, parts, k, m, fixed=()):
        parts = tuple(p for p in parts if p > 0)
        fixed = tuple(p for p in fixed if p > 0)
        if any(len(d) > k or any(p > m for p in d) for d in (parts, fixed)):
            raise ValueError("diagram does not fit the rectangle")
        self.parts = parts
        self.k = k
        self.m = m
        self.full = sum(p == m for p in parts)  # the full rows come first
        self.ambient_dim = k * m - sum(fixed)
        self.degree = sum(parts)
        self.boxes = [(i, j) for i, p in enumerate(parts) for j in range(p)]
        # Row a keeps the columns from fixed[a] on.  Consecutive rows that
        # keep the same columns are one block of the kept coordinates:
        # (first row, end row, first column, first and end coordinate).
        fixed += (0,) * (k - len(fixed))
        self.runs, col = [], 0
        for a in range(k):
            if fixed[a] < m and (a == 0 or fixed[a] != fixed[a - 1]):
                end = next((e for e in range(a, k) if fixed[e] != fixed[a]), k)
                width = (end - a) * (m - fixed[a])
                self.runs.append((a, end, fixed[a], col, col + width))
                col += width

    def draw(self, rng, out):
        """Fill out, a C-contiguous (degree, N, size) block, one trial
        per last-axis entry; every sampler's draw has this form."""
        import numpy as np
        size = out.shape[-1]
        q = haar_orthogonal(self.k, rng, size, cols=len(self.parts)).T
        full = self.full
        r = haar_orthogonal(self.m, rng, size, cols=self.parts[full]
                            if full < len(self.parts) else 0).T
        f = np.eye(self.m)[:, :, None]
        # row b of out holds the kept entries of the k x m matrix q_i r_j^T
        for b, (i, j) in enumerate(self.boxes):
            r_j = f[j] if i < full else r[j]
            for a, end, c, lo, hi in self.runs:
                np.multiply(q[i][a:end, None], r_j[c:], out=out[b, lo:hi]
                            .reshape(end - a, self.m - c, size))


def _unitary_corner(n, rng, size):
    """The 2 x 2 corner A (first two rows and columns) of size Haar
    unitaries of U(n), n >= 2, as a batch-last (2, 4, size) array whose
    [c] holds column c of A: the real and imaginary parts of its first
    entry, then of its second.

    A is that corner of the Gram-Schmidt Q of an n x 2 complex Gaussian G
    (Mezzadri 2007), and each column of G is carried as its two head
    coordinates plus what Gram-Schmidt reads of its n - 2 tail ones:
    - the first tail t_1 only through its squared norm, 2 Gamma(n - 2);
    - the second tail t_2 through w, its coordinate along t_1 / |t_1|,
      and its squared norm orthogonal to t_1, 2 Gamma(n - 3).  The
      coordinates of a Gaussian vector in a basis chosen independently
      of it are again independent Gaussians (Edelman and Rao 2005), so w
      is a standard complex normal.
    With u = g_1 / |g_1|, the projection c = <u, g_2> is the head inner
    product plus |u_tail| w, and the residual g_2 - c u has the tail
    coordinate w - c |u_tail| along t_1, and the Gamma part besides.  The
    heads are drawn first, as the (2, 4, size) standard normals that
    haar_unitary_realified(2, rng, size, cols=2) draws, so at n = 2,
    which has no tail, the two agree up to rounding.
    """
    import numpy as np
    # the draws and every intermediate are rows of one array, updated in
    # place: a block makes no other allocation, so its memory stays small
    # and malloc reuses it from block to block
    work = np.empty((15, size))
    g = work[:8].reshape(2, 4, size)
    u, a = g
    tail, norm, c_re, c_im, tmp = work[8:13]
    w = work[13:]
    rng.standard_normal(out=g)
    np.einsum("is,is->s", u, u, out=norm)
    if n > 2:
        rng.standard_gamma(n - 2, out=tail)
        tail *= 2
        norm += tail
        rng.standard_normal(out=w)
    np.sqrt(norm, out=norm)
    u /= norm
    np.einsum("is,is->s", u, a, out=c_re)
    np.einsum("ks,ks->s", u[0::2], a[1::2], out=c_im)
    c_im -= np.einsum("ks,ks->s", u[1::2], a[0::2], out=tmp)
    if n > 2:
        tail_u = np.sqrt(tail, out=tail)  # |tail of u|, over tail
        tail_u /= norm
        c_re += np.multiply(tail_u, w[0], out=tmp)
        c_im += np.multiply(tail_u, w[1], out=tmp)
        w[0] -= np.multiply(c_re, tail_u, out=tmp)
        w[1] -= np.multiply(c_im, tail_u, out=tmp)
    # the residual g_2 - c u, whose head is (a[0] + i a[1], a[2] + i a[3])
    for k in (0, 2):
        a[k] -= np.multiply(c_re, u[k], out=tmp)
        a[k] += np.multiply(c_im, u[k + 1], out=tmp)
        a[k + 1] -= np.multiply(c_re, u[k + 1], out=tmp)
        a[k + 1] -= np.multiply(c_im, u[k], out=tmp)
    np.einsum("is,is->s", a, a, out=norm)
    if n > 2:
        norm += np.einsum("is,is->s", w, w, out=tmp)
    if n > 3:
        rng.standard_gamma(n - 3, out=tmp)
        tmp *= 2
        norm += tmp
    a /= np.sqrt(norm, out=norm)
    return g


class TasakiSampler:
    """<h V_x, V_y> for a Haar unitary h of C^n, n >= 2: two rows in R^2
    whose wedge norm is |<h V_x, V_y>|, the 2 x 2 determinant.

    V_x spans e_1 and cos(t) i e_1 + sin(t) e_2, x = cos^2(t), so h meets
    the planes only through its 2 x 2 corner, which is all that is drawn
    (_unitary_corner), and the rows are written from it directly.
    """

    degree = ambient_dim = 2

    def __init__(self, n, x, y):
        self.n = n
        self.rx, self.cx = math.sqrt(x), math.sqrt(1 - x)
        self.ry, self.cy = math.sqrt(y), math.sqrt(1 - y)

    def draw(self, rng, out):
        import numpy as np
        u, v = _unitary_corner(self.n, rng, out.shape[-1])
        rx, cx, ry, cy = self.rx, self.cx, self.ry, self.cy
        # h V_x has the rows u and rx i u + cx v for the columns u and v of
        # h, whose heads are the corner's (u = (Re u_1, Im u_1, Re u_2,
        # Im u_2)); row i of out is row i of h V_x in the coordinates of
        # V_y, Re z_1 and ry Im z_1 + cy Re z_2
        out[0, 0] = u[0]
        np.multiply(ry, u[1], out=out[0, 1])
        out[0, 1] += cy * u[2]
        np.multiply(cx, v[0], out=out[1, 0])
        out[1, 0] -= rx * u[1]
        np.multiply(rx * ry, u[0], out=out[1, 1])
        out[1, 1] -= rx * cy * u[3]
        out[1, 1] += cx * ry * v[1]
        out[1, 1] += cx * cy * v[2]


class SamplerZonoid:
    """scale * K(xi) with xi given by a batch sampler."""

    def __init__(self, scale, sampler):
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        self.scale = scale
        self.sampler = sampler
        self.ambient_dim = sampler.ambient_dim
        self.degree = sampler.degree


def gaussian_ball(ambient_dim):
    """The unit ball of R^N as a sampler zonoid: sqrt(2 pi) * K(Gaussian)."""
    return SamplerZonoid(math.sqrt(2 * math.pi), GaussianSampler(ambient_dim))


def block_stats(vals):
    """(count, mean, M2, max) of one block of samples.

    M2 is the sum of squared deviations from the block mean, computed in
    two passes, so it stays accurate when the mean dwarfs the spread.
    """
    mean = vals.mean()
    dev = vals - mean
    return vals.size, float(mean), float((dev * dev).sum()), float(vals.max())


def run_blocks(samples, seed, block_fn, workers=1):
    """Run block_fn(block_index, block_size) over all trial blocks.

    block_fn returns block_stats of its samples.  Worker w runs blocks
    w, w + workers, ...: worker 0 on the calling thread, the others on
    their own threads (plain threads: concurrent.futures would import
    logging), so one worker starts no thread.  The first exception of a
    block, in block order, is raised here once all have stopped.  The
    blocks are merged in block order with the pairwise update of Chan,
    Golub and LeVeque, so the result does not depend on worker count.
    Raises ValueError, before any block runs, unless samples and workers
    are at least 1 and seed is a non-negative integer.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _check_seed(seed)
    import threading
    nblocks = (samples + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, samples - b * BLOCK) for b in range(nblocks)]
    results, errors = [None] * nblocks, []

    def work(first):
        for b in range(first, nblocks, workers):
            try:
                results[b] = block_fn(b, sizes[b])
            except Exception as exc:
                errors.append((b, exc))
                return

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, min(workers, nblocks))]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b, _ in results:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    top = max(r[3] for r in results)
    var = m2 / (samples - 1) if samples > 1 else 0.0
    return Estimate(mean, math.sqrt(var / samples), samples, seed, top)


def mc_wedge_length(zs, samples, seed, workers=1):
    """Monte-Carlo estimate of the length of the wedge of sampler zonoids.

    Zonoid i draws from slot i of the seed.  The wedge norm is invariant
    under reordering its factors, so the Gaussian factors are taken last.
    The other samplers fill their own rows of the block's one
    (rows, N, size) array, whose norm products come from one
    _gram_schmidt pass.  The residual of a Gaussian factor after the f'
    rows before it is a standard Gaussian in their orthogonal complement,
    independent of those rows, so its norm is chi with f = N - f' degrees
    of freedom.  The Gaussian factors go in consecutive pairs, with f and
    f - 1 degrees of freedom: by Legendre's duplication formula,
    chi_f chi_(f-1) has the law of a Gamma(f - 1) variate, which the
    pair's first slot draws, and its second slot draws nothing.  An
    unpaired last factor draws sqrt(2 g) for g from Gamma(f / 2).
    """
    zs = list(zs)
    if not zs:
        raise ValueError("mc_wedge_length needs at least one zonoid")
    import numpy as np
    n = zs[0].ambient_dim
    deg = sum(z.degree for z in zs)
    if any(z.ambient_dim != n for z in zs):
        raise ValueError("ambient dimension mismatch")
    if deg > n:
        raise ValueError("degree overflow")
    scale = math.prod((z.scale for z in zs), start=1.0)
    gaussian = [slot for slot, z in enumerate(zs)
                if isinstance(z.sampler, GaussianSampler)]
    drawn = [(slot, z) for slot, z in enumerate(zs) if slot not in gaussian]
    rows = deg - len(gaussian)
    # the t-th Gaussian factor's chi norm has n - rows - t degrees of
    # freedom: the slot and Gamma shape of each pair and of a last factor
    pairs = [(gaussian[t], n - rows - t - 1)
             for t in range(0, len(gaussian) - 1, 2)]
    single = [(gaussian[-1], (n - rows - len(gaussian) + 1) / 2)
              ] if len(gaussian) % 2 else []

    def block_fn(b, size):
        block = np.empty((rows, n, size))
        row = 0
        for slot, z in drawn:
            z.sampler.draw(substream(seed, slot, b), block[row:row + z.degree])
            row += z.degree
        norms = _gram_schmidt(block)[1]
        for slot, shape in pairs:
            norms *= substream(seed, slot, b).standard_gamma(shape, size)
        for slot, shape in single:
            g = substream(seed, slot, b).standard_gamma(shape, size)
            norms *= np.sqrt(2 * g)
        return block_stats(scale * norms)

    return run_blocks(samples, seed, block_fn, workers)
