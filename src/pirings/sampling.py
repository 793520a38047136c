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
draw makes only the Gaussian columns that it returns.

numpy is imported inside the functions that build arrays, not at module
level, so that the exact commands of the CLI that import this module
(every `cpn` command, through cpn_ring) but draw nothing start without
it.  Each estimator imports it, and the CLI loads every package module
that a command calls, on the calling thread before run_blocks starts
any worker.
"""

import math
import numbers

BLOCK = 1 << 13
DEFAULT_Z = 3.0


def substream(seed, slot, block=0):
    """Independent generator for the given (seed, slot, block) triple.

    Raises ValueError unless seed is a non-negative integer.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
    """Standard Gaussian vector in R^N (degree 1)."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.degree = 1

    def draw(self, rng, out):
        """Fill out, a C-contiguous (degree, N, size) block, one trial
        per last-axis entry; every sampler's draw has this form."""
        rng.standard_normal(out=out)


class SchubertSampler:
    """Random rotate of the coordinate Schubert simple vector in R^(k m).

    Draws (Q, R) Haar on O(k) x O(m) and wedges Q e_i (x) R f_j over the
    boxes of the diagram, row-major.  Only the columns the boxes touch are
    computed: len(parts) of Q and parts[0] of R.
    """

    def __init__(self, parts, k, m):
        parts = tuple(p for p in parts if p > 0)
        if len(parts) > k or any(p > m for p in parts):
            raise ValueError("diagram does not fit the rectangle")
        self.parts = parts
        self.k = k
        self.m = m
        self.ambient_dim = k * m
        self.degree = sum(parts)
        self.boxes = [(i, j) for i, p in enumerate(parts) for j in range(p)]

    def draw(self, rng, out):
        import numpy as np
        size = out.shape[-1]
        q = haar_orthogonal(self.k, rng, size, cols=len(self.parts)).T
        r = haar_orthogonal(self.m, rng, size,
                            cols=self.parts[0] if self.parts else 0).T
        # row b of out, as a k x m matrix per trial, is q_i r_j^T
        boxes = out.reshape(self.degree, self.k, self.m, size)
        for b, (i, j) in enumerate(self.boxes):
            np.multiply(q[i][:, None], r[j], out=boxes[b])


class FixedSampler:
    """The same simple vector in every trial; it draws nothing from rng.

    factors are the rows of its d x N matrix.  Where a wedge norm is
    invariant under one rotation applied to all its factors, one random
    factor can be held fixed like this without changing the law of the
    result.
    """

    def __init__(self, factors):
        self.factors = [[float(x) for x in row] for row in factors]
        self.degree = len(self.factors)
        self.ambient_dim = len(self.factors[0])

    def draw(self, rng, out):
        import numpy as np
        out[...] = np.asarray(self.factors)[..., None]


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

    block_fn returns block_stats of its samples.  The blocks are merged
    in block order with the pairwise update of Chan, Golub and LeVeque,
    so the result does not depend on worker count.
    Raises ValueError unless samples and workers are at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    nblocks = (samples + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, samples - b * BLOCK) for b in range(nblocks)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_fn, range(nblocks), sizes))
    else:
        results = [block_fn(b, s) for b, s in zip(range(nblocks), sizes)]
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

    Zonoid i draws from slot i of the seed, into its own rows of the
    block's one (degree, N, size) array; the wedge norms of the block
    are the norm products of one _gram_schmidt pass over that array.
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

    def block_fn(b, size):
        block = np.empty((deg, n, size))
        row = 0
        for slot, z in enumerate(zs):
            z.sampler.draw(substream(seed, slot, b),
                           block[row:row + z.degree])
            row += z.degree
        return block_stats(scale * _gram_schmidt(block)[1])

    return run_blocks(samples, seed, block_fn, workers)
