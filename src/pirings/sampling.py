"""Seeded samplers and Monte-Carlo estimators for zonoid lengths and pairings.

Reproducibility contract: all randomness comes from the counter-based
Philox generator.  Each (estimator slot, block of trials) pair gets its
own substream, derived from (seed, slot index, block index) by placing
those in the high words of the Philox counter.  Trials are processed in
fixed-size blocks, so the result is bit-identical regardless of how the
blocks are scheduled across workers.

Gaussians come from numpy's ziggurat implementation; spheres are
normalized Gaussians.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import math

import numpy as np

from .exterior import SimpleVector

BLOCK = 1 << 13
DEFAULT_Z = 3.0


def substream(seed, slot, block=0):
    """Independent generator for the given (seed, slot, block) triple."""
    counter = (int(slot) << 128) | (int(block) << 64)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


@dataclass
class Estimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    max_value: float | None = field(default=None, compare=False)

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


def complex_structure(n):
    """The matrix J of multiplication by i on R^(2n), J^2 = -I."""
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


def realify(u):
    """Realify a (batch of) complex n x n matrices to 2n x 2n real ones."""
    a, b = u.real, u.imag
    n = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (2 * n, 2 * n))
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = -b
    out[..., 1::2, 0::2] = b
    out[..., 1::2, 1::2] = a
    return out


def _qr_haar_fix(q, r):
    d = np.sign(np.einsum("...ii->...i", r))
    d = np.where(d == 0, 1.0, d)
    return q * d[..., None, :]


def haar_orthogonal(n, rng, size=None):
    """Haar-distributed orthogonal matrices, QR of a Gaussian with sign fix."""
    shape = (n, n) if size is None else (size, n, n)
    g = rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    return _qr_haar_fix(q, r)


def haar_unitary_realified(n, rng, size=None):
    """Realified Haar unitaries; complex QR with phase fix on diag(R)."""
    shape = (n, n) if size is None else (size, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    mod = np.abs(d)
    phase = np.where(mod == 0, 1.0, d / np.where(mod == 0, 1.0, mod))
    return realify(q * np.conj(phase)[..., None, :])


class GaussianSampler:
    """Standard Gaussian vector in R^N (degree 1)."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.degree = 1

    def draw(self, rng, size):
        return rng.standard_normal((size, 1, self.ambient_dim))


class SphereSampler:
    """Uniform unit vector in R^N (degree 1)."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.degree = 1

    def draw(self, rng, size):
        g = rng.standard_normal((size, 1, self.ambient_dim))
        return g / np.linalg.norm(g, axis=-1, keepdims=True)


class ComplexLineSampler:
    """Uniform complex line in C^n as a degree-2 simple vector in R^(2n)."""

    def __init__(self, n):
        self.n = n
        self.ambient_dim = 2 * n
        self.degree = 2

    def draw(self, rng, size):
        m = haar_unitary_realified(self.n, rng, size)
        # images of e_1 and of i e_1 (columns 0 and 1 of the realified matrix)
        return np.stack([m[:, :, 0], m[:, :, 1]], axis=1)


class SchubertSampler:
    """Random rotate of the coordinate Schubert simple vector in R^(k m).

    Draws (Q, R) Haar on O(k) x O(m) and wedges Q e_i (x) R f_j over the
    boxes of the diagram, row-major.
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

    def draw(self, rng, size):
        q = haar_orthogonal(self.k, rng, size)
        r = haar_orthogonal(self.m, rng, size)
        out = np.empty((size, self.degree, self.ambient_dim))
        for b, (i, j) in enumerate(self.boxes):
            out[:, b, :] = np.einsum(
                "sa,sb->sab", q[:, :, i], r[:, :, j]
            ).reshape(size, -1)
        return out


class DiscreteAtomSampler:
    """Samples the law behind a discrete genuine zonoid with M atoms.

    Picks an atom uniformly and scales it by M * w, which reproduces the
    zonoid's support function in expectation.
    """

    def __init__(self, z):
        if not z.is_genuine():
            raise ValueError("needs nonnegative weights")
        if z.degree != 1:
            raise ValueError("degree-1 atoms only")
        self.ambient_dim = z.ambient_dim
        self.degree = 1
        m = len(z.atoms)
        self.vectors = np.array(
            [[float(w) * m * float(x) for x in v.factors[0]]
             for w, v in z.atoms]
        )

    def draw(self, rng, size):
        idx = rng.integers(0, len(self.vectors), size)
        return self.vectors[idx][:, None, :]


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


def sample_complex_line(n, rng):
    """One draw of the complex-line simple vector (g e1, g(i e1))."""
    arr = ComplexLineSampler(n).draw(rng, 1)[0]
    return SimpleVector(2 * n, [tuple(row) for row in arr])


def sample_schubert(parts, k, m, rng):
    """One draw of the rotated Schubert simple vector for a diagram."""
    s = SchubertSampler(parts, k, m)
    arr = s.draw(rng, 1)[0]
    return SimpleVector(k * m, [tuple(row) for row in arr])


def _gram_root_det(x):
    """sqrt(det(X X^T)) batched over the leading axis; |det X| when square."""
    d, n = x.shape[-2], x.shape[-1]
    if d == 0:
        return np.ones(x.shape[0])
    if d == n:
        return np.abs(np.linalg.det(x))
    g = np.einsum("sik,sjk->sij", x, x)
    return np.sqrt(np.clip(np.linalg.det(g), 0.0, None))


def run_blocks(samples, seed, block_fn, workers=1):
    """Run block_fn(block_index, block_size) over all trial blocks.

    block_fn returns (sum, sum_of_squares, max) triples; they are folded
    in block order, so the result does not depend on worker count.
    Raises ValueError unless samples and workers are at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    nblocks = (samples + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, samples - b * BLOCK) for b in range(nblocks)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_fn, range(nblocks), sizes))
    else:
        results = [block_fn(b, s) for b, s in zip(range(nblocks), sizes)]
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    top = max(r[2] for r in results)
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / samples), samples, seed, top)


def mc_wedge_length(zs, samples, seed, workers=1):
    """Monte-Carlo estimate of the length of the wedge of sampler zonoids."""
    zs = list(zs)
    n = zs[0].ambient_dim
    deg = sum(z.degree for z in zs)
    if any(z.ambient_dim != n for z in zs):
        raise ValueError("ambient dimension mismatch")
    if deg > n:
        raise ValueError("degree overflow")
    scale = 1.0
    for z in zs:
        scale *= z.scale
    if scale == 0.0:
        return Estimate(0.0, 0.0, samples, seed, 0.0)

    def block_fn(b, size):
        draws = [z.sampler.draw(substream(seed, slot, b), size)
                 for slot, z in enumerate(zs)]
        vals = scale * _gram_root_det(np.concatenate(draws, axis=1))
        return float(vals.sum()), float((vals * vals).sum()), float(vals.max())

    return run_blocks(samples, seed, block_fn, workers)


def mc_pairing(a, b, samples, seed, workers=1):
    """Monte-Carlo estimate of the zonoid pairing <a, b> = E|<xi, zeta>|."""
    if a.degree != b.degree or a.ambient_dim != b.ambient_dim:
        raise ValueError("degree mismatch")
    scale = a.scale * b.scale

    def block_fn(blk, size):
        x = a.sampler.draw(substream(seed, 0, blk), size)
        y = b.sampler.draw(substream(seed, 1, blk), size)
        g = np.einsum("sik,sjk->sij", x, y)
        vals = scale * np.abs(np.linalg.det(g))
        return float(vals.sum()), float((vals * vals).sum()), float(vals.max())

    return run_blocks(samples, seed, block_fn, workers)
