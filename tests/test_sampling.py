import math
from fractions import Fraction
import sys
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy import stats

from pirings import cpn_ring as cp
from pirings import sampling as sp
from pirings import schubert as sb
from pirings import zonoid as zn
from pirings.exact import int_det
from pirings.exterior import SimpleVector
from pirings.sphere_ring import ball_length, ball_wedge_length

from calibration import assert_calibrated


class TestSubstream:
    def test_deterministic(self):
        a = sp.substream(42, 3, 7).standard_normal(10)
        b = sp.substream(42, 3, 7).standard_normal(10)
        assert np.array_equal(a, b)

    def test_slots_independent(self):
        a = sp.substream(42, 0).standard_normal(10)
        b = sp.substream(42, 1).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_blocks_independent(self):
        a = sp.substream(42, 0, 0).standard_normal(10)
        b = sp.substream(42, 0, 1).standard_normal(10)
        assert not np.array_equal(a, b)


class TestEstimate:
    def test_ci(self):
        est = sp.Estimate(1.0, 0.1, 100, 0)
        lo, hi = est.ci(2)
        assert lo == pytest.approx(0.8)
        assert hi == pytest.approx(1.2)

    def test_to_json(self):
        d = sp.Estimate(1.0, 0.1, 100, 7).to_json()
        assert d["seed"] == 7
        assert d["samples"] == 100
        assert d["ci"][0] < d["mean"] < d["ci"][1]


class TestHaarOrthogonal:
    def test_n1_signs(self):
        rng = sp.substream(0, 0)
        vals = sp.haar_orthogonal(1, rng, size=2000)[:, 0, 0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert abs(vals.mean()) < 0.1

    def test_orthogonality(self):
        rng = sp.substream(1, 0)
        q = sp.haar_orthogonal(5, rng, size=50)
        eye = np.einsum("sij,skj->sik", q, q)
        assert np.abs(eye - np.eye(5)).max() < 1e-12

    def test_first_column_projection_moment(self):
        # E <q e1, u>^2 = 1/n for any fixed unit u
        n = 4
        rng = sp.substream(2, 0)
        q = sp.haar_orthogonal(n, rng, size=200000)
        u = np.zeros(n)
        u[0] = 1.0
        vals = (q[:, :, 0] @ u) ** 2
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / n) < 3 * se

    def test_invariance_two_sample(self):
        # the distribution of <q e1, u> does not depend on the unit u
        n = 3
        rng = sp.substream(3, 0)
        q = sp.haar_orthogonal(n, rng, size=100000)
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([1.0, 2.0, -1.0])
        v /= np.linalg.norm(v)
        a = q[:50000, :, 0] @ u
        b = q[50000:, :, 0] @ v
        assert stats.ks_2samp(a, b).pvalue > 0.01


def complex_structure(n):
    """The matrix J of multiplication by i on R^(2n), J^2 = -I."""
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


class TestHaarUnitary:
    def test_realified_orthogonal(self):
        rng = sp.substream(4, 0)
        m = sp.haar_unitary_realified(3, rng, size=20)
        eye = np.einsum("sij,skj->sik", m, m)
        assert np.abs(eye - np.eye(6)).max() < 1e-12

    def test_commutes_with_complex_structure(self):
        rng = sp.substream(5, 0)
        m = sp.haar_unitary_realified(3, rng, size=20)
        j = complex_structure(3)
        assert np.abs(m @ j - j @ m).max() < 1e-12

    def test_u1_angles_uniform(self):
        rng = sp.substream(6, 0)
        g = rng.standard_normal((100000, 1, 1)) + 1j * rng.standard_normal(
            (100000, 1, 1))
        q, r = np.linalg.qr(g)
        d = np.einsum("...ii->...i", r)
        u = (q * np.conj(d / np.abs(d))[..., None, :])[:, 0, 0]
        angles = (np.angle(u) + np.pi) / (2 * np.pi)
        assert stats.kstest(angles, "uniform").pvalue > 0.01

    def test_complex_structure_squares_to_minus_identity(self):
        j = complex_structure(4)
        assert np.array_equal(j @ j, -np.eye(8))


def _qr_orthogonal(rng, n, cols, size):
    """Reference O(n) columns: LAPACK QR of the same batch-last Gaussian
    columns, signs of diag(R) fixed."""
    g = rng.standard_normal((cols, n, size)).T
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("...ii->...i", r))
    return q * np.where(d == 0, 1.0, d)[..., None, :]


def _qr_unitary_realified(rng, n, cols, size):
    """Reference U(n) columns: complex QR of the same Gaussian columns
    (2n interleaved real and imaginary parts each), phases of diag(R)
    fixed, realified."""
    g = rng.standard_normal((cols, 2 * n, size))
    q, r = np.linalg.qr((g[:, 0::2] + 1j * g[:, 1::2]).T)
    d = np.einsum("...ii->...i", r)
    u = q * (d / np.abs(d)).conj()[..., None, :]
    out = np.zeros(q.shape[:-2] + (2 * n, 2 * cols))
    out[..., 0::2, 0::2] = u.real
    out[..., 0::2, 1::2] = -u.imag
    out[..., 1::2, 0::2] = u.imag
    out[..., 1::2, 1::2] = u.real
    return out


def _normals(seed, slot, count):
    """The count-th normal of a substream (counting from 0)."""
    return sp.substream(seed, slot).standard_normal(count + 1)[-1]


class TestHaarMatchesQr:
    """Gram-Schmidt draws equal QR plus sign/phase fix on the same Gaussians."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("size", [1, 300])
    def test_orthogonal(self, n, size):
        for cols in range(n + 1):
            ref = _qr_orthogonal(sp.substream(20, n), n, cols, size)
            rng = sp.substream(20, n)
            q = sp.haar_orthogonal(n, rng, size, cols=cols)
            assert q.shape == (size, n, cols)
            assert np.abs(q - ref).max(initial=0.0) <= 1e-12
            gram = np.einsum("...ki,...kj->...ij", q, q)
            assert np.abs(gram - np.eye(cols)).max(initial=0.0) <= 1e-12
            # exactly the n * cols normals of the returned columns are drawn
            assert rng.standard_normal() == _normals(20, n, n * cols * size)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("size", [1, 300])
    def test_unitary_realified(self, n, size):
        assert sp.haar_unitary_realified(n, sp.substream(21, n), size).shape \
            == _qr_unitary_realified(sp.substream(21, n), n, n, size).shape
        for cols in range(n + 1):
            ref = _qr_unitary_realified(sp.substream(21, n), n, cols, size)
            rng = sp.substream(21, n)
            m = sp.haar_unitary_realified(n, rng, size, cols=cols)
            assert m.shape == (size, 2 * n, 2 * cols)
            assert np.abs(m - ref).max(initial=0.0) <= 1e-12
            gram = np.einsum("...ki,...kj->...ij", m, m)
            assert np.abs(gram - np.eye(2 * cols)).max(initial=0.0) <= 1e-12
            # exactly the 2n * cols normals of the returned columns
            assert rng.standard_normal() == _normals(21, n, 2 * n * cols * size)

    @pytest.mark.parametrize("cols", [-1, 4])
    def test_cols_out_of_range(self, cols):
        for haar in (sp.haar_orthogonal, sp.haar_unitary_realified):
            with pytest.raises(ValueError, match="cols must lie in"):
                haar(3, sp.substream(0, 0), 5, cols=cols)


def _plane(x):
    """Rows e_1 and sqrt(x) i e_1 + sqrt(1 - x) e_2 of the Tasaki plane
    V_x, in the first four interleaved coordinates of R^(2n)."""
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, math.sqrt(x), math.sqrt(1 - x), 0.0]])


def _realified(corner):
    """The (size, 4, 4) realified matrices of corners (2, 4, size): the
    columns of A e_c and A (i e_c), c = 0, 1."""
    out = np.empty((4,) + corner.shape[1:])
    out[0::2] = corner
    out[1::2, 0::2], out[1::2, 1::2] = -corner[:, 1::2], corner[:, 0::2]
    return out.T


def _corner(n, rng, size):
    """_unitary_corner with a fresh scratch block of its 4 rows."""
    return sp._unitary_corner(n, rng, np.empty((4, size)))


def _complex_corner(corner):
    """A[s, a, c], entry a of column c of the corner of trial s."""
    return (corner[:, 0::2] + 1j * corner[:, 1::2]).T


class TestUnitaryCorner:
    @pytest.mark.parametrize("size", [1, 2000])
    def test_n2_is_the_haar_unitary(self, size):
        # the same 8 normals per trial in the same order: the corner of
        # U(2) is all of it
        rng = sp.substream(22, 0)
        corner = _corner(2, rng, size)
        ref_rng = sp.substream(22, 0)
        ref = sp.haar_unitary_realified(2, ref_rng, size, cols=2)
        assert np.abs(_realified(corner) - ref).max() <= 1e-12
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("n", [3, 5])
    def test_law(self, n):
        # E|A_00|^2 = 1/n, E|A_00|^4 = 2/(n(n+1)) and E|det A|^2 = 1/C(n, 2),
        # the mean square of an entry of the unitary second compound
        a = _complex_corner(_corner(n, sp.substream(23, n), 200000))
        sq = np.abs(a[:, 0, 0]) ** 2
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        for vals, want in ((sq, 1 / n), (sq * sq, 2 / (n * (n + 1))),
                           (np.abs(det) ** 2, 2 / (n * (n - 1)))):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - want) < 4 * se

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_is_a_contraction(self, n):
        # A is a block of a unitary, so the eigenvalues of A* A lie in
        # [0, 1], and at n = 2 they are all 1
        a = _complex_corner(_corner(n, sp.substream(24, n), 500))
        eig = np.linalg.eigvalsh(np.einsum("sac,sad->scd", a.conj(), a))
        assert eig.min() >= -1e-12 and eig.max() <= 1 + 1e-12
        if n == 2:
            assert np.abs(eig - 1).max() <= 1e-12


class TestTasakiSampler:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("x, y", [(0.3, 0.6), (0.0, 1.0), (1.0, 0.0),
                                      (0.5, 0.5), (1.0, 1.0)])
    def test_is_the_plane_inner_product(self, n, x, y):
        # out[i, j] = <h V_x row i, V_y row j> with h realified from the
        # corner that the same generator draws
        size = 300
        out = np.empty((2, 2, size))
        sp.TasakiSampler(n, x, y).draw(sp.substream(25, n), out)
        h = _realified(_corner(n, sp.substream(25, n), size))
        ref = np.einsum("ic,sac,ja->ijs", _plane(x), h, _plane(y))
        assert np.abs(out - ref).max() <= 1e-12


def _near_singular(rng, size, n):
    """Matrices whose last row is a combination of the others plus 1e-9 noise."""
    a = rng.standard_normal((size, n, n))
    coef = rng.standard_normal((size, n - 1))
    a[:, -1] = (np.einsum("sk,skj->sj", coef, a[:, :-1])
                + 1e-9 * rng.standard_normal((size, n)))
    return a


def norm_product(a):
    """The kernel's wedge norms of the rows of each matrix in a batch."""
    return sp._gram_schmidt(np.transpose(a, (1, 2, 0)).astype(float))[1]


def hadamard_tol(a):
    """A few d N eps times the Hadamard bound, the product of the row norms:
    the rounding of a d x N wedge norm by either method.  numpy's det adds
    |log det| eps relative, as it exponentiates the log-determinant."""
    d, n = a.shape[-2:]
    scale = np.prod(np.linalg.norm(a, axis=-1), axis=-1)
    return 32 * d * n * np.finfo(float).eps * scale


class TestSmallDet:
    """|det| of small batched matrices, and sqrt(det Gram) below full rank,
    as the norm product of the one Gram-Schmidt kernel."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", ["random", "near_singular"])
    def test_matches_lapack(self, n, kind):
        rng = np.random.default_rng(100 + n)
        a = (rng.standard_normal((500, n, n)) if kind == "random"
             else _near_singular(rng, 500, n))
        got = norm_product(a)
        assert got.shape == (500,)
        assert np.all(np.abs(got - np.abs(np.linalg.det(a))) <= hadamard_tol(a))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_integer_entries(self, n):
        rng = np.random.default_rng(200 + n)
        a = rng.integers(-9, 10, size=(300, n, n))
        # every other matrix singular: a repeated row
        a[::2, -1] = a[::2, 0]
        got = norm_product(a)
        exact = np.array([abs(int_det(m.tolist())) for m in a], dtype=float)
        assert np.all(np.abs(got - exact) <= hadamard_tol(a))

    @pytest.mark.parametrize("d, n", [(d, n) for n in range(2, 7)
                                      for d in range(n)])
    def test_gram_below_full_rank(self, d, n):
        rng = np.random.default_rng(300 + 10 * d + n)
        a = rng.integers(-9, 10, size=(300, d, n))
        if d > 1:
            a[::2, -1] = a[::2, 0]
        got = norm_product(a)
        exact = np.array([math.sqrt(int_det((m @ m.T).tolist())) for m in a])
        assert np.all(np.abs(got - exact) <= hadamard_tol(a))

    def test_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("det", "slogdet", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            norm_product(rng.standard_normal((10, n, n)))
        for estimator in ESTIMATORS.values():
            estimator(100, 0, 1)


class TestSchubertSampler:
    def test_unit_norm(self):
        rng = sp.substream(10, 0)
        from pirings.exterior import wedge_norm
        out = np.empty((3, 6, 20))
        sp.SchubertSampler((2, 1), 2, 3).draw(rng, out)
        for factors in np.moveaxis(out, -1, 0):
            v = SimpleVector(6, factors)
            assert float(wedge_norm([v])) == pytest.approx(1.0, abs=1e-12)

    def test_diagram_must_fit(self):
        with pytest.raises(ValueError):
            sp.SchubertSampler((3,), 2, 2)
        with pytest.raises(ValueError, match="does not fit"):
            sp.SchubertSampler((1,), 2, 2, fixed=(1, 1, 1))

    @pytest.mark.parametrize("parts, k, m, fixed", [
        ((2, 1), 3, 3, (2, 1)),
        ((2,), 2, 2, (2,)),
        ((1,), 2, 2, (2, 1)),
        ((3, 1), 3, 3, (3, 3, 1)),
        ((2, 2), 3, 4, (4, 1, 1)),
        ((1, 1), 2, 3, ()),
    ])
    def test_fixed_drops_its_coordinates(self, parts, k, m, fixed):
        # the same draw as without a fixed diagram, restricted to the
        # coordinates a m + b with b >= fixed[a]
        size = 50
        full = sp.SchubertSampler(parts, k, m)
        projected = sp.SchubertSampler(parts, k, m, fixed)
        kept = [a * m + b for a in range(k) for b in range(m)
                if b >= (fixed[a] if a < len(fixed) else 0)]
        assert projected.ambient_dim == len(kept) == k * m - sum(fixed)
        a = np.empty((full.degree, k * m, size))
        b = np.empty((full.degree, len(kept), size))
        full.draw(sp.substream(3, 0), a)
        projected.draw(sp.substream(3, 0), b)
        assert np.array_equal(a[:, kept], b)

    @pytest.mark.parametrize("parts, k, m, fixed", [
        ((2,), 2, 2, (2,)),
        ((2, 1), 2, 2, ()),
        ((2, 2), 3, 2, (1,)),
        ((3, 3, 1), 3, 3, (1,)),
        ((3, 1), 3, 3, (3, 2)),
        ((4, 2, 2), 3, 4, ()),
    ])
    def test_full_rows_take_the_coordinate_vectors(self, parts, k, m, fixed):
        # a full row spans q_i (x) R^m whatever R is: f_j in place of
        # r_j there changes the wedge by det R = +-1, and the other rows
        # read the first columns of the same R
        size = 200
        sampler = sp.SchubertSampler(parts, k, m, fixed)
        new = np.empty((sampler.degree, sampler.ambient_dim, size))
        sampler.draw(sp.substream(8, 0), new)
        rng = sp.substream(8, 0)
        q = sp.haar_orthogonal(k, rng, size, cols=len(parts)).T
        r = sp.haar_orthogonal(m, rng, size, cols=parts[0]).T
        kept = [a * m + b for a in range(k) for b in range(m)
                if b >= (fixed[a] if a < len(fixed) else 0)]
        old = np.stack([np.einsum("as,bs->abs", q[i], r[j])
                        .reshape(k * m, size)[kept]
                        for i, p in enumerate(parts) for j in range(p)])
        assert np.abs(sp._gram_schmidt(new)[1]
                      - sp._gram_schmidt(old)[1]).max() <= 1e-12

    def test_self_dual_two_draws_one_column(self):
        # "2|2": the drawn (2) is a full row of R^2 (x) R^2, so a trial
        # draws one column of O(2), 2 normals, and no R
        size = 100
        rng = sp.substream(9, 0)
        sp.SchubertSampler((2,), 2, 2, (2,)).draw(rng, np.empty((2, 2, size)))
        assert rng.standard_normal() == _normals(9, 0, 2 * size)

    def test_full_rows_draw_no_r(self, monkeypatch):
        # "2|2" reads no column of R, so each block makes one Haar call
        calls = []
        haar = sp.haar_orthogonal

        def recording(n, rng, size, cols=None):
            calls.append((n, size, cols))
            return haar(n, rng, size, cols)

        monkeypatch.setattr(sp, "haar_orthogonal", recording)
        sb.mc_schubert_shape([(2,), (2,)], 2, 2, 2 * sp.BLOCK + 5, seed=4)
        assert calls == [(2, sp.BLOCK, 1), (2, sp.BLOCK, 1), (2, 5, 1)]


class TestRunBlocks:
    @pytest.mark.parametrize("samples, workers", [(0, 1), (-3, 1), (10, 0),
                                                  (10, -1)])
    def test_counts_checked_before_any_block(self, samples, workers):
        calls = []

        def block_fn(b, size):
            calls.append(b)
            return 0.0, 0.0, 0.0

        with pytest.raises(ValueError, match="must be at least 1"):
            sp.run_blocks(samples, 0, block_fn, workers)
        assert calls == []

    def test_seed_checked_before_any_block(self):
        calls = []

        def block_fn(b, size):
            calls.append(b)
            return size, 0.0, 0.0, 0.0

        for seed in (-1, 1.5):
            with pytest.raises(ValueError, match="seed must be a non-neg"):
                sp.run_blocks(10, seed, block_fn)
        assert calls == []

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_threads_raise_the_first_failing_block(self, workers):
        def block_fn(b, size):
            if b in (1, 3):
                raise ArithmeticError(f"block {b}")
            return sp.block_stats(np.full(size, float(b)))

        with pytest.raises(ArithmeticError, match="block 1"):
            sp.run_blocks(5 * sp.BLOCK, 0, block_fn, workers)

    def test_threads_fill_every_block_under_contention(self):
        # more workers than cores, switching threads as often as possible:
        # a lost or misplaced block result would change the estimate
        def block_fn(b, size):
            return sp.block_stats(sp.substream(4, 0, b).random(size) + b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sp.run_blocks(40 * sp.BLOCK, 4, block_fn, workers=8)
        finally:
            sys.setswitchinterval(interval)
        serial = sp.run_blocks(40 * sp.BLOCK, 4, block_fn)
        assert threaded == serial
        assert threaded.max_value == serial.max_value

    def test_standard_error_with_large_offset(self):
        # sum(x^2) - n mean^2 cancels to 0 here; the merged block M2 does not
        def block_fn(b, size):
            return sp.block_stats(1e8 + sp.substream(5, 0, b).random(size))

        samples = 100000
        est = sp.run_blocks(samples, 5, block_fn)
        vals = np.concatenate([
            1e8 + sp.substream(5, 0, b).random(min(sp.BLOCK, samples - start))
            for b, start in enumerate(range(0, samples, sp.BLOCK))])
        assert est.mean == pytest.approx(vals.mean(), rel=1e-15)
        assert est.std_error == pytest.approx(
            vals.std(ddof=1) / math.sqrt(samples), rel=0.01)
        assert est.std_error == pytest.approx(1 / math.sqrt(12 * samples),
                                              rel=0.01)


class SphereSampler:
    """Uniform unit vector in R^N (degree 1)."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.degree = 1

    def draw(self, rng, out):
        rng.standard_normal(out=out)
        out /= np.linalg.norm(out, axis=1, keepdims=True)


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

    def draw(self, rng, out):
        idx = rng.integers(0, len(self.vectors), out.shape[-1])
        np.take(self.vectors.T, idx, axis=1, out=out[0])


def mc_pairing(a, b, samples, seed, workers=1):
    """Monte-Carlo estimate of the zonoid pairing <a, b> = E|<xi, zeta>|."""
    if a.degree != b.degree or a.ambient_dim != b.ambient_dim:
        raise ValueError("degree mismatch")
    scale = a.scale * b.scale

    def block_fn(blk, size):
        x = np.empty((a.degree, a.ambient_dim, size))
        y = np.empty_like(x)
        a.sampler.draw(sp.substream(seed, 0, blk), x)
        b.sampler.draw(sp.substream(seed, 1, blk), y)
        g = np.einsum("iks,jks->sij", x, y)
        return sp.block_stats(scale * np.abs(np.linalg.det(g)))

    return sp.run_blocks(samples, seed, block_fn, workers)


class TestMcWedgeLength:
    def test_ball_pair_in_r2(self):
        b = sp.gaussian_ball(2)
        est = sp.mc_wedge_length([b, b], 100000, seed=11)
        expect = 2 * math.pi
        assert abs(est.mean - expect) < 3 * est.std_error

    def test_single_ball(self):
        b = sp.gaussian_ball(3)
        est = sp.mc_wedge_length([b], 100000, seed=12)
        assert abs(est.mean - float(ball_length(3))) < 3 * est.std_error

    @pytest.mark.parametrize("n, i", [(6, 6), (3, 2)])
    def test_ball_z_scores_are_calibrated(self, n, i):
        assert_calibrated(lambda seed: sp.mc_wedge_length(
            [sp.gaussian_ball(n)] * i, 4000, seed),
            float(ball_wedge_length(n, 0, i, 1)))

    def test_zero_scale(self):
        z = sp.SamplerZonoid(0.0, sp.GaussianSampler(2))
        est = sp.mc_wedge_length([z, sp.gaussian_ball(2)], 1000, seed=13)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("samples, workers", [(0, 1), (10, 0)])
    def test_zero_scale_counts_checked(self, samples, workers):
        z = sp.SamplerZonoid(0.0, sp.GaussianSampler(2))
        with pytest.raises(ValueError, match="must be at least 1"):
            sp.mc_wedge_length([z], samples, seed=1, workers=workers)

    def test_worker_independence(self):
        b = sp.gaussian_ball(2)
        one = sp.mc_wedge_length([b, b], 30000, seed=14, workers=1)
        four = sp.mc_wedge_length([b, b], 30000, seed=14, workers=4)
        assert one == four

    def test_degree_overflow(self):
        b = sp.gaussian_ball(2)
        with pytest.raises(ValueError):
            sp.mc_wedge_length([b, b, b], 100, seed=0)

    def test_discrete_atoms_match_exact(self):
        square = zn.VirtualZonoid(
            2, 1, [(Fraction(1), SimpleVector(2, [(1, 0)])),
                   (Fraction(1), SimpleVector(2, [(0, 1)]))])
        z = sp.SamplerZonoid(1.0, DiscreteAtomSampler(square))
        est = sp.mc_wedge_length([z, z], 100000, seed=15)
        exact = float(zn.length(zn.wedge([square, square])))
        assert abs(est.mean - exact) < 3 * est.std_error


def gaussian_rows_wedge_length(zs, samples, seed):
    """mc_wedge_length with every Gaussian factor drawn as N normals in its
    own rows of the block, all reduced by one Gram-Schmidt pass: the
    direct path, an oracle for the chi norms."""
    n = zs[0].ambient_dim
    deg = sum(z.degree for z in zs)
    scale = math.prod(z.scale for z in zs)

    def block_fn(b, size):
        block = np.empty((deg, n, size))
        row = 0
        for slot, z in enumerate(zs):
            rng, rows = sp.substream(seed, slot, b), block[row:row + z.degree]
            if isinstance(z.sampler, sp.GaussianSampler):
                rng.standard_normal(out=rows)
            else:
                z.sampler.draw(rng, rows)
            row += z.degree
        return sp.block_stats(scale * sp._gram_schmidt(block)[1])

    return sp.run_blocks(samples, seed, block_fn)


def one_box(k, m):
    return sp.SamplerZonoid(1.0, sp.SchubertSampler((1,), k, m))


class TestChiNorms:
    """Gaussian factors of mc_wedge_length contribute chi norms."""

    @pytest.mark.parametrize("zs, seed", [
        ([sp.gaussian_ball(1)], 1),
        ([sp.gaussian_ball(3)] * 2, 2),
        ([sp.gaussian_ball(4)] * 4, 3),
        ([sp.gaussian_ball(6)] * 3, 4),
        ([sp.gaussian_ball(6)] * 6, 5),
        ([one_box(2, 2), sp.gaussian_ball(4)], 6),
        ([sp.gaussian_ball(6), sp.SamplerZonoid(
            2.0, sp.SchubertSampler((2, 1), 2, 3)), sp.gaussian_ball(6)], 7),
    ], ids=["B1", "B3^2", "B4^4", "B6^3", "B6^6", "box^B4", "B6^(2,1)^B6"])
    def test_matches_gaussian_rows(self, zs, seed):
        new = sp.mc_wedge_length(zs, 100000, seed)
        old = gaussian_rows_wedge_length(zs, 100000, seed + 100)
        se = math.hypot(new.std_error, old.std_error)
        assert abs(new.mean - old.mean) < 4 * se

    def test_box_wedge_ball(self):
        # a unit box vector times chi_3: sqrt(2 pi) E chi_3 = 4
        est = sp.mc_wedge_length([one_box(2, 2), sp.gaussian_ball(4)],
                                 200000, seed=8)
        assert abs(est.mean - 4.0) < 4 * est.std_error

    def test_gaussian_factor_draws_one_gamma_per_trial(self, monkeypatch):
        drawn = []
        substream = sp.substream

        def recording(seed, slot, block=0):
            rng = substream(seed, slot, block)
            drawn.append((slot, rng))
            return rng

        monkeypatch.setattr(sp, "substream", recording)
        size = 100
        est = sp.mc_wedge_length([sp.gaussian_ball(5)] * 3, size, seed=9)
        # the pair (chi_5, chi_4) draws on its first slot, the unpaired
        # chi_3 on its own; the pair's second slot draws nothing
        assert [slot for slot, _ in drawn] == [0, 2]
        # chi_5 chi_4 as one g ~ Gamma(4), and chi_3 as sqrt(2 g) with
        # g ~ Gamma(3 / 2)
        want = (2 * math.pi) ** 1.5 * substream(9, 0).standard_gamma(
            4.0, size) * np.sqrt(2 * substream(9, 2).standard_gamma(1.5, size))
        assert est.mean == pytest.approx(want.mean(), rel=1e-14)
        # and nothing else: each stream goes on with its (size + 1)-th variate
        for slot, rng in drawn:
            shape = {0: 4.0, 2: 1.5}[slot]
            assert rng.standard_gamma(shape) == substream(
                9, slot).standard_gamma(shape, size + 1)[-1]

    @pytest.mark.parametrize("f", range(1, 7))
    def test_chi_pair_is_gamma(self, f):
        # Legendre's duplication formula: chi_f chi_(f+1) ~ Gamma(f), the
        # law each pair of Gaussian factors draws
        rng = np.random.default_rng(40 + f)
        chi2 = rng.chisquare(f, 20000) * rng.chisquare(f + 1, 20000)
        product = np.sqrt(chi2)
        assert stats.kstest(product, stats.gamma(f).cdf).pvalue > 1e-3


class TestMcPairing:
    def test_sphere_pair(self):
        s = sp.SamplerZonoid(1.0, SphereSampler(2))
        est = mc_pairing(s, s, 100000, seed=16)
        assert abs(est.mean - 2 / math.pi) < 3 * est.std_error

    def test_orthogonal_atoms(self):
        e1 = zn.VirtualZonoid(2, 1, [(1, SimpleVector(2, [(1, 0)]))])
        e2 = zn.VirtualZonoid(2, 1, [(1, SimpleVector(2, [(0, 1)]))])
        a = sp.SamplerZonoid(1.0, DiscreteAtomSampler(e1))
        b = sp.SamplerZonoid(1.0, DiscreteAtomSampler(e2))
        est = mc_pairing(a, b, 1000, seed=17)
        assert est.mean == 0.0

    def test_worker_independence(self):
        s = sp.SamplerZonoid(1.0, SphereSampler(3))
        one = mc_pairing(s, s, 30000, seed=18, workers=1)
        two = mc_pairing(s, s, 30000, seed=18, workers=3)
        assert one == two


# every seeded estimator, as (samples, seed, workers) -> Estimate
ESTIMATORS = {
    "mc_wedge_length": lambda samples, seed, workers: sp.mc_wedge_length(
        [sp.gaussian_ball(3)] * 2, samples, seed, workers),
    "mc_schubert_shape": lambda samples, seed, workers: sb.mc_schubert_shape(
        [(1,), (2, 1)], 2, 2, samples, seed, workers),
    "edeg22_calibrated": sb.edeg22_calibrated,
    "mc_tasaki_kernel_d2": lambda samples, seed, workers: (
        cp.mc_tasaki_kernel_d2(3, 0.5, 0.25, samples, seed, workers)),
}


class TestWorkerIdentity:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @settings(max_examples=8, deadline=None)
    # small draws rarely span blocks, so two multi-block cases always run
    @example(samples=sp.BLOCK + 1, seed=0, workers=(1, 2))
    @example(samples=3 * sp.BLOCK, seed=2 ** 32 - 1, workers=(3, 1))
    @given(samples=st.integers(1, 3 * sp.BLOCK),
           seed=st.integers(0, 2 ** 32 - 1),
           workers=st.tuples(st.sampled_from((1, 2, 3)),
                             st.sampled_from((1, 2, 3))))
    def test_bit_identical_for_any_worker_count(self, name, samples, seed,
                                                workers):
        a, b = (ESTIMATORS[name](samples, seed, w) for w in workers)
        # == compares mean, standard error, samples, seed and components
        assert a == b
        assert a.max_value == b.max_value


# one block of each estimator, as seed -> Estimate, and the most rows of
# BLOCK doubles that tracemalloc may see allocated at once while it runs
WORKING_SETS = {
    "edeg22": (lambda seed: sb.edeg22_calibrated(sp.BLOCK, seed), 10.5),
    "tasaki n=2": (lambda seed: cp.mc_tasaki_kernel_d2(
        2, 0.3, 0.6, sp.BLOCK, seed), 16.5),
    "tasaki n=3": (lambda seed: cp.mc_tasaki_kernel_d2(
        3, 0.3, 0.6, sp.BLOCK, seed), 16.5),
    "ball N=6": (lambda seed: sp.mc_wedge_length(
        [sp.gaussian_ball(6)] * 6, sp.BLOCK, seed), 4.5),
    "shape 1|2,1": (lambda seed: sb.mc_schubert_shape(
        [(1,), (2, 1)], 2, 2, sp.BLOCK, seed), 9.5),
    "shape 2|2": (lambda seed: sb.mc_schubert_shape(
        [(2,), (2,)], 2, 2, sp.BLOCK, seed), 9.5),
}


@pytest.mark.parametrize("name", sorted(WORKING_SETS))
def test_block_working_set(name):
    # a worker holds this much per block, so --workers multiplies it
    run, rows = WORKING_SETS[name]
    run(1)  # imports, caches and first-call setup are not the block's
    tracemalloc.start()
    try:
        run(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * sp.BLOCK * 8, f"{peak / (sp.BLOCK * 8):.2f} rows"
