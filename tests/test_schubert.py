import itertools
import math
import operator

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from pirings import sampling as sp
from pirings import schubert as sb
from pirings.exact import P31
from pirings.exterior import SimpleVector, expand
from pirings.schubert import YoungDiagram

from calibration import assert_calibrated


class TestYoungDiagram:
    def test_trailing_zeros_dropped(self):
        assert YoungDiagram((2, 1, 0, 0)).parts == (2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, -1))

    def test_size_and_boxes(self):
        lam = YoungDiagram((3, 1))
        assert lam.size == 4
        assert lam.boxes() == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_containment(self):
        assert YoungDiagram((2, 1)) <= YoungDiagram((3, 2))
        assert not YoungDiagram((2, 2)) <= YoungDiagram((3, 1))

    def test_fits(self):
        assert YoungDiagram((2, 2)).fits(2, 2)
        assert not YoungDiagram((3,)).fits(2, 2)

    def test_transpose(self):
        assert sb.transpose((3, 1)) == (2, 1, 1)
        assert sb.transpose(sb.transpose((4, 2, 1))) == (4, 2, 1)

    def test_dual(self):
        assert sb.dual((1,), 2, 2) == (2, 1)
        assert sb.dual((2, 1), 2, 2) == (1,)
        assert sb.dual((), 2, 3) == (3, 3)


def diagrams_up_to(n):
    """The diagrams of at most n boxes."""
    return st.sampled_from([p for d in range(n + 1)
                            for p in sb._partitions(d, d, d)])


def lr_fillings(outer, inner, content):
    """Count LR skew tableaux of shape outer/inner with the given content,
    by backtracking over the cells in reverse reading order.

    Fillings are column-strict down, weakly increasing along rows, and
    the reverse reading word is a lattice word.
    """
    rows = len(outer)
    cells = [(i, j) for i in range(rows)
             for j in range(inner[i] if i < len(inner) else 0, outer[i])]
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


def searched_lr(lam, mu):
    """The LR table by a scan of every partition nu of |lam| + |mu| that
    contains lam, with one tableau search each: the oracle of
    lr_coefficients."""
    lam, mu = YoungDiagram(lam), YoungDiagram(mu)
    total = lam.size + mu.size
    cols_max = lam[0] + mu[0] if total else 0
    table = {}
    for nu_parts in sb._partitions(total, len(lam) + len(mu), cols_max):
        nu = YoungDiagram(nu_parts)
        if lam <= nu and (c := lr_fillings(nu.parts, lam.parts, mu.parts)):
            table[nu] = c
    return table


class TestLittlewoodRichardson:
    def test_pieri_examples(self):
        assert sb.lr_coefficients((1,), (1,)) == {
            YoungDiagram((2,)): 1, YoungDiagram((1, 1)): 1}

    def test_known_coefficient(self):
        # c^(3,2,1)_{(2,1),(2,1)} = 2
        table = sb.lr_coefficients((2, 1), (2, 1))
        assert table[YoungDiagram((3, 2, 1))] == 2

    def test_lr_set_examples(self):
        assert sb.lr_set((1,), (2, 1), 2, 2) == {YoungDiagram((2, 2))}
        assert sb.lr_set((2,), (1, 1), 2, 2) == set()

    def test_symmetric_in_arguments(self):
        for lam, mu in [((2, 1), (3, 1)), ((2,), (2, 2)), ((1, 1, 1), (2, 1))]:
            assert sb.lr_coefficients(lam, mu) == sb.lr_coefficients(mu, lam)

    def test_transpose_symmetry(self):
        # c^nu_{lam mu} = c^(nu')_{lam' mu'}
        for lam, mu in [((2, 1), (2, 1)), ((3, 1), (2,)), ((2, 2), (1, 1))]:
            table = sb.lr_coefficients(lam, mu)
            t_table = sb.lr_coefficients(sb.transpose(lam), sb.transpose(mu))
            assert {sb.transpose(nu): c for nu, c in table.items()} == t_table

    def test_dimension_bookkeeping(self):
        # sum_nu c^nu_{lam mu} dim S_nu(C^K) = dim S_lam dim S_mu for big K
        K = 9
        for lam, mu in [((2, 1), (2, 1)), ((3,), (2, 2)), ((1, 1), (2, 1))]:
            table = sb.lr_coefficients(lam, mu)
            lhs = sum(c * sb.schur_dim(nu, K) for nu, c in table.items())
            assert lhs == sb.schur_dim(lam, K) * sb.schur_dim(mu, K)

    def test_matches_the_tableau_search_on_all_small_pairs(self):
        diagrams = [p for d in range(5) for p in sb._partitions(d, d, d)]
        assert len(diagrams) == 12
        for lam, mu in itertools.product(diagrams, repeat=2):
            assert sb.lr_coefficients(lam, mu) == searched_lr(lam, mu), \
                (lam, mu)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(diagrams_up_to(6), diagrams_up_to(6)))
    @example(((3, 2, 1), (2, 1)))
    @example(((3, 3), (2, 2, 1, 1)))
    def test_matches_the_tableau_search(self, pair):
        lam, mu = pair
        assert sb.lr_coefficients(lam, mu) == searched_lr(lam, mu)


class TestSchurDim:
    def test_examples(self):
        assert sb.schur_dim((1,), 4) == 4
        assert sb.schur_dim((2,), 2) == 3
        assert sb.schur_dim((1, 1), 2) == 1
        assert sb.schur_dim((2, 1), 3) == 8

    def test_too_many_rows(self):
        assert sb.schur_dim((1, 1, 1), 2) == 0

    def test_span_dim(self):
        assert sb.span_dim((1,), 2, 2) == 4
        assert sb.span_dim((2,), 2, 2) == 3
        assert sb.span_dim((1, 1), 2, 2) == 3


class TestDuality:
    """Complementary Schubert classes pair to the point class exactly when
    one is the dual of the other: the LR product holds the full rectangle."""

    def test_dual_pairs(self):
        assert sb.dual((1,), 2, 2) == (2, 1)
        assert sb.lr_set((1,), (2, 1), 2, 2) == {YoungDiagram((2, 2))}
        assert sb.dual((2,), 2, 2) != (1, 1)
        assert sb.lr_set((2,), (1, 1), 2, 2) == set()

    def test_self_dual(self):
        for lam in [(2,), (1, 1)]:
            assert sb.dual(lam, 2, 2) == lam
            assert YoungDiagram((2, 2)) in sb.lr_set(lam, lam, 2, 2)

    def test_exhaustive_consistency(self):
        pairs = 0
        for k, m in itertools.product(range(1, 4), repeat=2):
            rect = YoungDiagram([m] * k)
            diagrams = [YoungDiagram(p) for d in range(k * m + 1)
                        for p in sb._partitions(d, k, m)]
            for lam, mu in itertools.product(diagrams, repeat=2):
                if lam.size + mu.size == k * m:
                    assert (mu == sb.dual(lam, k, m)) \
                        == (rect in sb.lr_set(lam, mu, k, m))
                    pairs += 1
        assert pairs == 104


def all_random_shape(lams, k, m, samples, seed):
    """The shape estimator with every diagram rotated, none held fixed:
    diagram i draws on slot i.  The oracle of mc_schubert_shape."""
    zs = [sp.SamplerZonoid(1.0, sp.SchubertSampler(sb.as_diagram(l).parts,
                                                   k, m)) for l in lams]
    return sp.mc_wedge_length(zs, samples, seed)


class TestShapes:
    def test_box_with_dual(self):
        est = sb.mc_schubert_shape([(1,), (2, 1)], 2, 2, 100000, seed=0)
        expect = 4 / math.pi ** 2
        assert abs(est.mean - expect) < 3 * est.std_error

    def test_self_dual_two(self):
        est = sb.mc_schubert_shape([(2,), (2,)], 2, 2, 100000, seed=1)
        assert abs(est.mean - 0.5) < 3 * est.std_error

    @pytest.mark.parametrize("lams, expect", [
        ([(1,), (2, 1)], 4 / math.pi ** 2), ([(2,), (2,)], 0.5)])
    def test_z_scores_are_calibrated(self, lams, expect):
        assert_calibrated(lambda seed: sb.mc_schubert_shape(
            lams, 2, 2, 4000, seed), expect)

    def test_non_dual_vanishes_samplewise(self):
        est = sb.mc_schubert_shape([(2,), (1, 1)], 2, 2, 20000, seed=2)
        assert est.max_value < 1e-10
        oracle = all_random_shape([(2,), (1, 1)], 2, 2, 20000, seed=2)
        assert oracle.max_value < 1e-10

    @pytest.mark.parametrize("lams, expect, seed", [
        ([(1, 1), (1, 1)], 0.5, 11),
        ([(2,), (2,)], 0.5, 12),
        ([(1, 1), (1,), (1,)], 8 / math.pi ** 3, 13),
        ([(2,), (1,), (1,)], 8 / math.pi ** 3, 14),
    ], ids=["D11", "D22", "D3", "D4"])
    def test_edeg22_calibration_constants(self, lams, expect, seed):
        # D11 = D22 = 1/2 and D3 = D4 = 8/pi^3; derivations in the
        # docstring of edeg22_calibrated
        est = sb.mc_schubert_shape(lams, 2, 2, 400000, seed=seed)
        assert abs(est.mean - expect) < 4 * est.std_error

    @pytest.mark.parametrize("lams, k, m, seed", [
        ([(1, 1), (1, 1)], 2, 2, 31),
        ([(2,), (2,)], 2, 2, 32),
        ([(1, 1), (1,), (1,)], 2, 2, 33),
        ([(2,), (1,), (1,)], 2, 2, 34),
        ([(1,), (2, 1), (1, 1)], 3, 3, 35),
        ([(1,), (2,), (2, 2), (1,)], 3, 3, 36),
        ([(1,), (2,), (3, 1), (1,)], 3, 3, 37),
    ], ids=["D11", "D22", "D3", "D4", "3x3 fixed second", "3x3 fixed third",
            "3x3 4 factors"])
    def test_matches_all_random_rotations(self, lams, k, m, seed):
        est = sb.mc_schubert_shape(lams, k, m, 100000, seed=seed)
        oracle = all_random_shape(lams, k, m, 100000, seed=seed + 100)
        se = math.hypot(est.std_error, oracle.std_error)
        assert abs(est.mean - oracle.mean) < 4 * se

    def test_draws_all_but_the_largest_diagram(self, monkeypatch):
        used = []
        substream = sp.substream

        def recording(seed, slot, block=0):
            used.append((slot, block))
            return substream(seed, slot, block)

        monkeypatch.setattr(sp, "substream", recording)
        # (2, 1) is held fixed (the first of the largest); the nonempty
        # others draw on slots 0, 1, 2 in order, the empty one not at all
        lams = [(1,), (2, 1), (), (1, 1), (2, 1)]
        est = sb.mc_schubert_shape(lams, 3, 3, 100, seed=3)
        assert used == [(0, 0), (1, 0), (2, 0)]
        zs = [sp.SamplerZonoid(1.0, sp.SchubertSampler(l, 3, 3, (2, 1)))
              for l in [(1,), (1, 1), (2, 1)]]
        assert est == sp.mc_wedge_length(zs, 100, seed=3)

    def test_diagrams_checked(self):
        with pytest.raises(ValueError, match="does not fit"):
            sb.mc_schubert_shape([(3,)], 2, 2, 10, seed=0)
        with pytest.raises(ValueError, match="degree overflow"):
            sb.mc_schubert_shape([(2, 2), (1,)], 2, 2, 10, seed=0)
        with pytest.raises(ValueError, match="at least one diagram"):
            sb.mc_schubert_shape([], 2, 2, 10, seed=0)

    def test_permutation_invariance(self):
        a = sb.mc_schubert_shape([(2,), (1,), (1,)], 2, 2, 100000, seed=3)
        b = sb.mc_schubert_shape([(1,), (2,), (1,)], 2, 2, 100000, seed=4)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < 3 * se


class TestSpanDecomposition:
    def test_g24_degree_2(self):
        report = sb.verify_span_decomposition(2, 2, 2, samples=150, seed=0)
        assert report["ok"]
        assert report["total"]["sum"] == 6

    def test_g24_degree_1(self):
        report = sb.verify_span_decomposition(2, 2, 1, samples=60, seed=0)
        assert report["ok"]
        assert report["orbits"]["(1,)"]["rank"] == 4

    def test_streams_of_neighbouring_seeds_are_disjoint(self, monkeypatch):
        used = []
        substream = sp.substream

        def recording(seed, slot, block=0):
            used.append((seed, slot, block))
            return substream(seed, slot, block)

        monkeypatch.setattr(sp, "substream", recording)
        runs = {}
        for seed in (5, 6):
            used.clear()
            sb.verify_span_decomposition(2, 2, 2, samples=5, seed=seed)
            runs[seed] = set(used)
            # one key per run: the orbits of (2) and (1,1), then two slots
            # for each of their three pairs
            assert {k for k, _, _ in used} == {seed}
            assert len(used) == len(runs[seed]) == 2 + 2 * 3
        assert not runs[5] & runs[6]

    @pytest.mark.parametrize("k, m, d", [(2, 3, 2), (2, 3, 3)])
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_exact_ranks_and_orthogonality(self, k, m, d, seed):
        report = sb.verify_span_decomposition(k, m, d, seed=seed)
        assert report["max_cross_inner"] == 0
        for info in [*report["orbits"].values(), *report["wedges"].values()]:
            assert info["rank"] == info["expected"]
        assert report["ok"]

    def test_rational_rotates_have_orthogonal_boxes(self):
        # box (i, j) is P e_i (x) R f_j: the factors are orthogonal, each
        # of squared length (c_P c_R)^2
        for v in sb.rational_schubert((2, 1), 2, 3, sp.substream(9, 0), 20):
            gram = [[sum(map(operator.mul, f, g)) for g in v.factors]
                    for f in v.factors]
            c = gram[0][0]
            assert c > 0
            assert gram == [[c * (i == j) for j in range(3)] for i in range(3)]
            assert all(type(x) is int for f in v.factors for x in f)


# small entries, and entries of at least 2^64 of either sign
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(2**64, 2**80),
                    st.integers(-2**80, -2**64))


@st.composite
def simple_vectors(draw):
    """One to three simple vectors of one shape in R^N, N <= 6, with
    integer factors; in some draws the last factor is an integer
    combination of the others (or zero), so every minor vanishes."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(0, n))
    dependent = d > 0 and draw(st.booleans())
    vs = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [[draw(ENTRIES) for _ in range(n)]
                   for _ in range(d - dependent)]
        if dependent:
            cs = [draw(st.integers(-3, 3)) for _ in factors]
            factors.append([sum(c * f[i] for c, f in zip(cs, factors))
                            for i in range(n)])
        vs.append(SimpleVector(n, factors))
    return vs


class TestPluckerResidues:
    @settings(max_examples=100, deadline=None)
    @given(simple_vectors())
    # entries of -1 have residue P31 - 1: in the expansion along the last
    # factor, like-signed products near 2^62 add past 2^63 unless each
    # product is reduced
    @example([SimpleVector(5, [[-1, -1, 1, -1, -1], [1, 1, 0, -1, -1],
                               [-1, 1, 1, -1, -1], [-1, 0, 0, -1, 1],
                               [-1, 1, -1, -1, -1]])])
    def test_exact_minors_mod_p(self, vs):
        n, d = vs[0].ambient_dim, vs[0].degree
        sets = list(itertools.combinations(range(n), d))
        want = [[int(expand(v).coords.get(idx, 0)) % P31 for idx in sets]
                for v in vs]
        got = sb._plucker_residues(vs)
        assert got.dtype == "int64" and got.shape == (len(vs), len(sets))
        assert got.tolist() == want


class TestEdeg:
    def test_calibrated_quick(self):
        est = sb.edeg22_calibrated(60000, seed=0)
        # true value ~ 1.7262; loose window for a quick run
        assert abs(est.mean - 1.726) < 5 * est.std_error + 0.01
        assert set(est.components) == {"E4"}
        assert est.mean == math.pi ** 6 / 128 * est.components["E4"].mean

    def test_streams_of_neighbouring_seeds_are_disjoint(self, monkeypatch):
        used = []
        substream = sp.substream

        def recording(seed, slot, block=0):
            used.append((seed, slot, block))
            return substream(seed, slot, block)

        monkeypatch.setattr(sp, "substream", recording)
        runs = {}
        for seed in (5, 6):
            used.clear()
            sb.edeg22_calibrated(100, seed)
            runs[seed] = set(used)
            # one key per run, and only the second and third boxes draw,
            # each on its own slot: the first is fixed and the fourth is
            # averaged in closed form
            assert {k for k, _, _ in used} == {seed}
            assert sorted(used) == [(seed, 1, 0), (seed, 2, 0)]
        assert not runs[5] & runs[6]

    def test_e4_matches_four_rotated_boxes(self):
        # the same E4 as the plain wedge norm of four independently
        # rotated boxes, which holds none of them fixed
        e4 = sb.edeg22_calibrated(100000, seed=7).components["E4"]
        plain = sb.mc_schubert_shape([(1,)] * 4, 2, 2, 200000, seed=8)
        se = math.hypot(e4.std_error, plain.std_error)
        assert abs(e4.mean - plain.mean) < 4 * se

    def test_components_field_and_worker_identity(self):
        assert sp.Estimate(0.0, 0.0, 1, 0).components == {}
        one = sb.edeg22_calibrated(20000, seed=3, workers=1)
        two = sb.edeg22_calibrated(20000, seed=3, workers=2)
        assert one == two
        assert one.components == two.components
        assert all(c.seed == 3 for c in one.components.values())


class TestEllipke:
    @pytest.mark.parametrize("m", [0.0, 1 - 1e-12, *np.random.default_rng(
        51).random(20)])
    def test_matches_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        e, k = sb._ellipke(np.array([m]))
        assert e[0] == pytest.approx(float(mpmath.ellipe(m)), rel=1e-14)
        assert k[0] == pytest.approx(float(mpmath.ellipk(m)), rel=1e-14)

    def test_m_one(self):
        e, k = sb._ellipke(np.array([0.5, 1.0]))
        assert e[1] == 1.0 and k[1] == math.inf
        assert math.isfinite(k[0])


def hypotenuses(c00, c01, c10, c11):
    """The two hypotenuses that _circle_abs_mean reads of C's entries."""
    return (np.hypot(np.add(c00, c11), np.subtract(c01, c10)),
            np.hypot(np.subtract(c00, c11), np.add(c01, c10)))


def circle_abs_mean(*c):
    """The kernel at one matrix C, given by its four entries."""
    return float(sb._circle_abs_mean(*hypotenuses(
        *(np.array([x]) for x in c)))[0])


class TestCircleAbsMean:
    """E|q^T C r| over independent uniform unit vectors q and r of R^2."""

    def test_zero(self):
        assert circle_abs_mean(0.0, 0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("c", [(1.0, 2.0, 2.0, 4.0), (0.0, 3.0, 0.0, 0.5),
                                   (2.0, 0.0, 0.0, 0.0)])
    def test_singular(self, c):
        # det C = 0: 8 A / pi^2 with A = |C|_F / 2
        a = math.sqrt(sum(x * x for x in c)) / 2
        assert circle_abs_mean(*c) == pytest.approx(8 * a / math.pi ** 2,
                                                    rel=1e-15)

    def test_scalar_multiple_of_rotation(self):
        # C = 3 R_t gives 3 |cos|, whose mean is 6 / pi: m = 0
        t = 0.7
        c = 3 * math.cos(t), -3 * math.sin(t), 3 * math.sin(t), 3 * math.cos(t)
        assert circle_abs_mean(*c) == pytest.approx(6 / math.pi, rel=1e-14)

    def test_broadcasts(self):
        w = np.random.default_rng(53).standard_normal((3, 50))
        got = sb._circle_abs_mean(*hypotenuses(0.0, *w))
        assert got.shape == (50,)
        assert got.tolist() == pytest.approx(
            [circle_abs_mean(0.0, *col) for col in w.T], rel=1e-15)

    @pytest.mark.parametrize("c", [(0.0, 1.3, -0.4, 0.9),
                                   (0.8, -0.2, 0.5, 1.1),
                                   (-2.0, 0.3, 0.7, 0.05)])
    def test_matches_brute_force(self, c):
        rng = np.random.default_rng(52)
        x, y = 2 * math.pi * rng.random((2, 10 ** 6))
        vals = np.abs(c[0] * np.cos(x) * np.cos(y) + c[1] * np.cos(x) * np.sin(y)
                      + c[2] * np.sin(x) * np.cos(y)
                      + c[3] * np.sin(x) * np.sin(y))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - circle_abs_mean(*c)) < 4 * se
