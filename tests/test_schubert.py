import itertools
import math
import operator

from hypothesis import example, given, settings, strategies as st
import pytest

from pirings import sampling as sp
from pirings import schubert as sb
from pirings.exterior import SimpleVector, expand
from pirings.schubert import YoungDiagram


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


class TestShapes:
    def test_box_with_dual(self):
        est = sb.mc_schubert_shape([(1,), (2, 1)], 2, 2, 100000, seed=0)
        expect = 4 / math.pi ** 2
        assert abs(est.mean - expect) < 3 * est.std_error

    def test_self_dual_two(self):
        est = sb.mc_schubert_shape([(2,), (2,)], 2, 2, 100000, seed=1)
        assert abs(est.mean - 0.5) < 3 * est.std_error

    def test_non_dual_vanishes_samplewise(self):
        est = sb.mc_schubert_shape([(2,), (1, 1)], 2, 2, 20000, seed=2)
        assert est.max_value < 1e-10

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
        substream = sb.substream

        def recording(seed, slot, block=0):
            used.append((seed, slot, block))
            return substream(seed, slot, block)

        monkeypatch.setattr(sb, "substream", recording)
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
        want = [[int(expand(v).coords.get(idx, 0)) % sb.P31 for idx in sets]
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
            # one key per run, and each of the four boxes on its own slot
            # (slot 0 is the fixed first box, which draws nothing)
            assert {k for k, _, _ in used} == {seed}
            assert len(used) == len(runs[seed]) == 4
        assert not runs[5] & runs[6]

    def test_components_field_and_worker_identity(self):
        assert sp.Estimate(0.0, 0.0, 1, 0).components == {}
        one = sb.edeg22_calibrated(20000, seed=3, workers=1)
        two = sb.edeg22_calibrated(20000, seed=3, workers=2)
        assert one == two
        assert one.components == two.components
        assert all(c.seed == 3 for c in one.components.values())
