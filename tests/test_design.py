import numpy as np
import pytest

from aadkit.design import CovStats, LaggedDesign, accumulate, build_lagged
from aadkit.errors import BadLag, DimensionMismatch


def loop_lagged(x, lags):
    """The documented layout by a zero-filled triple loop: column c*L + l
    holds x_c(t - l), zero where t - l < 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, n_ch = x.shape
    out = np.zeros((t_len, n_ch * lags))
    for t in range(t_len):
        for c in range(n_ch):
            for l in range(min(lags, t + 1)):
                out[t, c * lags + l] = x[t - l, c]
    return LaggedDesign(out, lags, n_ch)


class TestBuildLagged:
    def test_single_lag_is_verbatim(self, rng):
        x = rng.standard_normal((20, 3))
        d = build_lagged(x, 1)
        assert np.array_equal(d.matrix, x)

    def test_two_lag_structure(self):
        d = build_lagged(np.array([1.0, 2.0, 3.0]), 2)
        assert np.array_equal(
            d.matrix, np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
        )

    def test_triple_loop_oracle(self, rng):
        x = rng.standard_normal((15, 4))
        lags = 5
        d = build_lagged(x, lags)
        for t in range(15):
            for c in range(4):
                for l in range(lags):
                    want = x[t - l, c] if t - l >= 0 else 0.0
                    assert d.matrix[t, c * lags + l] == want

    def test_bad_lag(self):
        with pytest.raises(BadLag):
            build_lagged(np.zeros((3, 1)), 4)
        with pytest.raises(BadLag):
            build_lagged(np.zeros((3, 1)), 0)


class TestLaggedLayout:
    """The design is a fresh C-ordered float64 array whatever the input.

    A strided build can hand out a view (one channel reshapes to a
    negative-stride view), and matmuls on a view round differently from
    matmuls on a C-ordered copy, so the covariance sums are checked to
    the bit against a design built by the triple loop.
    """

    @staticmethod
    def inputs(rng):
        wide = rng.standard_normal((40, 16))
        return {
            "1-D": rng.standard_normal(40),
            "(T, 1)": rng.standard_normal((40, 1)),
            "(T, 8)": rng.standard_normal((40, 8)),
            "column slice": wide[:, ::2],
        }

    @pytest.mark.parametrize("lags", [1, 6, 40])
    def test_fresh_c_ordered_float64(self, rng, lags):
        for name, x in self.inputs(rng).items():
            m = build_lagged(x, lags).matrix
            assert m.dtype == np.float64, name
            assert m.flags.c_contiguous, name
            assert not np.shares_memory(m, x), name
            assert np.array_equal(m, loop_lagged(x, lags).matrix), name

    @pytest.mark.parametrize("n_ch", [1, 8])
    @pytest.mark.parametrize("lags", [1, 6, 11, 21])
    def test_accumulate_bit_identical_to_loop(self, n_ch, lags):
        rng = np.random.default_rng(100 * n_ch + lags)
        x = rng.standard_normal((300, n_ch))
        y = rng.standard_normal(300)
        for fast, slow in (
            (accumulate([build_lagged(x, lags)], [y]),
             accumulate([loop_lagged(x, lags)], [y])),
            (accumulate([build_lagged(x, lags)], [build_lagged(y, lags)]),
             accumulate([loop_lagged(x, lags)], [loop_lagged(y, lags)])),
        ):
            for key in ("rxx", "rxy", "ryy", "rxy_mat"):
                a, b = getattr(fast, key), getattr(slow, key)
                assert (a is None) == (b is None), key
                if a is not None:
                    assert np.array_equal(a, b), (key, n_ch, lags)


class TestAccumulate:
    def test_identity_design(self):
        d = LaggedDesign(np.eye(4), 1, 4)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        stats = accumulate([d], [y])
        assert np.array_equal(stats.rxx, np.eye(4))
        assert np.array_equal(stats.rxy, y)

    def test_two_equal_windows_double(self, rng):
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        d = build_lagged(x, 3)
        one = accumulate([d], [y])
        two = accumulate([d, d], [y, y])
        assert np.allclose(two.rxx, 2 * one.rxx)
        assert np.allclose(two.rxy, 2 * one.rxy)
        assert two.n_rows == 2 * one.n_rows

    def test_concatenation_oracle(self, rng):
        designs = [build_lagged(rng.standard_normal((20, 2)), 4)
                   for _ in range(3)]
        targets = [rng.standard_normal(20) for _ in range(3)]
        stats = accumulate(designs, targets)
        big_x = np.vstack([d.matrix for d in designs])
        big_y = np.concatenate(targets)
        assert np.allclose(stats.rxx, big_x.T @ big_x, atol=1e-10)
        assert np.allclose(stats.rxy, big_x.T @ big_y, atol=1e-10)

    def test_lagged_target_stats(self, rng):
        x = build_lagged(rng.standard_normal((40, 2)), 3)
        y = build_lagged(rng.standard_normal(40), 5)
        stats = accumulate([x], [y])
        assert stats.ryy.shape == (5, 5)
        assert stats.rxy_mat.shape == (6, 5)
        assert np.allclose(stats.ryy, y.matrix.T @ y.matrix)
        assert np.allclose(stats.rxy_mat, x.matrix.T @ y.matrix)
        assert stats.target_lags == 5

    def test_symmetry_and_psd(self, rng):
        x = build_lagged(rng.standard_normal((50, 3)), 4)
        stats = accumulate([x], [rng.standard_normal(50)])
        assert np.array_equal(stats.rxx, stats.rxx.T)
        vals = np.linalg.eigvalsh(stats.rxx)
        assert vals.min() >= -1e-10 * np.trace(stats.rxx)

    def test_partitioned_windows_use_own_padding(self, rng):
        # each window is lagged with its own zero padding, so splitting a
        # signal changes the statistics near the cut: the tested contract
        # is that split statistics equal the sum of per-window statistics,
        # not the whole-signal statistics
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        whole = accumulate([build_lagged(x, 4)], [y])
        parts = accumulate(
            [build_lagged(x[:20], 4), build_lagged(x[20:], 4)],
            [y[:20], y[20:]],
        )
        summed = accumulate([build_lagged(x[:20], 4)], [y[:20]]) + accumulate(
            [build_lagged(x[20:], 4)], [y[20:]]
        )
        assert np.allclose(parts.rxx, summed.rxx)
        assert np.allclose(parts.rxy, summed.rxy)
        assert not np.allclose(parts.rxx, whole.rxx)

    def test_mismatched_lengths(self, rng):
        x = build_lagged(rng.standard_normal((10, 2)), 2)
        with pytest.raises(DimensionMismatch):
            accumulate([x], [np.zeros(9)])
        with pytest.raises(DimensionMismatch):
            accumulate([x], [])


def lagged_stats(rng, lags, channels, target_lags=0):
    """Statistics of one random 30-sample window: a vector target (WF)
    when ``target_lags`` is 0, else a lagged one (CCA)."""
    x = build_lagged(rng.standard_normal((30, channels)), lags)
    y = rng.standard_normal(30)
    return accumulate([x], [build_lagged(y, target_lags) if target_lags
                            else y])


class TestCovStatsAdd:
    """``+`` is the one merge of statistics: it sums two statistics of
    one layout and raises DimensionMismatch naming the first field in
    which the layouts differ."""

    @pytest.mark.parametrize("target_lags", [0, 4])
    def test_sums_every_field(self, rng, target_lags):
        a = lagged_stats(rng, 3, 2, target_lags)
        b = lagged_stats(rng, 3, 2, target_lags)
        total = a + b
        for key in ("rxx", "rxy", "ryy", "rxy_mat"):
            x, y = getattr(a, key), getattr(b, key)
            if x is None:
                assert getattr(total, key) is None, key
            else:
                assert np.array_equal(getattr(total, key), x + y), key
        assert total.n_rows == 60
        assert (total.lags, total.channels, total.target_lags) == (
            3, 2, target_lags)

    def test_lags_channels_swap_refused(self, rng):
        # both designs are 12 columns wide, so rxx shapes agree
        a, b = lagged_stats(rng, 4, 3), lagged_stats(rng, 3, 4)
        assert a.rxx.shape == b.rxx.shape
        with pytest.raises(DimensionMismatch, match="lags"):
            a + b

    def test_target_lags_refused(self, rng):
        a, b = lagged_stats(rng, 2, 2, 3), lagged_stats(rng, 2, 2, 5)
        with pytest.raises(DimensionMismatch, match="target_lags"):
            a + b

    def test_wf_plus_cca_refused(self, rng):
        wf, cca = lagged_stats(rng, 2, 2), lagged_stats(rng, 2, 2, 3)
        for a, b in ((wf, cca), (cca, wf)):
            with pytest.raises(DimensionMismatch):
                a + b

    def test_array_shape_refused(self):
        a = CovStats(rxx=np.eye(2), rxy=np.zeros(2), lags=2, channels=1)
        b = CovStats(rxx=np.eye(2), rxy=np.zeros(3), lags=2, channels=1)
        with pytest.raises(DimensionMismatch, match="rxy"):
            a + b

    def test_accumulate_refuses_mixed_layouts(self, rng):
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        with pytest.raises(DimensionMismatch, match="lags"):
            accumulate([build_lagged(x, 2), build_lagged(x, 3)], [y, y])
        with pytest.raises(DimensionMismatch, match="target_lags"):
            accumulate([build_lagged(x, 2)] * 2, [y, build_lagged(y, 2)])
