import numpy as np
import pytest

from aadkit import dataio, kernels, linear
from aadkit.design import accumulate, build_lagged
from aadkit.errors import DimensionMismatch, NotSpd
from aadkit.metrics import component_pcc, pcc
from aadkit.numerics import spd_function, svd


def lag_matrix_oracle(x, lags):
    """Independent lagging used only to cross-check the fit path."""
    t_len, n_ch = x.shape
    out = np.zeros((t_len, lags * n_ch))
    for t in range(t_len):
        for c in range(n_ch):
            for l in range(lags):
                if t - l >= 0:
                    out[t, c * lags + l] = x[t - l, c]
    return out


class TestWfFit:
    def test_identity_regression(self, rng):
        y = rng.standard_normal(100)
        d = build_lagged(y, 1)
        stats = accumulate([d], [y])
        model = linear.wf_fit(stats, 0.0)
        assert model.w == pytest.approx([1.0])
        rec = linear.eeg_components(model, d)[:, 0]
        assert pcc(rec, y) == pytest.approx(1.0)

    def test_shrinkage_bound(self, rng):
        x = rng.standard_normal((200, 3))
        y = rng.standard_normal(200)
        stats = accumulate([build_lagged(x, 4)], [y])
        lam = 1e9 * np.trace(stats.rxx)
        model = linear.wf_fit(stats, lam)
        assert np.linalg.norm(model.w) <= np.linalg.norm(stats.rxy) / lam

    def test_normal_equation_oracle(self, rng):
        x = rng.standard_normal((500, 4))
        y = rng.standard_normal(500)
        lags, lam = 3, 0.7
        stats = accumulate([build_lagged(x, lags)], [y])
        model = linear.wf_fit(stats, lam)
        xl = lag_matrix_oracle(x, lags)
        ref = np.linalg.solve(
            xl.T @ xl + lam * np.eye(lags * 4), xl.T @ y
        )
        assert np.linalg.norm(model.w - ref) / np.linalg.norm(ref) < 1e-8

    def test_training_mse_monotone_in_lambda(self, rng):
        # on a full-rank problem, shrinking lambda toward 0 never raises
        # the unpenalized training error
        x = rng.standard_normal((300, 3))
        y = rng.standard_normal(300)
        d = build_lagged(x, 4)
        stats = accumulate([d], [y])
        mses = []
        for lam in (100.0, 10.0, 1.0, 0.1, 0.0):
            model = linear.wf_fit(stats, lam)
            r = d.matrix @ model.w - y
            mses.append(float(r @ r))
        assert all(b <= a + 1e-9 for a, b in zip(mses, mses[1:]))

    def test_training_mse_minimal(self, rng):
        # perturbing the solution never lowers the regularized objective
        x = rng.standard_normal((120, 2))
        y = rng.standard_normal(120)
        lam = 0.5
        d = build_lagged(x, 3)
        stats = accumulate([d], [y])
        model = linear.wf_fit(stats, lam)

        def objective(w):
            r = d.matrix @ w - y
            return r @ r + lam * (w @ w)

        base = objective(model.w)
        for seed in range(20):
            delta = np.random.default_rng(seed).standard_normal(6) * 0.01
            assert objective(model.w + delta) >= base - 1e-9


class TestWfPredict:
    """The Wiener filter's reconstruction is its one EEG-side component;
    its envelope side is the envelope itself."""

    def test_zero_eeg(self, rng):
        d = build_lagged(np.zeros((50, 2)), 3)
        model = linear.WfModel(rng.standard_normal(6), 0.0, 3, 2)
        got = linear.eeg_components(model, d)
        assert got.shape == (50, 1)
        assert np.all(got == 0)

    def test_one_hot_selects_column(self, rng):
        d = build_lagged(rng.standard_normal((30, 2)), 4)
        w = np.zeros(8)
        w[5] = 1.0
        model = linear.WfModel(w, 0.0, 4, 2)
        got = linear.eeg_components(model, d)
        assert np.array_equal(got[:, 0], d.matrix[:, 5])

    def test_scalar_loop_oracle(self, rng):
        x = rng.standard_normal((40, 3))
        lags = 4
        w = rng.standard_normal(12)
        d = build_lagged(x, lags)
        model = linear.WfModel(w, 0.0, lags, 3)
        got = linear.eeg_components(model, d)[:, 0]
        ref = np.zeros(40)
        for t in range(40):
            for c in range(3):
                for l in range(lags):
                    if t - l >= 0:
                        ref[t] += x[t - l, c] * w[c * lags + l]
        assert np.allclose(got, ref, atol=1e-12)

    def test_matches_matrix_vector_product(self, rng):
        d = build_lagged(rng.standard_normal((60, 3)), 5)
        model = linear.WfModel(rng.standard_normal(15), 0.0, 5, 3)
        got = linear.eeg_components(model, d)
        assert np.array_equal(got[:, 0], d.matrix @ model.w)

    def test_envelope_side_is_identity(self, rng):
        env = rng.standard_normal(40)
        model = linear.WfModel(np.zeros(6), 0.0, 3, 2)
        got = linear.envelope_components(model, env)
        assert got.shape == (40, 1)
        assert np.array_equal(got[:, 0], env)

    def test_dimension_mismatch(self, rng):
        d = build_lagged(rng.standard_normal((30, 2)), 4)
        model = linear.WfModel(np.zeros(6), 0.0, 3, 2)
        with pytest.raises(DimensionMismatch):
            linear.eeg_components(model, d)


def cca_stats(rng, t_len, n_ch, lags, y_lags, y=None):
    x = rng.standard_normal((t_len, n_ch))
    y = rng.standard_normal(t_len) if y is None else y
    return (
        accumulate([build_lagged(x, lags)], [build_lagged(y, y_lags)]),
        x,
        y,
    )


class TestCcaFit:
    def test_perfect_correlation(self, rng):
        y = rng.standard_normal(300)
        stats = accumulate([build_lagged(y, 1)], [build_lagged(y, 1)])
        model = linear.cca_fit(stats, 0.0, 1)
        assert model.correlations[0] == pytest.approx(1.0, abs=1e-9)

    def test_correlations_non_increasing(self, rng):
        stats, _, _ = cca_stats(rng, 400, 4, 3, 5)
        model = linear.cca_fit(stats, 0.01, 4)
        assert np.all(np.diff(model.correlations) <= 1e-12)
        assert np.all(model.correlations >= 0)
        assert np.all(model.correlations <= 1)

    def test_generalized_eigenvalue_oracle(self, rng):
        stats, _, _ = cca_stats(rng, 600, 3, 4, 6)
        model = linear.cca_fit(stats, 0.0, 5)
        prod = (
            np.linalg.solve(stats.rxx, stats.rxy_mat)
            @ np.linalg.solve(stats.ryy, stats.rxy_mat.T)
        )
        eig = np.sort(np.real(np.linalg.eigvals(prod)))[::-1]
        ref = np.sqrt(np.clip(eig[:5], 0, None))
        assert np.max(np.abs(model.correlations - ref)) < 1e-8

    def test_reg_grid_shares_one_decomposition(self, rng, monkeypatch):
        stats, _, _ = cca_stats(rng, 500, 3, 4, 6)
        direct = []
        for reg in (0.0, 0.01, 1.0, 100.0):
            wxw = spd_function(stats.rxx + reg * np.eye(12), "inv_sqrt")
            wyw = spd_function(stats.ryy + reg * np.eye(6), "inv_sqrt")
            u, s, v = svd(wxw @ stats.rxy_mat @ wyw)
            direct.append((wxw @ u[:, :2], np.clip(s[:2], 0.0, 1.0)))
        calls = []
        sweep = kernels.jacobi_sweep
        monkeypatch.setattr(kernels, "jacobi_sweep",
                            lambda a, v: calls.append(a.shape) or sweep(a, v))
        for reg, (wx, corr) in zip((0.0, 0.01, 1.0, 100.0), direct):
            model = linear.cca_fit(stats, reg, 2)
            if reg == 0.0:
                assert np.array_equal(model.wx, wx)
                assert np.array_equal(model.correlations, corr)
            assert np.allclose(model.wx, wx, rtol=0,
                               atol=1e-12 * np.abs(wx).max())
            assert np.allclose(model.correlations, corr, rtol=0, atol=1e-12)
        # rxx and ryy, each once, for all four fits
        assert calls == [(12, 12), (6, 6)]

    def test_rank_deficient_rxx_not_spd_at_reg_zero(self, rng):
        x = rng.standard_normal((400, 2))
        x = np.column_stack([x, x[:, 0]])  # a duplicated channel
        y = rng.standard_normal(400)
        stats = accumulate([build_lagged(x, 3)], [build_lagged(y, 4)])
        with pytest.raises(NotSpd):
            linear.cca_fit(stats, 0.0, 2)
        assert linear.cca_fit(stats, 1.0, 2).wx.shape == (9, 2)

    def test_invariant_to_channel_mixing(self, rng):
        t_len, n_ch = 500, 3
        x = rng.standard_normal((t_len, n_ch))
        y = rng.standard_normal(t_len)
        mix = rng.standard_normal((n_ch, n_ch)) + 3 * np.eye(n_ch)
        s1 = accumulate([build_lagged(x, 2)], [build_lagged(y, 3)])
        s2 = accumulate([build_lagged(x @ mix, 2)], [build_lagged(y, 3)])
        c1 = linear.cca_fit(s1, 0.0, 3).correlations
        c2 = linear.cca_fit(s2, 0.0, 3).correlations
        assert np.max(np.abs(c1 - c2)) < 1e-6


def cca_score(xd, envelope, model):
    """Window score of a candidate envelope under a CCA model."""
    return component_pcc(
        linear.eeg_components(model, xd),
        linear.envelope_components(model, envelope),
    )


class TestCcaScore:
    def test_training_candidate_dominates_noise(self, rng):
        t_len = 500
        x = rng.standard_normal((t_len, 3))
        y = x @ np.array([0.6, -0.2, 0.4]) + 0.1 * rng.standard_normal(t_len)
        xd = build_lagged(x, 2)
        stats = accumulate([xd], [build_lagged(y, 2)])
        model = linear.cca_fit(stats, 0.0, 2)
        s_true = cca_score(xd, y, model)
        s_noise = cca_score(xd, rng.standard_normal(t_len), model)
        assert s_true >= s_noise

    def test_single_component_equals_pcc(self, rng):
        stats, x, y = cca_stats(rng, 300, 2, 2, 3)
        model = linear.cca_fit(stats, 0.1, 1)
        xd = build_lagged(x, 2)
        yd = build_lagged(y, 3)
        got = cca_score(xd, y, model)
        want = pcc(xd.matrix @ model.wx[:, 0], yd.matrix @ model.wy[:, 0])
        assert got == pytest.approx(want)

    def test_components_are_lagged_projections(self, rng):
        stats, x, y = cca_stats(rng, 200, 3, 2, 4)
        model = linear.cca_fit(stats, 0.1, 2)
        xd = build_lagged(x, 2)
        px = linear.eeg_components(model, xd)
        py = linear.envelope_components(model, y)
        assert px.shape == py.shape == (200, 2)
        assert np.array_equal(px, xd.matrix @ model.wx)
        assert np.array_equal(py, build_lagged(y, 4).matrix @ model.wy)

    def test_argmax_invariant_to_candidate_scaling(self, rng):
        stats, x, y = cca_stats(rng, 300, 2, 2, 2)
        model = linear.cca_fit(stats, 0.1, 2)
        xd = build_lagged(x, 2)
        cands = [y, rng.standard_normal(300), rng.standard_normal(300)]
        scores = [cca_score(xd, c, model) for c in cands]
        scaled = [cca_score(xd, 3.7 * c, model) for c in cands]
        assert np.argmax(scores) == np.argmax(scaled)

    def test_dimension_mismatch(self, rng):
        stats, _, _ = cca_stats(rng, 100, 2, 3, 2)
        model = linear.cca_fit(stats, 0.1, 1)
        with pytest.raises(DimensionMismatch):
            linear.eeg_components(model, build_lagged(
                rng.standard_normal((100, 2)), 4))


def session_stats(lags, target_lags):
    """Training statistics of three trials of a seeded synthetic session,
    summed as the pipeline sums them."""
    session = dataio.synth_generate(dataio.SynthConfig(
        n_trials=3, duration_s=20.0, n_channels=4, seed=11))
    total = None
    for trial in session.trials:
        y = dataio.build_attended_streams(trial).attended
        part = accumulate([build_lagged(trial.eeg.samples, lags)],
                          [build_lagged(y, target_lags) if target_lags
                           else y])
        total = part if total is None else total + part
    return total


class TestGroupedFits:
    """A sequence of regularizer values fits every value with one call,
    each model bit-identical to its own fit."""

    def test_wf_lam_sequence(self, monkeypatch):
        stats = session_stats(6, 0)
        lams = list(np.logspace(-6, 3, 10))
        single = [linear.wf_fit(stats, lam) for lam in lams]
        calls = []
        cholesky = kernels.cholesky_inplace
        monkeypatch.setattr(kernels, "cholesky_inplace",
                            lambda *a: calls.append(1) or cholesky(*a))
        grouped = linear.wf_fit(stats, lams)
        assert len(calls) == len(lams)
        assert isinstance(grouped, list) and len(grouped) == len(lams)
        for got, want in zip(grouped, single):
            assert np.array_equal(got.w, want.w)
            assert (got.lam, got.lags, got.channels) == (
                want.lam, want.lags, want.channels)

    def test_cca_reg_sequence(self, monkeypatch):
        stats = session_stats(6, 11)
        regs = [0.0] + list(np.logspace(-2, 2, 5))
        single = [linear.cca_fit(stats, reg, 2) for reg in regs]
        calls = []
        sweep = kernels.svd_sweep
        monkeypatch.setattr(kernels, "svd_sweep",
                            lambda m, out: calls.append(m.shape)
                            or sweep(m, out))
        grouped = linear.cca_fit(stats, regs, 2)
        assert calls == [(len(regs), 24, 11)]
        assert isinstance(grouped, list) and len(grouped) == len(regs)
        for got, want in zip(grouped, single):
            for name in ("wx", "wy", "correlations"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.reg == want.reg

    def test_cca_reg_sequence_names_the_member_not_spd(self, rng):
        x = rng.standard_normal((400, 2))
        x = np.column_stack([x, x[:, 0]])  # a duplicated channel
        y = rng.standard_normal(400)
        stats = accumulate([build_lagged(x, 2)], [build_lagged(y, 2)])
        assert len(linear.cca_fit(stats, [0.1, 1.0], 1)) == 2
        with pytest.raises(NotSpd, match=r"\(member 1\)"):
            linear.cca_fit(stats, [0.1, 0.0], 1)


class TestChannelWeightStats:
    def test_zero_weights(self):
        s = linear.channel_weight_stats(np.zeros(6), 3, 2)
        assert np.all(s.max_abs == 0) and np.all(s.mean_sq == 0)

    def test_hand_computed(self):
        s = linear.channel_weight_stats(
            np.array([1.0, -2.0, 0.0, 3.0, 0.0, 0.0]), 3, 2
        )
        assert np.allclose(s.max_abs, [2.0, 3.0])
        assert np.allclose(s.mean_sq, [5.0 / 3.0, 3.0])

    def test_lag_permutation_invariant(self, rng):
        w = rng.standard_normal(8)
        base = linear.channel_weight_stats(w, 4, 2)
        shuffled = w.reshape(2, 4)[:, [2, 0, 3, 1]].ravel()
        out = linear.channel_weight_stats(shuffled, 4, 2)
        assert np.allclose(base.max_abs, out.max_abs)
        assert np.allclose(base.mean_sq, out.mean_sq)
