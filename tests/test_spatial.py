import numpy as np
import pytest

from aadkit import kernels, spatial
from aadkit.errors import (
    AadError,
    BadConfig,
    DegenerateClass,
    DimensionMismatch,
    NotSpd,
    SingularScatter,
)
from aadkit.numerics import gen_sym_eig, spd_function, symmetrize


def spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return symmetrize(a @ a.T + scale * n * np.eye(n))


def diag_contrast_segments(fs=40.0, seconds=10.0):
    """Two classes with (approximately) diag(2,1) and diag(1,2) covariance
    built from orthogonal equal-gain carriers."""
    t = np.arange(int(seconds * fs)) / fs
    s1 = np.sin(2 * np.pi * 8 * t)
    s2 = np.cos(2 * np.pi * 8 * t)
    a = np.column_stack([np.sqrt(2) * s1, s2])
    b = np.column_stack([s1, np.sqrt(2) * s2])
    return [a, b, a.copy(), b.copy()], [0, 1, 0, 1]


class TestCsp:
    def test_diagonal_contrast_filter(self):
        segments, labels = diag_contrast_segments()
        model = spatial.csp_fit(
            segments, labels, 40.0, bands=((1.0, 19.0),), f_per=1, n_classes=2
        )
        w = model.filters[(0, 0)][:, 0]
        cos = abs(w[0]) / np.linalg.norm(w)
        assert cos > 0.999

    def test_eigen_relation_residual(self, rng):
        segments = [rng.standard_normal((200, 8)) @ spd(rng, 8) ** 0
                    + rng.standard_normal((200, 8)) for _ in range(12)]
        labels = [i % 3 for i in range(12)]
        model = spatial.csp_fit(segments, labels, 40.0, f_per=3)
        for (j, k), w in model.filters.items():
            rk = model.class_cov[(j, k)]
            rall = model.total_cov[j]
            lam = model.eigenvalues[(j, k)]
            for i in range(w.shape[1]):
                resid = np.linalg.norm(rk @ w[:, i] - lam[i] * (rall @ w[:, i]))
                assert resid < 1e-6 * np.linalg.norm(rall)

    def test_duplicate_segments_same_filters(self, rng):
        segments = [rng.standard_normal((100, 4)) for _ in range(6)]
        labels = [0, 1, 2, 0, 1, 2]
        m1 = spatial.csp_fit(segments, labels, 40.0, f_per=2)
        m2 = spatial.csp_fit(segments * 2, labels * 2, 40.0, f_per=2)
        for key in m1.filters:
            a, b = m1.filters[key], m2.filters[key]
            # columns equal up to sign
            for i in range(a.shape[1]):
                assert min(
                    np.linalg.norm(a[:, i] - b[:, i]),
                    np.linalg.norm(a[:, i] + b[:, i]),
                ) < 1e-8

    def test_rayleigh_quotient_maximal(self, rng):
        segments = [rng.standard_normal((150, 6)) for _ in range(9)]
        labels = [i % 3 for i in range(9)]
        model = spatial.csp_fit(segments, labels, 40.0, f_per=1)
        for (j, k), w in model.filters.items():
            rk, rall = model.class_cov[(j, k)], model.total_cov[j]
            top = w[:, 0]
            q_top = (top @ rk @ top) / (top @ rall @ top)
            probe = np.random.default_rng(5)
            for _ in range(1000):
                v = probe.standard_normal(6)
                q = (v @ rk @ v) / (v @ rall @ v)
                assert q <= q_top + 1e-9

    def test_degenerate_class(self, rng):
        segments = [rng.standard_normal((50, 3)) for _ in range(4)]
        with pytest.raises(DegenerateClass):
            spatial.csp_fit(segments, [0, 0, 0, 0], 40.0)

    def test_rank_zero_class_named(self, rng):
        segments = [rng.standard_normal((50, 3)) for _ in range(4)]
        segments += [np.zeros((50, 3)), np.zeros((50, 3))]
        with pytest.raises(DegenerateClass, match="class 2 covariance"):
            spatial.csp_fit(segments, [0, 1, 0, 1, 2, 2], 40.0, f_per=2)

    def test_mixed_channel_counts(self, rng):
        segments = [rng.standard_normal((50, 3)) for _ in range(3)]
        segments.append(rng.standard_normal((50, 4)))
        with pytest.raises(DimensionMismatch):
            spatial.csp_fit(segments, [0, 1, 0, 1], 40.0, f_per=2)

    def test_one_dimensional_window(self, rng):
        segments = [rng.standard_normal((50, 3)) for _ in range(3)]
        segments.append(rng.standard_normal(50))
        with pytest.raises(DimensionMismatch):
            spatial.csp_fit(segments, [0, 1, 0, 1], 40.0, f_per=2)

    @pytest.mark.parametrize("f_per", [0, -1])
    def test_f_per_below_one(self, rng, f_per):
        segments = [rng.standard_normal((50, 3)) for _ in range(4)]
        with pytest.raises(DimensionMismatch):
            spatial.csp_fit(segments, [0, 1, 0, 1], 40.0, f_per=f_per)

    @pytest.mark.parametrize("labels", [[0, 1, 2, -1], [0, 1, 2, 3]])
    def test_label_outside_class_range(self, rng, labels):
        segments = [rng.standard_normal((50, 3)) for _ in range(4)]
        with pytest.raises(AadError, match="outside"):
            spatial.csp_fit(segments, labels, 40.0, f_per=2, n_classes=3)


class TestCspFeatures:
    def test_feature_length(self, rng):
        segments = [rng.standard_normal((200, 6)) for _ in range(9)]
        labels = [i % 3 for i in range(9)]
        model = spatial.csp_fit(segments, labels, 40.0, f_per=4)
        feats = spatial.csp_features(segments[0], model)
        assert feats.shape == (4 * 3 * 4,)

    def test_scaling_adds_log4(self, rng):
        segments = [rng.standard_normal((200, 4)) for _ in range(6)]
        labels = [i % 2 for i in range(6)]
        model = spatial.csp_fit(segments, labels, 40.0, f_per=2, n_classes=2)
        f1 = spatial.csp_features(segments[0], model)
        f2 = spatial.csp_features(2.0 * segments[0], model)
        assert np.allclose(f2 - f1, np.log(4.0), atol=1e-9)

    def test_channel_mismatch(self, rng):
        segments = [rng.standard_normal((100, 4)) for _ in range(4)]
        model = spatial.csp_fit(segments, [0, 1, 0, 1], 40.0, f_per=2,
                                n_classes=2)
        with pytest.raises(DimensionMismatch):
            spatial.csp_features(rng.standard_normal((100, 5)), model)

    def test_one_dimensional_window(self, rng):
        segments = [rng.standard_normal((100, 4)) for _ in range(4)]
        model = spatial.csp_fit(segments, [0, 1, 0, 1], 40.0, f_per=2,
                                n_classes=2)
        with pytest.raises(DimensionMismatch):
            spatial.csp_features(rng.standard_normal(100), model)
        with pytest.raises(DimensionMismatch):
            spatial.csp_features([segments[0], rng.standard_normal(100)],
                                 model)


def per_window_features(window, model):
    """csp_features of one window, one sosfilt call per band."""
    feats = []
    for j, cascade in enumerate(spatial._band_cascades(model.bands,
                                                       model.fs)):
        f = kernels.sosfilt(cascade.sections, np.ascontiguousarray(window))
        f = f - f.mean(axis=0)
        for k in range(model.n_classes):
            proj = f @ model.filters[(j, k)]
            var = np.mean(proj ** 2, axis=0)
            feats.append(np.log(np.maximum(var, 1e-300)))
    return np.concatenate(feats)


def per_window_fit(windows, labels, fs, f_per, n_classes):
    """(filters, eigenvalues) of csp_fit, filtering one window at a
    time."""
    labels = np.asarray(labels)
    filters, eigenvalues = {}, {}
    for j, cascade in enumerate(spatial._band_cascades(spatial.DEFAULT_BANDS,
                                                       fs)):
        covs = [
            spatial.segment_covariance(
                kernels.sosfilt(cascade.sections, np.ascontiguousarray(w))
            )
            for w in windows
        ]
        r_all = symmetrize(np.mean(covs, axis=0))
        for k in range(n_classes):
            r_k = symmetrize(np.mean([covs[i] for i in np.flatnonzero(
                labels == k)], axis=0))
            pairs = gen_sym_eig(r_k, r_all)
            filters[(j, k)] = pairs.vectors[:, :f_per]
            eigenvalues[(j, k)] = pairs.values[:f_per]
    return filters, eigenvalues


class TestWindowStacks:
    """Windows filtered as one stack give the per-window results bit for
    bit."""

    @staticmethod
    def fit(rng, t_len, n_ch, n=6):
        windows = [rng.standard_normal((t_len, n_ch)) for _ in range(n)]
        labels = [i % 3 for i in range(n)]
        return spatial.csp_fit(windows, labels, 40.0, f_per=min(2, n_ch))

    @pytest.mark.parametrize("n", [1, 2, 17])
    @pytest.mark.parametrize("t_len", [2, 3, 200, 401])
    @pytest.mark.parametrize("n_ch", [1, 4, 8])
    def test_features_match_per_window(self, rng, n, t_len, n_ch):
        model = self.fit(rng, 200, n_ch)
        windows = [rng.standard_normal((t_len, n_ch)) for _ in range(n)]
        want = np.stack([per_window_features(w, model) for w in windows])
        assert np.array_equal(spatial.csp_features(windows, model), want)
        assert np.array_equal(spatial.csp_features(np.stack(windows), model),
                              want)
        assert np.array_equal(spatial.csp_features(windows[0], model),
                              want[0])

    def test_strided_windows(self, rng):
        # row slices of one recording, as the pipeline passes them
        model = self.fit(rng, 200, 4)
        eeg = rng.standard_normal((1000, 4))
        windows = [eeg[a:a + 200] for a in range(0, 1000, 200)]
        want = np.stack([per_window_features(w, model) for w in windows])
        assert np.array_equal(spatial.csp_features(windows, model), want)

    def test_empty_stack(self, rng):
        model = self.fit(rng, 200, 4)
        empty = np.empty((0, 200, 4))
        assert spatial.csp_features(empty, model).shape == (0, 4 * 3 * 2)

    # the all-class covariance is singular unless n * (T - 1) >= C
    @pytest.mark.parametrize("n, t_len, n_ch", [
        (n, t_len, n_ch)
        for n in (2, 17) for t_len in (2, 3, 200, 401) for n_ch in (1, 4, 8)
        if n * (t_len - 1) >= n_ch
    ])
    def test_fit_matches_per_window(self, rng, n, t_len, n_ch):
        windows = [rng.standard_normal((t_len, n_ch)) for _ in range(n)]
        labels = [i % 2 for i in range(n)]
        f_per = min(3, n_ch)
        model = spatial.csp_fit(windows, labels, 40.0, f_per=f_per,
                                n_classes=2)
        filters, eigenvalues = per_window_fit(windows, labels, 40.0, f_per, 2)
        for key in filters:
            assert np.array_equal(model.filters[key], filters[key])
            assert np.array_equal(model.eigenvalues[key], eigenvalues[key])

    # classes of 15 windows, past numpy's 8-wide pairwise blocks; one
    # channel, whose class means sum pairwise rather than in order; and
    # f_per = 1, whose products depend on the filter's strides
    @pytest.mark.parametrize("n_ch, f_per", [(1, 1), (3, 1), (4, 4), (8, 2)])
    def test_reductions_over_bands_and_classes(self, rng, n_ch, f_per):
        windows = [rng.standard_normal((80, n_ch)) for _ in range(45)]
        labels = [i % 3 for i in range(45)]
        model = spatial.csp_fit(windows, labels, 40.0, f_per=f_per,
                                n_classes=3)
        filters, eigenvalues = per_window_fit(windows, labels, 40.0, f_per, 3)
        for key in filters:
            assert np.array_equal(model.filters[key], filters[key])
            assert np.array_equal(model.eigenvalues[key], eigenvalues[key])
        want = np.stack([per_window_features(w, model) for w in windows])
        assert np.array_equal(model.train_features, want)

    def test_training_features_are_the_features(self, rng):
        windows = rng.standard_normal((6, 120, 4))
        model = spatial.csp_fit(windows, [0, 1, 2, 1, 0, 2], 40.0, f_per=2)
        assert np.array_equal(model.train_features,
                              spatial.csp_features(windows, model))

    def test_rgc_training_features_are_the_features(self, rng):
        windows = rng.standard_normal((4, 120, 4))
        model = spatial.rgc_fit(windows, shrinkage=0.1)
        want = np.stack([spatial.tangent_features(w, model) for w in windows])
        assert np.array_equal(model.train_features, want)


class TestCovarianceStacks:
    """Stacked segment_covariance and tangent_features equal the results
    computed one window at a time, bit for bit."""

    @pytest.mark.parametrize("shrinkage", [0.0, 0.1])
    @pytest.mark.parametrize("n_ch", [1, 4, 8, 16])
    def test_segment_covariance(self, rng, shrinkage, n_ch):
        for t_len in (2, 80, 200):
            windows = [rng.standard_normal((t_len, n_ch)) for _ in range(6)]
            want = np.stack([spatial.segment_covariance(w, shrinkage)
                             for w in windows])
            assert np.array_equal(
                spatial.segment_covariance(windows, shrinkage), want
            )
            assert np.array_equal(
                spatial.segment_covariance(np.stack(windows[::2]), shrinkage),
                want[::2],
            )

    def test_strided_windows(self, rng):
        eeg = rng.standard_normal((1000, 8))
        windows = [eeg[a:a + 200] for a in range(0, 1000, 200)]
        want = np.stack([spatial.segment_covariance(w, 0.1) for w in windows])
        assert np.array_equal(spatial.segment_covariance(windows, 0.1), want)

    @pytest.mark.parametrize("n_ch", [4, 8, 16])
    def test_tangent_features(self, rng, n_ch):
        train = [rng.standard_normal((120, n_ch)) for _ in range(6)]
        model = spatial.rgc_fit(train, shrinkage=0.1)
        windows = [rng.standard_normal((120, n_ch)) for _ in range(5)]
        want = np.stack([spatial.tangent_features(w, model)
                         for w in windows])
        assert want.shape == (5, n_ch * (n_ch + 1) // 2)
        assert np.array_equal(spatial.tangent_features(windows, model), want)
        assert np.array_equal(
            spatial.tangent_features(np.stack(windows[::2]), model),
            want[::2],
        )
        covs = spatial.segment_covariance(windows, 0.1)
        assert np.array_equal(spatial.tangent_from_cov(covs, model), want)

    def test_not_spd_window_named(self, rng):
        train = [rng.standard_normal((120, 4)) for _ in range(6)]
        model = spatial.rgc_fit(train, shrinkage=0.0)
        windows = [rng.standard_normal((120, 4)) for _ in range(4)]
        windows[2] = np.zeros((120, 4))
        with pytest.raises(NotSpd, match=r"member 2\)"):
            spatial.tangent_features(windows, model)

    def test_channel_count_must_match_model(self, rng):
        model = spatial.rgc_fit([rng.standard_normal((120, 4))
                                 for _ in range(6)])
        with pytest.raises(DimensionMismatch):
            spatial.tangent_features(rng.standard_normal((120, 3)), model)
        with pytest.raises(DimensionMismatch):
            spatial.tangent_features([rng.standard_normal((120, 3))], model)


@pytest.mark.parametrize("kind", ["rgc", "csp"])
def test_eigensolver_calls_do_not_grow_with_windows(rng, monkeypatch, kind):
    """Fit and features make a fixed number of eigensolver calls, however
    many windows they get."""
    calls = []
    sweep = kernels.jacobi_sweep
    monkeypatch.setattr(kernels, "jacobi_sweep",
                        lambda a, v: calls.append(1) or sweep(a, v))

    def count(n):
        windows = rng.standard_normal((n, 200, 4))
        calls.clear()
        if kind == "rgc":
            model = spatial.rgc_fit(windows, shrinkage=0.1)
            spatial.tangent_features(windows, model)
        else:
            model = spatial.csp_fit(windows, [i % 3 for i in range(n)], 40.0,
                                    f_per=2)
            spatial.csp_features(windows, model)
        return len(calls)

    assert count(6) == count(60) > 0


class TestWindowArrays:
    """A window input is one (T, C) window or one (n, T, C) stack; a list
    of windows of different shapes is a DimensionMismatch, not numpy's
    ValueError."""

    @staticmethod
    def entry_points(rng):
        train = rng.standard_normal((6, 100, 4))
        csp = spatial.csp_fit(train, [0, 1, 2] * 2, 40.0, f_per=2)
        rgc = spatial.rgc_fit(train)
        return {
            "csp_fit": lambda w: spatial.csp_fit(w, [0, 1], 40.0, f_per=2),
            "csp_features": lambda w: spatial.csp_features(w, csp),
            "rgc_fit": spatial.rgc_fit,
            "tangent_features": lambda w: spatial.tangent_features(w, rgc),
            "segment_covariance": spatial.segment_covariance,
        }

    @pytest.mark.parametrize("entry", [
        "csp_fit", "csp_features", "rgc_fit", "tangent_features",
        "segment_covariance",
    ])
    @pytest.mark.parametrize("second", [(80, 4), (100, 3)],
                             ids=["lengths", "channels"])
    def test_ragged_windows(self, rng, entry, second):
        windows = [rng.standard_normal((100, 4)), rng.standard_normal(second)]
        with pytest.raises(DimensionMismatch, match="differ in shape"):
            self.entry_points(rng)[entry](windows)

    @pytest.mark.parametrize("entry", ["csp_fit", "rgc_fit"])
    def test_fits_take_a_stack(self, rng, entry):
        with pytest.raises(DimensionMismatch, match=r"\(n, T, C\)"):
            self.entry_points(rng)[entry](rng.standard_normal((100, 4)))

    def test_non_contiguous_stack(self, rng):
        # channel slices of wider windows, as strided views
        model = spatial.csp_fit(rng.standard_normal((6, 100, 4)),
                                [0, 1, 2] * 2, 40.0, f_per=2)
        wide = rng.standard_normal((5, 100, 7))
        view = wide[:, :, 1:5]
        assert np.array_equal(
            spatial.csp_features(view, model),
            spatial.csp_features(np.ascontiguousarray(view), model),
        )


class TestSegmentCovariance:
    def test_one_dimensional_window(self, rng):
        with pytest.raises(DimensionMismatch):
            spatial.segment_covariance(rng.standard_normal(50))

    def test_stack_rejects_mixed_channel_counts(self, rng):
        with pytest.raises(DimensionMismatch):
            spatial.segment_covariance([rng.standard_normal((50, 4)),
                                        rng.standard_normal((50, 3))])

    def test_empty_stack(self):
        with pytest.raises(DimensionMismatch):
            spatial.segment_covariance([])

    @pytest.mark.parametrize("shrinkage", [-0.1, 1.5, 5.0, np.nan])
    def test_shrinkage_outside_unit_interval(self, rng, shrinkage):
        with pytest.raises(BadConfig, match="^shrinkage: .* outside"):
            spatial.segment_covariance(rng.standard_normal((50, 4)),
                                       shrinkage)

    def test_full_shrinkage_accepted(self, rng):
        cov = spatial.segment_covariance(rng.standard_normal((50, 4)), 1.0)
        assert np.allclose(cov, np.trace(cov) / 4 * np.eye(4))


class TestRiemannianMean:
    def test_mean_of_same(self, rng):
        a = spd(rng, 4)
        m = spatial.riemannian_mean([a, a])
        assert np.linalg.norm(m - a) < 1e-10 * np.linalg.norm(a)

    def test_commuting_diagonals(self):
        m = spatial.riemannian_mean([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
        assert np.allclose(m, np.diag([2.0, 2.0]), atol=1e-10)

    def test_orthogonal_congruence_equivariance(self, rng):
        # the log-Euclidean mean commutes with rotations and scalar
        # scaling (it is not equivariant under general diagonal congruence)
        covs = [spd(rng, 3) for _ in range(5)]
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lhs = spatial.riemannian_mean(
            [symmetrize(q @ c @ q.T) for c in covs]
        )
        rhs = q @ spatial.riemannian_mean(covs) @ q.T
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_scalar_scaling_equivariance(self, rng):
        covs = [spd(rng, 3) for _ in range(4)]
        lhs = spatial.riemannian_mean([2.5 * c for c in covs])
        rhs = 2.5 * spatial.riemannian_mean(covs)
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_diagonal_congruence_on_commuting_family(self):
        # diagonal congruence equivariance holds when the inputs commute
        covs = [np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), np.diag([2.0, 2.0])]
        d = np.diag([0.5, 3.0])
        lhs = spatial.riemannian_mean([d @ c @ d for c in covs])
        rhs = d @ spatial.riemannian_mean(covs) @ d
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpd):
            spatial.riemannian_mean([np.diag([1.0, -1.0])])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(DimensionMismatch):
            spatial.riemannian_mean([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            spatial.riemannian_mean([])

    def test_rejects_single_matrix(self, rng):
        with pytest.raises(DimensionMismatch, match=r"\(n, C, C\)"):
            spatial.riemannian_mean(spd(rng, 3))


class TestTangentFeatures:
    def test_zero_at_reference(self, rng):
        segments = [rng.standard_normal((100, 4)) for _ in range(6)]
        model = spatial.rgc_fit(segments, shrinkage=0.1)
        feats = spatial.tangent_from_cov(model.mean, model)
        assert np.max(np.abs(feats)) < 1e-9

    def test_feature_length_16(self, rng):
        segments = [rng.standard_normal((300, 16)) for _ in range(4)]
        model = spatial.rgc_fit(segments)
        feats = spatial.tangent_features(segments[0], model)
        assert feats.shape == (136,)

    def test_tangent_matrix_symmetric(self, rng):
        # recompute through the spectral path and check symmetry directly
        segments = [rng.standard_normal((120, 5)) for _ in range(5)]
        model = spatial.rgc_fit(segments)
        cov = spatial.segment_covariance(segments[0], model.shrinkage)
        w = model.mean_inv_sqrt
        tn = spd_function(symmetrize(w @ cov @ w), "log")
        assert np.linalg.norm(tn - tn.T) < 1e-10

    def test_norm_matches_frobenius(self, rng):
        segments = [rng.standard_normal((150, 4)) for _ in range(5)]
        model = spatial.rgc_fit(segments)
        cov = spatial.segment_covariance(segments[0], model.shrinkage)
        w = model.mean_inv_sqrt
        tn = spd_function(symmetrize(w @ cov @ w), "log")
        feats = spatial.tangent_from_cov(cov, model)
        assert np.linalg.norm(feats) == pytest.approx(
            np.linalg.norm(tn), rel=1e-10
        )

    def test_model_invariant_contract(self, rng):
        segments = [rng.standard_normal((100, 4)) for _ in range(6)]
        model = spatial.rgc_fit(segments)
        ident = model.mean_inv_sqrt @ model.mean @ model.mean_inv_sqrt
        assert np.linalg.norm(ident - np.eye(4)) < 1e-8


class TestLda:
    def test_two_separated_classes(self):
        # points around each mean with identical (isotropic) scatter
        cross = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        x = np.vstack([cross, cross + [10.0, 0.0]])
        y = np.array([0] * 4 + [1] * 4)
        model = spatial.lda_fit(x, y, gamma=0.0)
        assert np.array_equal(spatial.lda_predict(x, model), y)
        # boundary at the midpoint x = 5
        assert spatial.lda_predict(np.array([[4.9, 0.0]]), model)[0] == 0
        assert spatial.lda_predict(np.array([[5.1, 0.0]]), model)[0] == 1

    def test_identical_means_tie_rule(self, rng):
        x = rng.standard_normal((40, 3))
        y = np.array([0, 1] * 20)
        xx = np.vstack([x, x])
        yy = np.concatenate([np.zeros(40, int), np.ones(40, int)])
        model = spatial.lda_fit(xx, yy, gamma=1e-3)
        # same class means and priors: scores tie, lowest index wins
        preds = spatial.lda_predict(rng.standard_normal((10, 3)), model)
        assert np.all(preds == 0)

    def test_closed_form_oracle(self, rng):
        n = 200
        mu0, mu1 = np.array([0.0, 0.0, 0.0]), np.array([2.0, -1.0, 0.5])
        x0 = rng.standard_normal((n, 3)) + mu0
        x1 = rng.standard_normal((n, 3)) + mu1
        x = np.vstack([x0, x1])
        y = np.array([0] * n + [1] * n)
        model = spatial.lda_fit(x, y, gamma=0.0)
        direction = model.weights[:, 1] - model.weights[:, 0]
        m0 = x0.mean(axis=0)
        m1 = x1.mean(axis=0)
        c0 = (x0 - m0).T @ (x0 - m0)
        c1 = (x1 - m1).T @ (x1 - m1)
        pooled = (c0 + c1) / (2 * n - 2)
        ref = np.linalg.solve(pooled, m1 - m0)
        assert np.linalg.norm(direction - ref) / np.linalg.norm(ref) < 1e-8

    def test_empty_batch(self, rng):
        x = rng.standard_normal((30, 2))
        y = np.array([0, 1] * 15)
        model = spatial.lda_fit(x, y)
        assert spatial.lda_predict(np.zeros((0, 2)), model).shape == (0,)

    def test_single_training_class_constant_predictor(self, rng):
        x = rng.standard_normal((20, 3))
        model = spatial.lda_fit(x, np.full(20, 2), n_classes=3)
        preds = spatial.lda_predict(rng.standard_normal((8, 3)), model)
        assert np.all(preds == 2)

    def test_three_blobs_fixed_seed(self):
        r = np.random.default_rng(7)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.vstack([r.standard_normal((30, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 30)
        model = spatial.lda_fit(x, y, gamma=1e-3)
        preds = spatial.lda_predict(x, model)
        assert np.mean(preds == y) == 1.0

    def test_score_shift_invariance(self, rng):
        x = rng.standard_normal((60, 4))
        y = np.array([0, 1, 2] * 20)
        model = spatial.lda_fit(x, y)
        scores = x @ model.weights + model.biases
        preds = np.argmax(scores, axis=1)
        shifted = np.argmax(scores + 3.14, axis=1)
        assert np.array_equal(preds, shifted)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_class_range(self, rng, label):
        x = rng.standard_normal((12, 2))
        y = np.array([0, 1, 2] * 3 + [0, 1, label])
        with pytest.raises(AadError, match="outside"):
            spatial.lda_fit(x, y, n_classes=3)

    def test_negative_label_without_class_count(self, rng):
        x = rng.standard_normal((12, 2))
        with pytest.raises(AadError, match="outside"):
            spatial.lda_fit(x, np.array([0, 1, 2] * 3 + [0, 1, -1]))

    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
    def test_gamma_refused(self, rng, gamma):
        """A NaN gamma would skip the loading, since ``nan > 0`` is
        False."""
        x = rng.standard_normal((12, 2))
        with pytest.raises(BadConfig, match="^gamma: "):
            spatial.lda_fit(x, np.array([0, 1, 2] * 4), gamma=gamma)

    def test_singular_scatter(self):
        x = np.zeros((10, 3))
        x[:, 0] = np.arange(10)
        y = np.array([0, 1] * 5)
        with pytest.raises(SingularScatter):
            spatial.lda_fit(x, y, gamma=0.0)


def test_tangent_lda_affine_invariance(rng):
    """Mixing all segments by one invertible matrix leaves training
    accuracy unchanged (within small sampling tolerance)."""
    n_seg, t_len, n_ch = 30, 150, 4
    patterns = np.linalg.qr(rng.standard_normal((n_ch, 2)))[0]
    segments, labels = [], []
    for i in range(n_seg):
        base = rng.standard_normal((t_len, n_ch))
        k = i % 2
        base += 1.5 * np.outer(rng.standard_normal(t_len), patterns[:, k])
        segments.append(base)
        labels.append(k)

    def train_acc(segs):
        model = spatial.rgc_fit(segs, shrinkage=0.0)
        feats = np.stack([spatial.tangent_features(s, model) for s in segs])
        lda = spatial.lda_fit(feats, labels)
        return np.mean(spatial.lda_predict(feats, lda) == labels)

    mix = rng.standard_normal((n_ch, n_ch)) + 2 * np.eye(n_ch)
    a1 = train_acc(segments)
    a2 = train_acc([s @ mix for s in segments])
    assert abs(a1 - a2) <= 0.02 + 1e-12
