import math

import numpy as np
import pytest

from aadkit import metrics
from aadkit.errors import LengthMismatch


class TestPcc:
    def test_self_and_negated(self, rng):
        x = rng.standard_normal(50)
        assert metrics.pcc(x, x) == pytest.approx(1.0)
        assert metrics.pcc(x, -x) == pytest.approx(-1.0)

    def test_affine_invariance(self, rng):
        x = rng.standard_normal(50)
        assert metrics.pcc(x, 2 * x + 3) == pytest.approx(1.0)

    def test_hand_computed(self):
        got = metrics.pcc([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert got == pytest.approx(9.0 / (2.0 * np.sqrt(21.0)))

    def test_constant_gives_zero(self, rng):
        assert metrics.pcc(np.full(10, 3.0), rng.standard_normal(10)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.pcc([1.0, 2.0], [1.0, 2.0, 3.0])


def mean_clip_pcc(a, b):
    """The ``a.mean()``/``np.clip`` formula ``pcc`` must reproduce."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    ac = a - a.mean()
    bc = b - b.mean()
    na = math.sqrt(float(ac @ ac))
    nb = math.sqrt(float(bc @ bc))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(ac @ bc) / (na * nb), -1.0, 1.0))


class TestPccBitIdentity:
    @pytest.mark.parametrize("n", [2, 3, 400, 1200])
    def test_equals_mean_clip_formula(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            a = rng.standard_normal(n) * rng.uniform(0.1, 10.0) + 3.0
            b = 0.3 * a + rng.standard_normal(n)
            got = metrics.pcc(a, b)
            assert type(got) is float
            assert got == mean_clip_pcc(a, b)
            # a strided column, as the scorer passes component columns
            both = np.stack([a, b], axis=1)
            assert metrics.pcc(both[:, 0], both[:, 1]) == got

    def test_self_negated_constant(self, rng):
        x = rng.standard_normal(400)
        assert metrics.pcc(x, x) == 1.0
        assert metrics.pcc(x, -x) == -1.0
        assert metrics.pcc(np.full(400, 2.5), x) == 0.0
        assert metrics.pcc(x, np.zeros(400)) == 0.0
        for value in (metrics.pcc(x, x), metrics.pcc(np.ones(3), x[:3])):
            assert type(value) is float

    def test_nan_input_gives_nan(self, rng):
        x = rng.standard_normal(20)
        y = x.copy()
        y[4] = np.nan
        assert math.isnan(metrics.pcc(x, y))
        assert math.isnan(metrics.pcc(y, x))
        assert math.isnan(mean_clip_pcc(x, y))

    def test_too_short(self):
        with pytest.raises(LengthMismatch):
            metrics.pcc([1.0], [2.0])


class TestDecideWindow:
    def test_correct_pick(self):
        d = metrics.decide_window([0.3, 0.1, 0.2], 0)
        assert d.predicted == 0 and d.correct and not d.tie

    def test_tie_is_incorrect(self):
        d = metrics.decide_window([0.2, 0.2, 0.1], 0)
        assert d.predicted == 0 and not d.correct and d.tie

    def test_wrong_argmax(self):
        d = metrics.decide_window([0.1, 0.5, 0.2], 0)
        assert d.predicted == 1 and not d.correct

    def test_batch_hand_counted(self):
        # 12 windows, attended index varies; correctness counted by hand
        cases = [
            ([0.5, 0.1, 0.0], 0, True),
            ([0.5, 0.6, 0.0], 0, False),
            ([0.1, 0.2, 0.9], 2, True),
            ([0.1, 0.2, 0.2], 1, False),   # tie
            ([-0.1, -0.5, -0.9], 0, True),
            ([0.0, 0.0, 0.0], 1, False),   # three-way tie
            ([0.3, 0.4, 0.1], 1, True),
            ([0.3, 0.29, 0.1], 1, False),
            ([0.9, 0.91, 0.92], 2, True),
            ([0.9, 0.91, 0.92], 0, False),
            ([0.2, 0.1, 0.15], 0, True),
            ([0.15, 0.1, 0.2], 0, False),
        ]
        correct = [metrics.decide_window(r, a).correct for r, a, _ in cases]
        assert correct == [want for _, _, want in cases]
        assert np.mean(correct) == pytest.approx(6 / 12)

    @pytest.mark.parametrize("rhos", [[0.4], []])
    def test_fewer_than_two_candidates(self, rhos):
        with pytest.raises(LengthMismatch, match="2 candidates"):
            metrics.decide_window(rhos, 0)

    @pytest.mark.parametrize("rhos, bad", [
        ([np.nan, 0.1, 0.2], 0),
        ([0.1, 0.2, np.nan], 2),
        ((0.1, np.inf, 0.2), 1),
    ])
    def test_non_finite_correlation_named(self, rhos, bad):
        with pytest.raises(ValueError, match=f"correlation {bad} is not"):
            metrics.decide_window(rhos, 0)

    def test_monotone_transform_invariance(self, rng):
        rhos = rng.uniform(-1, 1, size=3)
        base = metrics.decide_window(rhos, 1)
        warped = metrics.decide_window(np.tanh(3 * rhos) + 5, 1)
        assert base.predicted == warped.predicted


class TestClassificationMetrics:
    def test_perfect(self):
        acc, f1 = metrics.classification_metrics([0, 1, 2], [0, 1, 2], 3)
        assert acc == 1.0 and f1 == 1.0

    def test_constant_prediction_balanced(self):
        labels = [0, 1, 2] * 4
        acc, _ = metrics.classification_metrics([0] * 12, labels, 3)
        assert acc == pytest.approx(1 / 3)

    def test_confusion_matrix_hand_computed(self):
        # rows true, cols predicted: ((2,1,0),(0,3,0),(1,0,2))
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        preds = [0, 0, 1, 1, 1, 1, 0, 2, 2]
        acc, f1 = metrics.classification_metrics(preds, labels, 3)
        assert acc == pytest.approx(7 / 9)
        want = (2 / 3 + 6 / 7 + 4 / 5) / 3
        assert f1 == pytest.approx(want)

    def test_absent_class_zero_f1(self):
        acc, f1 = metrics.classification_metrics([0, 0], [0, 0], 3)
        assert acc == 1.0
        assert f1 == pytest.approx(1 / 3)

    def test_out_of_range_prediction_never_matches(self):
        acc, _ = metrics.classification_metrics([-1, -1], [0, 1], 3)
        assert acc == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_class_formula(self, seed):
        # random predictions with -1 ties; with 5 classes and draws from
        # at most 3 of them, some classes are absent from both sides
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 40))
        used = r.choice(5, size=3, replace=False)
        labels = r.choice(used, size=n)
        preds = r.choice(np.concatenate([used, [-1]]), size=n)
        want_acc = float(np.mean(preds == labels))
        f1s = []
        for k in range(5):
            tp = int(np.sum((preds == k) & (labels == k)))
            fp = int(np.sum((preds == k) & (labels != k)))
            fn = int(np.sum((preds != k) & (labels == k)))
            denom = 2 * tp + fp + fn
            f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
        got = metrics.classification_metrics(preds, labels, 5)
        assert got == (want_acc, float(np.mean(f1s)))


class TestTimePcc:
    def test_segment_count(self, rng):
        fs, dur = 40.0, 30.0
        rec = rng.standard_normal(int(fs * dur))
        cands = [rng.standard_normal(int(fs * dur)) for _ in range(3)]
        curve = metrics.time_pcc_curve(rec, cands, fs, 1.0)
        assert curve.shape == (30, 3)

    def test_tail_dropped(self, rng):
        rec = rng.standard_normal(105)
        curve = metrics.time_pcc_curve(rec, [rec], 10.0, 1.0)
        assert curve.shape == (10, 1)

    def test_attended_constant_one(self, rng):
        rec = rng.standard_normal(200)
        curve = metrics.time_pcc_curve(rec, [rec.copy()], 40.0, 1.0)
        assert np.allclose(curve[:, 0], 1.0)

    def test_count_times_seg_within_duration(self, rng):
        rec = rng.standard_normal(173)
        fs = 10.0
        curve = metrics.time_pcc_curve(rec, [rec], fs, 2.5)
        assert curve.shape[0] * 2.5 <= len(rec) / fs

    def test_component_arrays(self, rng):
        fs, seg_s = 10.0, 2.0
        rec = rng.standard_normal((75, 2))
        cands = [rng.standard_normal((75, 2)) for _ in range(3)]
        curve = metrics.time_pcc_curve(rec, cands, fs, seg_s)
        assert curve.shape == (3, 3)
        for i in range(3):
            sl = slice(i * 20, (i + 1) * 20)
            for j, c in enumerate(cands):
                want = np.mean([metrics.pcc(rec[sl, k], c[sl, k])
                                for k in range(2)])
                assert curve[i, j] == pytest.approx(want, abs=1e-15)

    def test_one_column_equals_vector(self, rng):
        rec = rng.standard_normal(120)
        cands = [rng.standard_normal(120) for _ in range(2)]
        flat = metrics.time_pcc_curve(rec, cands, 40.0, 1.0)
        cols = metrics.time_pcc_curve(rec[:, None],
                                      [c[:, None] for c in cands], 40.0, 1.0)
        assert np.array_equal(flat, cols)

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            metrics.time_pcc_curve(rng.standard_normal((40, 2)),
                                   [rng.standard_normal((39, 2))], 10.0, 1.0)

    @pytest.mark.parametrize("seg_s", [0.0, -1.0, float("nan"),
                                       float("inf"), 1e308])
    def test_segment_not_finite_positive(self, rng, seg_s):
        """1e308 s is finite, but not its product with the rate."""
        rec = rng.standard_normal(80)
        with pytest.raises(LengthMismatch, match="^seg_s: "):
            metrics.time_pcc_curve(rec, [rec], 40.0, seg_s)

    @pytest.mark.parametrize("seg_s", [0.001, 0.02])
    def test_segment_below_two_samples(self, rng, seg_s):
        """0.001 s rounds to 0 samples at 40 Hz, 0.02 s to 1."""
        rec = rng.standard_normal(80)
        with pytest.raises(LengthMismatch, match="need at least 2"):
            metrics.time_pcc_curve(rec, [rec], 40.0, seg_s)


class TestComponentPcc:
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_mean_of_column_pccs(self, rng, k):
        a = rng.standard_normal((50, k))
        b = rng.standard_normal((50, k))
        want = np.mean([metrics.pcc(a[:, i], b[:, i]) for i in range(k)])
        assert metrics.component_pcc(a, b) == want

    def test_one_column_is_pcc_exactly(self, rng):
        a = rng.standard_normal((50, 1))
        b = rng.standard_normal((50, 1))
        assert metrics.component_pcc(a, b) == metrics.pcc(a, b)

    def test_column_count_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            metrics.component_pcc(rng.standard_normal((20, 2)),
                                  rng.standard_normal((20, 3)))
        with pytest.raises(LengthMismatch):
            metrics.component_pcc(rng.standard_normal(20),
                                  rng.standard_normal(20))


class TestCrossover:
    def test_synthetic_step(self):
        # speaker A dominant then speaker B after segment 15
        a = np.concatenate([np.full(15, 0.6), np.full(15, 0.05)])
        b = np.concatenate([np.full(15, 0.05), np.full(15, 0.6)])
        t = metrics.detect_crossover(a, b, 1.0, smooth_segs=5)
        assert abs(t - 15.0) <= 1.0

    def test_noisy_step(self, rng):
        hits = 0
        for seed in range(20):
            r = np.random.default_rng(seed)
            a = np.concatenate([np.full(15, 0.5), np.full(15, 0.0)])
            b = np.concatenate([np.full(15, 0.0), np.full(15, 0.5)])
            a = a + 0.15 * r.standard_normal(30)
            b = b + 0.15 * r.standard_normal(30)
            t = metrics.detect_crossover(a, b, 1.0)
            hits += abs(t - 15.0) <= 2.0
        assert hits >= 18

    def test_length_mismatch(self):
        # a one-segment curve must not broadcast against a longer one
        with pytest.raises(LengthMismatch):
            metrics.detect_crossover([0.5, 0.4, 0.3, 0.1, 0.0], [0.0], 1.0)
        with pytest.raises(LengthMismatch):
            metrics.detect_crossover([0.0, 1.0], [1.0, 0.0, 1.0], 1.0)

    @pytest.mark.parametrize("smooth_segs", [1, 5])
    def test_empty_curves(self, smooth_segs):
        assert metrics.detect_crossover([], [], 2.0, smooth_segs) == 0.0

    def test_one_segment(self):
        assert metrics.detect_crossover([0.5], [0.1], 2.0) == 0.0


def test_report_delta_consistency(rng):
    report = metrics.MetricsReport("wf", "loto", 30.0)
    for i in range(25):
        rhos = tuple(rng.uniform(-0.5, 0.9, size=3))
        d = metrics.decide_window(rhos, 0)
        report.windows.append(
            metrics.WindowRecord("t0", i, d.predicted, 0, rhos, d.correct,
                                 d.tie)
        )
    metrics.finalize_report(report)
    assert report.delta_pcc1 == pytest.approx(
        report.attended_pcc - report.unattended_pcc1
    )
    assert report.delta_pcc2 == pytest.approx(
        report.attended_pcc - report.unattended_pcc2
    )


def test_report_accuracy_equals_classification_metrics(rng):
    # tie windows recorded as a distinct wrong prediction
    report = metrics.MetricsReport("wf", "loto", 30.0)
    preds, labels = [], []
    for i in range(40):
        rhos = tuple(np.round(rng.uniform(-1, 1, size=3), 1))
        d = metrics.decide_window(rhos, 0)
        report.windows.append(
            metrics.WindowRecord("t0", i, d.predicted, 0, rhos, d.correct,
                                 d.tie)
        )
        preds.append(-1 if d.tie else d.predicted)
        labels.append(0)
    acc, _ = metrics.classification_metrics(preds, labels, 3)
    assert report.window_accuracy() == pytest.approx(acc)
