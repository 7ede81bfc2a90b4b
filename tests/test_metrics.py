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


class TestComponentPcc:
    def test_mean_of_column_pccs(self, rng):
        a = rng.standard_normal((50, 3))
        b = rng.standard_normal((50, 3))
        want = np.mean([metrics.pcc(a[:, i], b[:, i]) for i in range(3)])
        assert metrics.component_pcc(a, b) == pytest.approx(want, abs=1e-15)

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
