"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Timed criteria measure algorithm cost; kernel JIT compilation is
triggered once by the session fixture in conftest.
"""

import time

import numpy as np
import pytest

from aadkit import crossval, dataio, linear, metrics, numerics, preprocess, spatial
from aadkit import envelope as envmod
from aadkit.design import accumulate, build_lagged


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def lag_oracle(x, lags):
    """Independent lagging: per-column zero-pad + shift via concatenation."""
    cols = []
    t_len = x.shape[0]
    for c in range(x.shape[1]):
        for l in range(lags):
            cols.append(np.concatenate([np.zeros(l), x[: t_len - l, c]]))
    return np.column_stack(cols)


def test_criterion_01_wiener_oracle():
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n_ch = int(rng.integers(1, 9))
        lags = int(rng.integers(1, 13))
        t_len = int(rng.integers(100, 2001))
        x = rng.standard_normal((t_len, n_ch))
        y = rng.standard_normal(t_len)
        lam = float(10.0 ** rng.uniform(-3, 2))
        stats = accumulate([build_lagged(x, lags)], [y])
        model = linear.wf_fit(stats, lam)
        xl = lag_oracle(x, lags)
        ref = np.linalg.solve(
            xl.T @ xl + lam * np.eye(lags * n_ch), xl.T @ y
        )
        worst = max(worst,
                    np.linalg.norm(model.w - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok,
           f"wiener oracle equivalence: max rel err {worst:.2e} "
           f"(tol 1e-8), {elapsed:.1f}s (< 10 s)")


def test_criterion_02_cca_oracle():
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        n_ch = int(rng.integers(1, 5))
        lags = int(rng.integers(1, 5))
        y_lags = int(rng.integers(1, 9))
        t_len = 1500
        x = rng.standard_normal((t_len, n_ch))
        y = rng.standard_normal(t_len)
        stats = accumulate([build_lagged(x, lags)], [build_lagged(y, y_lags)])
        k = min(lags * n_ch, y_lags)
        model = linear.cca_fit(stats, 0.0, k)
        prod = (
            np.linalg.solve(stats.rxx, stats.rxy_mat)
            @ np.linalg.solve(stats.ryy, stats.rxy_mat.T)
        )
        eig = np.sort(np.real(np.linalg.eigvals(prod)))[::-1]
        ref = np.sqrt(np.clip(eig[:k], 0.0, None))
        worst = max(worst, float(np.max(np.abs(model.correlations - ref))))
        assert np.all(np.diff(model.correlations) <= 1e-12)
    # perfect-correlation case
    rng = np.random.default_rng(9)
    y = rng.standard_normal(400)
    stats = accumulate([build_lagged(y, 1)], [build_lagged(y, 1)])
    perfect = linear.cca_fit(stats, 0.0, 1).correlations[0]
    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-8 and abs(perfect - 1.0) <= 1e-9 and elapsed < 10.0)
    report(2, ok,
           f"cca oracle equivalence: max err {worst:.2e} (tol 1e-8), "
           f"perfect case {perfect:.12f}, {elapsed:.1f}s (< 10 s)")


def test_criterion_03_csp_eigen_contract():
    rng = np.random.default_rng(33)
    segments = [rng.standard_normal((160, 8)) for _ in range(12)]
    labels = [i % 3 for i in range(12)]
    model = spatial.csp_fit(segments, labels, 40.0, f_per=3)
    worst = 0.0
    for (j, k), w in model.filters.items():
        rk = model.class_cov[(j, k)]
        rall = model.total_cov[j]
        lam = model.eigenvalues[(j, k)]
        for i in range(w.shape[1]):
            resid = np.linalg.norm(rk @ w[:, i] - lam[i] * (rall @ w[:, i]))
            worst = max(worst, resid / np.linalg.norm(rall))
    # diagonal-contrast alignment: covariances diag(2,1) vs diag(1,2)
    fs = 40.0
    t = np.arange(int(12 * fs)) / fs
    s1, s2 = np.sin(2 * np.pi * 8 * t), np.cos(2 * np.pi * 8 * t)
    seg_a = np.column_stack([np.sqrt(2) * s1, s2])
    seg_b = np.column_stack([s1, np.sqrt(2) * s2])
    two = spatial.csp_fit([seg_a, seg_b], [0, 1], fs,
                          bands=((1.0, 19.0),), f_per=1, n_classes=2)
    w = two.filters[(0, 0)][:, 0]
    cosine = abs(w[0]) / np.linalg.norm(w)
    ok = worst < 1e-6 and cosine > 0.999
    report(3, ok,
           f"csp eigen contract: max residual {worst:.2e} (< 1e-6), "
           f"diag-case |cos| {cosine:.6f} (> 0.999)")


def test_criterion_04_riemannian_suite():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((5, 5))
    a = numerics.symmetrize(a @ a.T + 5 * np.eye(5))
    same = spatial.riemannian_mean([a, a])
    err_same = np.linalg.norm(same - a)
    diag = spatial.riemannian_mean([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
    err_diag = np.linalg.norm(diag - np.diag([2.0, 2.0]))
    segments = [rng.standard_normal((400, 16)) for _ in range(6)]
    model = spatial.rgc_fit(segments, shrinkage=0.1)
    zero = spatial.tangent_from_cov(model.mean, model)
    err_zero = float(np.max(np.abs(zero)))
    length = spatial.tangent_features(segments[0], model).shape[0]
    ok = (err_same < 1e-10 and err_diag < 1e-10 and err_zero < 1e-9
          and length == 136)
    report(4, ok,
           f"riemannian suite: mean-of-pair err {err_same:.1e} (1e-10), "
           f"diag err {err_diag:.1e} (1e-10), tangent-at-mean "
           f"{err_zero:.1e} (1e-9), feature length {length} (=136)")


def test_criterion_05_synthetic_end_to_end():
    start = time.perf_counter()
    cfg = dataio.SynthConfig(n_trials=20, duration_s=30.0, n_channels=8,
                             snr=5.0, seed=7)
    session = dataio.synth_generate(cfg)
    plan = crossval.make_folds(session.trials, "nested_loto", 10, seed=0)
    grid = {"lam": list(np.logspace(-6, 3, 10)), "L": [11]}
    rep = crossval.run_pipeline(session, "wf", plan, grid, 30.0)
    shuffled = dataio.shuffle_attended(session, 99)
    rep_shuf = crossval.run_pipeline(shuffled, "wf", plan, grid, 30.0)
    n = rep_shuf.n_windows
    p = rep_shuf.window_accuracy()
    half = 1.96 * np.sqrt((1 / 3) * (2 / 3) / n)
    elapsed = time.perf_counter() - start
    ok = (rep.accuracy >= 0.9
          and (1 / 3 - half) <= p <= (1 / 3 + half)
          and elapsed < 120.0)
    report(5, ok,
           f"synthetic end-to-end: nested accuracy {rep.accuracy:.3f} "
           f"(>= 0.9), shuffled {p:.3f} in "
           f"[{1/3-half:.3f}, {1/3+half:.3f}], {elapsed:.1f}s (< 2 min)")


def test_criterion_06_leakage_guard():
    # plan structure: exhaustive 9 x 8 nested check on 63 trials
    big = dataio.synth_generate(
        dataio.SynthConfig(n_trials=63, duration_s=4.0, n_channels=2, seed=1)
    )
    plan63 = crossval.make_folds(big.trials, "nested_loto", 9, seed=0)
    structure_ok = len(plan63.outer) == 9
    for loop in plan63.outer:
        structure_ok &= len(loop.inner) == 8
        test = set(loop.test)
        for a in loop.inner:
            structure_ok &= not (test & set(a.train))
            structure_ok &= not (test & set(a.val or ()))

    # model stability under test-fold mutation, every protocol
    session = dataio.synth_generate(
        dataio.SynthConfig(n_trials=12, duration_s=30.0, n_channels=3,
                           seed=8)
    )
    grid = {"lam": [1.0], "L": [8]}
    stable = True
    for protocol, kw in [("loto", {}), ("nested_loto", {}),
                         ("within_trial", {"segment_s": 10.0}),
                         ("loso", {}), ("nested_loso", {})]:
        plan = crossval.make_folds(session.trials, protocol, None, seed=2,
                                   **kw)
        base = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        test_units = plan.outer[0].test
        trials = []
        for t in session.trials:
            samples = t.eeg.samples.copy()
            if protocol == "within_trial":
                win = int(10.0 * session.fs)
                for u in test_units:
                    if u[0] == t.trial_id:
                        samples[u[1] * win:(u[1] + 1) * win] *= -4.0
            elif t.trial_id in test_units:
                samples = samples * -4.0 + 1.0
            trials.append(dataio.Trial(t.trial_id, t.task, t.group,
                                       t.eeg.with_samples(samples),
                                       t.speakers, t.timeline))
        mutated = dataio.Session(session.subject, session.fs, trials, True)
        plan2 = crossval.make_folds(mutated.trials, protocol, None, seed=2,
                                    **kw)
        again = crossval.run_pipeline(mutated, "wf", plan2, grid, 10.0)
        stable &= base.folds[0].model_bytes == again.folds[0].model_bytes
    ok = structure_ok and stable
    report(6, ok,
           f"leakage guard: 9x8 nested structure "
           f"{'clean' if structure_ok else 'violated'}, models "
           f"{'bit-identical' if stable else 'changed'} under test-fold "
           "mutation for all 5 protocols")


def test_criterion_07_switch_tracking():
    start = time.perf_counter()
    switches = [None] * 10 + [15.0] * 50
    cfg = dataio.SynthConfig(n_trials=60, duration_s=30.0, n_channels=8,
                             snr=5.0, seed=21, switch_times=switches,
                             group_b_every=0)
    session = dataio.synth_generate(cfg)
    train_ids = tuple(t.trial_id for t in session.trials[:10])
    test_ids = tuple(t.trial_id for t in session.trials[10:])
    plan = crossval.CvPlan(
        "loto", [train_ids, test_ids],
        [crossval.OuterLoop(0, test_ids, train_ids, [])], seed=0,
    )
    grid = {"lam": [1.0], "L": [11]}
    rep = crossval.run_pipeline(session, "wf", plan, grid, 30.0,
                                time_pcc_seg_s=1.0)
    hits = 0
    for t in session.trials[10:]:
        labels, curve = rep.time_pcc[t.trial_id]
        pre, post = t.timeline[0].attended, t.timeline[1].attended
        ia = labels.index(f"spk{pre}")
        ib = labels.index(f"spk{post}")
        t_cross = metrics.detect_crossover(curve[:, ia], curve[:, ib], 1.0,
                                           smooth_segs=5)
        hits += 13.0 <= t_cross <= 17.0
    elapsed = time.perf_counter() - start
    ok = hits >= 45 and elapsed < 60.0
    report(7, ok,
           f"switch tracking: crossover within 15 +/- 2 s in {hits}/50 "
           f"trials (>= 45), {elapsed:.1f}s (< 1 min)")


def test_criterion_08_window_length_monotonicity():
    grid = {"lam": list(np.logspace(-4, 2, 4)), "L": [11]}
    means = {}
    for window in (2.0, 10.0, 30.0):
        accs = []
        for seed in range(10):
            cfg = dataio.SynthConfig(n_trials=12, duration_s=30.0,
                                     n_channels=4, snr=0.4, seed=500 + seed,
                                     group_b_every=0)
            session = dataio.synth_generate(cfg)
            plan = crossval.make_folds(session.trials, "loto", 6, seed=0)
            rep = crossval.run_pipeline(session, "wf", plan, grid, window)
            accs.append(rep.window_accuracy())
        means[window] = float(np.mean(accs))
    ok = (means[30.0] >= means[10.0] and means[10.0] >= means[2.0] - 0.02)
    report(8, ok,
           f"window-length trend: acc(30s)={means[30.0]:.3f} >= "
           f"acc(10s)={means[10.0]:.3f} >= acc(2s)-0.02="
           f"{means[2.0] - 0.02:.3f}")


def test_criterion_09_dsp_contracts():
    bp = preprocess.design_bandpass(0.5, 62, 8, 125)
    g10 = 20 * np.log10(abs(bp.response([10.0], 125)[0]))
    g005 = 20 * np.log10(abs(bp.response([0.05], 125)[0]) + 1e-300)
    nt = preprocess.design_notch(48, 52, 125)
    g50 = 20 * np.log10(abs(nt.response([50.0], 125)[0]) + 1e-300)
    sig = preprocess.MultichannelSignal(np.zeros((3750, 16)), 125.0)
    out_len = preprocess.resample(sig, 40.0).n_samples
    rng = np.random.default_rng(99)
    audio = rng.standard_normal(8000)
    bank = envmod.gammatone_bank(16000, 50, 5000, 17)
    base = envmod.compute_envelope(envmod.AudioTrack(audio, 16000), bank,
                                   40.0)
    worst = 0.0
    for alpha in (0.2, 0.9, 3.3, 8.0):
        scaled = envmod.compute_envelope(
            envmod.AudioTrack(alpha * audio, 16000), bank, 40.0
        )
        keep = base.samples > 1e-9
        rel = np.abs(
            scaled.samples[keep] - alpha ** 0.6 * base.samples[keep]
        ) / (alpha ** 0.6 * base.samples[keep])
        worst = max(worst, float(np.max(rel)))
    ok = (abs(g10) < 1.0 and g005 <= -40.0 and g50 <= -20.0
          and out_len == 1200 and worst < 1e-6)
    report(9, ok,
           f"dsp contracts: band gain @10Hz {g10:+.2f} dB (|.|<1), "
           f"@0.05Hz {g005:.0f} dB (<=-40), notch @50Hz {g50:.0f} dB "
           f"(<=-20), 3750->{out_len} samples (=1200), envelope "
           f"homogeneity err {worst:.1e} (<1e-6)")


@pytest.mark.skip(reason="needs the released 98-subject dataset download; "
                         "desk-scale gate excludes it")
def test_criterion_10_dataset_reproduction():
    """Group-tuned WF, nested leave-one-trial-out, 30 s windows on the
    converted public dataset; expected near 0.438 +/- 0.05."""
