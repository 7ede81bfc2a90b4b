import hashlib

import numpy as np
import pytest

from aadkit import crossval, dataio, linear, metrics
from aadkit.design import LaggedDesign, accumulate
from aadkit.errors import BadChannelIndex, BadProtocolConfig, EmptyGrid


def synth(n_trials=12, n_channels=4, snr=5.0, seed=0, duration_s=30.0, **kw):
    cfg = dataio.SynthConfig(
        n_trials=n_trials, duration_s=duration_s, n_channels=n_channels,
        snr=snr, seed=seed, **kw,
    )
    return dataio.synth_generate(cfg)


SMALL_GRID = crossval.HyperGrid({"lam": [1.0], "L": [8]})


class TestMakeFolds:
    def test_nested_9x8_structure(self):
        session = synth(n_trials=63, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 9, seed=1)
        assert len(plan.outer) == 9
        assert all(len(loop.inner) == 8 for loop in plan.outer)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [7] * 9

    def test_folds_partition(self):
        session = synth(n_trials=20, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "loto", 6, seed=2)
        all_ids = sorted(t.trial_id for t in session.trials)
        seen = sorted(u for f in plan.folds for u in f)
        assert seen == all_ids

    def test_nested_test_never_inside_inner(self):
        session = synth(n_trials=63, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 9, seed=0)
        for loop in plan.outer:
            test = set(loop.test)
            for a in loop.inner:
                assert not test & set(a.train)
                assert not test & set(a.val)

    def test_loso_group_exclusion(self):
        session = synth(n_trials=18, n_channels=2, duration_s=5.0,
                        group_b_every=3)
        for protocol in ("loso", "nested_loso"):
            plan = crossval.make_folds(session.trials, protocol, seed=0)
            group2 = {t.trial_id for t in session.trials if t.group == 2}
            for loop in plan.outer:
                assert not set(loop.fit) & group2 - set()  # fit is group 1
                assert set(loop.test) <= group2
                for a in loop.inner:
                    assert not set(a.train) & group2
                    assert set(a.val) <= group2

    def test_loso_needs_both_groups(self):
        session = synth(n_trials=6, n_channels=2, duration_s=5.0,
                        group_b_every=0)
        with pytest.raises(BadProtocolConfig):
            crossval.make_folds(session.trials, "loso", seed=0)

    def test_within_trial_units(self):
        session = synth(n_trials=4, n_channels=2, duration_s=30.0)
        plan = crossval.make_folds(session.trials, "within_trial", 3, seed=0,
                                   segment_s=10.0)
        units = [u for f in plan.folds for u in f]
        assert len(units) == 4 * 3
        assert all(isinstance(u, tuple) for u in units)

    def test_unknown_protocol(self):
        session = synth(n_trials=4, n_channels=2, duration_s=5.0)
        with pytest.raises(BadProtocolConfig):
            crossval.make_folds(session.trials, "bogus")

    def test_task_stratification(self):
        cfg = dataio.SynthConfig(
            n_trials=12, duration_s=6.0, n_channels=2, seed=0,
            tasks=[1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4],
            switch_times=[None] * 4 + [3.0] * 8,
        )
        session = dataio.synth_generate(cfg)
        plan = crossval.make_folds(session.trials, "loto", 4, seed=0)
        task_of = {t.trial_id: t.task for t in session.trials}
        for fold in plan.folds:
            assert len({task_of[u] for u in fold}) == 3


class TestHyperGrid:
    def test_single_point(self):
        pts = crossval.HyperGrid({"lam": [0.5]}).points()
        assert pts == [{"lam": 0.5}]

    def test_cartesian_product_deterministic(self):
        g = crossval.HyperGrid({"lam": [1, 2], "L": [3, 4]})
        assert g.points() == g.points()
        assert len(g.points()) == 4

    def test_budget_subset_seeded(self):
        g = crossval.HyperGrid({"lam": list(range(20))}, budget=5, seed=3)
        pts = g.points()
        assert len(pts) == 5
        assert pts == crossval.HyperGrid(
            {"lam": list(range(20))}, budget=5, seed=3
        ).points()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one(self, budget):
        g = crossval.HyperGrid({"lam": [0.1, 1.0], "L": [4]}, budget=budget)
        with pytest.raises(EmptyGrid):
            g.points()

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            crossval.HyperGrid({}).points()
        with pytest.raises(EmptyGrid):
            crossval.HyperGrid({"lam": []}).points()


class TestSearch:
    def test_size_one_grid_returned(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        got = crossval.search_hyperparams(
            plan, crossval.HyperGrid({"lam": [0.25]}),
            lambda p, tr, va: 0.5,
        )
        assert all(p == {"lam": 0.25} for p, _ in got)

    def test_planted_optimum(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        grid = crossval.HyperGrid({"lam": [0.1, 1.0, 10.0], "L": [4, 8]})

        def objective(params, train, val):
            return 1.0 if (params["lam"], params["L"]) == (1.0, 8) else 0.0

        got = crossval.search_hyperparams(plan, grid, objective)
        assert all(p == {"lam": 1.0, "L": 8} for p, _ in got)

    def test_tie_breaks_smaller_lam_then_l(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        grid = crossval.HyperGrid({"lam": [10.0, 0.1], "L": [8, 4]})
        got = crossval.search_hyperparams(plan, grid, lambda p, t, v: 0.7)
        assert all(p == {"lam": 0.1, "L": 4} for p, _ in got)

    def test_non_nested_plan_rejected(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "loto", 4, seed=0)
        with pytest.raises(BadProtocolConfig):
            crossval.search_hyperparams(
                plan, crossval.HyperGrid({"lam": [1.0]}), lambda p, t, v: 0.0
            )

    def test_recovers_planted_ridge_optimum(self):
        """Planted linear-Gaussian problem with known ridge optimum
        sigma^2/tau^2; the selected loading lands within one grid step
        in at least 8 of 10 seeded runs."""
        tau, sigma, dim, t_len, n_win = 1.0, 5.0, 80, 20, 10
        lam_star = sigma ** 2 / tau ** 2
        grid_vals = [lam_star * 10.0 ** k for k in range(-3, 4)]
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w0 = tau * rng.standard_normal(dim)
            windows = []
            for _ in range(n_win):
                x = rng.standard_normal((t_len, dim))
                windows.append((x, x @ w0 + sigma * rng.standard_normal(t_len)))

            def objective(params, train_ids, val_ids):
                designs = [LaggedDesign(windows[i][0], 1, dim)
                           for i in train_ids]
                targets = [windows[i][1] for i in train_ids]
                model = linear.wf_fit(accumulate(designs, targets),
                                      params["lam"])
                return float(np.mean([
                    metrics.pcc(windows[i][0] @ model.w, windows[i][1])
                    for i in val_ids
                ]))

            scored = []
            for lam in grid_vals:
                vals = [
                    objective({"lam": lam},
                              [j for j in range(n_win) if j != i], [i])
                    for i in range(n_win)
                ]
                scored.append(({"lam": lam}, float(np.mean(vals))))
            sel = crossval.pick_best(scored)[0]["lam"]
            hits += abs(np.log10(sel) - np.log10(lam_star)) <= 1.0 + 1e-9
        assert hits >= 8


class TestRunPipeline:
    def test_high_snr_nested_accuracy(self):
        session = synth(n_trials=12, n_channels=4, snr=5.0, seed=3)
        plan = crossval.make_folds(session.trials, "nested_loto", 6, seed=0)
        grid = crossval.HyperGrid({"lam": [0.01, 1.0, 100.0], "L": [8]})
        report = crossval.run_pipeline(session, "wf", plan, grid, 30.0)
        assert report.accuracy >= 0.9

    def test_vanishing_snr_chance(self):
        # no attended signal and no interference: EEG is pure noise
        session = synth(n_trials=18, n_channels=4, snr=1e-6, seed=20,
                        interference_gain=0.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 6, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 10.0)
        n = report.n_windows
        p = report.window_accuracy()
        half = 1.96 * np.sqrt((1 / 3) * (2 / 3) / n)
        assert 1 / 3 - half <= p <= 1 / 3 + half

    def test_shuffled_labels_chance(self):
        session = synth(n_trials=18, n_channels=4, snr=5.0, seed=4)
        shuffled = dataio.shuffle_attended(session, 11)
        plan = crossval.make_folds(shuffled.trials, "loto", 6, seed=0)
        report = crossval.run_pipeline(shuffled, "wf", plan, SMALL_GRID, 10.0)
        n = report.n_windows
        p = report.window_accuracy()
        half = 1.96 * np.sqrt((1 / 3) * (2 / 3) / n)
        assert 1 / 3 - half <= p <= 1 / 3 + half

    def test_deterministic(self):
        session = synth(n_trials=8, n_channels=3, seed=6)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=1)
        grid = crossval.HyperGrid({"lam": [0.1, 10.0], "L": [6]})
        r1 = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        r2 = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        assert [f.model_bytes for f in r1.folds] == [
            f.model_bytes for f in r2.folds
        ]
        assert [w.rhos for w in r1.windows] == [w.rhos for w in r2.windows]

    def test_jobs_parallel_same_result(self):
        session = synth(n_trials=8, n_channels=3, seed=6)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=1)
        grid = crossval.HyperGrid({"lam": [0.1, 10.0], "L": [6]})
        r1 = crossval.run_pipeline(session, "wf", plan, grid, 10.0, jobs=1)
        r2 = crossval.run_pipeline(session, "wf", plan, grid, 10.0, jobs=3)
        assert [f.model_bytes for f in r1.folds] == [
            f.model_bytes for f in r2.folds
        ]

    @pytest.mark.parametrize("protocol,kw", [
        ("loto", {}),
        ("nested_loto", {}),
        ("within_trial", {"segment_s": 10.0}),
        ("loso", {}),
        ("nested_loso", {}),
    ])
    def test_leakage_model_stability(self, protocol, kw):
        """Corrupting the EEG of outer-loop-0's test units leaves that
        loop's fitted model bytes unchanged."""
        session = synth(n_trials=12, n_channels=3, seed=8)
        plan = crossval.make_folds(session.trials, protocol, None, seed=2,
                                   **kw)
        base = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 10.0)

        test_units = plan.outer[0].test
        mutated_trials = []
        for t in session.trials:
            samples = t.eeg.samples.copy()
            if protocol == "within_trial":
                win = int(10.0 * session.fs)
                for u in test_units:
                    if u[0] == t.trial_id:
                        samples[u[1] * win:(u[1] + 1) * win] *= -5.0
            elif t.trial_id in test_units:
                samples = samples * -5.0 + 3.0
            mutated_trials.append(
                dataio.Trial(t.trial_id, t.task, t.group,
                             t.eeg.with_samples(samples), t.speakers,
                             t.timeline)
            )
        mutated = dataio.Session(session.subject, session.fs, mutated_trials,
                                 True)
        plan2 = crossval.make_folds(mutated.trials, protocol, None, seed=2,
                                    **kw)
        assert plan2.outer[0].test == plan.outer[0].test
        again = crossval.run_pipeline(mutated, "wf", plan2, SMALL_GRID, 10.0)
        assert base.folds[0].model_bytes == again.folds[0].model_bytes

    def test_cca_pipeline_decodes(self):
        session = synth(n_trials=10, n_channels=4, snr=5.0, seed=9)
        plan = crossval.make_folds(session.trials, "loto", 5, seed=0)
        grid = crossval.HyperGrid(
            {"reg": [1.0], "L": [8], "L_y": [8], "n_components": [2]}
        )
        report = crossval.run_pipeline(session, "cca", plan, grid, 30.0)
        assert report.accuracy >= 0.9

    def test_csp_pipeline_above_chance(self):
        session = synth(n_trials=18, n_channels=6, snr=1.0, seed=10,
                        direction_gain=2.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 6, seed=0)
        report = crossval.run_pipeline(
            session, "csp", plan, crossval.default_grid("csp"), 10.0
        )
        n = report.n_windows
        assert report.window_accuracy() > 1 / 3 + 1.96 * np.sqrt(
            (1 / 3) * (2 / 3) / n
        )

    def test_rgc_pipeline_above_chance(self):
        session = synth(n_trials=18, n_channels=6, snr=1.0, seed=10,
                        direction_gain=2.0)
        plan = crossval.make_folds(session.trials, "loto", 6, seed=0)
        report = crossval.run_pipeline(
            session, "rgc", plan, crossval.default_grid("rgc"), 10.0
        )
        n = report.n_windows
        assert report.window_accuracy() > 1 / 3 + 1.96 * np.sqrt(
            (1 / 3) * (2 / 3) / n
        )

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_task4_windows_excluded(self, jobs):
        cfg = dataio.SynthConfig(
            n_trials=6, duration_s=30.0, n_channels=3, seed=12,
            tasks=[1, 4, 1, 4, 1, 4],
            switch_times=[None, 15.0, None, 15.0, None, 15.0],
        )
        session = dataio.synth_generate(cfg)
        plan = crossval.make_folds(session.trials, "loto", 3, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 30.0,
                                       jobs=jobs)
        # 30 s windows on task-4 trials span the unattended half: excluded
        assert report.n_windows == 3
        assert report.n_excluded == 3
        trial_tasks = {t.trial_id: t.task for t in session.trials}
        assert all(trial_tasks[w.trial_id] == 1 for w in report.windows)
        serial = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 30.0)
        assert report.windows == serial.windows

    def test_switch_trials_keep_30s_windows(self):
        cfg = dataio.SynthConfig(
            n_trials=6, duration_s=30.0, n_channels=3, seed=13,
            switch_times=[15.0] * 6,
        )
        session = dataio.synth_generate(cfg)
        plan = crossval.make_folds(session.trials, "loto", 3, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 30.0)
        assert report.n_windows == 6
        assert report.n_excluded == 0

    def test_group_pipeline_shares_params(self):
        sessions = [synth(n_trials=8, n_channels=3, seed=s) for s in (1, 2)]
        grid = crossval.HyperGrid({"lam": [0.1, 10.0], "L": [6]})
        reports, selected = crossval.run_pipeline_group(
            sessions, "wf", "nested_loto", 10.0, grid, n_folds=4, seed=0
        )
        assert len(reports) == 2
        assert len(selected) == 4
        for rep in reports:
            assert [f.params for f in rep.folds] == selected

    def test_group_jobs_parallel_same_result(self):
        sessions = [synth(n_trials=8, n_channels=3, seed=s) for s in (1, 2)]
        grid = crossval.HyperGrid({"lam": [0.1, 10.0], "L": [6]})
        runs = [
            crossval.run_pipeline_group(
                sessions, "wf", "nested_loto", 10.0, grid, n_folds=4,
                seed=0, jobs=jobs,
            )
            for jobs in (1, 3)
        ]
        (serial, sel1), (parallel, sel3) = runs
        assert sel1 == sel3
        for a, b in zip(serial, parallel):
            assert [f.model_bytes for f in a.folds] == [
                f.model_bytes for f in b.folds
            ]
            assert a.windows == b.windows
            assert a.time_pcc.keys() == b.time_pcc.keys()
            for tid in a.time_pcc:
                assert a.time_pcc[tid][0] == b.time_pcc[tid][0]
                assert np.array_equal(a.time_pcc[tid][1], b.time_pcc[tid][1])
            assert (a.accuracy, a.n_excluded) == (b.accuracy, b.n_excluded)

    def test_group_one_point_grid_fits_once_per_loop(self, monkeypatch):
        sessions = [synth(n_trials=8, n_channels=3, seed=s) for s in (1, 2)]
        calls = []
        wf_fit = linear.wf_fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return wf_fit(*args, **kwargs)

        monkeypatch.setattr(linear, "wf_fit", counting_fit)
        crossval.run_pipeline_group(
            sessions, "wf", "nested_loto", 10.0, SMALL_GRID, n_folds=4,
            seed=0,
        )
        # nothing to tune: one final fit per (session, outer loop)
        assert len(calls) == 2 * 4

    def test_group_of_one_selects_like_run_pipeline(self):
        session = synth(n_trials=8, n_channels=3, snr=0.05, seed=6)
        grid = crossval.HyperGrid({"lam": [0.01, 1.0, 100.0], "L": [4, 8]})
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        _, selected = crossval.run_pipeline_group(
            [session], "wf", "nested_loto", 10.0, grid, n_folds=4, seed=0
        )
        assert selected == [f.params for f in report.folds]


class TestAblation:
    def test_full_layout_equals_plain_run(self):
        session = synth(n_trials=8, n_channels=16, seed=14)
        plan = crossval.make_folds(session.trials, "loto", 4, seed=0)
        reports = crossval.run_channel_ablation(
            session, ["full", "upper"], "wf", plan, SMALL_GRID, 30.0
        )
        plain = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 30.0)
        assert [f.model_bytes for f in reports["full"].folds] == [
            f.model_bytes for f in plain.folds
        ]
        assert [w.rhos for w in reports["full"].windows] == [
            w.rhos for w in plain.windows
        ]

    def test_planted_upper_beats_lower(self):
        session = synth(n_trials=12, n_channels=16, snr=2.0, seed=15,
                        active_channels=[0, 1, 2, 3])
        plan = crossval.make_folds(session.trials, "loto", 6, seed=0)
        reports = crossval.run_channel_ablation(
            session, ["upper", "lower"], "wf", plan, SMALL_GRID, 30.0
        )
        assert reports["upper"].accuracy >= reports["lower"].accuracy
        assert reports["upper"].channel_names == list(
            crossval.LAYOUTS["upper"]
        )

    def test_unknown_channel_rejected(self):
        session = synth(n_trials=4, n_channels=4, seed=16)
        with pytest.raises(BadChannelIndex):
            crossval.restrict_session(session, ("L1",))

    def test_hash_of_reports_differ_between_layouts(self):
        session = synth(n_trials=8, n_channels=16, seed=17)
        plan = crossval.make_folds(session.trials, "loto", 4, seed=0)
        reports = crossval.run_channel_ablation(
            session, ["left", "right"], "wf", plan, SMALL_GRID, 30.0
        )
        h = [
            hashlib.sha256(b"".join(f.model_bytes for f in rep.folds))
            .hexdigest()
            for rep in reports.values()
        ]
        assert h[0] != h[1]


def _lag_oracle(x, lags):
    """Column c*L + l holds x_c(t - l), zero before the first sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, n_ch = x.shape
    out = np.zeros((t_len, n_ch, lags))
    for lag in range(lags):
        out[lag:, :, lag] = x[: t_len - lag]
    return out.reshape(t_len, n_ch * lags)


def _pcc_oracle(a, b):
    a = a - a.mean()
    b = b - b.mean()
    den = np.sqrt((a @ a) * (b @ b))
    return 0.0 if den == 0 else float((a @ b) / den)


class TestLinearWindowRhos:
    """Window correlations of the envelope decoders against a direct
    computation: a within_trial segment is lagged on its own with zero
    padding, a whole trial is lagged once; CCA lags every candidate per
    window."""

    PARAMS = {
        "wf": {"lam": 1.0, "L": 6},
        "cca": {"reg": 1.0, "L": 6, "L_y": 4, "n_components": 2},
    }

    @pytest.mark.parametrize("kind", ["wf", "cca"])
    @pytest.mark.parametrize("protocol,kw", [
        ("within_trial", {"segment_s": 10.0}),
        ("loto", {}),
    ])
    def test_rhos_match_direct_computation(self, monkeypatch, kind,
                                           protocol, kw):
        cfg = dataio.SynthConfig(
            n_trials=6, duration_s=30.0, n_channels=3, seed=14,
            tasks=[1, 4, 1, 4, 1, 1],
            switch_times=[None, 15.0, None, 15.0, None, None],
        )
        session = dataio.synth_generate(cfg)
        plan = crossval.make_folds(session.trials, protocol, 3, seed=0, **kw)
        params = self.PARAMS[kind]
        fitted = []
        fit_name = "wf_fit" if kind == "wf" else "cca_fit"
        real_fit = getattr(linear, fit_name)

        def recording_fit(*args, **kwargs):
            fitted.append(real_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(linear, fit_name, recording_fit)
        report = crossval.run_pipeline(session, kind, plan, None, 10.0,
                                       fixed_params=params)
        assert len(fitted) == len(plan.outer)

        trials = {t.trial_id: t for t in session.trials}
        win = int(10.0 * session.fs)
        want = {}
        for loop, model in zip(plan.outer, fitted):
            for unit in loop.test:
                if protocol == "within_trial":
                    tid, k = unit
                    spans = [(k, k * win)]
                    x = None
                else:
                    tid = unit
                    n_win = trials[tid].eeg.n_samples // win
                    spans = [(w, w * win) for w in range(n_win)]
                    x = _lag_oracle(trials[tid].eeg.samples, params["L"])
                streams = dataio.build_attended_streams(trials[tid])
                cands = [streams.attended] + list(streams.unattended)
                for w, lo in spans:
                    hi = lo + win
                    if not streams.mask[lo:hi].all():
                        continue
                    if x is None:
                        rows = _lag_oracle(trials[tid].eeg.samples[lo:hi],
                                           params["L"])
                    else:
                        rows = x[lo:hi]
                    if kind == "wf":
                        rec = rows @ model.w
                        rhos = [_pcc_oracle(rec, c[lo:hi]) for c in cands]
                    else:
                        px = rows @ model.wx
                        rhos = []
                        for c in cands:
                            py = _lag_oracle(c[lo:hi], params["L_y"])
                            py = py @ model.wy
                            rhos.append(np.mean([
                                _pcc_oracle(px[:, i], py[:, i])
                                for i in range(px.shape[1])
                            ]))
                    want[(loop.index, tid, w)] = rhos

        got = {}
        records = iter(report.windows)
        for fold in report.folds:
            for _ in range(fold.n_windows):
                r = next(records)
                got[(fold.fold_index, r.trial_id, r.window_index)] = r.rhos
        assert sorted(got) == sorted(want)
        assert report.n_excluded > 0
        for key, rhos in want.items():
            assert np.allclose(got[key], rhos, rtol=0, atol=1e-10), key
