import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from aadkit import (
    crossval,
    dataio,
    design,
    kernels,
    linear,
    metrics,
    numerics,
    spatial,
)
from aadkit.design import LaggedDesign, accumulate
from aadkit.errors import (
    BadChannelIndex,
    BadConfig,
    BadProtocolConfig,
    EmptyGrid,
)


def synth(n_trials=12, n_channels=4, snr=5.0, seed=0, duration_s=30.0, **kw):
    cfg = dataio.SynthConfig(
        n_trials=n_trials, duration_s=duration_s, n_channels=n_channels,
        snr=snr, seed=seed, **kw,
    )
    return dataio.synth_generate(cfg)


SMALL_GRID = {"lam": [1.0], "L": [8]}

# two values per decoder, so every outer loop makes a selection
LEAK_GRIDS = {
    "wf": {"lam": [1e-2, 1e2], "L": [6, 11]},
    "cca": {"reg": [0.0, 10.0], "L": [6, 11], "L_y": [11],
            "n_components": [2]},
    "csp": {"csp_f": [2, 4], "lda_gamma": [1e-3]},
    "rgc": {"rgc_shrinkage": [0.01, 0.5], "lda_gamma": [1e-3]},
}


@pytest.fixture(scope="module")
def leak_session():
    """A hard session (snr 0.1, direction gain 0.5), so that grid points
    score differently; every fourth trial is held out by the speaker
    protocols, which leaves all three direction classes in training."""
    return synth(n_trials=12, n_channels=4, duration_s=20.0, snr=0.1, seed=2,
                 direction_gain=0.5, group_b_every=4)


def _noise_test_fold(session, plan, loop_index, window_s):
    """The session with the EEG of one outer loop's test units (trials, or
    within_trial segments) replaced by seeded white noise."""
    rng = np.random.default_rng(loop_index)
    win = int(round(window_s * session.fs))
    test = plan.outer[loop_index].test
    trials = []
    for t in session.trials:
        if plan.protocol == "within_trial":
            rows = [slice(k * win, (k + 1) * win)
                    for tid, k in test if tid == t.trial_id]
        else:
            rows = [slice(None)] if t.trial_id in test else []
        samples = t.eeg.samples.copy()
        for r in rows:
            samples[r] = rng.standard_normal(samples[r].shape)
        trials.append(dataio.Trial(t.trial_id, t.task, t.group,
                                   t.eeg.with_samples(samples), t.speakers,
                                   t.timeline))
    return dataio.Session(session.subject, session.fs, trials, True)


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

    def test_within_trial_segments_are_whole_windows(self):
        """106 samples at 10 Hz with 1.06 s (11-sample) windows hold nine
        whole windows; the 7-sample tail is no segment and is not scored."""
        session = synth(n_trials=3, n_channels=2, duration_s=10.6, fs=10.0)
        plan = crossval.make_folds(session.trials, "within_trial", 3, seed=0,
                                   segment_s=1.06)
        units = sorted(u for f in plan.folds for u in f)
        assert units == [(t.trial_id, k) for t in session.trials
                         for k in range(9)]
        report = crossval.run_pipeline(session, "wf", plan,
                                       {"lam": [1.0], "L": [4]}, 1.06)
        assert report.n_windows + report.n_excluded == 27

    @pytest.mark.parametrize("segment_s", [0.0, -1.0, float("nan"), 1e308])
    def test_within_trial_segment_without_samples(self, segment_s):
        """A segment of no whole sample count is refused, naming it; 1e308
        s is finite, but not its sample count."""
        session = synth(n_trials=3, n_channels=2, duration_s=5.0)
        with pytest.raises(BadProtocolConfig, match="^segment_s: "):
            crossval.make_folds(session.trials, "within_trial", 3,
                                segment_s=segment_s)

    def test_within_trial_segment_and_window_agree_in_samples(self):
        """1.05 s is 10 samples at 10 Hz and 1.0500001 s is 11, so the plan
        and the runner would cut different units: rejected, although the
        two lengths differ by only 1e-7 s."""
        session = synth(n_trials=3, n_channels=2, duration_s=10.6, fs=10.0)
        plan = crossval.make_folds(session.trials, "within_trial", 3, seed=0,
                                   segment_s=1.05)
        with pytest.raises(BadProtocolConfig, match="decision window"):
            crossval.run_pipeline(session, "wf", plan,
                                  {"lam": [1.0], "L": [4]}, 1.0500001)
        # a window of the same sample count is accepted
        report = crossval.run_pipeline(session, "wf", plan,
                                       {"lam": [1.0], "L": [4]}, 1.04)
        assert report.n_windows + report.n_excluded == 30

    def test_plans_pinned(self):
        """The full plan of every protocol on one small seeded session:
        folds, each outer loop's test and fit, and its inner (train, val)
        assignments in order."""
        cfg = dataio.SynthConfig(
            n_trials=6, duration_s=2.0, n_channels=1, fs=10.0,
            tasks=[1, 2, 4, 1, 2, 4], group_b_every=2, seed=3,
        )
        trials = dataio.synth_generate(cfg).trials

        def t(*ids):
            return tuple(f"t{i:03d}" for i in ids)

        def seg(*pairs):
            return tuple((f"t{i:03d}", k) for i, k in pairs)

        w0 = seg((0, 0), (1, 1), (5, 0), (3, 1))
        w1 = seg((4, 0), (2, 0), (3, 0), (5, 1))
        w2 = seg((1, 0), (4, 1), (0, 1), (2, 1))
        f0, f1, f2 = t(0, 4), t(3, 2), t(1, 5)
        g1 = t(0, 2, 4)
        # protocol -> (folds, [(test, fit, [(train, val), ...]), ...])
        want = {
            "within_trial": ([w0, w1, w2], [
                (w0, w1 + w2, [(w2, w1)]),
                (w1, w0 + w2, [(w0, w2)]),
                (w2, w0 + w1, [(w1, w0)]),
            ]),
            "loto": ([f0, f1, f2], [
                (f0, f1 + f2, []),
                (f1, f0 + f2, []),
                (f2, f0 + f1, []),
            ]),
            "nested_loto": ([f0, f1, f2], [
                (f0, f1 + f2, [(f2, f1), (f1, f2)]),
                (f1, f0 + f2, [(f2, f0), (f0, f2)]),
                (f2, f0 + f1, [(f1, f0), (f0, f1)]),
            ]),
            "loso": ([g1, t(3), t(1), t(5)], [
                (t(3), g1, []),
                (t(1), g1, []),
                (t(5), g1, []),
            ]),
            "nested_loso": ([g1, t(3), t(1), t(5)], [
                (t(3), g1, [(g1, t(1)), (g1, t(5))]),
                (t(1), g1, [(g1, t(3)), (g1, t(5))]),
                (t(5), g1, [(g1, t(3)), (g1, t(1))]),
            ]),
        }
        for protocol, (folds, loops) in want.items():
            segment_s = 1.0 if protocol == "within_trial" else None
            plan = crossval.make_folds(trials, protocol, 3, seed=5,
                                       segment_s=segment_s)
            assert plan.folds == folds, protocol
            got = [
                (loop.test, loop.fit, [(a.train, a.val) for a in loop.inner])
                for loop in plan.outer
            ]
            assert got == loops, protocol
            assert [loop.index for loop in plan.outer] == [0, 1, 2]
            assert all(a.test == loop.test
                       for loop in plan.outer for a in loop.inner)
            assert plan.segment_s == segment_s

    def test_nested_loto_needs_three_folds(self):
        # with two folds every inner assignment would train on nothing
        session = synth(n_trials=4, n_channels=2, duration_s=5.0)
        with pytest.raises(BadProtocolConfig,
                           match="nested_loto needs >= 3 folds"):
            crossval.make_folds(session.trials, "nested_loto", 2)
        assert len(crossval.make_folds(session.trials, "loto", 2).outer) == 2
        plan = crossval.make_folds(session.trials, "nested_loto", 3)
        assert all(a.train for loop in plan.outer for a in loop.inner)

    @pytest.mark.parametrize("protocol", crossval.PROTOCOLS)
    def test_zero_folds_rejected(self, protocol):
        """``n_folds=0`` is checked like any count, not taken as the
        default."""
        session = synth(n_trials=6, n_channels=2, duration_s=10.0,
                        group_b_every=3)
        with pytest.raises(BadProtocolConfig):
            crossval.make_folds(session.trials, protocol, 0, seed=0,
                                segment_s=5.0)

    def test_unknown_protocol(self):
        session = synth(n_trials=4, n_channels=2, duration_s=5.0)
        with pytest.raises(BadProtocolConfig):
            crossval.make_folds(session.trials, "bogus")

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "1", None])
    def test_seed_is_an_integer_at_least_zero(self, seed):
        """A seed that is not an integer >= 0 is a protocol error, not
        numpy's bare ValueError or TypeError; a bool is not an integer."""
        session = synth(n_trials=4, n_channels=2, duration_s=5.0)
        with pytest.raises(BadProtocolConfig, match="^seed: "):
            crossval.make_folds(session.trials, "loto", 2, seed=seed)
        assert crossval.make_folds(
            session.trials, "loto", 2, seed=np.int64(3)
        ).folds == crossval.make_folds(session.trials, "loto", 2,
                                       seed=3).folds

    @pytest.mark.parametrize("protocol", crossval.PROTOCOLS)
    @pytest.mark.parametrize("kind", ["float", "numpy-float", "bool",
                                      "string"])
    def test_n_folds_is_an_integer(self, protocol, kind):
        """An ``n_folds`` that is not an integer is a protocol error naming
        it, not a bare TypeError; a bool is not an integer, and numpy
        integers are."""
        session = synth(n_trials=6, n_channels=2, duration_s=10.0,
                        group_b_every=3)
        count = 2 if protocol.endswith("loso") else 3
        n_folds = {"float": float(count), "numpy-float": np.float64(count),
                   "bool": True, "string": str(count)}[kind]
        with pytest.raises(BadProtocolConfig, match="^n_folds: "):
            crossval.make_folds(session.trials, protocol, n_folds,
                                segment_s=2.0)
        assert crossval.make_folds(
            session.trials, protocol, np.int64(count), segment_s=2.0
        ).folds == crossval.make_folds(session.trials, protocol, count,
                                       segment_s=2.0).folds

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
    """A hyperparameter grid is a mapping of each key to its values."""

    def test_single_point(self):
        pts = crossval.grid_points({"lam": [0.5]})
        assert pts == [{"lam": 0.5}]

    def test_cartesian_product_deterministic(self):
        g = {"lam": [1, 2], "L": [3, 4]}
        assert crossval.grid_points(g) == [
            {"L": 3, "lam": 1}, {"L": 3, "lam": 2},
            {"L": 4, "lam": 1}, {"L": 4, "lam": 2},
        ]

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            crossval.grid_points({})
        with pytest.raises(EmptyGrid):
            crossval.grid_points({"lam": []})

    def test_numpy_values(self):
        """A parameter may list its values as a numpy array; an empty array
        is an empty grid, not numpy's ambiguous-truth error."""
        lams = np.logspace(-6, 3, 10)
        pts = crossval.grid_points({"lam": lams, "L": [6]})
        assert pts == [{"L": 6, "lam": lam} for lam in lams]
        with pytest.raises(EmptyGrid):
            crossval.grid_points({"lam": np.array([]), "L": [6]})

    def test_default_grids_pinned(self):
        """Each model's default grid, key order included; every call
        returns a fresh copy."""
        grids = {kind: list(crossval.default_grid(kind).items())
                 for kind in crossval.MODEL_KINDS}
        assert grids == {
            "wf": [("lam", [1e-06, 9.999999999999999e-06, 0.0001, 0.001,
                            0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]),
                   ("L", [6, 11, 21])],
            "cca": [("reg", [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]),
                    ("L", [6, 11]), ("L_y", [11]), ("n_components", [2])],
            "csp": [("csp_f", [4]), ("lda_gamma", [0.001])],
            "rgc": [("rgc_shrinkage", [0.1]), ("lda_gamma", [0.001])],
        }
        crossval.default_grid("wf")["L"].append(99)
        assert crossval.default_grid("wf")["L"] == [6, 11, 21]
        with pytest.raises(BadProtocolConfig, match="unknown model kind"):
            crossval.default_grid("lda")


class _Runner:
    """A runner stand-in: tunes on the plan's inner assignments and scores
    each point of a group with ``objective(params, train, val)``."""

    def __init__(self, plan, objective):
        self.plan = plan
        self.objective = objective

    def score(self, points, train, val):
        return [self.objective(p, train, val) for p in points]

    def tuning_assignments(self, loop_index):
        return self.plan.outer[loop_index].inner


class TestGroupScoring:
    def test_nested_wf_counts(self, monkeypatch):
        """A nested wf run fits each training set's regularizer values
        with one wf_fit call and one Cholesky factorization per value:
        loops x assignments x points for the search, plus one final fit
        per loop. Lagging and PCC counts are those of scoring one point at
        a time (90 and 648 on this session)."""
        counts = {"wf_fit": 0, "cholesky": 0, "lag": 0, "pcc": 0}
        for module, name, key in [
                (linear, "wf_fit", "wf_fit"),
                (kernels, "cholesky_inplace", "cholesky"),
                (crossval, "build_lagged", "lag"),
                (linear, "build_lagged", "lag"),
                (metrics, "pcc", "pcc")]:
            real = getattr(module, name)

            def counting(*a, real=real, key=key, **k):
                counts[key] += 1
                return real(*a, **k)
            monkeypatch.setattr(module, name, counting)
        session = synth(n_trials=6, n_channels=3, duration_s=10.0, seed=2)
        plan = crossval.make_folds(session.trials, "nested_loto", 3, seed=0)
        grid = {"lam": [0.1, 1.0, 10.0], "L": [4, 8]}
        crossval.run_pipeline(session, "wf", plan, grid, 5.0)
        loops = len(plan.outer)
        assignments = len(plan.outer[0].inner)
        assert (loops, assignments) == (3, 2)
        assert counts == {
            # one call per (loop, assignment, L), plus the final fits
            "wf_fit": loops * assignments * 2 + loops,
            "cholesky": loops * assignments * 6 + loops,
            "lag": 90, "pcc": 648}


def _selections(plan, grid, objective):
    runner = _Runner(plan, objective)
    return [crossval.pick_best(crossval.score_grid(crossval.grid_points(grid),
                                                [runner], i))
            for i in range(len(plan.outer))]


class TestSearch:
    def test_size_one_grid_returned(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        got = _selections(plan, {"lam": [0.25]},
                          lambda p, tr, va: 0.5)
        assert got == [({"lam": 0.25}, 0.5)] * 4

    def test_planted_optimum(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        grid = {"lam": [0.1, 1.0, 10.0], "L": [4, 8]}

        def objective(params, train, val):
            return 1.0 if (params["lam"], params["L"]) == (1.0, 8) else 0.0

        got = _selections(plan, grid, objective)
        assert all(p == {"lam": 1.0, "L": 8} for p, _ in got)

    def test_tie_breaks_smaller_lam_then_l(self):
        session = synth(n_trials=8, n_channels=2, duration_s=5.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        grid = {"lam": [10.0, 0.1], "L": [8, 4]}
        got = _selections(plan, grid, lambda p, t, v: 0.7)
        assert all(p == {"lam": 0.1, "L": 4} for p, _ in got)

    def test_scores_groups_then_sessions_then_assignments(self):
        """Points that differ only in the regularizer are scored as one
        group: each runner gets one call per group and assignment, groups
        in grid order. A point's score is the unweighted mean over
        sessions of each session's mean over its assignments, and the
        table keeps grid order."""
        session = synth(n_trials=6, n_channels=2, duration_s=5.0)
        plans = [crossval.make_folds(session.trials, "nested_loto", n,
                                     seed=0) for n in (3, 6)]
        calls = []

        class Recording(_Runner):
            def __init__(self, tag, plan, value):
                super().__init__(plan, lambda p, t, v: value(p, v))
                self.tag = tag

            def score(self, points, train, val):
                calls.append(([(p["L"], p["lam"]) for p in points],
                              self.tag, val))
                return super().score(points, train, val)

        runners = [
            Recording("a", plans[0], lambda p, v: p["lam"] + p["L"]),
            Recording("b", plans[1],
                      lambda p, v: float(v == plans[1].folds[2])),
        ]
        table = crossval.score_grid(
            crossval.grid_points({"lam": [0.0, 1.0], "L": [4, 8]}),
            runners, 0)
        expect = [([(L, 0.0), (L, 1.0)], tag, a.val) for L in (4, 8)
                  for tag, r in zip("ab", runners)
                  for a in r.tuning_assignments(0)]
        assert calls == expect
        assert table == [
            ({"L": L, "lam": lam}, 0.5 * (L + lam + 1 / 5))
            for L in (4, 8) for lam in (0.0, 1.0)]

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

    def test_score_tables_pinned(self, monkeypatch):
        """Every score table that default-grid ``wf`` and ``cca`` runs and
        a two-session group run hand to ``pick_best`` on small seeded
        sessions, pinned by the selections and a digest of the tables."""
        tables = []
        pick_best = crossval.pick_best

        def record(scored):
            tables.append(list(scored))
            return pick_best(scored)

        monkeypatch.setattr(crossval, "pick_best", record)
        sessions = [synth(n_trials=6, n_channels=3, duration_s=20.0,
                          snr=0.1, seed=s) for s in (4, 5)]
        selected = []
        for kind in ("wf", "cca"):
            plan = crossval.make_folds(sessions[0].trials, "nested_loto", 3,
                                       seed=1)
            report = crossval.run_pipeline(sessions[0], kind, plan,
                                           crossval.default_grid(kind), 10.0)
            selected.append([f.params for f in report.folds])
        plans = [crossval.make_folds(s.trials, "nested_loto", 3, seed=1)
                 for s in sessions]
        selected.append(crossval.run_pipeline_group(
            sessions, "wf", plans, crossval.default_grid("wf"), 10.0,
        )[1])
        cca = {"L_y": 11, "n_components": 2}
        assert selected == [
            [{"L": 6, "lam": 1e-06}, {"L": 6, "lam": 1000.0},
             {"L": 6, "lam": 1e-06}],
            [{"L": 6, "reg": 0.01, **cca}, {"L": 11, "reg": 0.0, **cca},
             {"L": 11, "reg": 10.0, **cca}],
            [{"L": 6, "lam": 1e-06}, {"L": 6, "lam": 1000.0},
             {"L": 11, "lam": 1e-06}],
        ]
        assert [len(t) for t in tables] == [30] * 3 + [12] * 3 + [30] * 3
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
            "815e057e91fa620b42393cb5cc198149263591146bbdb29dc1b91bf5ea051768"
        )

    def test_classifier_score_tables_pinned(self, monkeypatch, leak_session):
        """Every score table that two-by-two ``csp`` and three-by-two
        ``rgc`` grids hand to ``pick_best`` on the seeded direction-gain
        session, pinned by the selections and a digest of the tables."""
        tables = []
        pick_best = crossval.pick_best

        def record(scored):
            tables.append(list(scored))
            return pick_best(scored)

        monkeypatch.setattr(crossval, "pick_best", record)
        plan = crossval.make_folds(leak_session.trials, "nested_loto", 4,
                                   seed=1)
        grids = {
            "csp": {"csp_f": [2, 4], "lda_gamma": [1e-3, 0.1]},
            "rgc": {"rgc_shrinkage": [0.05, 0.1, 0.5],
                    "lda_gamma": [1e-3, 0.1]},
        }
        selected = [
            [f.params for f in crossval.run_pipeline(
                leak_session, kind, plan, grid, 5.0).folds]
            for kind, grid in grids.items()
        ]
        csp = {"csp_f": 2, "lda_gamma": 0.1}
        assert selected == [
            [csp] * 4,
            [{"lda_gamma": 1e-3, "rgc_shrinkage": 0.05},
             {"lda_gamma": 0.1, "rgc_shrinkage": 0.05},
             {"lda_gamma": 1e-3, "rgc_shrinkage": 0.05},
             {"lda_gamma": 0.1, "rgc_shrinkage": 0.1}],
        ]
        assert [len(t) for t in tables] == [4] * 4 + [6] * 4
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
            "4c924173d1c511312df7eab1e456a8cea68c664e0e24f05140aa477f6e0c9a7f"
        )


class TestRunPipeline:
    def test_high_snr_nested_accuracy(self):
        session = synth(n_trials=12, n_channels=4, snr=5.0, seed=3)
        plan = crossval.make_folds(session.trials, "nested_loto", 6, seed=0)
        grid = {"lam": [0.01, 1.0, 100.0], "L": [8]}
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
        grid = {"lam": [0.1, 10.0], "L": [6]}
        r1 = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        r2 = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        assert [f.model_bytes for f in r1.folds] == [
            f.model_bytes for f in r2.folds
        ]
        assert [w.rhos for w in r1.windows] == [w.rhos for w in r2.windows]

    @pytest.mark.parametrize("regs", [
        pytest.param([0.0], id="one-reg"),
        pytest.param(list(np.logspace(-2, 2, 6)), id="six-regs"),
    ])
    def test_cca_eigensolves_independent_of_reg_count(self, regs,
                                                      monkeypatch):
        """Every reg value fits from the same two spectra per training
        set, so a run makes two eigensolver calls per distinct training
        set however many reg values the grid has."""
        calls = []
        sweep = kernels.jacobi_sweep
        monkeypatch.setattr(kernels, "jacobi_sweep",
                            lambda a, v: calls.append(a.shape) or sweep(a, v))
        session = synth(n_trials=8, n_channels=2, seed=6, duration_s=10.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=1)
        # two points even with one reg value, so every grid is scored
        grid = {"reg": regs, "L": [4], "L_y": [5], "n_components": [1, 2]}
        crossval.run_pipeline(session, "cca", plan, grid, 10.0)
        train_sets = {a.train for loop in plan.outer for a in loop.inner}
        train_sets |= {loop.fit for loop in plan.outer}
        assert len(calls) == 2 * len(train_sets) == 20

    @pytest.mark.parametrize("kind, grid", [
        ("wf", {"lam": [0.1, 10.0], "L": [3, 5]}),
        ("cca", {"reg": [0.0, 1.0], "L": [3, 5], "L_y": [2, 4],
                 "n_components": [1]}),
    ])
    def test_statistics_shared(self, monkeypatch, kind, grid):
        """A nested run accumulates each trial once per (L, L_y) and sums
        those statistics into every training set; an inner assignment
        (i, j) shares the statistics of (j, i), so CCA decomposes each
        distinct (training set, L, L_y) twice."""
        layouts, eigs = [], []
        real_accumulate = design.accumulate

        def counting_accumulate(designs, targets):
            stats = real_accumulate(designs, targets)
            layouts.append((len(designs), stats.lags, stats.target_lags))
            return stats
        monkeypatch.setattr(crossval, "accumulate", counting_accumulate)
        monkeypatch.setattr(design, "accumulate", counting_accumulate)
        real_eig = numerics.sym_eig
        for module in (design, numerics):
            monkeypatch.setattr(module, "sym_eig",
                                lambda s: eigs.append(s.shape) or real_eig(s))
        session = synth(n_trials=8, n_channels=2, seed=6, duration_s=10.0)
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=1)
        report = crossval.run_pipeline(session, kind, plan, grid, 5.0)
        lag_pairs = {(p["L"], p.get("L_y", 0))
                     for p in crossval.grid_points(grid)}
        assert sorted(layouts) == sorted(
            (1, L, L_y) for L, L_y in lag_pairs for _ in session.trials)
        if kind == "cca":
            fitted = {(a.train, L, L_y) for loop in plan.outer
                      for a in loop.inner for L, L_y in lag_pairs}
            fitted |= {(loop.fit, fold.params["L"], fold.params["L_y"])
                       for loop, fold in zip(plan.outer, report.folds)}
            assert len(eigs) == 2 * len(fitted) == 56
        else:
            assert eigs == []

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

    @pytest.mark.parametrize("kind", crossval.MODEL_KINDS)
    @pytest.mark.parametrize("protocol", ["nested_loto", "nested_loso",
                                          "within_trial", "loto"])
    def test_selection_leakage(self, leak_session, protocol, kind):
        """Replacing one outer loop's test-fold EEG with noise leaves that
        loop's selected params and model bytes unchanged under every
        protocol that tunes on validation folds. loto tunes on the test
        fold and is the positive control: on this seeded session the
        noise moves some loop's selection for each decoder."""
        n_folds = 4 if protocol.endswith("loto") else None
        plan = crossval.make_folds(leak_session.trials, protocol, n_folds,
                                   seed=1, segment_s=5.0)
        grid = LEAK_GRIDS[kind]
        base = crossval.run_pipeline(leak_session, kind, plan, grid, 5.0)
        moved = []
        for i in range(len(plan.outer)):
            noised = _noise_test_fold(leak_session, plan, i, 5.0)
            again = crossval.run_pipeline(noised, kind, plan, grid, 5.0)
            before, after = base.folds[i], again.folds[i]
            moved.append((before.params != after.params,
                          before.model_bytes != after.model_bytes))
        if protocol == "loto":
            assert any(params for params, _ in moved)
        else:
            assert not any(any(m) for m in moved)

    def test_cca_pipeline_decodes(self):
        session = synth(n_trials=10, n_channels=4, snr=5.0, seed=9)
        plan = crossval.make_folds(session.trials, "loto", 5, seed=0)
        grid = {"reg": [1.0], "L": [8], "L_y": [8], "n_components": [2]}
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

    @pytest.mark.parametrize("protocol, csp_f, fits", [
        # 3 outer loops; one grid point is never scored, two are scored on
        # loto's test fold before the final fit
        ("nested_loto", [4], 3),
        ("loto", [2, 4], 3 * (2 + 1)),
    ])
    def test_csp_filters_each_stack_once_per_band(self, monkeypatch,
                                                  protocol, csp_f, fits):
        # one sosfilt call per band for each fit's training windows and one
        # for each evaluation's windows, however many windows there are
        session = synth(n_trials=6, duration_s=10.0, n_channels=4, seed=3,
                        direction_gain=1.0)
        plan = crossval.make_folds(session.trials, protocol, 3, seed=3)
        calls = {"sosfilt": 0, "fit": 0, "features": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernels, "sosfilt",
                            counted("sosfilt", kernels.sosfilt))
        monkeypatch.setattr(spatial, "csp_fit",
                            counted("fit", spatial.csp_fit))
        monkeypatch.setattr(spatial, "csp_features",
                            counted("features", spatial.csp_features))
        grid = {"csp_f": csp_f, "lda_gamma": [1e-3]}
        report = crossval.run_pipeline(session, "csp", plan, grid, 5.0)
        assert report.n_windows == 12
        assert calls["fit"] == calls["features"] == fits
        assert calls["sosfilt"] == len(spatial.DEFAULT_BANDS) * 2 * fits

    @pytest.mark.parametrize("kind, names, grid", [
        ("csp", ("csp_fit", "csp_features"),
         {"csp_f": [2], "lda_gamma": [1e-3]}),
        ("rgc", ("rgc_fit", "tangent_features"),
         {"rgc_shrinkage": [0.1], "lda_gamma": [1e-3]}),
    ], ids=["csp", "rgc"])
    def test_classifier_passes_one_window_stack(self, monkeypatch, kind,
                                                names, grid):
        # every fit and every evaluation gets its windows as one float
        # (n, T, C) array of whole 5 s windows
        session = synth(n_trials=6, duration_s=10.0, n_channels=4, seed=3,
                        direction_gain=1.0)
        plan = crossval.make_folds(session.trials, "loto", 3, seed=3)
        seen = {name: [] for name in names}

        def recorded(name, fn):
            def wrapper(segments, *args, **kwargs):
                seen[name].append(segments)
                return fn(segments, *args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(spatial, name,
                                recorded(name, getattr(spatial, name)))
        crossval.run_pipeline(session, kind, plan, grid, 5.0)
        win = int(round(5.0 * session.fs))
        for name in names:
            assert seen[name]
            for segments in seen[name]:
                assert type(segments) is np.ndarray
                assert segments.dtype == np.float64
                assert segments.ndim == 3
                assert segments.shape[1:] == (win, 4)

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

    def test_jobs_other_than_one_refused_before_any_fit(
            self, monkeypatch, small_session, tmp_path):
        """Outer loops run serially: ``jobs=1`` exports the same files as a
        call without it, and any other value is refused before any fit."""
        calls = _record_fits(monkeypatch)
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        grid = {"lam": [1.0, 10.0], "L": [4]}
        for jobs in (2, 0, None):
            with pytest.raises(BadConfig, match="^jobs: "):
                crossval.run_pipeline(small_session, "wf", plan, grid, 5.0,
                                      jobs=jobs)
        assert calls == []
        one, default = tmp_path / "one", tmp_path / "default"
        dataio.export_results(crossval.run_pipeline(
            small_session, "wf", plan, grid, 5.0, jobs=1), one)
        dataio.export_results(crossval.run_pipeline(
            small_session, "wf", plan, grid, 5.0), default)
        files = sorted(f.relative_to(one) for f in one.rglob("*")
                       if f.is_file())
        assert files == sorted(f.relative_to(default)
                               for f in default.rglob("*") if f.is_file())
        for rel in files:
            assert (one / rel).read_bytes() == (default / rel).read_bytes()

    def test_task4_windows_excluded(self):
        cfg = dataio.SynthConfig(
            n_trials=6, duration_s=30.0, n_channels=3, seed=12,
            tasks=[1, 4, 1, 4, 1, 4],
            switch_times=[None, 15.0, None, 15.0, None, 15.0],
        )
        session = dataio.synth_generate(cfg)
        plan = crossval.make_folds(session.trials, "loto", 3, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 30.0)
        # 30 s windows on task-4 trials span the unattended half: excluded
        assert report.n_windows == 3
        assert report.n_excluded == 3
        trial_tasks = {t.trial_id: t.task for t in session.trials}
        assert all(trial_tasks[w.trial_id] == 1 for w in report.windows)

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
        grid = {"lam": [0.1, 10.0], "L": [6]}
        plans = [crossval.make_folds(s.trials, "nested_loto", 4, seed=0)
                 for s in sessions]
        reports, selected = crossval.run_pipeline_group(
            sessions, "wf", plans, grid, 10.0
        )
        assert len(reports) == 2
        assert len(selected) == 4
        for rep in reports:
            assert [f.params for f in rep.folds] == selected

    def test_group_one_point_grid_fits_once_per_loop(self, monkeypatch):
        sessions = [synth(n_trials=8, n_channels=3, seed=s) for s in (1, 2)]
        calls = []
        wf_fit = linear.wf_fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return wf_fit(*args, **kwargs)

        monkeypatch.setattr(linear, "wf_fit", counting_fit)
        plans = [crossval.make_folds(s.trials, "nested_loto", 4, seed=0)
                 for s in sessions]
        crossval.run_pipeline_group(sessions, "wf", plans, SMALL_GRID, 10.0)
        # nothing to tune: one final fit per (session, outer loop)
        assert len(calls) == 2 * 4

    def test_group_of_one_selects_like_run_pipeline(self):
        session = synth(n_trials=8, n_channels=3, snr=0.05, seed=6)
        grid = {"lam": [0.01, 1.0, 100.0], "L": [4, 8]}
        plan = crossval.make_folds(session.trials, "nested_loto", 4, seed=0)
        report = crossval.run_pipeline(session, "wf", plan, grid, 10.0)
        _, selected = crossval.run_pipeline_group(
            [session], "wf", [plan], grid, 10.0
        )
        assert selected == [f.params for f in report.folds]


# (model, protocol, folds, window_s, a one-point selection, the key over
# its limit, its value, the limit in samples): a 0.2 s window is 8 samples
# at 40 Hz, fewer than cca's default L_y; a within_trial unit of 0.4 s is
# 16 samples, fewer than the largest L of wf's default grid
_LAGS_OVER_LIMIT = [
    pytest.param("cca", "loto", 2, 0.2,
                 {"reg": 0.1, "L": 6, "L_y": 11, "n_components": 2},
                 "L_y", 11, 8, id="cca-L_y-over-window"),
    pytest.param("wf", "within_trial", 3, 0.4, {"lam": 1.0, "L": 21},
                 "L", 21, 16, id="wf-L-over-unit"),
]


def _record_fits(monkeypatch):
    """Record every decoder fit; returns the list of calls."""
    calls = []
    for module, name in [(linear, "wf_fit"), (linear, "cca_fit"),
                         (spatial, "csp_fit"), (spatial, "rgc_fit")]:
        fit = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *a, fit=fit, **k: calls.append(1) or fit(*a, **k))
    return calls


def _run_entry(entry, session, kind, plan, grid, **kw):
    """Run one API entry: ``grid`` is ``run_pipeline``, ``group`` is
    ``run_pipeline_group`` on the session twice, and ``fixed`` is
    ``run_channel_ablation``, which reuses the selections made on the full
    channel set, fixed, on a layout of the channels in reverse order."""
    if entry == "group":
        return crossval.run_pipeline_group([session, session], kind,
                                           [plan, plan], grid, **kw)
    if entry == "fixed":
        layout = list(session.trials[0].eeg.channel_names)[::-1]
        return crossval.run_channel_ablation(
            session, {"reversed": layout}, kind, plan, grid, **kw)
    return crossval.run_pipeline(session, kind, plan, grid, **kw)


class TestComponentLimit:
    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    def test_components_over_limit_before_any_fit(self, monkeypatch, entry):
        """CCA keeps at most min(L x channels, L_y) component pairs: with
        L = 2 on two channels and L_y = 3 that is 3, so 7 is refused
        before the first fit, in a grid or in a selection reused by the
        ablation."""
        session = synth(n_trials=4, n_channels=2, duration_s=10.0, seed=3)
        calls = _record_fits(monkeypatch)
        plan = crossval.make_folds(session.trials, "nested_loto", 3)
        grid = {"reg": [0.1, 1.0], "L": [2], "L_y": [3], "n_components": [7]}
        with pytest.raises(BadConfig, match="^" + re.escape(
                "n_components: 7 components exceed min(L x channels, L_y), "
                "3")):
            _run_entry(entry, session, "cca", plan, grid, window_s=5.0)
        assert calls == []

    def test_components_at_limit_run(self):
        session = synth(n_trials=4, n_channels=2, duration_s=10.0, seed=3)
        plan = crossval.make_folds(session.trials, "loto", 2)
        grid = {"reg": [0.1], "L": [2], "L_y": [3], "n_components": [3]}
        report = crossval.run_pipeline(session, "cca", plan, grid, 5.0)
        assert report.n_windows > 0


class TestLagLimits:
    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    @pytest.mark.parametrize(
        "kind, protocol, folds, window_s, fixed, key, value, limit",
        _LAGS_OVER_LIMIT)
    def test_lags_over_limit_are_bad_config_before_any_fit(
            self, monkeypatch, entry, kind, protocol, folds, window_s,
            fixed, key, value, limit):
        """A lag count longer than a decision window (L_y) or than the
        shortest unit (L) is refused before the first fit, in a default
        grid or in a selection reused by the ablation."""
        session = synth(n_trials=4, n_channels=3, duration_s=10.0, seed=3)
        calls = _record_fits(monkeypatch)
        grid = ({k: [v] for k, v in fixed.items()} if entry == "fixed"
                else crossval.default_grid(kind))
        segment_s = window_s if protocol == "within_trial" else None
        plan = crossval.make_folds(session.trials, protocol, folds,
                                   segment_s=segment_s)
        with pytest.raises(BadConfig,
                           match=f"^{key}: {value} lags .* {limit} samples"):
            _run_entry(entry, session, kind, plan, grid, window_s=window_s)
        assert calls == []


# a valid one-point selection per decoder, and its count and weight keys
_VALID_PARAMS = {
    "wf": {"lam": 1.0, "L": 4},
    "cca": {"reg": 0.1, "L": 4, "L_y": 4, "n_components": 2},
    "csp": {"csp_f": 2, "lda_gamma": 1e-3},
    "rgc": {"rgc_shrinkage": 0.1, "lda_gamma": 1e-3},
}
_COUNT_KEY = {"wf": "L", "cca": "L", "csp": "csp_f"}
_WEIGHT_KEY = {"wf": "lam", "cca": "reg", "csp": "lda_gamma",
               "rgc": "rgc_shrinkage"}


def _bad_params(kind, case):
    """(params, the key the error names) for one kind of bad input."""
    params = dict(_VALID_PARAMS[kind])
    if case == "missing":
        key = list(params)[-1]
        del params[key]
        return params, key
    if case == "unknown":
        return {**params, "x": 1}, "x"
    key = _COUNT_KEY[kind] if case == "fraction" else _WEIGHT_KEY[kind]
    params[key] = {"fraction": 4.5, "negative": -1.0, "nan": float("nan"),
                   "bool": True}[case]
    return params, key


_BAD_CASES = [
    pytest.param(kind, case, id=f"{kind}-{case}")
    for kind in _VALID_PARAMS
    for case in ("missing", "unknown", "fraction", "negative", "nan", "bool")
    if case != "fraction" or kind in _COUNT_KEY
]


@pytest.fixture(scope="module")
def small_session():
    return synth(n_trials=4, n_channels=3, duration_s=10.0, seed=3,
                 direction_gain=1.0)


class TestParamChecks:
    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    @pytest.mark.parametrize("kind, case", _BAD_CASES)
    def test_bad_params_are_bad_config_before_any_fit(
            self, monkeypatch, small_session, entry, kind, case):
        """A missing or unknown key, a fractional count, and a negative,
        NaN or bool value are refused, naming the key, by every API entry
        before the first fit."""
        calls = _record_fits(monkeypatch)
        params, key = _bad_params(kind, case)
        grid = {k: [v] for k, v in params.items()}
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        with pytest.raises(BadConfig, match=f"^grid: {key} "):
            _run_entry(entry, small_session, kind, plan, grid, window_s=5.0)
        assert calls == []

    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    @pytest.mark.parametrize("key, value, error", [
        ("window_s", float("nan"), BadProtocolConfig),
        ("window_s", float("inf"), BadProtocolConfig),
        ("time_pcc_seg_s", float("nan"), BadConfig),
        ("time_pcc_seg_s", float("inf"), BadConfig),
        ("time_pcc_seg_s", 0.0, BadConfig),
        # 0.02 s is one sample at 40 Hz, too short for a segment's PCC
        ("time_pcc_seg_s", 0.02, BadConfig),
        # finite seconds whose sample count at 40 Hz is not
        ("window_s", 1e308, BadProtocolConfig),
        ("time_pcc_seg_s", 1e308, BadConfig),
    ])
    def test_bad_lengths_before_any_fit(self, monkeypatch, small_session,
                                        entry, key, value, error):
        """A decision window or time-PCC segment that is not a finite
        positive length is refused, naming it, before the first fit."""
        calls = _record_fits(monkeypatch)
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        grid = {"lam": [1.0, 10.0], "L": [4]}
        lengths = {"window_s": 5.0, "time_pcc_seg_s": 1.0, key: value}
        with pytest.raises(error, match=f"^{key}"):
            _run_entry(entry, small_session, "wf", plan, grid, **lengths)
        assert calls == []

    @pytest.mark.parametrize("values", [
        pytest.param(4, id="scalar"),
        pytest.param("4", id="string"),
        pytest.param({"L": 4}, id="mapping"),
        pytest.param(np.array(4), id="0-d-array"),
        pytest.param(np.array([[4]]), id="2-d-array"),
    ])
    def test_grid_values_are_a_sequence(self, small_session, values):
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        grid = {"lam": [1.0], "L": values}
        with pytest.raises(BadConfig, match="^grid: L must map to a list"):
            crossval.run_pipeline(small_session, "wf", plan, grid, 5.0)

    def test_numpy_values_accepted(self, small_session):
        """Grid values may be numpy scalars or arrays, as the default
        grids hold."""
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        grid = {"lam": np.array([0.1, 1.0]), "L": (np.int64(4),)}
        report = crossval.run_pipeline(small_session, "wf", plan, grid, 5.0)
        assert [f.params["L"] for f in report.folds] == [4, 4]

    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    def test_csp_filters_over_channels_before_any_fit(
            self, monkeypatch, small_session, entry):
        """CSP keeps ``csp_f`` filters per band and class out of the
        session's channels, so a larger count is refused before the first
        fit, as a configuration error."""
        calls = _record_fits(monkeypatch)
        session = crossval.restrict_session(small_session, ("ch00", "ch01"))
        plan = crossval.make_folds(session.trials, "loto", 2)
        grid = {"csp_f": [1, 3], "lda_gamma": [1e-3]}
        with pytest.raises(BadConfig,
                           match="^csp_f: 3 filters exceed the 2 channels"):
            _run_entry(entry, session, "csp", plan, grid, window_s=5.0)
        assert calls == []


    def test_short_segment_taken_by_within_trial(self, small_session):
        """within_trial tests trial segments and computes no time-PCC
        curves, so a segment of one sample is no error there."""
        plan = crossval.make_folds(small_session.trials, "within_trial", 3,
                                   segment_s=5.0)
        report = crossval.run_pipeline(small_session, "wf", plan,
                                       {"lam": [1.0], "L": [4]}, 5.0,
                                       time_pcc_seg_s=0.02)
        assert report.time_pcc == {}

    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    def test_rgc_shrinkage_above_one_before_any_fit(
            self, monkeypatch, small_session, entry):
        """RGC's shrinkage weights the covariance against its scaled
        identity, so a value above 1 is refused before the first fit."""
        calls = _record_fits(monkeypatch)
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        grid = {"rgc_shrinkage": [0.1, 5.0], "lda_gamma": [1e-3]}
        with pytest.raises(BadConfig,
                           match=r"^rgc_shrinkage: 5.0 outside \[0, 1\]"):
            _run_entry(entry, small_session, "rgc", plan, grid,
                       window_s=5.0)
        assert calls == []

    @pytest.mark.parametrize("grid", [None, [("lam", [1.0]), ("L", [4])]],
                             ids=["none", "pairs"])
    def test_grid_is_a_mapping(self, small_session, grid):
        plan = crossval.make_folds(small_session.trials, "loto", 2)
        with pytest.raises(BadConfig, match="^grid: need a mapping"):
            crossval.run_pipeline(small_session, "wf", plan, grid, 5.0)


class TestGroupPlans:
    """``run_pipeline_group`` takes one plan per session, all of one
    protocol and one outer-loop count."""

    @pytest.mark.parametrize("case, error, message", [
        ("fewer-plans", BadConfig, "plans: 1 for 2 sessions"),
        ("more-plans", BadConfig, "plans: 2 for 1 sessions"),
        ("empty", BadConfig, "plans: 0 for 0 sessions"),
        ("mixed-protocols", BadProtocolConfig,
         "plans mix protocols: loto, nested_loto"),
        ("mixed-outer", BadProtocolConfig,
         "sessions produce different outer-loop counts"),
    ])
    def test_refused_before_any_fit(self, monkeypatch, small_session, case,
                                    error, message):
        calls = _record_fits(monkeypatch)

        def plan(protocol="loto", n_folds=3):
            return crossval.make_folds(small_session.trials, protocol,
                                       n_folds)

        two = [small_session, small_session]
        sessions, plans = {
            "fewer-plans": (two, [plan()]),
            "more-plans": ([small_session], [plan(), plan()]),
            "empty": ([], []),
            "mixed-protocols": (two, [plan(), plan("nested_loto")]),
            "mixed-outer": (two, [plan(), plan(n_folds=2)]),
        }[case]
        with pytest.raises(error, match=f"^{message}"):
            crossval.run_pipeline_group(sessions, "wf", plans, SMALL_GRID,
                                        5.0)
        assert calls == []


def _broken_plan(session, case):
    """A ``make_folds`` plan edited by hand to break one rule, and the
    message that refuses it."""
    protocol, n_folds = {"train-has-test": ("nested_loto", 3),
                         "assignment-unit-in-no-fold": ("within_trial", 3),
                         "segment-past-last-window": ("within_trial", 3),
                         }.get(case, ("loto", 2))
    plan = crossval.make_folds(session.trials, protocol, n_folds,
                               segment_s=5.0)
    loop = plan.outer[0]
    if case == "fit-has-test":
        plan.outer[0] = replace(loop, fit=loop.fit + loop.test)
        return plan, "fit set overlaps test fold"
    if case == "train-has-test":
        a = loop.inner[0]
        loop.inner[0] = replace(a, train=a.train + loop.test)
        return plan, "overlapping assignment sets"
    if case == "unit-names-no-trial":
        plan.folds[0] += ("nope",)
        return plan, "unit 'nope' names no trial of the session"
    if case == "loop-unit-in-no-fold":
        plan.folds = [f for f in plan.folds if "t000" not in f]
        return plan, "outer loop 0: unit 't000' is in no fold"
    if case == "segment-past-last-window":
        # t000 is 10 s long: its 5 s segments are 0 and 1
        plan.folds[0] += (("t000", 9),)
        plan.outer[0] = replace(loop, test=loop.test + (("t000", 9),))
        return plan, ("unit ('t000', 9) is no whole decision window of "
                      "trial t000, which has 2")
    a = loop.inner[0]
    loop.inner[0] = replace(a, val=a.val + (("t000", 9),))
    return plan, "outer loop 0: unit ('t000', 9) is in no fold"


class TestPlanChecks:
    """Every API entry checks its plan, also one built by hand, before
    any fit; the other tests run ``make_folds`` plans through the same
    check."""

    @pytest.mark.parametrize("entry", ["grid", "fixed", "group"])
    @pytest.mark.parametrize("case", [
        "fit-has-test", "train-has-test", "unit-names-no-trial",
        "loop-unit-in-no-fold", "assignment-unit-in-no-fold",
        "segment-past-last-window"])
    def test_refused_before_any_fit(self, monkeypatch, small_session, entry,
                                    case):
        calls = _record_fits(monkeypatch)
        plan, message = _broken_plan(small_session, case)
        with pytest.raises(BadProtocolConfig, match=f"^{re.escape(message)}"):
            _run_entry(entry, small_session, "wf", plan,
                       {"lam": [1.0, 10.0], "L": [4]}, window_s=5.0)
        assert calls == []


def _mixed_channels(session, edit):
    """The session with trial t001's EEG edited: ``reversed`` stores its
    channels in reverse order, names and data alike; ``dropped`` leaves
    out its last channel."""
    trials = list(session.trials)
    eeg = trials[1].eeg
    names = list(eeg.channel_names)
    cols = list(range(len(names)))[::-1] if edit == "reversed" else \
        list(range(len(names) - 1))
    trials[1] = dataio.Trial(
        trials[1].trial_id, trials[1].task, trials[1].group,
        eeg.with_samples(eeg.samples[:, cols],
                         channel_names=[names[c] for c in cols]),
        trials[1].speakers, trials[1].timeline)
    return dataio.Session(session.subject, session.fs, trials, True)


class TestMixedChannels:
    @pytest.mark.parametrize("edit", ["reversed", "dropped"])
    @pytest.mark.parametrize("kind", ["wf", "csp"])
    def test_trials_must_share_channels(self, monkeypatch, small_session,
                                        kind, edit):
        """Every trial lists the first trial's channels in its order;
        otherwise the columns a model reads would mean different
        electrodes, so the run is refused before any fit."""
        calls = _record_fits(monkeypatch)
        session = _mixed_channels(small_session, edit)
        plan = crossval.make_folds(session.trials, "loto", 2)
        with pytest.raises(BadChannelIndex, match="^trial t001: channel"):
            crossval.run_pipeline(session, kind, plan,
                                  crossval.default_grid(kind), 5.0)
        assert calls == []

    def test_envelope_rate_must_equal_eeg_rate(self, monkeypatch, tmp_path,
                                               small_session):
        """An envelope stored at another rate than the EEG, with as many
        samples, would map the attention timeline at the wrong rate; it is
        refused before any fit, as an envelope of another length is."""
        manifest = dataio.save_session(small_session, tmp_path / "session")
        for path in (tmp_path / "session/arrays").glob("t001_spk*.aad"):
            samples, _ = dataio.read_array(path)
            dataio.write_array(path, samples, 20.0)
        session = dataio.load_session(manifest)
        calls = _record_fits(monkeypatch)
        plan = crossval.make_folds(session.trials, "loto", 2)
        with pytest.raises(BadProtocolConfig,
                           match="^trial t001: envelope and EEG lengths or "
                                 "rates differ; run preprocessing first"):
            crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 5.0)
        assert calls == []

    def test_restricted_session_runs(self, small_session):
        """Selecting channels by name aligns the trials again."""
        session = crossval.restrict_session(
            _mixed_channels(small_session, "reversed"), ("ch02", "ch00"))
        plan = crossval.make_folds(session.trials, "loto", 2)
        report = crossval.run_pipeline(session, "wf", plan, SMALL_GRID, 5.0)
        assert report.channel_names == ["ch02", "ch00"]


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

    def test_duplicate_channel_rejected(self):
        session = synth(n_trials=4, n_channels=4, seed=16)
        with pytest.raises(BadChannelIndex, match="ch00"):
            crossval.restrict_session(session, ("ch00", "ch00", "ch01"))

    @pytest.mark.parametrize("layouts, message", [
        (["full", "nope"], "unknown preset names"),
        (["full", 5], "unknown preset names"),
        ([["upper"]], "unknown preset names"),
        ([], "empty"),
        ({}, "empty"),
        ({"../../escaped": ["ch00"]}, "'../../escaped' is not a file name"),
        ({"..": ["ch00"]}, "'..' is not a file name"),
        ({"": ["ch00"]}, "'' is not a file name"),
        ({"a": 5}, "a mapping needs lists of channel names"),
        ({"a": "ch00"}, "a mapping needs lists of channel names"),
        ({"a": ["ch00", 5]}, "a mapping needs lists of channel names"),
        ({5: ["ch01"]}, "5 is not a file name"),
        ("full", "need a list of preset names or a mapping"),
        (7, "need a list of preset names or a mapping"),
        (None, "need a list of preset names or a mapping"),
    ], ids=["unknown", "int", "list", "empty-list", "empty-map",
            "name-escapes", "name-dot-dot", "name-empty", "map-int",
            "map-str", "map-int-channel", "name-int", "str", "scalar",
            "none"])
    def test_bad_layouts_are_bad_config(self, monkeypatch, layouts, message):
        session = synth(n_trials=4, n_channels=4, seed=16)
        plan = crossval.make_folds(session.trials, "loto", 2, seed=0)
        monkeypatch.setattr(crossval, "run_pipeline_group", None)
        with pytest.raises(BadConfig, match=f"^layouts: {message}"):
            crossval.run_channel_ablation(session, layouts, "wf", plan,
                                          SMALL_GRID, 10.0)

    @pytest.mark.parametrize("bad", [["ch00", "ch00"], ["ch00", "L1"]],
                             ids=["repeated", "unknown"])
    def test_layouts_checked_before_any_fit(self, monkeypatch, bad):
        session = synth(n_trials=4, n_channels=4, seed=16)
        plan = crossval.make_folds(session.trials, "loto", 2, seed=0)
        calls = _record_fits(monkeypatch)
        with pytest.raises(BadChannelIndex):
            crossval.run_channel_ablation(
                session, {"ok": ["ch01"], "bad": bad}, "wf", plan,
                SMALL_GRID, 10.0)
        assert calls == []

    def test_csp_filters_over_layout_channels_before_any_fit(
            self, monkeypatch):
        """Every ``csp_f`` of the grid may be selected on the full set, so
        each must fit every layout's channel count."""
        session = synth(n_trials=4, n_channels=4, seed=16)
        plan = crossval.make_folds(session.trials, "loto", 2, seed=0)
        calls = _record_fits(monkeypatch)
        grid = {"csp_f": [1, 3], "lda_gamma": [1e-3]}
        with pytest.raises(BadConfig,
                           match="^csp_f: 3 filters exceed the 2 channels"):
            crossval.run_channel_ablation(
                session, {"full": ["ch00", "ch01", "ch02", "ch03"],
                          "pair": ["ch00", "ch01"]}, "csp", plan, grid, 10.0)
        assert calls == []

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
            models = real_fit(*args, **kwargs)
            fitted.extend(models)
            return models

        monkeypatch.setattr(linear, fit_name, recording_fit)
        report = crossval.run_pipeline(
            session, kind, plan, {k: [v] for k, v in params.items()}, 10.0)
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


@pytest.mark.parametrize("kind, params", [
    ("wf", {"lam": 1.0, "L": 6}),
    ("cca", {"reg": 1.0, "L": 6, "L_y": 4, "n_components": 2}),
])
def test_score_is_accuracy_of_collected_evaluation(kind, params):
    """Grid scoring counts correct windows without records; the count
    gives the accuracy of the full evaluation to the bit, ties included."""
    # three 5 s windows per trial, so accuracies are not dyadic fractions
    session = synth(n_trials=6, n_channels=3, snr=1.0, seed=21,
                    duration_s=15.0)
    # every speaker of the first trial carries one envelope, so each of
    # its windows ties exactly
    tied = session.trials[0]
    for s in tied.speakers:
        s.envelope = tied.speakers[0].envelope.copy()
    plan = crossval.make_folds(session.trials, "loto", 3, seed=0)
    runner = crossval._make_runner(session, kind, plan, 5.0, 1.0)
    accuracies = []
    for loop in plan.outer:
        [model] = runner._fit(loop.fit, [params])
        acc, _, records, _ = runner._eval_units(model, params, loop.test,
                                                collect=True)
        [score] = runner.score([params], loop.fit, loop.test)
        assert score == acc
        assert acc == np.mean([r.correct for r in records])
        accuracies.append(acc)
        if tied.trial_id in loop.test:
            ties = [r for r in records if r.trial_id == tied.trial_id]
            assert ties and all(r.tie and not r.correct for r in ties)
    assert 0.0 < max(accuracies) and min(accuracies) < 1.0
