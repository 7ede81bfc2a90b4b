"""Fold construction, hyperparameter search and the leakage-proof
train/tune/evaluate pipeline for all supported protocols.

Protocols
---------
within_trial
    Every trial is cut into segments of one whole decision window each (a
    tail shorter than a window is dropped), which are shuffled into folds;
    one fold is tested per outer loop while the next fold in cyclic order
    serves as validation.
loto / nested_loto
    Trial-level folds, stratified by task. The nested variant runs one
    inner loop per non-test fold (the test fold never moves); the plain
    variant tunes directly on the test fold, reproducing the optimistic
    single-loop protocol.
loso / nested_loso
    Trials whose speakers belong to group 1 always train; group-2 trials
    form the validation/test folds.

``make_folds`` deals each protocol's folds, then builds every outer loop
the same way from the folds, a fixed training block (the group-1 trials
of the speaker protocols) and a validation rule (the next fold, every
other fold, or none). A runner tabulates once per session each unit's
trial, rows and decision windows; a window's label is the class it is
scored against, or None when it is excluded from scoring.

Hyperparameters are searched on a deterministic grid (optionally a seeded
random subset), maximizing mean validation accuracy with ties broken by
the smaller regularizer, then the smaller lag count. There is one tuning
path: ``score_grid`` builds the table of mean validation scores and
``pick_best`` takes the winner, in ``search_hyperparams``,
``run_pipeline`` and ``run_pipeline_group`` alike; the group path scores a
point by the unweighted mean over sessions of each session's mean. Both
pipelines take a one-point grid as is, without any validation fit, and
check every grid point or fixed selection before the first fit: ``L`` at
most the shortest unit and, for CCA, ``L_y`` at most a decision window
(BadConfig).

The two envelope decoders share one evaluation path, the Wiener filter
being CCA's one-component case. Each test unit (a whole trial, or a
within_trial segment) is lagged with its own zero padding and projected
by ``linear.eeg_components``; every decision window then scores each
candidate stream by ``metrics.component_pcc`` against
``linear.envelope_components`` of that window of the candidate, and whole
trials get their time-PCC curves from the same projections.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from . import dataio, linear, metrics, spatial
from .design import LaggedDesign, accumulate, build_lagged
from .errors import (
    BadChannelIndex,
    BadConfig,
    BadProtocolConfig,
    DegenerateClass,
    EmptyGrid,
)
from .metrics import FoldResult, MetricsReport, WindowRecord, finalize_report

PROTOCOLS = ("within_trial", "loto", "nested_loto", "loso", "nested_loso")
MODEL_KINDS = ("wf", "cca", "csp", "rgc")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    train: tuple
    val: Optional[tuple]
    test: tuple


@dataclass
class OuterLoop:
    index: int
    test: tuple
    fit: tuple
    inner: List[Assignment] = field(default_factory=list)


@dataclass
class CvPlan:
    protocol: str
    folds: List[tuple]
    outer: List[OuterLoop]
    seed: int
    segment_s: Optional[float] = None


def _check_plan(plan):
    seen = set()
    for fold in plan.folds:
        for unit in fold:
            if unit in seen:
                raise BadProtocolConfig(f"unit {unit} in multiple folds")
            seen.add(unit)
    for loop in plan.outer:
        test = set(loop.test)
        if test & set(loop.fit):
            raise BadProtocolConfig("fit set overlaps test fold")
        for a in loop.inner:
            train, val = set(a.train), set(a.val or ())
            if train & test or val & test or train & val:
                raise BadProtocolConfig("overlapping assignment sets")
    return plan


def _stratified_trial_folds(trials, n_folds, rng):
    """Deal trials into folds round-robin, grouped by task so every fold
    spans the tasks."""
    order = []
    by_task = {}
    for t in trials:
        by_task.setdefault(t.task, []).append(t.trial_id)
    for task in sorted(by_task):
        ids = sorted(by_task[task])
        order.extend(rng.permutation(ids).tolist())
    folds = [[] for _ in range(n_folds)]
    for i, tid in enumerate(order):
        folds[i % n_folds].append(tid)
    return [tuple(f) for f in folds if f]


def make_folds(trials, protocol, n_folds=None, seed=0, segment_s=None):
    """Build a cross-validation plan over the given trials.

    ``n_folds`` None takes the protocol's default fold count; any number
    is checked against the protocol's range. ``segment_s`` is required
    for the within_trial protocol and sets the segment (= decision
    window) length. An assignment trains on the fixed block when there
    is one, else on every fold that is neither tested nor validated.
    """
    if protocol not in PROTOCOLS:
        raise BadProtocolConfig(f"unknown protocol {protocol!r}")
    if not trials:
        raise BadProtocolConfig("no trials")
    rng = np.random.default_rng([seed, 77])
    fixed = ()

    if protocol == "within_trial":
        if segment_s is None or segment_s <= 0:
            raise BadProtocolConfig("within_trial needs a positive segment_s")
        n_folds = 3 if n_folds is None else n_folds
        if n_folds < 3:
            raise BadProtocolConfig("within_trial needs >= 3 folds")
        # a segment is one whole decision window; a shorter tail is dropped
        units = [
            (t.trial_id, k) for t in trials
            for k in range(t.eeg.n_samples // _window_len(segment_s, t.eeg.fs))
        ]
        if len(units) < n_folds:
            raise BadProtocolConfig("fewer segments than folds")
        perm = rng.permutation(len(units))
        folds = [tuple(units[idx] for idx in perm[i::n_folds])
                 for i in range(n_folds)]
    elif protocol in ("loto", "nested_loto"):
        n_folds = min(9, len(trials)) if n_folds is None else n_folds
        if n_folds < 2 or n_folds > len(trials):
            raise BadProtocolConfig(
                f"n_folds={n_folds} invalid for {len(trials)} trials"
            )
        if protocol == "nested_loto" and n_folds < 3:
            # an inner loop trains on the folds other than test and val
            raise BadProtocolConfig("nested_loto needs >= 3 folds")
        folds = _stratified_trial_folds(trials, n_folds, rng)
    else:
        group1 = [t for t in trials if t.group == 1]
        group2 = [t for t in trials if t.group == 2]
        if not group1 or not group2:
            raise BadProtocolConfig(
                "leave-one-speaker-out needs trials in both speaker groups"
            )
        if any(t.group not in (1, 2) for t in trials):
            raise BadProtocolConfig("trial without a speaker group label")
        n_folds = min(3, len(group2)) if n_folds is None else n_folds
        if n_folds < 1 or n_folds > len(group2):
            raise BadProtocolConfig(
                f"n_folds={n_folds} invalid for {len(group2)} held-out trials"
            )
        if protocol == "nested_loso" and n_folds < 2:
            raise BadProtocolConfig("nested_loso needs >= 2 held-out folds")
        fixed = tuple(sorted(t.trial_id for t in group1))
        folds = _stratified_trial_folds(group2, n_folds, rng)

    def train(*skip):
        return fixed or tuple(
            u for j, f in enumerate(folds) if j not in skip for u in f
        )

    outer = []
    for i, test in enumerate(folds):
        if protocol == "within_trial":
            val_folds = [(i + 1) % len(folds)]
        elif protocol.startswith("nested_"):
            val_folds = [j for j in range(len(folds)) if j != i]
        else:
            val_folds = []
        inner = [Assignment(train(i, j), folds[j], test) for j in val_folds]
        outer.append(OuterLoop(i, test, train(i), inner))
    return _check_plan(CvPlan(
        protocol, [fixed] + folds if fixed else folds, outer, seed,
        segment_s=segment_s if protocol == "within_trial" else None,
    ))


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------

# canonical tie-break order: regularizers first, then lag counts
_PARAM_ORDER = ("lam", "reg", "L", "L_y", "n_components")


@dataclass
class HyperGrid:
    params: Dict[str, list]
    budget: Optional[int] = None
    seed: int = 0

    def points(self):
        if not self.params:
            raise EmptyGrid("no parameters to search")
        keys = sorted(self.params)
        for k in keys:
            if not self.params[k]:
                raise EmptyGrid(f"parameter {k!r} has no values")
        pts = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.params[k] for k in keys))
        ]
        if self.budget is not None and self.budget < 1:
            raise EmptyGrid(f"budget={self.budget} selects no grid points")
        if self.budget is not None and self.budget < len(pts):
            rng = np.random.default_rng([self.seed, 99])
            idx = np.sort(rng.choice(len(pts), size=self.budget, replace=False))
            pts = [pts[i] for i in idx]
        return pts


def default_grid(model_kind):
    if model_kind == "wf":
        return HyperGrid(
            {"lam": list(np.logspace(-6, 3, 10)), "L": [6, 11, 21]}
        )
    if model_kind == "cca":
        return HyperGrid(
            {
                "reg": [0.0] + list(np.logspace(-2, 2, 5)),
                "L": [6, 11],
                "L_y": [11],
                "n_components": [2],
            }
        )
    if model_kind == "csp":
        return HyperGrid({"csp_f": [4], "lda_gamma": [1e-3]})
    if model_kind == "rgc":
        return HyperGrid({"rgc_shrinkage": [0.1], "lda_gamma": [1e-3]})
    raise BadProtocolConfig(f"unknown model kind {model_kind!r}")


def _param_key(params):
    head = tuple(params.get(k, 0) for k in _PARAM_ORDER)
    tail = tuple(params[k] for k in sorted(params) if k not in _PARAM_ORDER)
    return head + tail


def pick_best(scored):
    """Max score; ties resolve to the smallest parameter key."""
    best = None
    for params, score in scored:
        key = (-score, _param_key(params))
        if best is None or key < best[0]:
            best = (key, params, score)
    return best[1], best[2]


def score_grid(points, tuning):
    """Validation score table ``[(params, score)]`` in grid order.

    ``tuning`` holds one ``(objective, assignments)`` pair per session,
    where ``objective(params, train_units, val_units)`` returns the score
    to maximize. A point's score is the unweighted mean over sessions of
    its mean score over that session's assignments.
    """
    table = []
    for params in points:
        per_session = [
            float(np.mean([objective(params, a.train, a.val)
                           for a in assignments]))
            for objective, assignments in tuning
        ]
        table.append((params, float(np.mean(per_session))))
    return table


def search_hyperparams(plan, grid, objective):
    """Grid search per outer loop on the plan's validation assignments.

    ``objective(params, train_units, val_units)`` must return a score to
    maximize (decoding accuracy in the pipeline). Requires a plan with
    inner assignments (a nested protocol or within_trial).
    """
    pts = grid.points()
    results = []
    for loop in plan.outer:
        if not loop.inner:
            raise BadProtocolConfig(
                f"outer loop {loop.index} has no validation assignments; "
                "use a nested protocol"
            )
        results.append(pick_best(score_grid(pts, [(objective, loop.inner)])))
    return results


# ---------------------------------------------------------------------------
# pipeline runners
# ---------------------------------------------------------------------------


def _window_len(window_s, fs):
    w = int(round(window_s * fs))
    if w < 2:
        raise BadProtocolConfig(f"window_s={window_s} too short at fs={fs}")
    return w


class _Window(NamedTuple):
    trial_id: str
    index: int
    lo: int
    hi: int
    label: Optional[int]  # None: the window is excluded from scoring


class _Unit(NamedTuple):
    trial_id: str
    lo: int
    hi: int
    windows: tuple  # of _Window


class _RunnerBase:
    """One session's fold bookkeeping. ``units`` maps every unit of the
    plan to its trial, row range and decision windows, each labeled by
    the subclass's ``_window_label(trial_id, lo, hi)``. Subclasses also
    provide ``_fit(units, params)`` and ``_eval_units(model, params,
    units, collect)``, which returns (accuracy, macro-F1, window records,
    per-trial time-PCC curves) over the units' labeled windows. Without
    ``collect`` only the accuracy is needed (``score``), and a runner may
    return None, [] and {} for the rest."""

    def __init__(self, session, plan, window_s, kind, time_pcc_seg_s=1.0):
        self.session = session
        self.plan = plan
        self.kind = kind
        self.window_s = float(window_s)
        self.time_pcc_seg_s = time_pcc_seg_s
        self.fs = session.fs
        self.win = _window_len(window_s, self.fs)
        self.trials = {t.trial_id: t for t in session.trials}
        self.streams = {
            t.trial_id: dataio.build_attended_streams(t)
            for t in session.trials
        }
        for t in session.trials:
            if self.streams[t.trial_id].attended.shape[0] != t.eeg.n_samples:
                raise BadProtocolConfig(
                    f"trial {t.trial_id}: envelope and EEG lengths differ; "
                    "run preprocessing first"
                )
        if (plan.protocol == "within_trial"
                and _window_len(plan.segment_s, self.fs) != self.win):
            raise BadProtocolConfig(
                "within_trial segments must match the decision window"
            )
        self.units = {
            unit: self._unit(unit) for fold in plan.folds for unit in fold
        }

    def _unit(self, unit):
        """A within_trial segment ``(trial_id, k)`` is the k-th decision
        window of its trial; a whole trial holds all its whole windows."""
        if isinstance(unit, tuple):
            tid, seg = unit
            lo = seg * self.win
            hi = min(lo + self.win, self.trials[tid].eeg.n_samples)
            spans = [(seg, lo, hi)]
        else:
            tid, lo, hi = unit, 0, self.trials[unit].eeg.n_samples
            spans = [(w, w * self.win, (w + 1) * self.win)
                     for w in range(hi // self.win)]
        windows = tuple(_Window(tid, w, a, b, self._window_label(tid, a, b))
                        for w, a, b in spans)
        return _Unit(tid, lo, hi, windows)

    def _channel_stats(self, model, params):
        return {}

    def check_params(self, points):
        """Raise BadConfig for a parameter point the session's data cannot
        take, before anything is fitted."""

    def tuning_assignments(self, loop_index):
        loop = self.plan.outer[loop_index]
        if loop.inner:
            return loop.inner
        # single-loop protocols tune on the test fold (optimistic by design)
        return [Assignment(loop.fit, loop.test, loop.test)]

    def score(self, params, train, val):
        """Accuracy on ``val`` of a model fitted on ``train``."""
        return self._eval_units(self._fit(train, params), params, val)[0]

    def evaluate_outer(self, loop_index, params):
        """Final fit and test of one outer loop: (fold, window records,
        time-PCC curves, number of test windows excluded)."""
        loop = self.plan.outer[loop_index]
        model = self._fit(loop.fit, params)
        acc, f1, records, curves = self._eval_units(
            model, params, loop.test, collect=True
        )
        fold = FoldResult(
            fold_index=loop_index,
            test_ids=loop.test,
            params=dict(params),
            accuracy=acc,
            macro_f1=f1,
            n_windows=len(records),
            model_bytes=dataio.serialize_model(model),
            **self._channel_stats(model, params),
        )
        n_excluded = sum(w.label is None for unit in loop.test
                         for w in self.units[unit].windows)
        return fold, records, curves, n_excluded


class _LinearRunner(_RunnerBase):
    """Wiener-filter and CCA pipeline; a window is evaluated when its
    attended stream is defined throughout."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._unit_stats = {}
        self._sum_cache = {}

    def _window_label(self, tid, lo, hi):
        """0 (the attended stream) when it is defined throughout the
        window, else None."""
        return 0 if self.streams[tid].mask[lo:hi].all() else None

    def check_params(self, points):
        """Each unit is lagged by ``L`` on its own, and CCA lags each
        window's candidates by ``L_y``."""
        limits = {"L": (min(u.hi - u.lo for u in self.units.values()),
                        "the shortest trial or segment")}
        if self.kind == "cca":
            limits["L_y"] = (self.win, "the decision window")
        for params in points:
            for key, (limit, what) in limits.items():
                if int(params[key]) > limit:
                    raise BadConfig(f"{key}: {int(params[key])} lags exceed "
                                    f"{what}, {limit} samples")

    # -- training statistics ------------------------------------------------

    def _stats_for_unit(self, unit, lags, target_lags):
        key = (unit, lags, target_lags)
        if key in self._unit_stats:
            return self._unit_stats[key]
        tid, lo, hi, _ = self.units[unit]
        streams = self.streams[tid]
        x = build_lagged(self.trials[tid].eeg.samples[lo:hi], lags)
        y = streams.attended[lo:hi]
        if target_lags:
            y = build_lagged(y, target_lags)
        mask = streams.mask[lo:hi]
        if not mask.all():
            x, y = _masked(x, mask), _masked(y, mask)
        stats = accumulate([x], [y])
        self._unit_stats[key] = stats
        return stats

    def _stats_for_units(self, units, lags, target_lags):
        key = (tuple(units), lags, target_lags)
        if key in self._sum_cache:
            return self._sum_cache[key]
        total = None
        for unit in units:
            part = self._stats_for_unit(unit, lags, target_lags)
            total = part if total is None else total + part
        self._sum_cache[key] = total
        return total

    def _fit(self, units, params):
        lags = int(params["L"])
        if self.kind == "wf":
            stats = self._stats_for_units(units, lags, 0)
            return linear.wf_fit(stats, params["lam"])
        stats = self._stats_for_units(units, lags, int(params["L_y"]))
        return linear.cca_fit(
            stats, params["reg"], int(params["n_components"])
        )

    # -- evaluation ---------------------------------------------------------

    def _eval_units(self, model, params, units, collect=False):
        """Score every valid window; units run in trial order, each lagged
        with its own zero padding exactly as its training statistics
        were built (a whole trial is one unit)."""
        lags = int(params["L"])
        records = []
        curves = {}
        preds = []
        for unit in sorted(units, key=lambda u: self.units[u].trial_id):
            tid, lo, hi, windows = self.units[unit]
            trial = self.trials[tid]
            streams = self.streams[tid]
            cands = [streams.attended] + streams.unattended
            px = linear.eeg_components(
                model, build_lagged(trial.eeg.samples[lo:hi], lags)
            )
            for _, w, a, b, label in windows:
                if label is None:
                    continue
                rhos = tuple(
                    metrics.component_pcc(
                        px[a - lo : b - lo],
                        linear.envelope_components(model, c[a:b]),
                    )
                    for c in cands
                )
                decision = metrics.decide_window(rhos, 0)
                preds.append(-1 if decision.tie else decision.predicted)
                if collect:
                    records.append(
                        WindowRecord(
                            trial_id=tid,
                            window_index=w,
                            predicted=decision.predicted,
                            attended=0,
                            rhos=rhos,
                            correct=decision.correct,
                            tie=decision.tie,
                        )
                    )
            if collect and unit == tid:
                curves[tid] = self._trial_curves(model, px, trial)
        if collect:
            acc, f1 = metrics.classification_metrics(
                np.array(preds), np.zeros(len(preds), dtype=int), 3
            )
        else:
            # correct windows / windows is classification_metrics' accuracy
            # to the bit, and grid scoring reads nothing else
            acc, f1 = (preds.count(0) / len(preds) if preds else 0.0), None
        return acc, f1, records, curves

    def _trial_curves(self, model, px, trial):
        """Per-speaker time-PCC curves over the whole trial."""
        speakers = sorted(trial.speakers, key=lambda s: s.speaker_id)
        labels = tuple(f"spk{s.speaker_id}" for s in speakers)
        curve = metrics.time_pcc_curve(
            px,
            [linear.envelope_components(model, s.envelope) for s in speakers],
            self.fs,
            self.time_pcc_seg_s,
        )
        return labels, curve

    def _channel_stats(self, model, params):
        w = model.w if self.kind == "wf" else model.wx[:, 0]
        lags = int(params["L"])
        cw = linear.channel_weight_stats(w, lags, w.shape[0] // lags)
        return {"channel_max_abs": cw.max_abs, "channel_mean_sq": cw.mean_sq}


class _ClassifierRunner(_RunnerBase):
    """Filterbank-CSP and Riemannian classifier pipeline; a window is
    evaluated when it sits inside one attended span."""

    def _window_label(self, tid, lo, hi):
        """Direction class when the window sits inside one attended span,
        else None."""
        trial = self.trials[tid]
        label = None
        for span in trial.timeline:
            a, b = dataio.span_rows(span, self.fs, trial.eeg.n_samples)
            if a <= lo and hi <= b:
                if span.attended is not None:
                    for s in trial.speakers:
                        if s.speaker_id == span.attended:
                            label = dataio.direction_class(s.direction_deg)
                break
        return label

    def _labeled_windows(self, units):
        return [w for unit in units for w in self.units[unit].windows
                if w.label is not None]

    def _segments(self, rows):
        """The rows' whole windows as one (n, T, C) stack."""
        return np.stack([self.trials[tid].eeg.samples[a:b]
                         for tid, _, a, b, _ in rows])

    def _features(self, segments, front):
        features = (spatial.csp_features if self.kind == "csp"
                    else spatial.tangent_features)
        return features(segments, front)

    def _fit(self, units, params):
        rows = self._labeled_windows(units)
        if not rows:
            raise DegenerateClass("no labeled training windows")
        segments = self._segments(rows)
        labels = [r.label for r in rows]
        gamma = float(params.get("lda_gamma", spatial.DEFAULT_LDA_GAMMA))
        if self.kind == "csp":
            front = spatial.csp_fit(
                segments,
                labels,
                self.fs,
                f_per=int(params.get("csp_f", spatial.DEFAULT_CSP_FILTERS)),
                n_classes=3,
            )
        else:
            front = spatial.rgc_fit(
                segments,
                shrinkage=float(
                    params.get("rgc_shrinkage", spatial.DEFAULT_RGC_SHRINKAGE)
                ),
            )
        lda = spatial.lda_fit(front.train_features, labels, gamma=gamma,
                              n_classes=3)
        return front, lda

    def _eval_units(self, model, params, units, collect=False):
        """Classify every labeled window of the units with one feature
        call and one LDA call."""
        front, lda = model
        rows = self._labeled_windows(units)
        if rows:
            preds = spatial.lda_predict(
                self._features(self._segments(rows), front), lda
            )
        else:
            preds = np.zeros(0, dtype=int)
        labels = np.array([r.label for r in rows], dtype=int)
        records = [
            WindowRecord(
                trial_id=tid,
                window_index=w,
                predicted=pred,
                attended=label,
                rhos=None,
                correct=pred == label,
                tie=False,
            )
            for (tid, w, _, _, label), pred in zip(rows, preds.tolist())
        ]
        acc, f1 = metrics.classification_metrics(preds, labels, 3)
        return acc, f1, records, {}


def _masked(a, mask):
    """Rows of a lagged design, or samples of a vector, where ``mask``
    holds."""
    if isinstance(a, LaggedDesign):
        return LaggedDesign(a.matrix[mask], a.lags, a.channels)
    return a[mask]


def _make_runner(session, model_kind, plan, window_s, time_pcc_seg_s):
    if model_kind in ("wf", "cca"):
        return _LinearRunner(session, plan, window_s, model_kind,
                             time_pcc_seg_s)
    if model_kind in ("csp", "rgc"):
        return _ClassifierRunner(session, plan, window_s, model_kind,
                                 time_pcc_seg_s)
    raise BadProtocolConfig(f"unknown model kind {model_kind!r}")


def _loop_params(points, runners, loop_index):
    """Parameters of one outer loop, chosen on every runner's tuning
    assignments; a one-point grid is returned without scoring."""
    if len(points) == 1:
        return dict(points[0])
    tuning = [(r.score, r.tuning_assignments(loop_index)) for r in runners]
    return dict(pick_best(score_grid(points, tuning))[0])


def _report(runner, params_for, jobs):
    """Evaluate every outer loop with ``params_for(loop_index)``."""

    def _one(loop_index):
        return runner.evaluate_outer(loop_index, params_for(loop_index))

    indices = range(len(runner.plan.outer))
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one, indices))
    else:
        results = [_one(i) for i in indices]

    report = MetricsReport(
        model_kind=runner.kind,
        protocol=runner.plan.protocol,
        window_s=runner.window_s,
        time_pcc_seg_s=runner.time_pcc_seg_s,
        channel_names=list(runner.session.trials[0].eeg.channel_names),
    )
    for fold, records, curves, n_excluded in results:
        report.folds.append(fold)
        report.windows.extend(records)
        report.time_pcc.update(curves)
        report.n_excluded += n_excluded
    return finalize_report(report)


def run_pipeline(session, model_kind, plan, grid, window_s, *,
                 fixed_params=None, time_pcc_seg_s=1.0, jobs=1):
    """Full train/tune/evaluate pass; returns a MetricsReport.

    Hyperparameters are tuned per outer loop on validation folds (nested
    protocols) or on the test fold itself (single-loop protocols). With
    ``fixed_params`` (one dict, or one per outer loop) the search is
    skipped entirely. Test folds are never read before final evaluation.
    """
    runner = _make_runner(session, model_kind, plan, window_s, time_pcc_seg_s)
    if fixed_params is None:
        points = grid.points()
        runner.check_params(points)
        return _report(runner, lambda i: _loop_params(points, [runner], i),
                       jobs)
    if isinstance(fixed_params, dict):
        fixed_params = [fixed_params] * len(plan.outer)
    runner.check_params(fixed_params)
    return _report(runner, lambda i: dict(fixed_params[i]), jobs)


def run_pipeline_group(sessions, model_kind, protocol, window_s, grid, *,
                       n_folds=None, seed=0, segment_s=None,
                       time_pcc_seg_s=1.0, jobs=1):
    """Group-level tuning: one parameter set per outer loop, selected by
    the unweighted mean of the per-session validation accuracies, then
    applied to every session's final fit (``jobs`` outer loops of a
    session at a time, as in ``run_pipeline``)."""
    plans = [
        make_folds(s.trials, protocol, n_folds, seed, segment_s=segment_s)
        for s in sessions
    ]
    n_outer = {len(p.outer) for p in plans}
    if len(n_outer) != 1:
        raise BadProtocolConfig(
            "sessions produce different outer-loop counts; use equal trial "
            "layouts or set n_folds"
        )
    runners = [
        _make_runner(s, model_kind, p, window_s, time_pcc_seg_s)
        for s, p in zip(sessions, plans)
    ]
    points = grid.points()
    for runner in runners:
        runner.check_params(points)
    selected = [
        _loop_params(points, runners, i) for i in range(n_outer.pop())
    ]
    reports = [_report(r, lambda i: dict(selected[i]), jobs) for r in runners]
    return reports, selected


# ---------------------------------------------------------------------------
# channel layouts and ablation
# ---------------------------------------------------------------------------

LAYOUTS = {
    "full": tuple(dataio.CEEGRID_CHANNELS),
    "left": tuple(f"L{i}" for i in range(1, 9)),
    "right": tuple(f"R{i}" for i in range(1, 9)),
    "upper": tuple(f"L{i}" for i in range(1, 5))
    + tuple(f"R{i}" for i in range(1, 5)),
    "lower": tuple(f"L{i}" for i in range(5, 9))
    + tuple(f"R{i}" for i in range(5, 9)),
    "left_upper": tuple(f"L{i}" for i in range(1, 5)),
    "right_upper": tuple(f"R{i}" for i in range(1, 5)),
}


def _channel_columns(session, channel_names):
    """Per trial, the EEG columns of the named channels in the given
    order; raises BadChannelIndex for an empty subset, a repeated name or
    a name some trial lacks."""
    if not channel_names:
        raise BadChannelIndex("empty channel subset")
    repeated = sorted({c for c in channel_names if channel_names.count(c) > 1})
    if repeated:
        raise BadChannelIndex(f"channels named twice in subset: {repeated}")
    try:
        return [[trial.eeg.channel_names.index(c) for c in channel_names]
                for trial in session.trials]
    except ValueError as exc:
        raise BadChannelIndex(f"unknown channel in subset: {exc}") from exc


def restrict_session(session, channel_names):
    """Copy of the session keeping only the named channels, in the given
    order."""
    columns = _channel_columns(session, channel_names)
    trials = [
        replace(trial, eeg=trial.eeg.with_samples(
            trial.eeg.samples[:, idx], channel_names=list(channel_names)))
        for trial, idx in zip(session.trials, columns)
    ]
    return replace(session, trials=trials)


def run_channel_ablation(session, layouts, model_kind, plan, grid, window_s,
                         **kwargs):
    """Re-run the pipeline on channel subsets.

    ``layouts`` maps names to channel lists, or lists ``LAYOUTS`` preset
    names; no layout, a list entry that is not a preset name, or a name
    that cannot name a directory (``dataio.check_path_component``) raises
    BadConfig. Every layout's name and channel names are checked before
    anything is fitted.
    The session's own channel set is searched first; every other layout
    reuses those selected hyperparameters. A layout equal to the full
    channel set reproduces the plain run exactly.
    """
    if isinstance(layouts, (list, tuple)):
        unknown = [n for n in layouts
                   if not isinstance(n, str) or n not in LAYOUTS]
        if unknown:
            raise BadConfig(f"layouts: unknown preset names {unknown}")
        layouts = {name: LAYOUTS[name] for name in layouts}
    if not layouts:
        raise BadConfig("layouts: empty")
    for name, channels in layouts.items():
        dataio.check_path_component("layouts", name, BadConfig)
        _channel_columns(session, channels)
    full_names = tuple(session.trials[0].eeg.channel_names)
    full_report = run_pipeline(session, model_kind, plan, grid, window_s,
                               **kwargs)
    selected = [dict(f.params) for f in full_report.folds]
    out = {}
    for name, channels in layouts.items():
        if tuple(channels) == full_names:
            out[name] = full_report
            continue
        sub = restrict_session(session, tuple(channels))
        out[name] = run_pipeline(
            sub, model_kind, plan, grid, window_s,
            fixed_params=selected, **kwargs
        )
    return out
