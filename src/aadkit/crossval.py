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
other fold, or none). A runner checks its plan before any fit, so that a
plan built by hand is held to the same rules: every unit names a trial of
the session and sits in one fold, every unit of a loop or assignment sits
in a fold, and no training or validation set meets its test fold
(BadProtocolConfig). It then tabulates once per session each unit's
trial, rows and decision windows; a window's label is the class it is
scored against, or None when it is excluded from scoring. Outer loops
run serially, in loop order.

A grid maps each hyperparameter to its values; every point of it
(``grid_points``) is searched, maximizing mean validation accuracy with
ties broken by the smaller regularizer, then the smaller lag count. There
is one tuning path, ``run_pipeline_group``: ``run_pipeline`` is its
one-session case, and ``run_channel_ablation`` reuses its selections on
every layout. Before any final fit, ``score_grid`` scores every point of
each outer loop by the unweighted mean over sessions of each session's
mean on its tuning assignments and ``pick_best`` takes the winner; a
one-point grid is taken as is, without any validation fit. Points that
differ only in the regularizer (``lam`` for ``wf``, ``reg`` for ``cca``)
are scored as a group: a runner fits all of them on a training set with
one ``linear.wf_fit`` or ``linear.cca_fit`` call, then evaluates each
model as it would alone (a ``csp`` or ``rgc`` point is a group of its
own). Each model's
keys are declared once, by its default grid. Before the first fit the
grid is checked, raising BadConfig unless it maps exactly the model's
keys to finite numbers >= 0 (integers >= 1 for the counts ``L``, ``L_y``,
``n_components`` and ``csp_f``), ``L`` at most the shortest unit, ``L_y``
(CCA) at most a decision window and ``n_components`` (CCA) at most
min(``L`` x channels, ``L_y``), ``csp_f`` (CSP) at most the channel
count and ``rgc_shrinkage`` (RGC) at most 1. The trials of a session
must list the same channels in the same order (BadChannelIndex), and
their envelopes must have the EEG's rate and length (BadProtocolConfig).
Windows and segments become samples by ``preprocess.to_samples``.

All four decoders share one evaluation loop, in which a runner only
decides the labeled windows of its test units and a window is correct
when it is no tie and predicts its label. The envelope decoders decide
alike, the Wiener filter being CCA's one-component case. Each test unit
(a whole trial, or a within_trial segment) is lagged with its own zero
padding and projected by ``linear.eeg_components``; every decision window
then scores each candidate stream by ``metrics.component_pcc`` against
``linear.envelope_components`` of that window of the candidate, and whole
trials get their time-PCC curves from the same projections.

WF and CCA fit from lagged statistics that a linear runner keeps in one
cache keyed by (units, ``L``, ``L_y``): a training set is the ``+`` of
its units' entries, so one met again shares one object and its cached
eigenpairs.
"""

import itertools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional

import numpy as np

from . import dataio, linear, metrics, spatial
from .design import accumulate, build_lagged
from .errors import (
    BadChannelIndex,
    BadConfig,
    BadProtocolConfig,
    DegenerateClass,
    EmptyGrid,
)
from .metrics import FoldResult, MetricsReport, WindowRecord, finalize_report
from .preprocess import to_samples

PROTOCOLS = ("within_trial", "loto", "nested_loto", "loso", "nested_loso")

# model -> its default grid. A grid for the model holds exactly these
# keys; a key with integer defaults counts lags, components or filters
# (integers >= 1), any other is a weight (a number >= 0)
_DEFAULT_GRIDS = {
    "wf": {"lam": list(np.logspace(-6, 3, 10)), "L": [6, 11, 21]},
    "cca": {"reg": [0.0] + list(np.logspace(-2, 2, 5)), "L": [6, 11],
            "L_y": [11], "n_components": [2]},
    "csp": {"csp_f": [spatial.DEFAULT_CSP_FILTERS],
            "lda_gamma": [spatial.DEFAULT_LDA_GAMMA]},
    "rgc": {"rgc_shrinkage": [spatial.DEFAULT_RGC_SHRINKAGE],
            "lda_gamma": [spatial.DEFAULT_LDA_GAMMA]},
}
MODEL_KINDS = tuple(_DEFAULT_GRIDS)


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


def _check_plan(plan, trial_ids):
    """Raise BadProtocolConfig unless every fold unit names one of
    ``trial_ids`` and sits in one fold only, every unit of a loop or an
    assignment sits in some fold, no fit set meets its test fold, and no
    assignment's train, validation and test sets meet."""
    seen = set()
    for fold in plan.folds:
        for unit in fold:
            if unit in seen:
                raise BadProtocolConfig(f"unit {unit} in multiple folds")
            if (unit[0] if isinstance(unit, tuple) else unit) not in trial_ids:
                raise BadProtocolConfig(f"unit {unit!r} names no trial of "
                                        "the session")
            seen.add(unit)
    for loop in plan.outer:
        test, fit = set(loop.test), set(loop.fit)
        if test & fit:
            raise BadProtocolConfig("fit set overlaps test fold")
        used = test | fit
        for a in loop.inner:
            train, val = set(a.train), set(a.val or ())
            if train & test or val & test or train & val:
                raise BadProtocolConfig("overlapping assignment sets")
            used |= train | val | set(a.test)
        if used - seen:
            raise BadProtocolConfig(f"outer loop {loop.index}: unit "
                                    f"{min(map(repr, used - seen))} is in "
                                    "no fold")


def _is_integer(value):
    """An integer, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    ``n_folds`` None takes the protocol's default fold count; any integer
    is checked against the protocol's range. ``segment_s`` is required
    for the within_trial protocol and sets the segment (= decision
    window) length. An assignment trains on the fixed block when there
    is one, else on every fold that is neither tested nor validated.
    """
    if protocol not in PROTOCOLS:
        raise BadProtocolConfig(f"unknown protocol {protocol!r}")
    if not trials:
        raise BadProtocolConfig("no trials")
    if not _is_integer(seed) or seed < 0:
        raise BadProtocolConfig(f"seed: {seed!r} is not an integer >= 0")
    if n_folds is not None and not _is_integer(n_folds):
        raise BadProtocolConfig(f"n_folds: {n_folds!r} is not an integer")
    rng = np.random.default_rng([seed, 77])
    fixed = ()

    if protocol == "within_trial":
        if segment_s is None:
            raise BadProtocolConfig("within_trial needs a segment_s")
        n_folds = 3 if n_folds is None else n_folds
        if n_folds < 3:
            raise BadProtocolConfig("within_trial needs >= 3 folds")
        # a segment is one whole decision window; a shorter tail is dropped
        units = [
            (t.trial_id, k) for t in trials
            for k in range(t.eeg.n_samples // to_samples(
                segment_s, t.eeg.fs, BadProtocolConfig, "segment_s", 2))
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
    return CvPlan(
        protocol, [fixed] + folds if fixed else folds, outer, seed,
        segment_s=segment_s if protocol == "within_trial" else None,
    )


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------

# the regularizer keys, the only keys a group of scored points varies
_REGULARIZERS = ("lam", "reg")
# canonical tie-break order: regularizers first, then lag counts
_PARAM_ORDER = _REGULARIZERS + ("L", "L_y", "n_components")


def grid_points(grid):
    """Every point of ``grid``, a mapping of each key to its values, as a
    dict: keys sorted, points in ``itertools.product`` order."""
    if not grid:
        raise EmptyGrid("no parameters to search")
    keys = sorted(grid)
    for k in keys:
        if len(grid[k]) == 0:
            raise EmptyGrid(f"parameter {k!r} has no values")
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]


def default_grid(model_kind):
    """A fresh copy of the model's default grid."""
    if model_kind not in _DEFAULT_GRIDS:
        raise BadProtocolConfig(f"unknown model kind {model_kind!r}")
    return {k: list(v) for k, v in _DEFAULT_GRIDS[model_kind].items()}


def _checked_points(model_kind, grid):
    """``grid_points(grid)``; raises BadConfig, naming the key, unless
    ``grid`` is a mapping of the model's keys to lists, tuples or 1-D
    arrays of values in their range; a bool is not a number."""
    if not isinstance(grid, Mapping):
        raise BadConfig(f"grid: need a mapping of parameter names to value "
                        f"lists, got {type(grid).__name__}")
    needed = default_grid(model_kind)
    wrong = sorted(set(needed) ^ set(grid), key=str)
    if wrong:
        key = wrong[0]
        raise BadConfig(
            f"grid: {key} {'missing' if key in needed else 'unknown'}; "
            f"model {model_kind} takes {', '.join(needed)}"
        )
    for key, values in grid.items():
        kind, low, rule = ((numbers.Integral, 1, "integers >= 1")
                           if isinstance(needed[key][0], numbers.Integral)
                           else (numbers.Real, 0, "finite numbers >= 0"))
        if (not isinstance(values, (list, tuple, np.ndarray))
                or getattr(values, "ndim", 1) != 1):
            raise BadConfig(f"grid: {key} must map to a list of {rule}")
        for v in values:
            if (isinstance(v, bool) or not isinstance(v, kind)
                    or not low <= v < np.inf):
                raise BadConfig(f"grid: {key} values must be {rule}, "
                                f"got {v!r}")
    return grid_points(grid)


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


def _structure(params):
    """A point's keys and values other than its regularizer."""
    return tuple((k, v) for k, v in params.items() if k not in _REGULARIZERS)


def score_grid(points, runners, loop_index):
    """Validation score table ``[(params, score)]`` in grid order.

    Consecutive points that differ only in the regularizer form a group;
    since grid keys are sorted and ``lam`` and ``reg`` sort last among
    their model's keys, each group of ``grid_points`` is one value of the
    other keys with every regularizer value. Each runner (one per session)
    scores a group with one ``runner.score(group, train, val)`` call per
    tuning assignment of outer loop ``loop_index``, which returns one
    accuracy per point. A point's score is the unweighted mean over
    runners of its mean accuracy over that runner's assignments.
    """
    tuning = [(r, r.tuning_assignments(loop_index)) for r in runners]
    table = []
    for _, group in itertools.groupby(points, _structure):
        group = list(group)
        scores = [[r.score(group, a.train, a.val) for a in assignments]
                  for r, assignments in tuning]
        for j, params in enumerate(group):
            per_session = [np.mean([acc[j] for acc in accs])
                           for accs in scores]
            table.append((params, float(np.mean(per_session))))
    return table


# ---------------------------------------------------------------------------
# pipeline runners
# ---------------------------------------------------------------------------


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
    """One session's fold bookkeeping and its one evaluation loop.
    ``units`` maps every unit of the plan to its trial, row range and
    decision windows, each labeled by the subclass's
    ``_window_label(trial_id, lo, hi)``. Subclasses also provide
    ``check_params(points)``, raising BadConfig for a point the data
    cannot take, ``_fit(units, points)``, which fits one model on the
    units per point of a group (points that differ only in the
    regularizer), and ``_decide(model, params, units, collect)``, which
    returns the units' labeled windows as ``(window, predicted, tie,
    rhos)`` in export order, and the per-trial time-PCC curves when
    ``collect`` is set (else {})."""

    def __init__(self, session, plan, window_s, kind, time_pcc_seg_s=1.0):
        self.session = session
        self.plan = plan
        self.kind = kind
        self.window_s = float(window_s)
        self.fs = session.fs
        # only the curves of wf and cca whole test trials use the segment
        curves = kind in ("wf", "cca") and plan.protocol != "within_trial"
        to_samples(time_pcc_seg_s, self.fs, BadConfig, "time_pcc_seg_s",
                   2 if curves else 0)
        self.time_pcc_seg_s = time_pcc_seg_s
        self.win = to_samples(window_s, self.fs, BadProtocolConfig,
                              "window_s", 2)
        self.trials = {t.trial_id: t for t in session.trials}
        self.streams = {
            t.trial_id: dataio.build_attended_streams(t)
            for t in session.trials
        }
        names = list(session.trials[0].eeg.channel_names)
        for t in session.trials:
            if list(t.eeg.channel_names) != names:
                raise BadChannelIndex(f"trial {t.trial_id}: channel names or "
                                      "order differ from the first trial's")
            if (self.streams[t.trial_id].attended.shape[0] != t.eeg.n_samples
                    or not all(dataio.same_rate(s.fs, self.fs)
                               for s in t.speakers)):
                raise BadProtocolConfig(
                    f"trial {t.trial_id}: envelope and EEG lengths or rates "
                    "differ; run preprocessing first"
                )
        _check_plan(plan, self.trials)
        if (plan.protocol == "within_trial"
                and to_samples(plan.segment_s, self.fs, BadProtocolConfig,
                               "segment_s", 2) != self.win):
            raise BadProtocolConfig(
                "within_trial segments must match the decision window"
            )
        self.units = {
            unit: self._unit(unit) for fold in plan.folds for unit in fold
        }

    def _unit(self, unit):
        """A within_trial segment ``(trial_id, k)`` is the k-th decision
        window of its trial, which must have one (BadProtocolConfig); a
        whole trial holds all its whole windows."""
        if isinstance(unit, tuple):
            tid, seg = unit
            n_win = self.trials[tid].eeg.n_samples // self.win
            if not (_is_integer(seg) and 0 <= seg < n_win):
                raise BadProtocolConfig(
                    f"unit {unit!r} is no whole decision window of trial "
                    f"{tid}, which has {n_win}")
            lo, hi = seg * self.win, (seg + 1) * self.win
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

    def tuning_assignments(self, loop_index):
        loop = self.plan.outer[loop_index]
        if loop.inner:
            return loop.inner
        # single-loop protocols tune on the test fold (optimistic by design)
        return [Assignment(loop.fit, loop.test, loop.test)]

    def _eval_units(self, model, params, units, collect=False):
        """(accuracy, macro-F1, window records, time-PCC curves) over the
        units' labeled windows, a tie counting wrong; without ``collect``
        only the accuracy (``score``), with None, [] and {}."""
        decided, curves = self._decide(model, params, units, collect)
        correct = [not tie and predicted == w.label
                   for w, predicted, tie, _ in decided]
        if not collect:
            # correct windows / windows is classification_metrics' accuracy
            # to the bit, and grid scoring reads nothing else
            return (correct.count(True) / len(correct) if correct
                    else 0.0), None, [], {}
        records = [
            WindowRecord(trial_id=w.trial_id, window_index=w.index,
                         predicted=predicted, attended=w.label, rhos=rhos,
                         correct=ok, tie=tie)
            for (w, predicted, tie, rhos), ok in zip(decided, correct)
        ]
        acc, f1 = metrics.classification_metrics(
            np.array([-1 if r.tie else r.predicted for r in records],
                     dtype=int),
            np.array([r.attended for r in records], dtype=int), 3)
        return acc, f1, records, curves

    def score(self, points, train, val):
        """Accuracies on ``val`` of the models fitted on ``train`` at each
        point of a group, in its order."""
        return [self._eval_units(model, params, val)[0]
                for model, params in zip(self._fit(train, points), points)]

    def evaluate_outer(self, loop_index, params):
        """Final fit and test of one outer loop: (fold, window records,
        time-PCC curves, number of test windows excluded)."""
        loop = self.plan.outer[loop_index]
        [model] = self._fit(loop.fit, [params])
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
        self._stats_cache = {}

    def _window_label(self, tid, lo, hi):
        """0 (the attended stream) when it is defined throughout the
        window, else None."""
        return 0 if self.streams[tid].mask[lo:hi].all() else None

    def check_params(self, points):
        """Each unit is lagged by ``L`` on its own, and CCA lags each
        window's candidates by ``L_y`` and keeps ``n_components`` pairs of
        the L x channels EEG and L_y envelope columns."""
        limits = {"L": (min(u.hi - u.lo for u in self.units.values()),
                        "the shortest trial or segment")}
        if self.kind == "cca":
            limits["L_y"] = (self.win, "the decision window")
        n_channels = len(self.session.trials[0].eeg.channel_names)
        for params in points:
            for key, (limit, what) in limits.items():
                if int(params[key]) > limit:
                    raise BadConfig(f"{key}: {int(params[key])} lags exceed "
                                    f"{what}, {limit} samples")
            if self.kind == "cca":
                most = min(int(params["L"]) * n_channels, int(params["L_y"]))
                if int(params["n_components"]) > most:
                    raise BadConfig(
                        f"n_components: {int(params['n_components'])} "
                        f"components exceed min(L x channels, L_y), {most}")

    # -- training statistics ------------------------------------------------

    def _stats(self, units, lags, target_lags):
        """Cached statistics of a tuple of units: one unit is lagged, cut
        to the rows where its attended stream is defined and accumulated;
        more are the ``+`` of their entries, so a one-unit training set
        and the inner assignments (i, j) and (j, i) share one object."""
        key = (units, lags, target_lags)
        if key in self._stats_cache:
            return self._stats_cache[key]
        if len(units) > 1:
            stats = self._stats(units[:1], lags, target_lags)
            for unit in units[1:]:
                stats = stats + self._stats((unit,), lags, target_lags)
        else:
            tid, lo, hi, _ = self.units[units[0]]
            streams = self.streams[tid]
            x = build_lagged(self.trials[tid].eeg.samples[lo:hi], lags)
            y = streams.attended[lo:hi]
            if target_lags:
                y = build_lagged(y, target_lags)
            rows = streams.mask[lo:hi]
            if not rows.all():
                x = replace(x, matrix=x.matrix[rows])
                y = (replace(y, matrix=y.matrix[rows]) if target_lags
                     else y[rows])
            stats = accumulate([x], [y])
        self._stats_cache[key] = stats
        return stats

    def _fit(self, units, points):
        """Every regularizer value of the group with one fit call on the
        units' statistics."""
        first = points[0]
        stats = self._stats(tuple(units), int(first["L"]),
                            int(first.get("L_y", 0)))
        if self.kind == "wf":
            return linear.wf_fit(stats, [p["lam"] for p in points])
        return linear.cca_fit(stats, [p["reg"] for p in points],
                              int(first["n_components"]))

    # -- evaluation ---------------------------------------------------------

    def _decide(self, model, params, units, collect):
        """Score every valid window by its candidates' correlations; units
        run in trial order, each lagged with its own zero padding exactly
        as its training statistics were built (a whole trial is one
        unit), and a whole trial gives its curves from the same lagging."""
        lags = int(params["L"])
        decided = []
        curves = {}
        for unit in sorted(units, key=lambda u: self.units[u].trial_id):
            tid, lo, hi, windows = self.units[unit]
            trial = self.trials[tid]
            streams = self.streams[tid]
            cands = [streams.attended] + streams.unattended
            px = linear.eeg_components(
                model, build_lagged(trial.eeg.samples[lo:hi], lags)
            )
            for w in windows:
                if w.label is None:
                    continue
                rhos = tuple(
                    metrics.component_pcc(
                        px[w.lo - lo : w.hi - lo],
                        linear.envelope_components(model, c[w.lo : w.hi]),
                    )
                    for c in cands
                )
                decision = metrics.decide_window(rhos, w.label)
                decided.append((w, decision.predicted, decision.tie, rhos))
            if collect and unit == tid:
                curves[tid] = self._trial_curves(model, px, trial)
        return decided, curves

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

    def check_params(self, points):
        """CSP keeps ``csp_f`` filters per band and class out of the
        channels; RGC's ``rgc_shrinkage`` is a weight of at most 1."""
        if self.kind == "csp":
            most = max(int(p["csp_f"]) for p in points)
            n_channels = len(self.session.trials[0].eeg.channel_names)
            if most > n_channels:
                raise BadConfig(f"csp_f: {most} filters exceed the "
                                f"{n_channels} channels")
        else:
            most = max(p["rgc_shrinkage"] for p in points)
            if most > 1:
                raise BadConfig(f"rgc_shrinkage: {most} outside [0, 1]")

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

    def _fit(self, units, points):
        """One (front end, LDA) model per point; the units' windows are
        cut once for all of them."""
        rows = self._labeled_windows(units)
        if not rows:
            raise DegenerateClass("no labeled training windows")
        segments = self._segments(rows)
        labels = [r.label for r in rows]
        models = []
        for params in points:
            if self.kind == "csp":
                front = spatial.csp_fit(segments, labels, self.fs,
                                        f_per=int(params["csp_f"]),
                                        n_classes=3)
            else:
                front = spatial.rgc_fit(
                    segments, shrinkage=float(params["rgc_shrinkage"]))
            lda = spatial.lda_fit(front.train_features, labels,
                                  gamma=float(params["lda_gamma"]),
                                  n_classes=3)
            models.append((front, lda))
        return models

    def _decide(self, model, params, units, collect):
        """Classify every labeled window of the units with one feature
        call and one LDA call; a classifier never ties."""
        front, lda = model
        rows = self._labeled_windows(units)
        if not rows:
            return [], {}
        features = (spatial.csp_features if self.kind == "csp"
                    else spatial.tangent_features)
        preds = spatial.lda_predict(features(self._segments(rows), front), lda)
        return [(w, pred, False, None)
                for w, pred in zip(rows, preds.tolist())], {}


def _make_runner(session, model_kind, plan, window_s, time_pcc_seg_s):
    if model_kind in ("wf", "cca"):
        return _LinearRunner(session, plan, window_s, model_kind,
                             time_pcc_seg_s)
    if model_kind in ("csp", "rgc"):
        return _ClassifierRunner(session, plan, window_s, model_kind,
                                 time_pcc_seg_s)
    raise BadProtocolConfig(f"unknown model kind {model_kind!r}")


def _report(runner, selected):
    """Evaluate outer loop i with ``selected[i]``, in loop order."""
    report = MetricsReport(
        model_kind=runner.kind,
        protocol=runner.plan.protocol,
        window_s=runner.window_s,
        time_pcc_seg_s=runner.time_pcc_seg_s,
        channel_names=list(runner.session.trials[0].eeg.channel_names),
    )
    for i, params in enumerate(selected):
        fold, records, curves, n_excluded = runner.evaluate_outer(i, params)
        report.folds.append(fold)
        report.windows.extend(records)
        report.time_pcc.update(curves)
        report.n_excluded += n_excluded
    return finalize_report(report)


def run_pipeline(session, model_kind, plan, grid, window_s, *,
                 time_pcc_seg_s=1.0, jobs=1):
    """Full train/tune/evaluate pass of one session, the one-session case
    of ``run_pipeline_group``; returns a MetricsReport.

    Hyperparameters are tuned per outer loop on validation folds (nested
    protocols) or on the test fold itself (single-loop protocols); a
    one-point grid is taken as is. Test folds are never read before final
    evaluation.

    ``jobs`` is kept only for the benchmark harness's ``jobs=1`` call,
    until ROADMAP item 1 drops it: outer loops run serially, and any
    other value raises BadConfig before any fit.
    """
    if jobs != 1:
        raise BadConfig(f"jobs: {jobs!r}; outer loops run serially, "
                        "so jobs can only be 1")
    return run_pipeline_group([session], model_kind, [plan], grid, window_s,
                              time_pcc_seg_s=time_pcc_seg_s)[0][0]


def run_pipeline_group(sessions, model_kind, plans, grid, window_s, *,
                       time_pcc_seg_s=1.0):
    """Group-level tuning on one plan per session, all of one protocol and
    one outer-loop count: each outer loop's parameters are selected by the
    unweighted mean of the per-session validation accuracies and applied
    to every session's final fit. Returns the reports and selections."""
    if not sessions or len(plans) != len(sessions):
        raise BadConfig(f"plans: {len(plans)} for {len(sessions)} sessions; "
                        "need one plan per session and one session or more")
    protocols = sorted({p.protocol for p in plans})
    if len(protocols) != 1:
        raise BadProtocolConfig(f"plans mix protocols: {', '.join(protocols)}")
    if len({len(p.outer) for p in plans}) != 1:
        raise BadProtocolConfig(
            "sessions produce different outer-loop counts; use equal trial "
            "layouts or set n_folds"
        )
    runners, points = _checked_runners(sessions, model_kind, plans, grid,
                                       window_s, time_pcc_seg_s)
    return _tuned_reports(runners, points)


def _checked_runners(sessions, model_kind, plans, grid, window_s,
                     time_pcc_seg_s):
    """One runner per session and the grid's points, every point checked
    against every session's data: each refusal comes before any fit."""
    runners = [
        _make_runner(s, model_kind, p, window_s, time_pcc_seg_s)
        for s, p in zip(sessions, plans)
    ]
    points = _checked_points(model_kind, grid)
    for runner in runners:
        runner.check_params(points)
    return runners, points


def _tuned_reports(runners, points):
    """Each outer loop's parameters, selected over all the runners (a
    one-point grid taken as is), then every runner's report: the reports
    and the selections."""
    selected = [
        dict(points[0] if len(points) == 1
             else pick_best(score_grid(points, runners, i))[0])
        for i in range(len(runners[0].plan.outer))
    ]
    return [_report(r, selected) for r in runners], selected


def _run_each(sessions, model_kind, plans, grid, window_s, time_pcc_seg_s):
    """``run_pipeline`` of each session on its plan, in order, with every
    session's runner built and checked before the first fit."""
    runners, points = _checked_runners(sessions, model_kind, plans, grid,
                                       window_s, time_pcc_seg_s)
    reports = []
    while runners:
        # a runner goes, with its statistics cache, once it has reported
        reports.append(_tuned_reports([runners.pop(0)], points)[0][0])
    return reports


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
                         *, time_pcc_seg_s=1.0):
    """Re-run the pipeline on channel subsets.

    ``layouts`` maps names to lists of channel names, or lists ``LAYOUTS``
    preset names; any other type, no layout, a list entry that is not a
    preset name, a value that is not a list of names, or a name that
    cannot name a directory (``dataio.check_path_component``) raises
    BadConfig. Names, channels and every grid point against every
    layout's data are checked before any fit. ``run_pipeline_group``
    searches the grid on the session's own channel set, and every other
    layout is evaluated with those selections. A layout equal to the full
    channel set reproduces the plain run exactly.
    """
    if isinstance(layouts, (list, tuple)):
        unknown = [n for n in layouts
                   if not isinstance(n, str) or n not in LAYOUTS]
        if unknown:
            raise BadConfig(f"layouts: unknown preset names {unknown}")
        layouts = {name: LAYOUTS[name] for name in layouts}
    elif not isinstance(layouts, Mapping):
        raise BadConfig("layouts: need a list of preset names or a mapping "
                        f"of names to channel lists, got "
                        f"{type(layouts).__name__}")
    elif not all(isinstance(chs, (list, tuple))
                 and all(isinstance(c, str) for c in chs)
                 for chs in layouts.values()):
        raise BadConfig("layouts: a mapping needs lists of channel names")
    if not layouts:
        raise BadConfig("layouts: empty")
    for name, channels in layouts.items():
        dataio.check_path_component("layouts", name, BadConfig)
        _channel_columns(session, channels)
    full_names = tuple(session.trials[0].eeg.channel_names)
    partial = [name for name, channels in layouts.items()
               if tuple(channels) != full_names]
    runners, _ = _checked_runners(
        [restrict_session(session, tuple(layouts[name])) for name in partial],
        model_kind, [plan] * len(partial), grid, window_s, time_pcc_seg_s)
    runners = dict(zip(partial, runners))
    [full], selected = run_pipeline_group(
        [session], model_kind, [plan], grid, window_s,
        time_pcc_seg_s=time_pcc_seg_s)
    return {name: _report(runners[name], selected)
            if name in runners else full for name in layouts}
