"""Decoding metrics: Pearson correlation, the per-window decision rule,
accuracy / macro-F1, and time-resolved correlation curves."""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import LengthMismatch


def pcc(a, b):
    """Pearson correlation coefficient; constant inputs give 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise LengthMismatch("need at least 2 samples")
    ac = a - a.mean()
    bc = b - b.mean()
    na = math.sqrt(float(ac @ ac))
    nb = math.sqrt(float(bc @ bc))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(ac @ bc) / (na * nb), -1.0, 1.0))


@dataclass
class DecideResult:
    predicted: int
    correct: bool
    tie: bool


def decide_window(rhos, attended_index):
    """Pick the candidate with the highest correlation.

    The window counts as correct only when the attended candidate strictly
    beats every other one; a tie at the maximum is incorrect, with the
    predicted index reported as the lowest index among the maxima.
    """
    rhos = np.asarray(rhos, dtype=np.float64).ravel()
    if rhos.shape[0] < 2:
        raise LengthMismatch("need at least 2 candidates")
    top = float(np.max(rhos))
    maxima = np.flatnonzero(rhos == top)
    predicted = int(maxima[0])
    tie = maxima.size > 1
    correct = (not tie) and predicted == attended_index
    return DecideResult(predicted=predicted, correct=correct, tie=tie)


def classification_metrics(predictions, labels, n_classes):
    """Accuracy and macro-F1 over ``n_classes`` classes.

    Predictions outside [0, n_classes) never match any class. Classes
    absent from both predictions and labels contribute an F1 of 0.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape[0] != labels.shape[0]:
        raise LengthMismatch("predictions and labels differ in length")
    if labels.size == 0:
        return 0.0, 0.0
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range")
    accuracy = float(np.mean(predictions == labels))
    f1s = []
    for k in range(n_classes):
        tp = int(np.sum((predictions == k) & (labels == k)))
        fp = int(np.sum((predictions == k) & (labels != k)))
        fn = int(np.sum((predictions != k) & (labels == k)))
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return accuracy, float(np.mean(f1s))


def component_pcc(a, b):
    """Mean Pearson correlation of the paired columns of two (T, k) arrays.

    One column gives its ``pcc`` exactly. Averaging over components keeps
    the score in [-1, 1].
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise LengthMismatch(
            f"component arrays differ: {a.shape} vs {b.shape}"
        )
    rhos = [pcc(a[:, i], b[:, i]) for i in range(a.shape[1])]
    return rhos[0] if len(rhos) == 1 else float(np.mean(rhos))


def _as_components(x):
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def time_pcc_curve(reconstructed, candidates, fs, seg_s):
    """Correlation per non-overlapping segment against each candidate.

    ``reconstructed`` and the candidates are 1-D signals or (T, k)
    component arrays, scored with ``component_pcc``. Returns an
    (n_segments, n_candidates) array; an incomplete tail segment is
    dropped.
    """
    reconstructed = _as_components(reconstructed)
    if seg_s <= 0:
        raise ValueError("seg_s must be positive")
    seg_len = int(round(seg_s * fs))
    n_seg = reconstructed.shape[0] // seg_len
    cands = [_as_components(c) for c in candidates]
    for c in cands:
        if c.shape[0] != reconstructed.shape[0]:
            raise LengthMismatch("candidate length differs from reconstruction")
    out = np.empty((n_seg, len(cands)))
    for i in range(n_seg):
        lo, hi = i * seg_len, (i + 1) * seg_len
        rec = reconstructed[lo:hi]
        for j, c in enumerate(cands):
            out[i, j] = component_pcc(rec, c[lo:hi])
    return out


def detect_crossover(curve_a, curve_b, seg_s, smooth_segs=5):
    """Time at which curve_b overtakes curve_a, in seconds.

    Both curves are smoothed with a centered moving average, then the
    changepoint maximizing (pre-split mean of a-b) + (post-split mean of
    b-a) is returned. Intended for two-speaker switch trials.
    """
    a = _smooth(np.asarray(curve_a, dtype=np.float64), smooth_segs)
    b = _smooth(np.asarray(curve_b, dtype=np.float64), smooth_segs)
    d = a - b
    n = d.shape[0]
    if n < 2:
        return 0.0
    best_t, best_score = 1, -np.inf
    for t in range(1, n):
        score = float(np.mean(d[:t]) - np.mean(d[t:]))
        if score > best_score:
            best_score = score
            best_t = t
    return best_t * seg_s


def _smooth(x, width):
    if width <= 1:
        return x
    kernel = np.ones(width) / width
    pad = width // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    return np.convolve(padded, kernel, mode="valid")[: x.shape[0]]


@dataclass
class WindowRecord:
    trial_id: str
    window_index: int
    predicted: int
    attended: int
    rhos: Optional[tuple]
    correct: bool
    tie: bool


@dataclass
class FoldResult:
    fold_index: int
    test_ids: tuple
    params: dict
    accuracy: float
    macro_f1: float
    n_windows: int
    model_bytes: bytes = b""
    channel_max_abs: Optional[np.ndarray] = None
    channel_mean_sq: Optional[np.ndarray] = None


@dataclass
class MetricsReport:
    model_kind: str
    protocol: str
    window_s: float
    accuracy: float = 0.0
    macro_f1: float = 0.0
    accuracy_std: float = 0.0
    macro_f1_std: float = 0.0
    attended_pcc: float = float("nan")
    unattended_pcc1: float = float("nan")
    unattended_pcc2: float = float("nan")
    delta_pcc1: float = float("nan")
    delta_pcc2: float = float("nan")
    n_windows: int = 0
    n_excluded: int = 0
    folds: List[FoldResult] = field(default_factory=list)
    windows: List[WindowRecord] = field(default_factory=list)
    time_pcc: dict = field(default_factory=dict)  # trial_id -> (n_seg, n_cand)
    time_pcc_seg_s: float = 1.0
    channel_names: list = field(default_factory=list)
    channel_max_abs: Optional[np.ndarray] = None
    channel_mean_sq: Optional[np.ndarray] = None

    def window_accuracy(self):
        """Pooled accuracy over all recorded windows (ties count wrong)."""
        if not self.windows:
            return 0.0
        return float(np.mean([w.correct for w in self.windows]))


def finalize_report(report):
    """Fill aggregate fields from per-fold and per-window records.

    Headline accuracy/F1 are means across test folds; correlation means
    come from the pooled windows so that mean delta equals the difference
    of the means exactly.
    """
    scored = [f for f in report.folds if f.n_windows > 0]
    if scored:
        accs = np.array([f.accuracy for f in scored])
        f1s = np.array([f.macro_f1 for f in scored])
        report.accuracy = float(np.mean(accs))
        report.macro_f1 = float(np.mean(f1s))
        report.accuracy_std = float(np.std(accs))
        report.macro_f1_std = float(np.std(f1s))
    rho_rows = [w.rhos for w in report.windows if w.rhos is not None]
    if rho_rows:
        att = np.array([r[0] for r in rho_rows])
        report.attended_pcc = float(np.mean(att))
        u1 = np.array([r[1] for r in rho_rows if len(r) > 1])
        if u1.size:
            report.unattended_pcc1 = float(np.mean(u1))
            report.delta_pcc1 = float(
                np.mean([r[0] - r[1] for r in rho_rows if len(r) > 1])
            )
        u2 = [r[2] for r in rho_rows if len(r) > 2]
        if u2:
            report.unattended_pcc2 = float(np.mean(u2))
            report.delta_pcc2 = float(
                np.mean([r[0] - r[2] for r in rho_rows if len(r) > 2])
            )
    report.n_windows = len(report.windows)
    stats_max = [f.channel_max_abs for f in report.folds if f.channel_max_abs is not None]
    stats_sq = [f.channel_mean_sq for f in report.folds if f.channel_mean_sq is not None]
    if stats_max:
        report.channel_max_abs = np.mean(np.stack(stats_max), axis=0)
        report.channel_mean_sq = np.mean(np.stack(stats_sq), axis=0)
    return report
