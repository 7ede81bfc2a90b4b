"""Direction classifiers: multiclass filterbank CSP with log-energy
features, Riemannian tangent-space features, and a shared shrinkage LDA.

Windows come in one array form, the way ``numerics`` takes (..., n, n)
matrix stacks: one float array whose last two axes are (T, C), either a
single (T, C) window or an (n, T, C) stack. So the windows of one call
share one length. A nested list is taken only when its windows share a
shape; ragged windows are a ``DimensionMismatch``. Fits take a stack;
feature calls give a vector for a window and one row per window of a
stack.

CSP filters a stack at once: its ``n`` windows sit side by side as the
column blocks of one ``(T, n*C)`` array, so each band costs one
``kernels.sosfilt`` call per fit or evaluation instead of one per window.
The kernel runs every column on its own, with one matrix product per
column, and window ``i`` comes back as the column slice
``[:, i*C:(i+1)*C]`` of its output, whose columns are contiguous, exactly
as a window filtered alone would. That slice must not be copied to C
order: ``mean(axis=0)`` sums a contiguous column pairwise and a strided
one sequentially, so a copy would move the features and the fitted
filters by an ulp. The reductions are batched only in layouts that keep
each member's summation order: one ``mean`` per class over every band's
covariances, and one over every filter's projections of a stack.

The SPD steps run on stacks of covariances too: ``segment_covariance``
gives one covariance per window of a stack, ``riemannian_mean`` takes
one stacked log and one exp, ``tangent_features`` projects a stack with
one ``spd_function`` call, and ``csp_fit`` solves every (band, class)
eigenproblem in one ``gen_sym_eig`` call that whitens with each band's
all-class covariance once. Each member comes out bit-identical to the
matrix computed alone.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import kernels, preprocess
from .errors import (
    BadConfig,
    DegenerateClass,
    DimensionMismatch,
    NotSpd,
    SingularScatter,
)
from .numerics import gen_sym_eig, spd_function, sym_eig, symmetrize

# Filter bank at the 40 Hz processing rate. The top band stops just under
# the 20 Hz Nyquist so the band-pass design stays valid.
DEFAULT_BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 14.0), (14.0, 19.5))
DEFAULT_CSP_FILTERS = 4
DEFAULT_RGC_SHRINKAGE = 0.1
DEFAULT_LDA_GAMMA = 1e-3


def _float_array(a, what):
    """``a`` as a float64 array; members of different shapes are a
    DimensionMismatch rather than numpy's ValueError."""
    try:
        return np.asarray(a, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"{what} differ in shape: {exc}") from exc


def _windows(segments, n_ch=None, stack=False):
    """``segments`` as a (T, C) window or an (n, T, C) stack, only a stack
    when ``stack``; ``n_ch`` is the required channel count."""
    x = _float_array(segments, "windows")
    if x.ndim != 3 and (stack or x.ndim != 2):
        form = "an" if stack else "a (T, C) window or an"
        raise DimensionMismatch(
            f"need {form} (n, T, C) window stack, got shape {x.shape}"
        )
    if n_ch is not None and x.shape[-1] != n_ch:
        raise DimensionMismatch(
            f"window has {x.shape[-1]} channels, expected {n_ch}"
        )
    return x


def _class_count(labels, n_classes):
    """``n_classes``, or one more than the largest label; every label must
    lie in [0, n_classes)."""
    if labels.size == 0:
        raise DegenerateClass("no training samples")
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    stray = labels[(labels < 0) | (labels >= n_classes)]
    if stray.size:
        raise DegenerateClass(f"label {stray[0]} outside [0, {n_classes})")
    return n_classes


def _center(x):
    """``x`` (..., T, C) minus its mean over time."""
    return x - x.mean(axis=-2, keepdims=True)


def _covariances(x):
    """X^T X / (T-1) of each centered window of ``x`` (..., T, C)."""
    cov = np.swapaxes(x, -1, -2) @ x / (x.shape[-2] - 1)
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _check_length(x):
    if x.shape[-2] < 2:
        raise DimensionMismatch("window too short for covariance")


def segment_covariance(segments, shrinkage=0.0):
    """Channel covariance X^T X / (T-1) of each centered window, optionally
    shrunk toward (trace/C) * I: (C, C) for a (T, C) window, (n, C, C) for
    an (n, T, C) stack. A shrinkage outside [0, 1] raises BadConfig."""
    if not 0.0 <= shrinkage <= 1.0:
        raise BadConfig(f"shrinkage: {shrinkage} outside [0, 1]")
    x = _windows(segments)
    _check_length(x)
    cov = _covariances(_center(x))
    if shrinkage > 0.0:
        n_ch = x.shape[-1]
        load = shrinkage * (np.trace(cov, axis1=-2, axis2=-1) / n_ch)
        cov = (1.0 - shrinkage) * cov + load[..., None, None] * np.eye(n_ch)
    return cov


# ---------------------------------------------------------------------------
# filterbank CSP
# ---------------------------------------------------------------------------


@dataclass
class CspModel:
    filters: Dict[Tuple[int, int], np.ndarray]  # (band, class) -> (C, F)
    bands: tuple
    n_classes: int
    f_per: int
    fs: float
    channels: int
    # training covariances and eigenvalues retained for diagnostics
    class_cov: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)
    total_cov: Dict[int, np.ndarray] = field(default_factory=dict)
    eigenvalues: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)
    # csp_features of the training windows, in their order
    train_features: Optional[np.ndarray] = None


def _band_cascades(bands, fs):
    return [preprocess.design_bandpass(lo, hi, 4, fs) for lo, hi in bands]


def _filter_bands(x, bands, fs):
    """Band-pass and center the windows of the stack ``x`` (n, T, C) in one
    ``sosfilt`` call per band. Each band gives an (n, T, C) view whose
    window ``i`` is the column slice ``y[:, i*C:(i+1)*C]``, contiguous
    columns, of the filtered ``(T, n*C)`` stack ``y`` (see the module
    docstring)."""
    n, t_len, n_ch = x.shape
    columns = x.transpose(1, 0, 2).reshape(t_len, n * n_ch)
    out = []
    for cascade in _band_cascades(bands, fs):
        y = _center(kernels.sosfilt(cascade.sections, columns))
        out.append(y.T.reshape(n, n_ch, t_len).transpose(0, 2, 1))
    return out


def _log_energies(filtered, filters, n_classes):
    """Log variance of the projections of each band's centered windows
    (n, T, C) on that band's (C, F) filters; (n, bands * classes * F)."""
    feats = []
    for j, x in enumerate(filtered):
        # one product per filter, because the rounding of ``x @ w`` with
        # F = 1 depends on the strides of ``w``; then one reduction for
        # all of them, which sums each (window, filter) block in the same
        # order as alone
        p = np.stack([x @ filters[(j, k)] for k in range(n_classes)], axis=1)
        var = np.mean(p ** 2, axis=2)
        n, k, f = var.shape
        feats.append(np.log(np.maximum(var, 1e-300)).reshape(n, k * f))
    return np.concatenate(feats, axis=1)


def csp_fit(segments, labels, fs, bands=DEFAULT_BANDS, f_per=DEFAULT_CSP_FILTERS,
            n_classes=None):
    """Fit one-vs-rest spatial filters per frequency band on an (n, T, C)
    stack of windows.

    For each (band, class), the filters are the top generalized
    eigenvectors of the class ensemble covariance against the all-class
    ensemble covariance. The model also carries the training windows'
    features, computed from the same filtered windows.
    """
    windows = _windows(segments, stack=True)
    labels = np.asarray(labels, dtype=int)
    if len(windows) != labels.shape[0]:
        raise DimensionMismatch("one label per segment required")
    n_classes = _class_count(labels, n_classes)
    present = np.unique(labels)
    if present.size < 2:
        raise DegenerateClass("need at least 2 classes with segments")
    n_ch = windows.shape[2]
    if not 1 <= f_per <= n_ch:
        raise DimensionMismatch(f"f_per={f_per} outside [1, C={n_ch}]")
    _check_length(windows)
    members = [np.flatnonzero(labels == k) for k in range(n_classes)]
    for k, idx in enumerate(members):
        if idx.size == 0:
            raise DegenerateClass(f"class {k} has no training segments")
    bands = tuple(tuple(b) for b in bands)
    filtered = _filter_bands(windows, bands, fs)
    covs = np.stack([_covariances(x) for x in filtered])
    # one reduction per class for all bands. Each band's sum runs in the
    # order of a reduction over that band alone as long as the stack is
    # C-ordered, which ``take`` gives and ``covs[:, idx]`` does not.
    r_all = symmetrize(np.mean(covs, axis=1))
    r_class = symmetrize(np.stack(
        [np.mean(covs.take(idx, axis=1), axis=1) for idx in members], axis=1
    ))
    rank0 = np.argwhere(np.trace(r_class, axis1=-2, axis2=-1) <= 0)
    if rank0.size:
        raise DegenerateClass(f"class {rank0[0, 1]} covariance is rank-0")
    # every (band, class) pair at once, each band whitened once
    pairs = gen_sym_eig(r_class, r_all[:, None])
    keys = [(j, k) for j in range(len(bands)) for k in range(n_classes)]
    filters = {key: pairs.vectors[key][:, :f_per] for key in keys}
    return CspModel(
        filters=filters,
        bands=bands,
        n_classes=n_classes,
        f_per=f_per,
        fs=fs,
        channels=n_ch,
        class_cov={key: r_class[key] for key in keys},
        total_cov=dict(enumerate(r_all)),
        eigenvalues={key: pairs.values[key][:f_per] for key in keys},
        train_features=_log_energies(filtered, filters, n_classes),
    )


def csp_features(segments, model):
    """Log variance of each filtered projection, concatenated over bands
    then classes; length N_band * N_class * F.

    ``segments`` is a (T, C) window, giving a vector, or an (n, T, C)
    stack, giving one row per window.
    """
    windows = _windows(segments, model.channels)
    stack = windows if windows.ndim == 3 else windows[None]
    feats = _log_energies(_filter_bands(stack, model.bands, model.fs),
                          model.filters, model.n_classes)
    return feats if windows.ndim == 3 else feats[0]


# ---------------------------------------------------------------------------
# Riemannian tangent-space features
# ---------------------------------------------------------------------------


@dataclass
class RgcModel:
    mean: np.ndarray
    mean_inv_sqrt: np.ndarray
    shrinkage: float
    # tangent_features of the training windows, in their order
    train_features: Optional[np.ndarray] = None


def riemannian_mean(covs):
    """Log-Euclidean mean of an (n, C, C) stack of covariances: exp of the
    average matrix logarithm, with one stacked log and one exp."""
    covs = _float_array(covs, "covariances")
    if covs.ndim != 3 or len(covs) == 0:
        raise DimensionMismatch(
            f"need an (n, C, C) stack of covariances, got shape {covs.shape}"
        )
    logs = spd_function(covs, "log")
    return spd_function(symmetrize(np.mean(logs, axis=0)), "exp_of_sym")


def rgc_fit(segments, shrinkage=DEFAULT_RGC_SHRINKAGE):
    """Reference point for tangent projection from an (n, T, C) stack of
    training windows; the model also carries the windows' tangent
    features."""
    covs = segment_covariance(_windows(segments, stack=True), shrinkage)
    mean = riemannian_mean(covs)
    model = RgcModel(
        mean=mean,
        mean_inv_sqrt=spd_function(mean, "inv_sqrt"),
        shrinkage=shrinkage,
    )
    model.train_features = _tangent(covs, model)
    return model


def tangent_from_cov(cov, model):
    """Upper-triangle vectorization of log(W cov W), off-diagonals
    scaled by sqrt(2) so the Euclidean norm matches the Frobenius norm.

    ``cov`` is one (C, C) covariance, giving a vector, or an (n, C, C)
    stack, giving one row per covariance.
    """
    w = model.mean_inv_sqrt
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape[-2:] != w.shape:
        raise DimensionMismatch(
            f"covariance shape {cov.shape} does not match the model's "
            f"{w.shape}"
        )
    tn = spd_function(symmetrize(w @ cov @ w), "log")
    iu = np.triu_indices(w.shape[0])
    coeff = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return coeff * tn[..., iu[0], iu[1]]


def _tangent(cov, model):
    try:
        return tangent_from_cov(cov, model)
    except NotSpd as exc:
        raise NotSpd(f"window covariance not positive definite: {exc}") from exc


def tangent_features(segments, model):
    """Tangent-space features; length C(C+1)/2.

    ``segments`` is a (T, C) window, giving a vector, or an (n, T, C)
    stack, giving one row per window.
    """
    return _tangent(segment_covariance(segments, model.shrinkage), model)


# ---------------------------------------------------------------------------
# shrinkage LDA
# ---------------------------------------------------------------------------


@dataclass
class LdaModel:
    class_means: np.ndarray  # (K, D)
    weights: np.ndarray  # (D, K)
    biases: np.ndarray  # (K,)
    priors: np.ndarray  # (K,)


def lda_fit(features, labels, gamma=DEFAULT_LDA_GAMMA, n_classes=None):
    """Linear discriminant with diagonal shrinkage of the pooled scatter;
    ``gamma`` is a finite number >= 0 (BadConfig)."""
    if not 0.0 <= gamma < np.inf:
        raise BadConfig(f"gamma: {gamma} is not a finite number >= 0")
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if x.shape[0] != labels.shape[0]:
        raise DimensionMismatch("one label per feature row required")
    n_classes = _class_count(labels, n_classes)
    n, d = x.shape
    present = np.unique(labels)
    if n <= present.size:
        raise DegenerateClass("need more samples than classes")
    means = np.zeros((n_classes, d))
    priors = np.zeros(n_classes)
    scatter = np.zeros((d, d))
    for k in present:
        rows = x[labels == k]
        means[k] = rows.mean(axis=0)
        priors[k] = rows.shape[0] / n
        centered = rows - means[k]
        scatter += centered.T @ centered
    # a single training class degenerates to a constant predictor (absent
    # classes carry -inf prior score)
    pooled = symmetrize(scatter / (n - present.size))
    if gamma > 0.0:
        pooled = pooled + gamma * (np.trace(pooled) / d) * np.eye(d)
    values, vectors = sym_eig(pooled)
    floor = 1e-12 * max(values[0], 1.0)
    if values[-1] <= floor:
        raise SingularScatter(
            "pooled scatter is singular; increase gamma"
        )
    inv = (vectors / values) @ vectors.T
    weights = inv @ means.T
    biases = np.empty(n_classes)
    for k in range(n_classes):
        biases[k] = -0.5 * means[k] @ weights[:, k] + (
            np.log(priors[k]) if priors[k] > 0 else -np.inf
        )
    return LdaModel(class_means=means, weights=weights, biases=biases,
                    priors=priors)


def lda_predict(features, model):
    """Argmax of discriminant scores; ties resolve to the lowest index."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        return np.zeros(0, dtype=int)
    if x.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch(
            f"feature width {x.shape[1]} != model dim {model.weights.shape[0]}"
        )
    scores = x @ model.weights + model.biases
    return np.argmax(scores, axis=1)
