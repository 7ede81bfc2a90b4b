"""Envelope reconstruction decoders: ridge-regularized Wiener filter and
regularized CCA, their paired EEG/envelope projections, plus per-channel
statistics of the fitted weights.

Both decoders are scored the same way: ``eeg_components`` and
``envelope_components`` give paired (T, k) projections and
``metrics.component_pcc`` averages their column correlations. The Wiener
filter is the one-component case, with the identity on the envelope side.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import build_lagged
from .errors import DimensionMismatch
from .numerics import solve_regularized, spd_function, svd


@dataclass
class WfModel:
    w: np.ndarray  # (L*C,)
    lam: float
    lags: int
    channels: int


def wf_fit(stats, lam):
    """Least-squares backward model with diagonal loading lam.

    Solves (rxx + lam I) w = rxy on accumulated statistics.
    """
    if stats.rxy is None:
        raise DimensionMismatch("stats carry no regression target")
    w = solve_regularized(stats.rxx, stats.rxy, lam)
    return WfModel(w=w, lam=float(lam), lags=stats.lags, channels=stats.channels)


@dataclass
class CcaModel:
    wx: np.ndarray  # (Lx*C, n_components)
    wy: np.ndarray  # (Ly, n_components)
    correlations: np.ndarray  # descending, clipped to [0, 1]
    reg: float


def cca_fit(stats, reg, n_components):
    """Canonical projections from whitened cross-covariance SVD.

    Both auto-covariances receive ``reg`` on the diagonal before the
    inverse square root; singular vectors are mapped back through the
    whitening transforms and singular values clipped into [0, 1].
    """
    if stats.ryy is None or stats.rxy_mat is None:
        raise DimensionMismatch("stats carry no lagged-target covariances")
    dx = stats.rxx.shape[0]
    dy = stats.ryy.shape[0]
    n_components = int(n_components)
    if n_components < 1 or n_components > min(dx, dy):
        raise DimensionMismatch(
            f"n_components={n_components} out of range for ({dx}, {dy})"
        )
    wxw = spd_function(stats.rxx + reg * np.eye(dx), "inv_sqrt")
    wyw = spd_function(stats.ryy + reg * np.eye(dy), "inv_sqrt")
    u, s, v = svd(wxw @ stats.rxy_mat @ wyw)
    wx = wxw @ u[:, :n_components]
    wy = wyw @ v[:, :n_components]
    corr = np.clip(s[:n_components], 0.0, 1.0)
    return CcaModel(wx=wx, wy=wy, correlations=corr, reg=float(reg))


def eeg_components(model, x):
    """EEG-side components (T, k) of a lagged design.

    A Wiener filter gives its reconstruction as the single column; CCA
    gives one column per canonical component.
    """
    wf = isinstance(model, WfModel)
    weights = model.w if wf else model.wx
    if x.matrix.shape[1] != weights.shape[0]:
        raise DimensionMismatch(
            f"design width {x.matrix.shape[1]} != weights {weights.shape[0]}"
        )
    # w stays 1-D: an (n, 1) matrix product does not round like a
    # matrix-vector product
    out = x.matrix @ weights
    return out[:, None] if wf else out


def envelope_components(model, envelope):
    """Envelope-side components (T, k) paired with ``eeg_components``.

    A Wiener filter compares its reconstruction with the envelope itself;
    CCA lags the envelope with ``wy``'s lag count and projects it.
    """
    envelope = np.asarray(envelope, dtype=np.float64)
    if isinstance(model, WfModel):
        return envelope.reshape(-1, 1)
    return build_lagged(envelope, model.wy.shape[0]).matrix @ model.wy


class ChannelWeightStats(NamedTuple):
    max_abs: np.ndarray  # (C,)
    mean_sq: np.ndarray  # (C,)


def channel_weight_stats(w, lags, channels):
    """Per-channel max |w| and mean w^2 over that channel's lag block."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.shape[0] != lags * channels:
        raise DimensionMismatch(
            f"weight length {w.shape[0]} != lags*channels {lags * channels}"
        )
    blocks = w.reshape(channels, lags)
    return ChannelWeightStats(
        max_abs=np.max(np.abs(blocks), axis=1),
        mean_sq=np.mean(blocks ** 2, axis=1),
    )
