"""Envelope reconstruction decoders: ridge-regularized Wiener filter and
regularized CCA, their paired EEG/envelope projections, plus per-channel
statistics of the fitted weights.

Both decoders are scored the same way: ``eeg_components`` and
``envelope_components`` give paired (T, k) projections and
``metrics.component_pcc`` averages their column correlations. The Wiener
filter is the one-component case, with the identity on the envelope side.

``wf_fit`` and ``cca_fit`` take one regularizer value or a sequence of
them; a sequence fits every value on the same statistics with one call
and returns one model per value, each bit-identical to its own fit.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import build_lagged
from .errors import DimensionMismatch
from .numerics import EigPairs, solve_regularized, spd_function, svd


@dataclass
class WfModel:
    w: np.ndarray  # (L*C,)
    lam: float
    lags: int
    channels: int


def wf_fit(stats, lam):
    """Least-squares backward model with diagonal loading lam.

    Solves (rxx + lam I) w = rxy on accumulated statistics. ``lam`` may
    also be a sequence of loadings: then the system is solved at all of
    them with one ``solve_regularized`` call, and the models come back as
    a list in ``lam``'s order, each bit-identical to its own fit.
    """
    if stats.rxy is None:
        raise DimensionMismatch("stats carry no regression target")
    w = solve_regularized(stats.rxx, stats.rxy, lam)
    if np.ndim(lam) == 0:
        return WfModel(w=w, lam=float(lam), lags=stats.lags,
                       channels=stats.channels)
    return [WfModel(w=wi, lam=float(li), lags=stats.lags,
                    channels=stats.channels) for wi, li in zip(w, lam)]


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
    The inverse square roots come from the eigenpairs ``stats`` keeps
    (``rxx_eig``, ``ryy_eig``) shifted by ``reg``, so fits of one
    statistics object at any number of ``reg`` values decompose each
    auto-covariance once; at ``reg = 0`` the fit is bit-identical to
    whitening ``rxx`` and ``ryy`` directly.

    ``reg`` may also be a sequence: then the shifted eigenpairs of all
    its values go to ``spd_function`` as one stack per side and the
    whitened cross-covariances to one stacked ``svd`` call, and the
    models come back as a list in ``reg``'s order, each bit-identical to
    its own fit.
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
    regs = np.asarray(reg, dtype=np.float64)[..., None]
    ex, ey = stats.rxx_eig, stats.ryy_eig
    wxw = spd_function(EigPairs(ex.values + regs, ex.vectors), "inv_sqrt")
    wyw = spd_function(EigPairs(ey.values + regs, ey.vectors), "inv_sqrt")
    u, s, v = svd(wxw @ stats.rxy_mat @ wyw)
    wx = wxw @ u[..., :n_components]
    wy = wyw @ v[..., :n_components]
    corr = np.clip(s[..., :n_components], 0.0, 1.0)
    if np.ndim(reg) == 0:
        return CcaModel(wx=wx, wy=wy, correlations=corr, reg=float(reg))
    return [CcaModel(wx=wx[i], wy=wy[i], correlations=corr[i],
                     reg=float(r)) for i, r in enumerate(reg)]


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
