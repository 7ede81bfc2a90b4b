"""Time-lagged design matrices and accumulated covariance statistics.

The lagged design stacks per-channel blocks of L delayed copies of the
signal: column c*L + l holds x_c(t - l), zero-padded where t - l < 0.
It is built as one strided copy: L - 1 zero rows on top of the signal, a
(T, C, L) view of them that reads L rows backwards from each row, reshaped
to (T, C*L).
Covariance statistics are unnormalized sums over training windows; each
window is lagged with its own zero padding so no samples mix across
window (or trial) boundaries. ``+`` is the one merge of statistics and
the one check that both share a layout. A statistics object decomposes
its auto-covariances at most once, on first use, so every regularized fit
on the same training set shares one pair of eigendecompositions.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BadLag, DimensionMismatch
from .numerics import sym_eig, symmetrize


@dataclass
class LaggedDesign:
    matrix: np.ndarray  # (T, L*C)
    lags: int
    channels: int


def build_lagged(x, lags):
    """Lag a (T, C) array (or MultichannelSignal) into a LaggedDesign."""
    samples = getattr(x, "samples", x)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    t_len, n_ch = samples.shape
    if lags < 1 or lags > t_len:
        raise BadLag(f"lags={lags} invalid for T={t_len}")
    padded = np.concatenate([np.zeros((lags - 1, n_ch)), samples])
    # entry (t, c, l) of the view is padded[t + L - 1 - l, c] = x_c(t - l):
    # start at row L - 1 and step back one row per lag, so the (T, C, L)
    # view reshapes to columns c*L + l
    row = padded.strides[0]
    windows = np.ndarray((t_len, n_ch, lags), padded.dtype, padded,
                         offset=(lags - 1) * row,
                         strides=(row, padded.strides[1], -row))
    # a one-channel reshape can come back as a negative-stride view, and
    # matmuls on it round differently: always hand out a C-ordered copy
    out = np.ascontiguousarray(windows.reshape(t_len, n_ch * lags))
    return LaggedDesign(out, lags, n_ch)


# the summed fields of CovStats, each an array or None
_SUMS = ("rxx", "rxy", "ryy", "rxy_mat")


@dataclass
class CovStats:
    """Summed second-moment statistics of lagged EEG against targets.

    ``rxy`` is present for vector targets, ``ryy``/``rxy_mat`` for lagged
    targets. ``n_rows`` counts the samples the sums ran over.

    ``rxx_eig`` and ``ryy_eig`` are the :func:`~aadkit.numerics.sym_eig`
    pairs of ``rxx`` and ``ryy``, computed on first access and kept, so
    the arrays must not be modified after that.

    ``+`` is the one merge: DimensionMismatch names the first of ``lags``,
    ``channels``, ``target_lags`` and each sum's shape (or absence) in
    which the two sides differ; otherwise it returns a new object of sums.
    """

    rxx: np.ndarray
    rxy: Optional[np.ndarray] = None
    ryy: Optional[np.ndarray] = None
    rxy_mat: Optional[np.ndarray] = None
    n_rows: int = 0
    lags: int = 0
    channels: int = 0
    target_lags: int = 0

    @cached_property
    def rxx_eig(self):
        return sym_eig(self.rxx)

    @cached_property
    def ryy_eig(self):
        return sym_eig(self.ryy)

    def __add__(self, other):
        for key in ("lags", "channels", "target_lags") + _SUMS:
            mine, theirs = getattr(self, key), getattr(other, key)
            if key in _SUMS:  # a sum compares by shape, None when absent
                mine, theirs = (a if a is None else a.shape
                                for a in (mine, theirs))
            if mine != theirs:
                raise DimensionMismatch(
                    f"cannot merge stats: {key} {mine} against {theirs}")
        sums = {k: None if getattr(self, k) is None
                else getattr(self, k) + getattr(other, k) for k in _SUMS}
        return replace(self, **sums, n_rows=self.n_rows + other.n_rows)


def accumulate(designs, targets):
    """Sum X^T X and cross terms over (design, target) pairs.

    ``targets`` entries are either 1-D arrays (regression targets, giving
    ``rxy``) or LaggedDesign instances (giving ``ryy`` and ``rxy_mat``).
    Each pair must agree in sample count; the pairs' statistics are summed
    with ``+``, which checks that they share one layout.
    """
    if len(designs) != len(targets):
        raise DimensionMismatch("need one target per design")
    if not designs:
        raise DimensionMismatch("need at least one design")
    stats = None
    for d, y in zip(designs, targets):
        x = d.matrix
        lagged = isinstance(y, LaggedDesign)
        t = y.matrix if lagged else np.asarray(y, dtype=np.float64).ravel()
        if t.shape[0] != x.shape[0]:
            raise DimensionMismatch("target length differs from design")
        cross = ({"ryy": symmetrize(t.T @ t), "rxy_mat": x.T @ t,
                  "target_lags": y.lags} if lagged else {"rxy": x.T @ t})
        part = CovStats(rxx=symmetrize(x.T @ x), n_rows=x.shape[0],
                        lags=d.lags, channels=d.channels, **cross)
        stats = part if stats is None else stats + part
    return stats
