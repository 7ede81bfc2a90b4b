"""Time-lagged design matrices and accumulated covariance statistics.

The lagged design stacks per-channel blocks of L delayed copies of the
signal: column c*L + l holds x_c(t - l), zero-padded where t - l < 0.
It is built as one strided copy: L - 1 zero rows on top of the signal, a
(T, C, L) view of them that reads L rows backwards from each row, reshaped
to (T, C*L).
Covariance statistics are unnormalized sums over training windows; each
window is lagged with its own zero padding so no samples mix across
window (or trial) boundaries. A statistics object decomposes its
auto-covariances at most once, on first use, so every regularized fit on
the same training set shares one pair of eigendecompositions.
"""

from dataclasses import dataclass
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


@dataclass
class CovStats:
    """Summed second-moment statistics of lagged EEG against targets.

    ``rxy`` is present for vector targets, ``ryy``/``rxy_mat`` for lagged
    targets. ``n_rows`` counts the samples the sums ran over.

    ``rxx_eig`` and ``ryy_eig`` are the :func:`~aadkit.numerics.sym_eig`
    pairs of ``rxx`` and ``ryy``, computed on first access and kept, so
    the arrays must not be modified after that.
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
        if self.rxx.shape != other.rxx.shape:
            raise DimensionMismatch("cannot merge stats of different sizes")

        def _merge(a, b):
            if a is None and b is None:
                return None
            if a is None or b is None:
                raise DimensionMismatch("cannot merge stats of different kinds")
            return a + b

        return CovStats(
            rxx=self.rxx + other.rxx,
            rxy=_merge(self.rxy, other.rxy),
            ryy=_merge(self.ryy, other.ryy),
            rxy_mat=_merge(self.rxy_mat, other.rxy_mat),
            n_rows=self.n_rows + other.n_rows,
            lags=self.lags,
            channels=self.channels,
            target_lags=self.target_lags,
        )


def accumulate(designs, targets):
    """Sum X^T X and cross terms over (design, target) pairs.

    ``targets`` entries are either 1-D arrays (regression targets, giving
    ``rxy``) or LaggedDesign instances (giving ``ryy`` and ``rxy_mat``).
    All pairs must agree in sample count and in lag/channel layout.
    """
    if len(designs) != len(targets):
        raise DimensionMismatch("need one target per design")
    if not designs:
        raise DimensionMismatch("need at least one design")
    lags, channels = designs[0].lags, designs[0].channels
    stats = None
    for d, y in zip(designs, targets):
        if d.lags != lags or d.channels != channels:
            raise DimensionMismatch("inconsistent lag/channel layout")
        x = d.matrix
        if isinstance(y, LaggedDesign):
            if y.matrix.shape[0] != x.shape[0]:
                raise DimensionMismatch("target length differs from design")
            part = CovStats(
                rxx=symmetrize(x.T @ x),
                ryy=symmetrize(y.matrix.T @ y.matrix),
                rxy_mat=x.T @ y.matrix,
                n_rows=x.shape[0],
                lags=lags,
                channels=channels,
                target_lags=y.lags,
            )
        else:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.shape[0] != x.shape[0]:
                raise DimensionMismatch("target length differs from design")
            part = CovStats(
                rxx=symmetrize(x.T @ x),
                rxy=x.T @ y,
                n_rows=x.shape[0],
                lags=lags,
                channels=channels,
            )
        stats = part if stats is None else stats + part
    return stats
