"""Audio-to-envelope front end.

A bank of 4th-order gammatone filters (cascades of identical complex
one-pole resonators) splits the audio into sub-bands; per-band magnitudes
are compressed with a 0.6 power law, summed across bands, resampled to the
EEG processing rate and clamped at zero.

The bank runs at the audio rate as numpy block state-space filters, one
per band for its whole cascade, all bands at once (see
:func:`aadkit.kernels.resonator_magnitudes`); no SciPy module is loaded.
Audio at 22.05, 44.1 or
48 kHz reaches 40 Hz in two rational resampling stages, because those
ratios need a denominator above 1000 (see :func:`aadkit.preprocess.resample`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels, preprocess
from .errors import InvalidBand

GAMMATONE_STAGES = 4
# bandwidth scaling applied to the equivalent rectangular bandwidth
DEFAULT_BW_SCALE = 1.019


@dataclass
class AudioTrack:
    samples: np.ndarray
    fs: float
    speaker_id: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).ravel()
        if not (np.isfinite(self.fs) and self.fs >= 8000):
            raise ValueError(f"audio rate {self.fs} must be finite and at "
                             "least 8000 Hz")
        if self.samples.size == 0:
            raise ValueError("audio needs at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio samples must be finite")


@dataclass
class GammatoneBank:
    fs: float
    centers_hz: np.ndarray
    poles: np.ndarray = field(repr=False)
    gains: np.ndarray = field(repr=False)
    n_stages: int = GAMMATONE_STAGES


def erb_rate(f_hz):
    """ERB-rate scale value of a frequency in Hz (Glasberg & Moore)."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f_hz, dtype=np.float64))


def erb_rate_inverse(rate):
    return (10.0 ** (np.asarray(rate, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def erb_bandwidth(f_hz):
    """Equivalent rectangular bandwidth in Hz at a center frequency."""
    return 24.7 * (1.0 + 4.37 * np.asarray(f_hz, dtype=np.float64) / 1000.0)


def gammatone_bank(fs, f_low, f_high, n_bands, bw_scale=DEFAULT_BW_SCALE):
    """Design the filter bank with ERB-rate-spaced center frequencies.

    A single band sits at the ERB-scale midpoint of the edges; multiple
    bands span the edges inclusively.
    """
    if not (np.isfinite(fs) and 0 < f_low < f_high < fs / 2):
        raise InvalidBand(f"band edges ({f_low}, {f_high}) invalid for fs={fs}")
    if n_bands < 1:
        raise InvalidBand("need at least one band")
    lo, hi = erb_rate(f_low), erb_rate(f_high)
    if n_bands == 1:
        rates = np.array([(lo + hi) / 2.0])
    else:
        rates = np.linspace(lo, hi, n_bands)
    centers = erb_rate_inverse(rates)
    bw = bw_scale * erb_bandwidth(centers)
    r = np.exp(-2.0 * np.pi * bw / fs)
    poles = r * np.exp(2j * np.pi * centers / fs)
    gains = (1.0 - r) ** GAMMATONE_STAGES
    return GammatoneBank(fs, centers, poles, gains)


def band_magnitudes(audio, bank):
    """Per-band magnitude output of the cascade, shape (T, n_bands)."""
    if bank.fs != audio.fs:
        raise InvalidBand(
            f"bank designed for {bank.fs} Hz, audio is {audio.fs} Hz"
        )
    return kernels.resonator_magnitudes(
        audio.samples, bank.poles, bank.gains, bank.n_stages
    )


@dataclass
class Envelope:
    samples: np.ndarray
    fs: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).ravel()
        if np.any(self.samples < 0):
            raise ValueError("envelope samples must be nonnegative")


def compute_envelope(audio, bank, to_fs):
    """Full envelope: |band|^0.6 per band, summed, resampled, clamped."""
    mags = band_magnitudes(audio, bank)
    summed = np.sum(np.power(mags, 0.6, out=mags), axis=1)
    sig = preprocess.MultichannelSignal(summed[:, None], audio.fs, ["env"])
    res = preprocess.resample(sig, to_fs)
    return Envelope(np.maximum(res.samples[:, 0], 0.0), to_fs)
