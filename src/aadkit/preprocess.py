"""EEG conditioning chain: re-referencing, IIR band-pass/notch filtering,
rational resampling, and per-channel z-scoring.

Filtering is causal (zero initial conditions, no forward-backward pass) so
the chain stays usable online; this is documented behaviour and makes the
whole chain deterministic. The Butterworth designs and the filtering are
numpy (:func:`_butterworth`, :func:`aadkit.kernels.sosfilt`), so the chain
loads no SciPy module.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import BadChannelIndex, InvalidBand, IrrationalRatio


def to_samples(seconds, fs, error, label, minimum=0):
    """The samples in ``seconds`` at ``fs`` by Python's ``round`` (a half
    goes to the even count), the package's one duration conversion. Raises
    ``error``, prefixed with ``label``, when ``seconds * fs`` is negative
    or not finite, or rounds to fewer than ``minimum`` samples."""
    if not 0 <= seconds * fs < math.inf:
        raise error(f"{label}: {seconds:g} s at fs={fs:g} is not a finite "
                    "number of samples >= 0")
    n = int(round(seconds * fs))
    if n < minimum:
        raise error(f"{label}: {seconds:g} s is {n} samples at fs={fs:g}; "
                    f"need at least {minimum}")
    return n


@dataclass
class MultichannelSignal:
    """Time-major (T, C) signal with sampling rate and channel labels."""

    samples: np.ndarray
    fs: float
    channel_names: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError(f"bad sample shape {self.samples.shape}")
        if not 0 < self.fs < math.inf:
            raise ValueError("fs must be finite and positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if not self.channel_names:
            self.channel_names = [f"ch{i}" for i in range(self.samples.shape[1])]
        if len(self.channel_names) != self.samples.shape[1]:
            raise ValueError("channel_names length mismatch")

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]

    def with_samples(self, samples, fs=None, channel_names=None):
        return MultichannelSignal(
            samples,
            self.fs if fs is None else fs,
            list(self.channel_names) if channel_names is None else channel_names,
        )


@dataclass
class IirCascade:
    """Cascade of biquad sections, rows (b0, b1, b2, a1, a2), a0 == 1."""

    sections: np.ndarray
    design_label: str = ""

    def __post_init__(self):
        self.sections = np.atleast_2d(np.asarray(self.sections, dtype=np.float64))
        if self.sections.shape[1] != 5:
            raise ValueError("sections must have 5 coefficients per row")
        for a1, a2 in self.sections[:, 3:5]:
            poles = np.roots([1.0, a1, a2])
            if poles.size and np.max(np.abs(poles)) >= 1.0:
                raise InvalidBand(
                    f"unstable section in {self.design_label or 'cascade'}: "
                    f"pole magnitude {np.max(np.abs(poles)):.6f}"
                )

    def response(self, freqs_hz, fs):
        """Complex frequency response evaluated on the unit circle."""
        w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / fs
        z1 = np.exp(-1j * w)
        z2 = z1 * z1
        h = np.ones_like(z1, dtype=np.complex128)
        for b0, b1, b2, a1, a2 in self.sections:
            h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
        return h


def _conjugate_halves(values):
    """The upper member of each conjugate pair, averaged with its partner,
    then the real values: ``scipy.signal``'s ``_cplxreal`` order."""
    values = values[np.lexsort((abs(values.imag), values.real))]
    real = abs(values.imag) <= 100 * np.finfo(np.float64).eps * abs(values)
    upper = values[~real & (values.imag > 0)]
    lower = values[~real & (values.imag < 0)]
    return np.concatenate(((upper + lower.conj()) / 2, values[real].real))


def _butterworth(order, edges, fs, stop):
    """Sections ``(b0, b1, b2, a1, a2)`` of a digital Butterworth band-pass
    (or, with ``stop``, band-stop) of the given even total order.

    The analog prototype's poles go through the band transform at the
    pre-warped edges and the bilinear map (Oppenheim & Schafer,
    *Discrete-Time Signal Processing*, 3rd ed., section 7.1), and are
    paired into sections with their nearest zeros, the poles nearest the
    unit circle last, with the gain on the first section. Every step is
    the arithmetic of ``scipy.signal.butter(order // 2, edges, btype,
    fs=fs, output="sos")``, so the coefficients are its own, bit for bit.
    """
    n = int(order) // 2
    proto = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2.0) / (2 * n))
    # the analog design runs at a rate of 2, with the edges in half-cycles
    # per sample pre-warped so that the bilinear map returns them in place
    rate = 2.0
    edges = np.asarray(edges, dtype=np.float64) / (fs / 2)
    warped = 2 * rate * np.tan(np.pi * edges / rate)
    width = float(warped[1] - warped[0])
    center = float(np.sqrt(warped[0] * warped[1]))
    if stop:
        shifted = (width / 2) / proto
        zeros = np.concatenate((np.full(n, 1j * center),
                                np.full(n, -1j * center)))
        gain = np.real(1 / np.prod(-proto))
    else:
        shifted = proto * width / 2
        zeros = np.zeros(n, dtype=np.complex128)
        gain = width ** n
    root = np.sqrt(shifted ** 2 - center ** 2)
    poles = np.concatenate((shifted + root, shifted - root))
    # the bilinear map z = (c + s) / (c - s); zeros at infinity land on
    # Nyquist
    c = 2 * rate
    gain = gain * np.real(np.prod(c - zeros) / np.prod(c - poles))
    zeros = np.concatenate(((c + zeros) / (c - zeros),
                            -np.ones(poles.size - zeros.size)))
    z, p = _conjugate_halves(zeros), _conjugate_halves((c + poles)
                                                       / (c - poles))
    sections = np.zeros((n, 5))
    for row in range(n - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            pair, p = [p1, p[i]], np.delete(p, i)
        else:
            pair = [p1, p1.conj()]
        nearest = np.argsort(np.abs(z - p1))
        z1, z = z[nearest[0]], np.delete(z, nearest[0])
        if np.isreal(z1):
            nearest = np.argsort(np.abs(z - p1))
            i = nearest[np.isreal(z[nearest])][0]
            zz, z = [z1, z[i]], np.delete(z, i)
        else:
            zz = [z1, z1.conj()]
        sections[row, :3] = np.poly(zz)
        sections[row, 3:] = np.poly(pair)[1:]
    sections[0, :3] *= gain
    return sections


def _design(low_hz, high_hz, order, fs, stop, label):
    what = "stopband" if stop else "band edges"
    if not (math.isfinite(fs) and 0 < low_hz < high_hz < fs / 2):
        raise InvalidBand(f"{what} ({low_hz}, {high_hz}) invalid for fs={fs}")
    if order < 2 or order % 2 != 0:
        raise InvalidBand(f"order must be even and >= 2, got {order}")
    cascade = IirCascade(_butterworth(order, (low_hz, high_hz), fs, stop),
                         label)
    # designs are cached and shared between callers
    cascade.sections.flags.writeable = False
    return cascade


@functools.lru_cache(maxsize=64)
def design_bandpass(low_hz, high_hz, order, fs):
    """Butterworth band-pass of the given total order (even, >= 2).

    Uses the bilinear transform with frequency pre-warping (see
    :func:`_butterworth`); the returned cascade has unity gain (within
    1 dB) at the geometric mean of the band edges. Designed once per
    argument tuple; the cached cascade is shared and its sections are
    read-only.
    """
    return _design(low_hz, high_hz, order, fs, False,
                   f"bandpass {low_hz}-{high_hz} Hz ord{order}")


@functools.lru_cache(maxsize=64)
def design_notch(stop_low_hz, stop_high_hz, fs, order=4):
    """Butterworth band-stop covering [stop_low_hz, stop_high_hz], of the
    given total order (even, >= 2). Cached and read-only like
    :func:`design_bandpass`."""
    return _design(stop_low_hz, stop_high_hz, order, fs, True,
                   f"notch {stop_low_hz}-{stop_high_hz} Hz")


def filter_apply(x, cascade):
    """Causal per-channel filtering with zero initial conditions (see
    :func:`aadkit.kernels.sosfilt`)."""
    y = kernels.sosfilt(cascade.sections, x.samples)
    return x.with_samples(y)


def rereference(x, ref_index, drop_ref=False):
    """Subtract the reference channel from every channel.

    With ``drop_ref`` the reference channel is removed from the output,
    otherwise it stays as a column of zeros; dropping a signal's only
    channel raises :class:`BadChannelIndex`, since no channel would be
    left.
    """
    if not (0 <= ref_index < x.n_channels):
        raise BadChannelIndex(
            f"reference index {ref_index} out of range for C={x.n_channels}"
        )
    if drop_ref and x.n_channels == 1:
        raise BadChannelIndex(
            f"dropping reference {ref_index} leaves no channel")
    ref = x.samples[:, ref_index : ref_index + 1]
    out = x.samples - ref
    names = list(x.channel_names)
    if drop_ref:
        keep = [c for c in range(x.n_channels) if c != ref_index]
        out = out[:, keep]
        names = [names[c] for c in keep]
    return x.with_samples(out, channel_names=names)


def _rational_ratio(fs_from, fs_to):
    ratio = fs_to / fs_from
    frac = Fraction(ratio).limit_denominator(1000)
    if frac.numerator <= 0:
        raise IrrationalRatio(f"bad rate ratio {fs_to}/{fs_from}")
    if abs(float(frac) - ratio) > 1e-9 * ratio:
        raise IrrationalRatio(
            f"ratio {fs_to}/{fs_from} has no rational form with "
            "denominator <= 1000"
        )
    return frac.numerator, frac.denominator


def _resample_stages(fs_from, fs_to):
    """``(up, down, rate after the stage)`` for each stage of a conversion.

    One stage when the ratio has a rational form with denominator <= 1000.
    Otherwise the exact ratio ``p/q`` of the two rates is split into
    ``u/d`` and ``(p/u)/(q/d)``, each denominator <= 1000, with the
    intermediate rate at or above the lower end rate, so neither stage
    narrows the band. The split takes the smallest ``max(u, d)``: the first
    stage is then a short filter, and the second works like the single
    stage at a lower input rate (e.g. 48 kHz -> 24 kHz -> 40 Hz).
    """
    try:
        up, down = _rational_ratio(fs_from, fs_to)
        return [(up, down, fs_to)]
    except IrrationalRatio as exc:
        error = exc
    start, end = Fraction(fs_from), Fraction(fs_to)
    p, q = (end / start).as_integer_ratio()
    ups = [u for u in range(1, 1001) if p % u == 0]
    downs = [d for d in range(2, 1001) if q % d == 0 and q // d <= 1000]
    splits = [(max(u, d), Fraction(u, d)) for d in downs for u in ups
              if start * u / d >= min(start, end)]
    if not splits:
        raise error
    first = min(splits)[1]
    second = end / start / first
    return [(first.numerator, first.denominator, float(start * first)),
            (second.numerator, second.denominator, fs_to)]


@functools.lru_cache(maxsize=64)
def _antialias_fir(fs_from, fs_to, up):
    """Kaiser-windowed linear-phase low-pass at 0.45 x the lower rate.

    Each polyphase branch is normalized to unit DC gain so constants pass
    through exactly. Designed once per ``(fs_from, fs_to, up)``; the cached
    taps are shared and read-only.
    """
    fs_up = fs_from * up
    fmin = min(fs_from, fs_to)
    cutoff = 0.45 * fmin / fs_up  # cycles per sample at the upsampled rate
    trans = 0.05 * fmin / fs_up
    atten_db = 60.0
    beta = 0.1102 * (atten_db - 8.7)
    n_taps = int(math.ceil((atten_db - 7.95) / (14.36 * trans)))
    if n_taps % 2 == 0:
        n_taps += 1
    m = (n_taps - 1) / 2.0
    n = np.arange(n_taps)
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * (n - m)) * np.kaiser(n_taps, beta)
    for phase in range(up):
        branch = h[phase::up]
        h[phase::up] = branch / branch.sum()
    h.flags.writeable = False
    return h


def resample(x, to_fs):
    """Polyphase rational resampling to ``to_fs``.

    Output length is ceil(T * to_fs / fs). The anti-alias low-pass sits at
    0.45 x the lower of the two rates, Kaiser-designed for >= 60 dB
    stopband attenuation. A ratio whose denominator exceeds 1000 (40 Hz
    from 22.05, 44.1 or 48 kHz) runs as two rational stages, each with its
    own low-pass (see :func:`_resample_stages`). Each stage computes only
    the kept output samples, as BLAS products of the input with a table of
    the low-pass taps (see :func:`aadkit.kernels.fir_resample`); the
    low-pass of each stage is designed once per process.
    """
    if not 0 < to_fs < math.inf:
        raise IrrationalRatio("target rate must be finite and positive")
    if to_fs == x.fs:
        return x.with_samples(x.samples.copy())
    y, fs = x.samples, x.fs
    num = den = 1
    for up, down, stage_fs in _resample_stages(x.fs, to_fs):
        num, den = num * up, den * down
        # ceil(T * rate ratio so far), in exact integer arithmetic
        n_out = -(-x.n_samples * num // den)
        h = _antialias_fir(fs, stage_fs, up)
        y = kernels.fir_resample(y, h, up, down, n_out)
        fs = stage_fs
    return x.with_samples(y, fs=to_fs)


def zscore(x):
    """Per-channel zero mean, unit sample standard deviation (ddof=1).

    Constant channels come back as all zeros.
    """
    mean = x.samples.mean(axis=0)
    centered = x.samples - mean
    if x.n_samples < 2:
        return x.with_samples(np.zeros_like(x.samples))
    std = centered.std(axis=0, ddof=1)
    floor = 1e-15 * np.maximum(1.0, np.abs(mean))
    out = np.where(std > floor, centered / np.where(std > floor, std, 1.0), 0.0)
    return x.with_samples(out)


@functools.lru_cache(maxsize=64)
def _conditioning_cascade(band, band_order, notch, fs):
    """The band-pass then the notch of :func:`standard_chain` as one
    read-only cascade; ``band`` and ``notch`` are edge pairs or None, and
    None comes back when both are."""
    designs = []
    if band is not None:
        designs.append(design_bandpass(band[0], band[1], band_order, fs))
    if notch is not None:
        designs.append(design_notch(notch[0], notch[1], fs))
    if not designs:
        return None
    cascade = IirCascade(np.vstack([d.sections for d in designs]),
                         " + ".join(d.design_label for d in designs))
    cascade.sections.flags.writeable = False
    return cascade


def standard_chain(x, ref_index=None, band=(0.5, 62.0), band_order=8,
                   notch=(48.0, 52.0), to_fs=40.0):
    """Re-reference, band-pass, notch, resample, z-score. Any stage can be
    skipped by passing None for its parameter.

    The band-pass and notch sections run as one cascade in one
    :func:`filter_apply` pass; ``sosfilt`` runs it as one system, so this
    equals a pass per filter within its error (1e-13 of the output's
    peak), not bit for bit.
    """
    if ref_index is not None:
        x = rereference(x, ref_index, drop_ref=True)
    cascade = _conditioning_cascade(
        None if band is None else tuple(band), band_order,
        None if notch is None else tuple(notch), x.fs,
    )
    if cascade is not None:
        x = filter_apply(x, cascade)
    if to_fs is not None:
        x = resample(x, to_fs)
    return zscore(x)
