import re

import numpy as np
import pytest

from aadkit import preprocess as pp
from aadkit.errors import BadChannelIndex, InvalidBand, IrrationalRatio


class TestToSamples:
    @pytest.mark.parametrize("seconds, fs, n", [
        (30.0, 40.0, 1200), (10.0, 13.34, 133),
        # halves go to the even count, as Python's round takes them
        (2.5, 1.0, 2), (3.5, 1.0, 4), (0.25, 10.0, 2), (0.0, 40.0, 0),
    ])
    def test_rounds_like_python(self, seconds, fs, n):
        assert pp.to_samples(seconds, fs, InvalidBand, "x") == n

    @pytest.mark.parametrize("seconds, message", [
        pytest.param(-1.0, "-1 s at fs=40 is not a finite number of "
                     "samples >= 0", id="negative"),
        pytest.param(np.nan, "nan s at fs=40 is not", id="nan"),
        pytest.param(np.inf, "inf s at fs=40 is not", id="inf"),
        pytest.param(1e308, "1e+308 s at fs=40 is not a finite number of "
                     "samples", id="product-overflows"),
        pytest.param(0.02, "0.02 s is 1 samples at fs=40; need at least 2",
                     id="under-minimum"),
    ])
    def test_refusals_name_the_setting(self, seconds, message):
        """The caller's error class and label, for a duration that is
        negative or not finite, a product that overflows, or fewer
        samples than the caller's minimum."""
        with pytest.raises(BadChannelIndex,
                           match=f"^window: {re.escape(message)}"):
            pp.to_samples(seconds, 40.0, BadChannelIndex, "window", 2)


def unit_circle_gain(cascade, freq_hz, fs):
    """Transfer-function evaluation, independent of the filtering kernel."""
    w = 2 * np.pi * freq_hz / fs
    z1 = np.exp(-1j * w)
    h = 1.0 + 0j
    for b0, b1, b2, a1, a2 in cascade.sections:
        h *= (b0 + b1 * z1 + b2 * z1 ** 2) / (1 + a1 * z1 + a2 * z1 ** 2)
    return np.abs(h)


def db(x):
    return 20 * np.log10(max(x, 1e-300))


# (low, high, total order, fs, band-stop): the designs the package uses,
# then odd prototype orders, a band wide enough for real poles, and edges
# near DC and Nyquist
BUTTERWORTH_CASES = [
    (0.5, 62.0, 8, 125.0, False), (0.5, 62.0, 8, 250.0, False),
    (48.0, 52.0, 4, 250.0, True), (48.0, 52.0, 4, 125.0, True),
    (1.0, 4.0, 4, 40.0, False), (4.0, 8.0, 4, 40.0, False),
    (8.0, 14.0, 4, 40.0, False), (14.0, 19.5, 4, 40.0, False),
    (6.0, 14.0, 4, 40.0, False),
    (1.0, 20.0, 2, 125.0, False), (0.3, 45.0, 6, 100.0, False),
    (2.0, 30.0, 10, 256.0, True), (0.01, 499.0, 12, 1000.0, False),
    (0.2, 40.0, 6, 125.0, True),
]


@pytest.mark.parametrize("low, high, order, fs, stop", BUTTERWORTH_CASES)
def test_designs_equal_scipy_butter(low, high, order, fs, stop):
    """The numpy designs give ``scipy.signal.butter``'s sections bit for
    bit; SciPy is the oracle here and is not used by the package."""
    from scipy import signal

    if stop:
        got = pp.design_notch(low, high, fs, order)
    else:
        got = pp.design_bandpass(low, high, order, fs)
    sos = signal.butter(order // 2, [low, high], fs=fs, output="sos",
                        btype="bandstop" if stop else "bandpass")
    assert np.array_equal(got.sections,
                          np.column_stack([sos[:, :3], sos[:, 4:]]))


@pytest.mark.parametrize("fs", [np.inf, -np.inf, np.nan])
def test_designs_reject_non_finite_rate(fs):
    with pytest.raises(InvalidBand, match="invalid for fs"):
        pp.design_bandpass(0.5, 62, 8, fs)
    with pytest.raises(InvalidBand, match="invalid for fs"):
        pp.design_notch(48, 52, fs)


class TestBandpass:
    def test_passband_and_stopband(self):
        f = pp.design_bandpass(0.5, 62, 8, 125)
        assert abs(db(unit_circle_gain(f, 10, 125))) < 1.0
        assert db(unit_circle_gain(f, 0.05, 125)) < -40.0

    def test_geometric_mean_gain(self):
        f = pp.design_bandpass(0.5, 62, 8, 125)
        fc = np.sqrt(0.5 * 62)
        assert abs(db(unit_circle_gain(f, fc, 125))) < 1.0

    def test_sections_stable(self):
        f = pp.design_bandpass(1, 20, 2, 125)
        for a1, a2 in f.sections[:, 3:]:
            assert np.max(np.abs(np.roots([1, a1, a2]))) < 1.0

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            pp.design_bandpass(10, 5, 8, 125)
        with pytest.raises(InvalidBand):
            pp.design_bandpass(1, 70, 8, 125)
        with pytest.raises(InvalidBand):
            pp.design_bandpass(1, 20, 3, 125)


class TestNotch:
    def test_stopband_attenuation(self):
        f = pp.design_notch(48, 52, 125)
        assert db(unit_circle_gain(f, 50, 125)) <= -20.0

    def test_passband_flat(self):
        f = pp.design_notch(48, 52, 125)
        assert abs(db(unit_circle_gain(f, 20, 125))) < 1.0
        assert abs(db(unit_circle_gain(f, 24, 125))) < 1.0

    def test_invalid(self):
        with pytest.raises(InvalidBand):
            pp.design_notch(52, 48, 125)

    @pytest.mark.parametrize("order", [-2, 0, 1, 3])
    def test_invalid_order(self, order):
        """Orders 0 and 1 used to give a pass-through "notch" with unit
        gain at 50 Hz, and order 3 an order-2 band-stop."""
        with pytest.raises(InvalidBand):
            pp.design_notch(48, 52, 125, order)


class TestCachedDesigns:
    """Each filter is designed once per argument tuple and shared, so its
    arrays are read-only."""

    @pytest.mark.parametrize("design", [
        lambda: pp.design_bandpass(0.5, 62.0, 8, 250.0).sections,
        lambda: pp.design_notch(48.0, 52.0, 250.0).sections,
        lambda: pp._antialias_fir(250.0, 40.0, 4),
    ], ids=["bandpass", "notch", "antialias"])
    def test_shared_and_read_only(self, design):
        first = design()
        assert design() is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_antialias_key_includes_up(self):
        """(250, 40, 8) after (250, 40, 4) used to return the up=4 filter."""
        h4 = pp._antialias_fir(250, 40, 4)
        h8 = pp._antialias_fir(250, 40, 8)
        assert (h4.size, h8.size) == (1813, 3625)
        for up, h in ((4, h4), (8, h8)):
            branch_sums = [h[phase::up].sum() for phase in range(up)]
            assert np.allclose(branch_sums, 1.0, rtol=0, atol=1e-12)


class TestFilterApply:
    def test_zero_in_zero_out(self):
        f = pp.design_bandpass(0.5, 62, 8, 125)
        x = pp.MultichannelSignal(np.zeros((100, 3)), 125)
        assert np.all(pp.filter_apply(x, f).samples == 0)

    def test_identity_cascade(self):
        ident = pp.IirCascade(np.array([[1.0, 0, 0, 0, 0]]), "identity")
        imp = np.zeros((32, 1))
        imp[0] = 1.0
        x = pp.MultichannelSignal(imp, 125)
        assert np.array_equal(pp.filter_apply(x, ident).samples, imp)

    def test_sine_steady_state_matches_analytic(self):
        fs = 125
        f = pp.design_bandpass(0.5, 62, 8, fs)
        t = np.arange(8 * fs) / fs
        x = pp.MultichannelSignal(np.sin(2 * np.pi * 10 * t)[:, None], fs)
        y = pp.filter_apply(x, f).samples[:, 0]
        amp = np.max(np.abs(y[5 * fs:]))
        expected = unit_circle_gain(f, 10, fs)
        assert abs(db(amp) - db(expected)) < 1.0

    def test_direct_form_oracle(self, rng):
        # per-sample direct-form recursion written independently
        f = pp.design_notch(48, 52, 125)
        x = rng.standard_normal(40)
        sig = pp.MultichannelSignal(x[:, None], 125)
        got = pp.filter_apply(sig, f).samples[:, 0]
        ref = x.copy()
        for b0, b1, b2, a1, a2 in f.sections:
            out = np.zeros_like(ref)
            for t in range(len(ref)):
                xm1 = ref[t - 1] if t >= 1 else 0.0
                xm2 = ref[t - 2] if t >= 2 else 0.0
                ym1 = out[t - 1] if t >= 1 else 0.0
                ym2 = out[t - 2] if t >= 2 else 0.0
                out[t] = b0 * ref[t] + b1 * xm1 + b2 * xm2 - a1 * ym1 - a2 * ym2
            ref = out
        assert np.allclose(got, ref, atol=1e-10)

    def test_linearity(self, rng):
        f = pp.design_bandpass(1, 20, 4, 125)
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2))
        fx = pp.filter_apply(pp.MultichannelSignal(x, 125), f).samples
        fy = pp.filter_apply(pp.MultichannelSignal(y, 125), f).samples
        both = pp.filter_apply(
            pp.MultichannelSignal(2 * x - 3 * y, 125), f
        ).samples
        assert np.allclose(both, 2 * fx - 3 * fy, atol=1e-9)


class TestRereference:
    def test_self_reference_zeros(self, rng):
        x = pp.MultichannelSignal(rng.standard_normal((50, 3)), 125)
        out = pp.rereference(x, 0)
        assert np.all(out.samples[:, 0] == 0)

    def test_identical_channels_cancel(self, rng):
        col = rng.standard_normal(50)
        x = pp.MultichannelSignal(np.column_stack([col, col]), 125)
        out = pp.rereference(x, 1)
        assert np.all(out.samples[:, 0] == 0)

    def test_elementwise_oracle(self, rng):
        data = rng.standard_normal((30, 3))
        out = pp.rereference(pp.MultichannelSignal(data, 125), 2)
        assert np.array_equal(out.samples, data - data[:, 2:3])

    def test_drop_ref(self, rng):
        x = pp.MultichannelSignal(rng.standard_normal((30, 3)),
                                  125, ["a", "b", "c"])
        out = pp.rereference(x, 1, drop_ref=True)
        assert out.n_channels == 2
        assert out.channel_names == ["a", "c"]

    def test_twice_equals_once(self, rng):
        x = pp.MultichannelSignal(rng.standard_normal((30, 3)), 125)
        once = pp.rereference(x, 1)
        twice = pp.rereference(once, 1)
        assert np.array_equal(once.samples, twice.samples)

    def test_bad_index(self):
        x = pp.MultichannelSignal(np.zeros((5, 2)), 125)
        with pytest.raises(BadChannelIndex):
            pp.rereference(x, 5)

    def test_dropping_the_only_channel(self):
        x = pp.MultichannelSignal(np.zeros((5, 1)), 125)
        assert pp.rereference(x, 0).n_channels == 1
        with pytest.raises(BadChannelIndex):
            pp.rereference(x, 0, drop_ref=True)


@pytest.mark.parametrize("fs", [0.0, -1.0, np.nan, np.inf])
def test_signal_rate_not_finite_positive(fs):
    with pytest.raises(ValueError, match="^fs must be finite and positive"):
        pp.MultichannelSignal(np.zeros((500, 2)), fs)


class TestResample:
    def test_constant_preserved(self):
        x = pp.MultichannelSignal(np.full((1000, 2), 3.5), 125)
        y = pp.resample(x, 40.0)
        inner = y.samples[50:-50]
        assert np.max(np.abs(inner - 3.5)) < 1e-6

    def test_length_3750_to_1200(self):
        x = pp.MultichannelSignal(np.zeros((3750, 16)), 125)
        y = pp.resample(x, 40.0)
        assert y.samples.shape == (1200, 16)
        assert y.fs == 40.0

    def test_sine_peak_preserved(self):
        fs = 125
        t = np.arange(3750) / fs
        x = pp.MultichannelSignal(np.sin(2 * np.pi * 5 * t)[:, None], fs)
        y = pp.resample(x, 40.0).samples[:, 0]
        spec = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(len(y), 1 / 40.0)
        k = np.argmax(spec)
        assert freqs[k] == pytest.approx(5.0, abs=freqs[1])
        assert 2 * spec[k] / len(y) == pytest.approx(1.0, rel=0.02)

    def test_roundtrip_keeps_band(self):
        fs = 120
        t = np.arange(fs * 10) / fs
        x = pp.MultichannelSignal(np.sin(2 * np.pi * 7 * t)[:, None], fs)
        down = pp.resample(x, 40.0)
        back = pp.resample(down, 120.0)
        spec = np.abs(np.fft.rfft(back.samples[:, 0]))
        freqs = np.fft.rfftfreq(back.n_samples, 1 / 120.0)
        assert freqs[np.argmax(spec)] == pytest.approx(7.0, abs=freqs[1])

    @pytest.mark.parametrize("to_fs", [0.0, -40.0, np.inf, np.nan])
    def test_target_rate_not_finite_positive(self, to_fs):
        x = pp.MultichannelSignal(np.zeros((500, 2)), 250)
        with pytest.raises(IrrationalRatio, match="finite and positive"):
            pp.resample(x, to_fs)

    def test_irrational_ratio(self):
        x = pp.MultichannelSignal(np.zeros((100, 1)), 125)
        with pytest.raises(IrrationalRatio):
            pp.resample(x, 125 * np.pi / 3.0)

    @pytest.mark.parametrize("fs", [22050, 44100, 48000])
    def test_audio_rate_to_40_hz(self, fs):
        """40/fs needs a denominator above 1000 at these rates. The staged
        conversion keeps a 5 Hz tone and a constant, and removes a 30 Hz
        tone that would alias onto 10 Hz."""
        t = np.arange(4 * fs) / fs
        x = pp.MultichannelSignal(np.column_stack([
            np.sin(2 * np.pi * 5 * t) + np.sin(2 * np.pi * 30 * t),
            np.full(t.size, 3.5),
        ]), fs)
        y = pp.resample(x, 40.0)
        assert y.fs == 40.0
        assert y.samples.shape == (160, 2)
        inner = slice(50, -50)
        tone = np.sin(2 * np.pi * 5 * np.arange(160) / 40.0)
        assert np.max(np.abs(y.samples[inner, 0] - tone[inner])) < 1e-3
        assert np.max(np.abs(y.samples[inner, 1] - 3.5)) < 1e-6

    @pytest.mark.parametrize("fs, to_fs, stages", [
        (16000, 40, [(1, 400)]),
        (44100, 250, [(5, 882)]),
        (22050, 40, [(1, 3), (4, 735)]),
        (44100, 40, [(1, 3), (2, 735)]),
        (48000, 40, [(1, 2), (1, 600)]),
    ])
    def test_stages(self, monkeypatch, fs, to_fs, stages):
        """A ratio with a denominator <= 1000 is one ``fir_resample`` call;
        a larger one is two, each denominator <= 1000, the first a short
        decimation. The output keeps ceil(T * to_fs / fs) samples either
        way."""
        calls = []
        fir_resample = pp.kernels.fir_resample

        def spy(x, h, up, down, n_out):
            calls.append((up, down))
            return fir_resample(x, h, up, down, n_out)

        monkeypatch.setattr(pp.kernels, "fir_resample", spy)
        n = 3 * fs + 7
        y = pp.resample(pp.MultichannelSignal(np.zeros((n, 1)), fs),
                        float(to_fs))
        assert calls == stages
        assert y.n_samples == -(-n * to_fs // fs)


class TestZscore:
    def test_mean_zero_unit_std(self, rng):
        x = pp.MultichannelSignal(rng.standard_normal((100, 4)) * 5 + 2, 40)
        z = pp.zscore(x).samples
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.allclose(z.std(axis=0, ddof=1), 1.0)

    def test_constant_channel_zeroed(self):
        data = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        z = pp.zscore(pp.MultichannelSignal(data, 40)).samples
        assert np.all(z[:, 0] == 0)
        assert np.allclose(z[:, 1].std(ddof=1), 1.0)

    def test_idempotent(self, rng):
        x = pp.MultichannelSignal(rng.standard_normal((64, 3)), 40)
        once = pp.zscore(x)
        twice = pp.zscore(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-9)


def test_full_chain_deterministic(rng):
    data = rng.standard_normal((1000, 4))
    def chain():
        x = pp.MultichannelSignal(data.copy(), 125)
        return pp.standard_chain(x, ref_index=3).samples
    assert np.array_equal(chain(), chain())


@pytest.mark.parametrize("band, notch", [
    ((0.5, 62.0), (48.0, 52.0)),
    (None, (48.0, 52.0)),
    ((0.5, 62.0), None),
    (None, None),
])
def test_chain_filters_in_one_pass(rng, monkeypatch, band, notch):
    """The band-pass and notch sections run in one ``filter_apply`` call,
    equal to one pass per filter within ``sosfilt``'s bound of 1e-12 of
    the output's peak; the cascade runs as one system, so the two round
    differently."""
    x = pp.MultichannelSignal(rng.standard_normal((2000, 5)), 250.0)
    want = pp.rereference(x, 0, drop_ref=True)
    if band is not None:
        want = pp.filter_apply(want, pp.design_bandpass(*band, 8, 250.0))
    if notch is not None:
        want = pp.filter_apply(want, pp.design_notch(*notch, 250.0))
    want = pp.zscore(pp.resample(want, 40.0))
    passes = []
    filter_apply = pp.filter_apply

    def spy(signal, cascade):
        passes.append(cascade)
        return filter_apply(signal, cascade)

    monkeypatch.setattr(pp, "filter_apply", spy)
    got = pp.standard_chain(x, ref_index=0, band=band, notch=notch)
    assert len(passes) == (band is not None or notch is not None)
    assert got.samples.shape == want.samples.shape
    assert (np.max(np.abs(got.samples - want.samples))
            < 1e-12 * np.max(np.abs(want.samples)))
