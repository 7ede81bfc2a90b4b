import numpy as np
import pytest

from aadkit import envelope as env
from aadkit.errors import InvalidBand, IrrationalRatio


@pytest.fixture(scope="module")
def bank():
    return env.gammatone_bank(16000, 50, 5000, 17)


class TestAudioTrack:
    @pytest.mark.parametrize("fs", [np.nan, np.inf, 7999.0])
    def test_rate_refused(self, fs):
        with pytest.raises(ValueError, match="audio rate"):
            env.AudioTrack(np.zeros(100), fs)

    def test_empty_clip_refused(self):
        with pytest.raises(ValueError, match="at least one sample"):
            env.AudioTrack(np.zeros(0), 16000)


class TestBank:
    @pytest.mark.parametrize("fs", [np.nan, np.inf])
    def test_rate_not_finite(self, fs):
        with pytest.raises(InvalidBand):
            env.gammatone_bank(fs, 50, 5000, 17)

    def test_17_centers_in_range(self, bank):
        c = bank.centers_hz
        assert len(c) == 17
        assert np.all(np.diff(c) > 0)
        assert c[0] >= 50 - 1e-9
        assert c[-1] <= 5000 + 1e-9

    def test_single_band_midpoint(self):
        b = env.gammatone_bank(16000, 100, 400, 1)
        mid = env.erb_rate_inverse(
            (env.erb_rate(100) + env.erb_rate(400)) / 2
        )
        assert b.centers_hz[0] == pytest.approx(float(mid))

    def test_peaks_near_centers(self, bank):
        # frequency-response sweep of the analytic cascade response
        for i in (0, 8, 16):
            fc = bank.centers_hz[i]
            freqs = np.linspace(0.5 * fc, 1.5 * fc, 4001)
            w = 2 * np.pi * freqs / bank.fs
            resp = bank.gains[i] / np.abs(
                1 - bank.poles[i] * np.exp(-1j * w)
            ) ** bank.n_stages
            fpeak = freqs[np.argmax(resp)]
            assert abs(fpeak - fc) / fc < 0.05

    def test_invalid(self):
        with pytest.raises(InvalidBand):
            env.gammatone_bank(16000, 5000, 50, 17)
        with pytest.raises(InvalidBand):
            env.gammatone_bank(16000, 50, 5000, 0)


class TestEnvelope:
    def test_zero_audio(self, bank):
        audio = env.AudioTrack(np.zeros(16000), 16000)
        e = env.compute_envelope(audio, bank, 40.0)
        assert np.all(e.samples == 0)

    def test_output_length(self, bank):
        audio = env.AudioTrack(np.random.default_rng(0).standard_normal(16000),
                               16000)
        e = env.compute_envelope(audio, bank, 40.0)
        assert e.samples.shape[0] == 40
        assert e.fs == 40.0

    def test_power_law_homogeneity(self, bank, rng):
        x = rng.standard_normal(8000)
        base = env.compute_envelope(env.AudioTrack(x, 16000), bank, 40.0)
        for alpha in (0.13, 0.7, 2.0, 9.5):
            scaled = env.compute_envelope(
                env.AudioTrack(alpha * x, 16000), bank, 40.0
            )
            keep = base.samples > 1e-9
            rel = np.abs(
                scaled.samples[keep] - alpha ** 0.6 * base.samples[keep]
            ) / (alpha ** 0.6 * base.samples[keep])
            assert np.max(rel) < 1e-6

    def test_sign_flip_invariant(self, bank, rng):
        x = rng.standard_normal(8000)
        a = env.compute_envelope(env.AudioTrack(x, 16000), bank, 40.0)
        b = env.compute_envelope(env.AudioTrack(-x, 16000), bank, 40.0)
        assert np.array_equal(a.samples, b.samples)

    def test_tone_envelope_steady(self, bank):
        # pure tone at a band center: flat envelope after the transient
        fs = 16000
        fc = bank.centers_hz[8]
        t = np.arange(fs) / fs
        audio = env.AudioTrack(np.sin(2 * np.pi * fc * t), fs)
        mags = env.band_magnitudes(audio, bank)[:, 8]
        steady = mags[fs // 4:]
        assert steady.std() / steady.mean() < 0.1

    @pytest.mark.parametrize("fs", [22050, 44100, 48000])
    def test_audio_rate_matches_16_khz(self, bank, fs):
        """The same modulated tones sampled at 16 kHz and at a higher audio
        rate give the same 40 Hz envelope, away from the edges."""
        def tones(rate):
            t = np.arange(4 * rate) / rate
            carrier = (np.sin(2 * np.pi * 440 * t)
                       + 0.5 * np.sin(2 * np.pi * 1500 * t)
                       + 0.3 * np.sin(2 * np.pi * 3000 * t))
            return env.AudioTrack((1 + 0.8 * np.sin(2 * np.pi * 3 * t))
                                  * carrier, rate)

        ref = env.compute_envelope(tones(16000), bank, 40.0).samples
        e = env.compute_envelope(
            tones(fs), env.gammatone_bank(fs, 50, 5000, 17), 40.0)
        assert e.fs == 40.0
        assert e.samples.shape == ref.shape == (160,)
        inner = slice(50, -50)
        assert np.corrcoef(e.samples[inner], ref[inner])[0, 1] > 0.9999
        assert (np.max(np.abs(e.samples[inner] - ref[inner]))
                < 0.01 * np.max(ref))

    @pytest.mark.parametrize("to_fs", [np.inf, np.nan])
    def test_target_rate_not_finite(self, bank, to_fs):
        audio = env.AudioTrack(np.ones(1600), 16000)
        with pytest.raises(IrrationalRatio, match="finite and positive"):
            env.compute_envelope(audio, bank, to_fs)

    def test_rate_mismatch(self, bank):
        with pytest.raises(InvalidBand):
            env.band_magnitudes(env.AudioTrack(np.zeros(100), 8000), bank)
