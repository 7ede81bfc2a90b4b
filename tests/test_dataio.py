import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from aadkit import dataio
from aadkit.errors import (
    BadConfig,
    IoError,
    ManifestError,
    ShapeMismatch,
    UnknownTask,
)


class TestArrays:
    def test_roundtrip(self, tmp_path, rng):
        data = rng.standard_normal((100, 4)).astype(np.float32)
        path = tmp_path / "a.aad"
        dataio.write_array(path, data, 125.0)
        back, fs = dataio.read_array(path)
        assert fs == 125.0
        assert np.array_equal(back, data.astype(np.float64))

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "a.aad"
        dataio.write_array(path, rng.standard_normal((50, 2)), 40.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ShapeMismatch):
            dataio.read_array(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.aad"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ManifestError):
            dataio.read_array(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, rng, value):
        data = rng.standard_normal((20, 2))
        data[7, 1] = value
        path = tmp_path / "a.aad"
        dataio.write_array(path, data, 40.0)
        with pytest.raises(ShapeMismatch, match="finite"):
            dataio.read_array(path)


    @pytest.mark.parametrize("fs", [40.0001, 5e6, 1e-4, np.nan, np.inf])
    def test_unstorable_rate_refused_before_open(self, tmp_path, fs):
        """The header holds fs in whole millihertz as a uint32: 40.0001 Hz
        would read back as 40.0, 5 MHz overflows the field, and 0.1 mHz
        rounds to zero. Each is refused before the file exists."""
        path = tmp_path / "a.aad"
        with pytest.raises(IoError, match="fs: .* no rate an .aad header"):
            dataio.write_array(path, np.zeros((4, 1)), fs)
        assert not path.exists()

    @pytest.mark.parametrize("fs", [13.34, 0.001, 4294967.295])
    def test_storable_rates_read_back(self, tmp_path, fs):
        path = tmp_path / "a.aad"
        dataio.write_array(path, np.zeros((4, 1)), fs)
        assert dataio.read_array(path)[1] == fs


class TestReadJson:
    def test_object_by_default(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1]")
        with pytest.raises(BadConfig, match="^grid: need a JSON object$"):
            dataio.read_json(path, "grid")

    def test_accepted_kinds_named_in_message(self, tmp_path):
        path = tmp_path / "x.json"
        kinds = {list: "a list", dict: "a mapping"}
        path.write_text("[1]")
        assert dataio.read_json(path, "layouts", kinds) == [1]
        path.write_text("5")
        with pytest.raises(BadConfig,
                           match="^layouts: need a list or a mapping$"):
            dataio.read_json(path, "layouts", kinds)

    @pytest.mark.parametrize("raw", [b"{", b"\xff\xfe{}"],
                             ids=["json", "utf8"])
    def test_unreadable_file(self, tmp_path, raw):
        path = tmp_path / "x.json"
        path.write_bytes(raw)
        with pytest.raises(BadConfig, match="^config: "):
            dataio.read_json(path, "config")
        with pytest.raises(BadConfig, match="^config: "):
            dataio.read_json(tmp_path / "absent.json", "config")


class TestTimeline:
    def test_task1_single_span(self):
        tl = dataio.build_timeline(1, 30.0, None, [2])
        assert len(tl) == 1
        assert tl[0].attended == 2
        assert (tl[0].start_s, tl[0].end_s) == (0.0, 30.0)

    def test_task2_switch(self):
        tl = dataio.build_timeline(2, 30.0, 15.0, [1, 3])
        assert [(s.start_s, s.end_s, s.attended) for s in tl] == [
            (0.0, 15.0, 1),
            (15.0, 30.0, 3),
        ]

    def test_task4_ignore_after_switch(self):
        tl = dataio.build_timeline(4, 30.0, 15.0, [1])
        assert tl[1].attended is None

    def test_task3_unknown_target(self):
        tl = dataio.build_timeline(3, 30.0, 14.0, [2])
        assert tl[1].attended is None

    def test_unknown_task(self):
        with pytest.raises(UnknownTask):
            dataio.build_timeline(9, 30.0, None, [1])

    @pytest.mark.parametrize("end_s, spans", [
        (10.025, [(0.0, 5.0, 1), (5.0, 10.025, 3)]),
        (7.5, [(0.0, 5.0, 1), (5.0, 7.5, 3)]),
        (5.0, [(0.0, 5.0, 1)]),
        (4.0, [(0.0, 4.0, 1)]),
    ])
    def test_clamp_timeline(self, end_s, spans):
        tl = dataio.clamp_timeline(
            dataio.build_timeline(2, 10.0, 5.0, [1, 3]), end_s
        )
        assert [(s.start_s, s.end_s, s.attended) for s in tl] == spans


class TestSessionRoundtrip:
    def test_save_load(self, tmp_path):
        cfg = dataio.SynthConfig(n_trials=6, duration_s=10.0, n_channels=4,
                                 seed=2, switch_times=[None, 8.0, None, 4.0,
                                                       None, None],
                                 tasks=[1, 2, 1, 4, 6, 1])
        session = dataio.synth_generate(cfg)
        path = dataio.save_session(session, tmp_path)
        back = dataio.load_session(path)
        assert back.subject == session.subject
        assert back.preprocessed
        assert len(back.trials) == 6
        for a, b in zip(session.trials, back.trials):
            assert a.task == b.task
            assert a.group == b.group
            assert np.allclose(a.eeg.samples, b.eeg.samples, atol=1e-6)
            assert [s.attended for s in a.timeline] == [
                s.attended for s in b.timeline
            ]
        # task 6 trials carry two speakers
        assert len(back.trials[4].speakers) == 2

    def test_recording_scale_shapes(self, tmp_path):
        cfg = dataio.SynthConfig(n_trials=1, duration_s=30.0, n_channels=16,
                                 fs=125.0, seed=1)
        path = dataio.save_session(dataio.synth_generate(cfg), tmp_path)
        session = dataio.load_session(path)
        trial = session.trials[0]
        assert trial.eeg.samples.shape == (3750, 16)
        assert session.fs == 125.0
        assert trial.eeg.channel_names[:2] == ["L1", "L2"]

    def test_loader_checks_shape(self, tmp_path):
        cfg = dataio.SynthConfig(n_trials=2, duration_s=5.0, n_channels=3,
                                 seed=0)
        path = dataio.save_session(dataio.synth_generate(cfg), tmp_path)
        manifest = json.loads(path.read_text())
        manifest["trials"][0]["channels"] = ["a", "b"]  # wrong count
        path.write_text(json.dumps(manifest))
        with pytest.raises(ShapeMismatch):
            dataio.load_session(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"subject": "x", "fs_eeg": 40.0}))
        with pytest.raises(ManifestError):
            dataio.load_session(path)

    @staticmethod
    def _small_session(root):
        cfg = dataio.SynthConfig(n_trials=2, duration_s=5.0, n_channels=3,
                                 seed=0)
        return dataio.save_session(dataio.synth_generate(cfg), root)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: m["trials"][0]["speakers"][1].pop("id"),
                     id="speaker-id-missing"),
        pytest.param(lambda m: m.update(fs_eeg="abc"), id="fs-str"),
        pytest.param(lambda m: m.update(trials=5), id="trials-int"),
        pytest.param(lambda m: m["trials"][0].update(eeg=3), id="eeg-int"),
        pytest.param(lambda m: m["trials"][0]["timeline"][0].update(
            end_s=None), id="end-null"),
        pytest.param(lambda m: m["trials"][1].update(speakers=["x"]),
                     id="speaker-str"),
    ])
    def test_ill_typed_field(self, tmp_path, edit):
        path = self._small_session(tmp_path)
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="malformed manifest"):
            dataio.load_session(path)

    @pytest.mark.parametrize("trial_id", [
        "", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b",
    ], ids=["empty", "dot", "dot-dot", "escapes", "slash", "backslash",
            "nul"])
    def test_trial_id_not_a_file_name(self, tmp_path, trial_id):
        """A trial id names the trial's array files, so one that is not a
        single path component is refused before anything is written."""
        cfg = dataio.SynthConfig(n_trials=2, duration_s=5.0, n_channels=2)
        session = dataio.synth_generate(cfg)
        session.trials[1] = replace(session.trials[1], trial_id=trial_id)
        with pytest.raises(ManifestError, match="^trial id: "):
            dataio.save_session(session, tmp_path / "deep/out")
        assert not (tmp_path / "deep").exists()

    def test_trial_ids_that_are_file_names_roundtrip(self, tmp_path):
        cfg = dataio.SynthConfig(n_trials=2, duration_s=5.0, n_channels=2)
        session = dataio.synth_generate(cfg)
        for trial, trial_id in zip(session.trials, ('a,"b', "..a")):
            trial.trial_id = trial_id
        back = dataio.load_session(dataio.save_session(session, tmp_path))
        assert [t.trial_id for t in back.trials] == ['a,"b', "..a"]

    def test_duplicate_trial_id_not_saved(self, tmp_path):
        cfg = dataio.SynthConfig(n_trials=3, duration_s=5.0, n_channels=2)
        session = dataio.synth_generate(cfg)
        session.trials[2].trial_id = session.trials[0].trial_id
        with pytest.raises(ManifestError, match="trial id 't000' repeats"):
            dataio.save_session(session, tmp_path / "deep/out")
        assert not (tmp_path / "deep").exists()

    def test_duplicate_trial_id_not_loaded(self, tmp_path):
        path = self._small_session(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["trials"][1]["id"] = manifest["trials"][0]["id"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="trial id 't000' repeats"):
            dataio.load_session(path)

    @pytest.mark.parametrize("char", ["\0", "\t", "\n", "\r", "\x1f", "\x7f"],
                             ids=["nul", "tab", "lf", "cr", "us", "del"])
    @pytest.mark.parametrize("field", ["id", "channels"])
    def test_control_character_in_name(self, tmp_path, field, char):
        """A control character in a name that the CSV exports write would
        split or merge their rows."""
        path = self._small_session(tmp_path)
        manifest = json.loads(path.read_text())
        entry = manifest["trials"][1]
        if field == "id":
            entry["id"] = f"a{char}b"
        else:
            entry["channels"][2] = f"a{char}b"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="control character"):
            dataio.load_session(path)

    @pytest.mark.parametrize("field", ["id", "channel"])
    def test_control_character_not_saved(self, tmp_path, field):
        cfg = dataio.SynthConfig(n_trials=2, duration_s=5.0, n_channels=2)
        session = dataio.synth_generate(cfg)
        trial = session.trials[1]
        if field == "id":
            trial.trial_id = "a\rb"
        else:
            trial.eeg.channel_names[0] = "a\rb"
        with pytest.raises(ManifestError, match="control character"):
            dataio.save_session(session, tmp_path / "deep/out")
        assert not (tmp_path / "deep").exists()

    def test_printable_names_load(self, tmp_path):
        # the rule covers U+0000-U+001F and U+007F only
        path = self._small_session(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["trials"][1]["id"] = "a b\u00e9\u0085"
        manifest["trials"][1]["channels"][0] = 'T7 "left", ~'
        path.write_text(json.dumps(manifest))
        back = dataio.load_session(path)
        assert back.trials[1].trial_id == "a b\u00e9\u0085"
        assert back.trials[1].eeg.channel_names[0] == 'T7 "left", ~'

    @pytest.mark.parametrize("array", ["eeg", "envelope"])
    def test_non_finite_samples(self, tmp_path, array):
        path = self._small_session(tmp_path)
        entry = json.loads(path.read_text())["trials"][1]
        rel = entry["eeg"] if array == "eeg" else entry["speakers"][0][
            "envelope"]
        samples, fs = dataio.read_array(tmp_path / rel)
        samples[3, 0] = np.nan
        dataio.write_array(tmp_path / rel, samples, fs)
        with pytest.raises(ShapeMismatch, match="finite"):
            dataio.load_session(path)


class TestReadNpzTrial:
    KEYS = dict(eeg=np.zeros((250, 2)), fs_eeg=125.0,
                envelopes=np.ones((250, 2)), env_fs=125.0,
                speaker_ids=np.array([1, 2]),
                directions_deg=np.array([-60.0, 60.0]), task=2,
                attended_sequence=np.array([1, 2]), switch_s=1.0)

    def test_trial(self, tmp_path):
        np.savez(tmp_path / "t.npz", **self.KEYS)
        trial = dataio.read_npz_trial(tmp_path / "t.npz", "t007")
        assert trial.trial_id == "t007"
        assert trial.eeg.channel_names == ["ch0", "ch1"]
        assert trial.speaker_ids() == [1, 2]
        assert [(s.start_s, s.end_s, s.attended) for s in trial.timeline] \
            == [(0.0, 1.0, 1), (1.0, 2.0, 2)]

    @pytest.mark.parametrize("change", [
        pytest.param({"eeg": None}, id="eeg-missing"),
        pytest.param({"task": None}, id="task-missing"),
        pytest.param({"fs_eeg": np.array([1.0, 2.0])}, id="fs-array"),
        pytest.param({"fs_eeg": np.array("x")}, id="fs-str"),
        pytest.param({"envelopes": np.ones(250)}, id="envelopes-1d"),
        pytest.param({"speaker_ids": np.array(1)}, id="ids-scalar"),
        pytest.param({"eeg": np.full((250, 2), np.nan)}, id="eeg-nan"),
    ])
    def test_missing_or_unreadable_key(self, tmp_path, change):
        keys = {**self.KEYS, **change}
        np.savez(tmp_path / "t.npz",
                 **{k: v for k, v in keys.items() if v is not None})
        with pytest.raises(ManifestError):
            dataio.read_npz_trial(tmp_path / "t.npz", "t000")

    @pytest.mark.parametrize("raw", [b"", b"not an npz file", b"PK\x03\x04"],
                             ids=["empty", "garbage", "truncated-zip"])
    def test_unreadable_file(self, tmp_path, raw):
        (tmp_path / "t.npz").write_bytes(raw)
        with pytest.raises(ManifestError):
            dataio.read_npz_trial(tmp_path / "t.npz", "t000")

    def test_control_character_in_channel_name(self, tmp_path):
        np.savez(tmp_path / "t.npz",
                 **{**self.KEYS, "channels": np.array(["c\r1", "c2"])})
        with pytest.raises(ManifestError, match="control character"):
            dataio.read_npz_trial(tmp_path / "t.npz", "t000")

    def test_duplicate_speaker_ids_rejected(self, tmp_path):
        np.savez(tmp_path / "t.npz",
                 **{**self.KEYS, "speaker_ids": np.array([1, 1])})
        with pytest.raises(ManifestError, match="duplicate speaker ids"):
            dataio.read_npz_trial(tmp_path / "t.npz", "t000")


def test_span_rows_round_and_clamp():
    span = dataio.TimelineSpan
    assert dataio.span_rows(span(0.26, 5.04, 1), 10.0, 100) == (3, 50)
    assert dataio.span_rows(span(0.26, 12.0, 1), 10.0, 100) == (3, 100)
    assert dataio.span_rows(span(10.0, 12.0, None), 10.0, 100) == (100, 100)


@pytest.mark.parametrize("start, end", [(0.0, 1e308), (-1.0, 5.0),
                                        (0.0, float("nan"))])
def test_span_rows_refuses_ends_without_a_row(start, end):
    """An end whose sample count overflows, is negative or is not a
    number is a typed error, not Python's OverflowError or ValueError."""
    with pytest.raises(ManifestError, match="^timeline: "):
        dataio.span_rows(dataio.TimelineSpan(start, end, 1), 10.0, 100)


class TestAttendedStreams:
    def test_single_span_verbatim(self):
        cfg = dataio.SynthConfig(n_trials=1, duration_s=10.0, n_channels=2,
                                 seed=4)
        trial = dataio.synth_generate(cfg).trials[0]
        streams = dataio.build_attended_streams(trial)
        att_id = trial.timeline[0].attended
        env = next(s.envelope for s in trial.speakers
                   if s.speaker_id == att_id)
        assert np.array_equal(streams.attended, env)
        assert streams.mask.all()

    def test_switch_composite(self):
        cfg = dataio.SynthConfig(n_trials=1, duration_s=10.0, n_channels=2,
                                 seed=5, switch_times=[6.0])
        trial = dataio.synth_generate(cfg).trials[0]
        streams = dataio.build_attended_streams(trial)
        fs = trial.speakers[0].fs
        cut = int(round(6.0 * fs))
        pre = trial.timeline[0].attended
        post = trial.timeline[1].attended
        env = {s.speaker_id: s.envelope for s in trial.speakers}
        assert np.array_equal(streams.attended[:cut], env[pre][:cut])
        assert np.array_equal(streams.attended[cut:], env[post][cut:])

    def test_per_sample_lookup_oracle(self):
        cfg = dataio.SynthConfig(n_trials=3, duration_s=8.0, n_channels=2,
                                 seed=6, switch_times=[4.0, None, 5.0])
        for trial in dataio.synth_generate(cfg).trials:
            streams = dataio.build_attended_streams(trial)
            fs = trial.speakers[0].fs
            env = {s.speaker_id: s.envelope for s in trial.speakers}
            ids = sorted(env)
            t_len = len(streams.attended)
            for t in range(0, t_len, 7):
                sec = t / fs
                att = None
                for span in trial.timeline:
                    if span.start_s <= sec < span.end_s:
                        att = span.attended
                        break
                if att is None:
                    assert not streams.mask[t]
                    continue
                assert streams.attended[t] == env[att][t]
                others = [i for i in ids if i != att]
                for k, sid in enumerate(others):
                    assert streams.unattended[k][t] == env[sid][t]

    def test_partition_property(self):
        cfg = dataio.SynthConfig(n_trials=2, duration_s=6.0, n_channels=2,
                                 seed=8, switch_times=[3.0, None])
        for trial in dataio.synth_generate(cfg).trials:
            streams = dataio.build_attended_streams(trial)
            env = {s.speaker_id: s.envelope for s in trial.speakers}
            total = sum(env.values())
            got = streams.attended + sum(streams.unattended)
            m = streams.mask
            assert np.allclose(got[m], total[m])

    def test_none_span_marked(self):
        cfg = dataio.SynthConfig(n_trials=1, duration_s=10.0, n_channels=2,
                                 seed=9, tasks=[4], switch_times=[5.0])
        trial = dataio.synth_generate(cfg).trials[0]
        streams = dataio.build_attended_streams(trial)
        fs = trial.speakers[0].fs
        cut = int(round(5.0 * fs))
        assert streams.mask[:cut].all()
        assert not streams.mask[cut:].any()
        assert np.all(streams.attended[cut:] == 0)


class TestSynth:
    def test_determinism(self):
        cfg = dataio.SynthConfig(n_trials=4, duration_s=6.0, n_channels=3,
                                 seed=42)
        a = dataio.synth_generate(cfg)
        b = dataio.synth_generate(cfg)
        for ta, tb in zip(a.trials, b.trials):
            assert np.array_equal(ta.eeg.samples, tb.eeg.samples)
            for sa, sb in zip(ta.speakers, tb.speakers):
                assert np.array_equal(sa.envelope, sb.envelope)

    def test_trial_order_invariance(self):
        # per-trial substreams: a longer session reproduces the shorter one
        small = dataio.synth_generate(
            dataio.SynthConfig(n_trials=3, duration_s=5.0, n_channels=2,
                               seed=13)
        )
        big = dataio.synth_generate(
            dataio.SynthConfig(n_trials=6, duration_s=5.0, n_channels=2,
                               seed=13)
        )
        for ta, tb in zip(small.trials, big.trials[:3]):
            assert np.array_equal(ta.eeg.samples, tb.eeg.samples)

    def test_envelopes_nonnegative(self):
        cfg = dataio.SynthConfig(n_trials=3, duration_s=5.0, n_channels=2,
                                 seed=3)
        for trial in dataio.synth_generate(cfg).trials:
            for s in trial.speakers:
                assert np.all(s.envelope >= 0)

    def test_group_assignment(self):
        cfg = dataio.SynthConfig(n_trials=6, duration_s=5.0, n_channels=2,
                                 seed=3, group_b_every=3)
        session = dataio.synth_generate(cfg)
        groups = [t.group for t in session.trials]
        assert groups == [1, 1, 2, 1, 1, 2]
        ids = [t.speaker_ids() for t in session.trials]
        assert all(i in (1, 2, 3) for i in ids[0])
        assert all(i in (4, 5, 6) for i in ids[2])

    @pytest.mark.parametrize("fs, duration_s", [(40.0, 10.01),
                                                (13.34, 30.0)])
    def test_duration_not_whole_samples(self, tmp_path, fs, duration_s):
        """A trial whose duration is not a whole number of samples lasts
        its EEG's round(duration_s * fs) samples, and so does its
        timeline; the session saves and loads back."""
        cfg = dataio.SynthConfig(n_trials=3, duration_s=duration_s, fs=fs,
                                 n_channels=2, seed=1,
                                 switch_times=[None, 4.0, None],
                                 tasks=[1, 2, 4])
        session = dataio.synth_generate(cfg)
        n = round(duration_s * fs)
        for trial in session.trials:
            assert trial.eeg.n_samples == n
            assert trial.timeline[-1].end_s == trial.duration_s == n / fs
        back = dataio.load_session(dataio.save_session(session, tmp_path))
        assert [t.timeline for t in back.trials] == [
            t.timeline for t in session.trials
        ]

    def test_switch_checked_against_samples(self):
        """A cue is checked against the samples a trial has: at 40 Hz a
        10.01 s trial holds 400 samples, so a cue at 10.005 s is after
        its end, and a 0.01 s trial holds none."""
        dataio.SynthConfig(n_trials=1, duration_s=10.01,
                           switch_times=[9.99]).validate()
        with pytest.raises(BadConfig, match="switch_times"):
            dataio.SynthConfig(n_trials=1, duration_s=10.01,
                               switch_times=[10.005]).validate()
        with pytest.raises(BadConfig, match="duration_s"):
            dataio.SynthConfig(duration_s=0.01).validate()

    def test_config_validation_names_field(self):
        with pytest.raises(BadConfig, match="snr"):
            dataio.SynthConfig(snr=0.0).validate()
        with pytest.raises(BadConfig, match="switch_times"):
            dataio.SynthConfig(n_trials=2, switch_times=[1.0]).validate()
        with pytest.raises(BadConfig, match="n_speakers"):
            dataio.SynthConfig(n_speakers=5).validate()
        with pytest.raises(BadConfig, match="seed"):
            dataio.SynthConfig(seed=-1).validate()

    @pytest.mark.parametrize("field, settings", [
        ("direction_gain", {"fs": 10.0, "direction_gain": 1.0}),
        ("direction_gain", {"fs": 13.3, "direction_gain": 0.1}),
        ("direction_gain", {"direction_gain": -1.0}),
        ("direction_gain", {"direction_gain": float("nan")}),
        ("direction_gain", {"direction_gain": float("inf")}),
        ("fs", {"fs": float("inf")}),
        ("fs", {"fs": float("nan")}),
        ("duration_s", {"duration_s": float("inf")}),
        ("duration_s", {"duration_s": float("nan")}),
        ("snr", {"snr": float("inf")}),
        ("interference_gain", {"interference_gain": float("nan")}),
        # rates the .aad header cannot store: one that reads back as
        # 40.0 Hz, and one over its uint32 millihertz field
        ("fs", {"fs": 40.0001}),
        ("fs", {"fs": 5e6, "duration_s": 1e-3}),
        ("duration_s", {"duration_s": 1e308}),
    ])
    def test_generate_rejects_bad_config(self, field, settings):
        """Each of these used to pass validation and then fail inside the
        generator (band edges the user never set, a bare ValueError or
        OverflowError), or, for a negative or NaN gain, be ignored."""
        cfg = dataio.SynthConfig(**{"n_trials": 1, "duration_s": 5.0,
                                    "n_channels": 2, **settings})
        with pytest.raises(BadConfig, match=f"^{field}: "):
            dataio.synth_generate(cfg)

    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_direction_gain_needs_three_channels(self, n_channels):
        """Each direction class adds its own spatial pattern, one of three
        orthonormal columns over the channels."""
        cfg = dataio.SynthConfig(n_trials=6, duration_s=10.0,
                                 n_channels=n_channels, direction_gain=1.0)
        with pytest.raises(BadConfig,
                           match="^direction_gain: .*n_channels"):
            dataio.synth_generate(cfg)

    def test_direction_gain_at_lowest_rate(self):
        """At 14 Hz the carrier band is 6-6.3 Hz."""
        cfg = dataio.SynthConfig(n_trials=1, duration_s=5.0, n_channels=3,
                                 fs=14.0, direction_gain=1.0, seed=2)
        plain = dataio.synth_generate(replace(cfg, direction_gain=0.0))
        coded = dataio.synth_generate(cfg)
        assert not np.array_equal(coded.trials[0].eeg.samples,
                                  plain.trials[0].eeg.samples)

    def test_load_config_rejects_unknown_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n_trials": 2, "bogus": 1}))
        with pytest.raises(BadConfig, match="bogus"):
            dataio.load_synth_config(p)

    def test_load_config_accepts_json_types(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n_trials": 2, "duration_s": 10,
                                 "switch_times": [None, 5], "tasks": None,
                                 "balance_directions": False}))
        cfg = dataio.load_synth_config(p)
        assert cfg.duration_s == 10 and cfg.switch_times == [None, 5]
        assert cfg.balance_directions is False

    @pytest.mark.parametrize("field", [
        {"n_trials": True}, {"n_trials": 2.0}, {"seed": "1"},
        {"snr": "5"}, {"duration_s": float("inf")}, {"subject": 3},
        {"balance_directions": 1}, {"tasks": [1.0], "n_trials": 1},
        {"active_channels": "0"}, {"switch_times": [[1.0]], "n_trials": 1},
    ], ids=lambda field: "{}={}".format(*next(iter(field.items()))))
    def test_load_config_rejects_wrong_type(self, tmp_path, field):
        """The first field has the wrong JSON type; the rest are valid."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(field))
        with pytest.raises(BadConfig,
                           match=f"^{next(iter(field))}: need .*, got "):
            dataio.load_synth_config(p)


class TestSerialization:
    def test_deterministic_model_bytes(self, rng):
        from aadkit.linear import WfModel

        m = WfModel(rng.standard_normal(12), 0.5, 4, 3)
        assert dataio.serialize_model(m) == dataio.serialize_model(m)

    def test_distinct_weights_distinct_bytes(self, rng):
        from aadkit.linear import WfModel

        a = WfModel(rng.standard_normal(6), 0.5, 3, 2)
        b = WfModel(a.w + 1e-12, 0.5, 3, 2)
        assert dataio.serialize_model(a) != dataio.serialize_model(b)


class TestExport:
    def _report(self, rng, trial_id="t000"):
        from aadkit import metrics

        report = metrics.MetricsReport("wf", "loto", 30.0)
        for i in range(5):
            rhos = tuple(rng.uniform(-1, 1, 3))
            d = metrics.decide_window(rhos, 0)
            report.windows.append(
                metrics.WindowRecord(trial_id, i, d.predicted, 0, rhos,
                                     d.correct, d.tie)
            )
        report.folds.append(
            metrics.FoldResult(0, (trial_id,), {"lam": 1.0, "L": 8}, 0.8,
                               0.5, 5, b"modelbytes")
        )
        report.time_pcc[trial_id] = (
            ("spk1", "spk2"),
            rng.uniform(-1, 1, (6, 2)),
        )
        return metrics.finalize_report(report)

    def test_roundtrip_and_idempotent(self, tmp_path, rng):
        report = self._report(rng)
        paths = dataio.export_results(report, tmp_path)
        first = {p: p.read_bytes() for p in paths}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["accuracy"]["mean"] == report.accuracy
        assert summary["n_windows"] == 5
        dataio.export_results(report, tmp_path)
        for p, content in first.items():
            assert p.read_bytes() == content

    def test_window_csv_rows(self, tmp_path, rng):
        report = self._report(rng)
        dataio.export_results(report, tmp_path)
        lines = (tmp_path / "windows.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5
        tlines = (tmp_path / "time_pcc.csv").read_text().strip().splitlines()
        assert len(tlines) == 1 + 6 * 2

    def test_names_with_commas_and_quotes_keep_their_columns(self, tmp_path,
                                                             rng):
        """Standard CSV quoting: a trial id or channel name holding a comma
        or a quote reads back whole, in its own column."""
        report = self._report(rng, trial_id='a,"b')
        report.channel_names = ["c,0", "c1"]
        report.channel_max_abs = np.array([0.5, 0.25])
        report.channel_mean_sq = np.array([0.125, 1.0])
        dataio.export_results(report, tmp_path)
        rows = {}
        for name, width in (("windows.csv", 8), ("time_pcc.csv", 4),
                            ("channel_stats.csv", 3)):
            with open(tmp_path / name, newline="") as fh:
                rows[name] = list(csv.reader(fh))
            assert {len(row) for row in rows[name]} == {width}
        assert len(rows["windows.csv"]) == 1 + 5
        assert len(rows["time_pcc.csv"]) == 1 + 6 * 2
        for name in ("windows.csv", "time_pcc.csv"):
            assert {row[0] for row in rows[name][1:]} == {'a,"b'}
        assert rows["time_pcc.csv"][1][2] == "spk1"
        assert rows["channel_stats.csv"][1:] == [["c,0", "0.5", "0.125"],
                                                 ["c1", "0.25", "1.0"]]


class TestWav:
    def test_16bit_roundtrip(self, tmp_path, rng):
        import wave

        samples = (rng.uniform(-0.5, 0.5, 8000) * 32767).astype(np.int16)
        p = tmp_path / "x.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(samples.tobytes())
        audio = dataio.read_wav(p)
        assert audio.fs == 16000
        assert np.allclose(audio.samples, samples / 32768.0, atol=1e-9)

    def test_24bit(self, tmp_path):
        import wave

        vals = np.array([0, 1 << 22, -(1 << 22)], dtype=np.int32)
        raw = b"".join(
            int(v & 0xFFFFFF).to_bytes(3, "little") for v in vals
        )
        p = tmp_path / "y.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(3)
            fh.setframerate(16000)
            fh.writeframes(raw)
        audio = dataio.read_wav(p)
        assert np.allclose(audio.samples, [0.0, 0.5, -0.5])

    @pytest.mark.parametrize("fs, frames, match", [
        (4000, b"\x00\x01" * 100, "below 8 kHz"),
        (16000, b"", "no whole audio frames"),
    ], ids=["4khz", "empty"])
    def test_unusable_audio_is_io_error(self, tmp_path, fs, frames, match):
        import wave

        p = tmp_path / "z.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(fs)
            fh.writeframes(frames)
        with pytest.raises(IoError, match=match):
            dataio.read_wav(p)
