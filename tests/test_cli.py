import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*argv, env=None):
    import os

    e = dict(os.environ)
    e.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "aadkit.cli", *argv],
        capture_output=True,
        text=True,
        env=e,
    )


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "n_trials": 10, "duration_s": 30.0, "n_channels": 4,
        "snr": 5.0, "seed": 5,
    }))
    out = tmp / "sess"
    r = run_cli("synth", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    return tmp, out


@pytest.fixture(scope="module")
def grid_file(session_dir):
    tmp, _ = session_dir
    p = tmp / "grid.json"
    p.write_text(json.dumps({"lam": [0.1, 10.0], "L": [8]}))
    return p


class TestSynth:
    def test_manifest_written(self, session_dir):
        _, out = session_dir
        assert (out / "manifest.json").exists()

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n_trials": 2, "snr": -1.0}))
        r = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "snr" in r.stderr
        assert r.stderr.startswith("error: config:")

    def test_same_seed_byte_identical(self, session_dir, tmp_path):
        tmp, out = session_dir
        r = run_cli("synth", "--config", str(tmp / "cfg.json"),
                    "--out", str(tmp_path / "again"))
        assert r.returncode == 0
        a = hashlib.sha256((out / "arrays/t000_eeg.aad").read_bytes())
        b = hashlib.sha256(
            (tmp_path / "again/arrays/t000_eeg.aad").read_bytes()
        )
        assert a.hexdigest() == b.hexdigest()


class TestRun:
    def test_wf_nested_summary_line(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "nested_loto",
                    "--window", "30", "--folds", "5",
                    "--grid", str(grid_file), "--out", str(tmp_path / "out"))
        assert r.returncode == 0, r.stderr
        line = r.stdout.strip().splitlines()[-1]
        assert line.startswith("model=wf protocol=nested_loto window=30")
        acc = float(line.split("acc=")[1].split()[0])
        assert acc >= 0.9
        for name in ("summary.json", "windows.csv", "time_pcc.csv",
                     "channel_stats.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_unknown_model_exit_2(self, session_dir, tmp_path):
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "nope", "--protocol", "loto", "--window", "30",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config:")

    @pytest.mark.parametrize("field", [
        pytest.param({"budget": 0}, id="0"),
        pytest.param({"budget": -1}, id="-1"),
        pytest.param({"budget": 2.5}, id="2.5"),
        pytest.param({"budget": "3"}, id="str3"),
        pytest.param({"budget": True}, id="True"),
        pytest.param({"seed": "x"}, id="seed-x"),
    ])
    def test_grid_budget_below_one_exit_2(self, session_dir, tmp_path,
                                          field):
        """A grid budget below one, or a budget or seed that is not a JSON
        integer, is a configuration error."""
        _, sess = session_dir
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 10.0], "L": [8], **field}))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config:")
        assert "Traceback" not in r.stderr

    def test_missing_manifest_exit_4(self, tmp_path):
        r = run_cli("run", "--manifest", str(tmp_path / "absent.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 4
        assert r.stderr.startswith("error: data:")

    def test_deterministic_outputs(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        digests = []
        for name in ("a", "b"):
            r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                        "--model", "wf", "--protocol", "loto",
                        "--window", "10", "--folds", "5", "--seed", "3",
                        "--grid", str(grid_file),
                        "--out", str(tmp_path / name))
            assert r.returncode == 0, r.stderr
            payload = b"".join(
                (tmp_path / name / f).read_bytes()
                for f in ("summary.json", "windows.csv")
            )
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

    def test_deterministic_cca_outputs(self, session_dir, tmp_path):
        # eigh/SVD under the default (multithreaded) BLAS
        _, sess = session_dir
        payloads = []
        for name in ("a", "b"):
            r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                        "--model", "cca", "--protocol", "loto",
                        "--window", "10", "--folds", "2",
                        "--out", str(tmp_path / name))
            assert r.returncode == 0, r.stderr
            payloads.append(b"".join(
                (tmp_path / name / f).read_bytes()
                for f in ("summary.json", "windows.csv")
            ))
        assert payloads[0] == payloads[1]

    def test_lapack_failure_exit_5(self, session_dir, tmp_path, monkeypatch,
                                   capsys):
        from aadkit import cli

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "svd", fail)
        _, sess = session_dir
        code = cli.main(["run", "--manifest", str(sess / "manifest.json"),
                         "--model", "cca", "--protocol", "loto",
                         "--window", "10", "--folds", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 5
        assert capsys.readouterr().err.startswith("error: numeric:")

    def test_group_tuning_two_subjects(self, tmp_path, grid_file):
        manifests = []
        for s, seed in (("a", 21), ("b", 22)):
            cfg = tmp_path / f"cfg_{s}.json"
            cfg.write_text(json.dumps({
                "n_trials": 8, "duration_s": 30.0, "n_channels": 3,
                "snr": 5.0, "seed": seed, "subject": f"sub{s}",
            }))
            out = tmp_path / f"sess_{s}"
            assert run_cli("synth", "--config", str(cfg),
                           "--out", str(out)).returncode == 0
            manifests.append(str(out / "manifest.json"))
        r = run_cli("run", "--manifest", manifests[0], "--manifest",
                    manifests[1], "--group-tuning", "--model", "wf",
                    "--protocol", "nested_loto", "--window", "30",
                    "--folds", "4", "--grid", str(grid_file),
                    "--out", str(tmp_path / "grp"))
        assert r.returncode == 0, r.stderr
        assert len(r.stdout.strip().splitlines()) >= 2
        for s in ("suba", "subb"):
            assert (tmp_path / "grp" / s / "summary.json").exists()
        # both subjects share the same per-loop selections
        sa = json.loads((tmp_path / "grp/suba/summary.json").read_text())
        sb = json.loads((tmp_path / "grp/subb/summary.json").read_text())
        assert [f["params"] for f in sa["folds"]] == [
            f["params"] for f in sb["folds"]
        ]

    def test_config_file_flag_hybrid(self, session_dir, grid_file, tmp_path):
        tmp, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({
            "model": "wf", "protocol": "loto", "window": 30.0, "folds": 5,
            "grid": str(grid_file),
        }))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--config", str(conf), "--out", str(tmp_path / "o"))
        assert r.returncode == 0, r.stderr
        assert "protocol=loto" in r.stdout

    def test_config_group_tuning_and_jobs_applied(self, session_dir,
                                                  tmp_path, monkeypatch):
        from aadkit import cli, crossval

        calls = []

        def record(sessions, *args, **kwargs):
            calls.append(kwargs)
            return [], []

        def per_subject(*args, **kwargs):
            raise AssertionError("took the per-subject path")

        monkeypatch.setattr(crossval, "run_pipeline_group", record)
        monkeypatch.setattr(crossval, "run_pipeline", per_subject)
        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({
            "group_tuning": True, "jobs": 2, "model": "wf",
            "protocol": "loto", "window": 30,
        }))
        manifest = str(sess / "manifest.json")
        code = cli.main(["run", "--manifest", manifest, "--manifest",
                         manifest, "--config", str(conf),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(calls) == 1 and calls[0]["jobs"] == 2

    @pytest.mark.parametrize("field", ["out", "manifest"])
    def test_config_flag_only_field_exit_2(self, session_dir, grid_file,
                                           tmp_path, capsys, field):
        from aadkit import cli

        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({field: str(tmp_path / "x")}))
        code = cli.main(["run", "--manifest", str(sess / "manifest.json"),
                         "--model", "wf", "--protocol", "loto",
                         "--window", "30", "--folds", "2",
                         "--grid", str(grid_file), "--config", str(conf),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("field", [
        pytest.param({"window": "ten"}, id="window-ten"),
        pytest.param({"seed": "abc"}, id="seed-abc"),
        pytest.param({"folds": 2.5}, id="folds-2.5"),
    ])
    def test_config_value_not_convertible_exit_2(self, session_dir,
                                                 tmp_path, field):
        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"model": "wf", "protocol": "loto",
                                    "window": 30, **field}))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--config", str(conf), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: config: {next(iter(field))}:")
        assert "Traceback" not in r.stderr

    def test_config_value_converted_like_flag(self, session_dir, grid_file,
                                              tmp_path):
        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"window": "10", "folds": "5"}))
        common = ("run", "--manifest", str(sess / "manifest.json"),
                  "--model", "wf", "--protocol", "loto",
                  "--grid", str(grid_file))
        by_flag = run_cli(*common, "--window", "10", "--folds", "5",
                          "--out", str(tmp_path / "flag"))
        by_config = run_cli(*common, "--config", str(conf),
                            "--out", str(tmp_path / "conf"))
        assert by_flag.returncode == 0, by_flag.stderr
        assert by_config.returncode == 0, by_config.stderr
        assert by_config.stdout == by_flag.stdout
        for name in ("summary.json", "windows.csv"):
            assert ((tmp_path / "conf" / name).read_bytes()
                    == (tmp_path / "flag" / name).read_bytes())


class TestSettings:
    @pytest.mark.parametrize("command", ["run", "ablate", "track"])
    def test_optional_flags_are_config_fields(self, command, tmp_path):
        """Every optional flag of the command is also a config field, and
        the required flags are not."""
        import argparse

        from aadkit import cli

        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices[command]._actions
        optional = {a.dest for a in actions
                    if a.option_strings and not a.required}
        required = {a.dest for a in actions if a.required}
        assert optional - {"help", "config"} == set(
            cli._COMMAND_SETTINGS[command]
        )
        assert not required & set(cli._COMMAND_SETTINGS[command])


class TestAblate:
    def test_layout_directories(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_trials": 8, "duration_s": 30.0, "n_channels": 16,
            "snr": 3.0, "seed": 6, "active_channels": [0, 1, 2, 3],
        }))
        sess = tmp_path / "sess"
        assert run_cli("synth", "--config", str(cfg),
                       "--out", str(sess)).returncode == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [1.0], "L": [8]}))
        layouts = tmp_path / "layouts.json"
        layouts.write_text(json.dumps(["full", "upper", "lower"]))
        r = run_cli("ablate", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--folds", "4", "--grid", str(grid),
                    "--layouts", str(layouts), "--out", str(tmp_path / "ab"))
        assert r.returncode == 0, r.stderr
        for name in ("full", "upper", "lower"):
            assert (tmp_path / "ab" / name / "summary.json").exists()
        full = json.loads(
            (tmp_path / "ab/full/summary.json").read_text()
        )
        upper = json.loads(
            (tmp_path / "ab/upper/summary.json").read_text()
        )
        lower = json.loads(
            (tmp_path / "ab/lower/summary.json").read_text()
        )
        assert upper["accuracy"]["mean"] >= lower["accuracy"]["mean"]
        assert full["accuracy"]["mean"] >= 0.9

    def test_empty_layouts_exit_2(self, session_dir, tmp_path):
        _, sess = session_dir
        layouts = tmp_path / "layouts.json"
        layouts.write_text("[]")
        r = run_cli("ablate", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--layouts", str(layouts), "--out", str(tmp_path / "o"))
        assert r.returncode == 2


class TestTrack:
    def test_classifier_rejected(self, session_dir, tmp_path):
        _, sess = session_dir
        r = run_cli("track", "--manifest", str(sess / "manifest.json"),
                    "--model", "csp", "--out", str(tmp_path / "o"))
        assert r.returncode == 2

    def test_rows_per_trial(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        r = run_cli("track", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--grid", str(grid_file),
                    "--folds", "5", "--out", str(tmp_path / "tr"))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "tr/time_pcc.csv").read_text().strip().splitlines()
        # 10 trials x 30 one-second segments x 3 speaker candidates
        assert len(lines) == 1 + 10 * 30 * 3

    def test_config_segment_applied(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        conf = tmp_path / "track.json"
        conf.write_text(json.dumps({"segment": 2.0}))
        r = run_cli("track", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--grid", str(grid_file),
                    "--folds", "5", "--config", str(conf),
                    "--out", str(tmp_path / "tr"))
        assert r.returncode == 0, r.stderr
        assert "segment=2" in r.stdout
        lines = (tmp_path / "tr/time_pcc.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10 * 15 * 3

    def test_within_trial_rejected(self, session_dir, tmp_path):
        _, sess = session_dir
        r = run_cli("track", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "within_trial",
                    "--window", "10", "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config:")
        assert "whole-trial" in r.stderr


class TestPreprocessEnvelope:
    def test_raw_to_preprocessed(self, tmp_path, rng):
        from aadkit import dataio
        from aadkit.preprocess import MultichannelSignal

        fs, dur = 125.0, 10.0
        t_len = int(fs * dur)
        trials = []
        for i in range(2):
            eeg = MultichannelSignal(
                rng.standard_normal((t_len, 3)), fs, ["c0", "c1", "ref"]
            )
            speakers = [
                dataio.SpeakerTrack(
                    s + 1, (-60.0, 0.0, 60.0)[s],
                    np.abs(rng.standard_normal(t_len)), fs,
                )
                for s in range(3)
            ]
            trials.append(dataio.Trial(
                trial_id=f"t{i:03d}", task=1, group=1, eeg=eeg,
                speakers=speakers,
                timeline=[dataio.TimelineSpan(0.0, dur, 1)],
            ))
        raw = dataio.Session("raw", fs, trials, preprocessed=False)
        raw_dir = tmp_path / "raw"
        dataio.save_session(raw, raw_dir)

        r = run_cli("preprocess", "--manifest", str(raw_dir / "manifest.json"),
                    "--out", str(tmp_path / "prep"), "--ref", "ref")
        assert r.returncode == 0, r.stderr
        prep = dataio.load_session(tmp_path / "prep/manifest.json")
        assert prep.preprocessed
        assert prep.fs == 40.0
        assert prep.trials[0].eeg.n_channels == 2  # reference dropped
        assert prep.trials[0].eeg.n_samples == 400

    def test_raw_chain_preserves_decodability(self, tmp_path):
        """Forward-model EEG at 125 Hz survives the full conditioning
        chain and decodes after resampling to 40 Hz."""
        from aadkit import crossval, dataio
        from aadkit.preprocess import MultichannelSignal

        fs, dur, n_ch, klags = 125.0, 30.0, 6, 20
        t_len = int(fs * dur)
        krng = np.random.default_rng(17)
        h = krng.standard_normal((n_ch, klags))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        trials = []
        for i in range(10):
            r = np.random.default_rng([17, i])
            envs = []
            for _ in range(3):
                raw = np.abs(r.standard_normal(t_len)) ** 0.6
                w = np.hanning(33)[1:-1]
                envs.append(np.convolve(raw, w / w.sum(), mode="same"))
            att = i % 3
            centered = [(e - e.mean()) / e.std() for e in envs]
            eeg = r.standard_normal((t_len, n_ch))
            for c in range(n_ch):
                eeg[:, c] += 5.0 * np.convolve(centered[att], h[c])[:t_len]
            speakers = [
                dataio.SpeakerTrack(s + 1, (-60.0, 0.0, 60.0)[s], envs[s], fs)
                for s in range(3)
            ]
            trials.append(dataio.Trial(
                f"t{i:03d}", 1, 1, MultichannelSignal(eeg, fs), speakers,
                [dataio.TimelineSpan(0.0, dur, att + 1)],
            ))
        raw_dir = tmp_path / "raw"
        dataio.save_session(
            dataio.Session("rawsub", fs, trials, preprocessed=False), raw_dir
        )
        r = run_cli("preprocess", "--manifest", str(raw_dir / "manifest.json"),
                    "--out", str(tmp_path / "prep"))
        assert r.returncode == 0, r.stderr
        sess = dataio.load_session(tmp_path / "prep/manifest.json")
        assert sess.fs == 40.0
        plan = crossval.make_folds(sess.trials, "loto", 5, seed=0)
        grid = crossval.HyperGrid({"lam": [1.0, 100.0], "L": [11]})
        rep = crossval.run_pipeline(sess, "wf", plan, grid, 30.0)
        assert rep.accuracy >= 0.9

    def test_wav_to_envelope(self, tmp_path, rng):
        import wave

        p = tmp_path / "x.wav"
        samples = (rng.uniform(-0.4, 0.4, 16000) * 32767).astype(np.int16)
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(samples.tobytes())
        out = tmp_path / "env.aad"
        r = run_cli("envelope", "--audio", str(p), "--out", str(out))
        assert r.returncode == 0, r.stderr
        from aadkit import dataio

        env, fs = dataio.read_array(out)
        assert fs == 40.0
        assert env.shape[0] == 40
        assert np.all(env >= 0)

    def test_irrational_rate_exit_4(self, tmp_path, rng):
        import wave

        p = tmp_path / "x.wav"
        samples = (rng.uniform(-0.4, 0.4, 16000) * 32767).astype(np.int16)
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(samples.tobytes())
        r = run_cli("envelope", "--audio", str(p), "--out",
                    str(tmp_path / "env.aad"), "--to-fs", "39.9999")
        assert r.returncode == 4
        assert r.stderr.startswith("error: data:")
        assert "Traceback" not in r.stderr


class TestConvert:
    def test_npz_conversion(self, tmp_path, rng):
        src = tmp_path / "src"
        src.mkdir()
        fs, t_len = 125.0, 1250
        for i in range(2):
            np.savez(
                src / f"trial_{i}.npz",
                eeg=rng.standard_normal((t_len, 4)),
                fs_eeg=fs,
                envelopes=np.abs(rng.standard_normal((t_len, 3))),
                env_fs=fs,
                speaker_ids=np.array([1, 2, 3]),
                directions_deg=np.array([-60.0, 0.0, 60.0]),
                task=2,
                attended_sequence=np.array([1, 3]),
                switch_s=np.float64(5.0),
            )
        r = run_cli("convert-dataset", "--src", str(src),
                    "--out", str(tmp_path / "conv"))
        assert r.returncode == 0, r.stderr
        from aadkit import dataio

        sess = dataio.load_session(tmp_path / "conv/manifest.json")
        assert len(sess.trials) == 2
        assert not sess.preprocessed
        assert sess.trials[0].timeline[1].attended == 3

    def test_empty_source_exit_4(self, tmp_path):
        (tmp_path / "empty").mkdir()
        r = run_cli("convert-dataset", "--src", str(tmp_path / "empty"),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 4
