import hashlib
import json
import shutil
import subprocess
import sys
import wave

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


def write_wav(path, samples, fs, n_channels=1):
    """16-bit PCM; ``samples`` in [-1, 1], channels interleaved."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(n_channels)
        fh.setsampwidth(2)
        fh.setframerate(fs)
        pcm = np.clip(samples, -1.0, 1.0) * 32767
        fh.writeframes(pcm.astype("<i2").tobytes())


def raw_session(root, lengths, env_fs=125.0, channels=("c0", "c1", "ref")):
    """Save a raw 125 Hz session, one task-1 trial of ``channels`` per EEG
    length, with white-noise envelopes at ``env_fs`` covering the same
    time; returns the manifest path."""
    from aadkit import dataio
    from aadkit.preprocess import MultichannelSignal

    rng = np.random.default_rng(0)
    trials = []
    for i, t_len in enumerate(lengths):
        n_env = int(t_len * env_fs / 125.0)
        speakers = [
            dataio.SpeakerTrack(s + 1, (-60.0, 0.0, 60.0)[s],
                                np.abs(rng.standard_normal(n_env)), env_fs)
            for s in range(3)
        ]
        trials.append(dataio.Trial(
            f"t{i:03d}", 1, 1,
            MultichannelSignal(rng.standard_normal((t_len, len(channels))),
                               125.0, list(channels)),
            speakers, [dataio.TimelineSpan(0.0, t_len / 125.0, 1)],
        ))
    return dataio.save_session(
        dataio.Session("raw", 125.0, trials, preprocessed=False), root
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

    @pytest.mark.parametrize("config, field", [
        pytest.param({"n_trials": 2, "snr": -1.0}, "snr", id="snr-negative"),
        pytest.param({"n_trials": "x"}, "n_trials", id="n_trials-str"),
        pytest.param({"n_trials": 2.5}, "n_trials", id="n_trials-float"),
        pytest.param({"tasks": 5}, "tasks", id="tasks-int"),
        pytest.param({"n_trials": 1, "switch_times": ["x"]}, "switch_times",
                     id="switch_times-str-item"),
        pytest.param({"balance_directions": "no"}, "balance_directions",
                     id="balance_directions-str"),
        pytest.param([1, 2], "config", id="list"),
        pytest.param({"n_trials": 2, "seed": -1}, "seed", id="seed-negative"),
        pytest.param({"n_trials": 6, "duration_s": 10, "n_channels": 2,
                      "direction_gain": 1.0}, "direction_gain",
                     id="direction_gain-two-channels"),
        # a session at 40.0001 Hz would be stored as 40 Hz, so that its
        # manifest and arrays disagree; 5 MHz overflows the header field
        pytest.param({"n_trials": 1, "duration_s": 1, "fs": 40.0001}, "fs",
                     id="fs-not-stored"),
        pytest.param({"n_trials": 1, "duration_s": 1e-3, "fs": 5e6}, "fs",
                     id="fs-over-header"),
        pytest.param({"duration_s": 1e300, "fs": 1e10}, "fs",
                     id="fs-1e10"),
        pytest.param({"n_trials": 1, "duration_s": 1e308}, "duration_s",
                     id="duration-overflows-samples"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, config, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        r = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: config: {field}:")
        assert "Traceback" not in r.stderr

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


def _copied_session(session_dir, tmp, edit):
    """Copy of the module session whose manifest dict ``edit`` changes."""
    _, sess = session_dir
    shutil.copytree(sess, tmp / "sess")
    manifest = tmp / "sess/manifest.json"
    spec = json.loads(manifest.read_text())
    edit(manifest.parent, spec)
    manifest.write_text(json.dumps(spec))
    return manifest


def _nan_envelope(root, spec):
    from aadkit import dataio

    path = root / spec["trials"][1]["speakers"][0]["envelope"]
    samples, fs = dataio.read_array(path)
    samples[7] = np.nan
    dataio.write_array(path, samples, fs)


def _synth_invalid_band(tmp, session_dir):
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"fs": 12, "direction_gain": 1}))
    return ["synth", "--config", cfg, "--out", tmp / "o"]


def _preprocess_out_below_file(tmp, session_dir):
    (tmp / "file").write_text("")
    return ["preprocess", "--manifest", raw_session(tmp / "raw", [1250]),
            "--out", tmp / "file/o"]


def _run_speaker_without_id(tmp, session_dir):
    manifest = _copied_session(
        session_dir, tmp,
        lambda root, spec: spec["trials"][0]["speakers"][1].pop("id"),
    )
    return ["run", "--manifest", manifest, "--model", "wf", "--protocol",
            "loto", "--window", "30", "--out", tmp / "o"]


def _run_nan_envelope(tmp, session_dir):
    manifest = _copied_session(session_dir, tmp, _nan_envelope)
    return ["run", "--manifest", manifest, "--model", "wf", "--protocol",
            "loto", "--window", "30", "--out", tmp / "o"]


def _run_duplicate_trial_id(tmp, session_dir):
    # every fold plan would put t000 in two folds
    manifest = _copied_session(
        session_dir, tmp,
        lambda root, spec: spec["trials"][1].update(
            id=spec["trials"][0]["id"]),
    )
    return ["run", "--manifest", manifest, "--model", "wf", "--protocol",
            "loto", "--window", "30", "--out", tmp / "o"]


def _run_rgc_shrinkage_over_one(tmp, session_dir):
    # the grid check takes any weight >= 0; the first RGC fit refuses it
    _, sess = session_dir
    grid = tmp / "grid.json"
    grid.write_text(json.dumps({"rgc_shrinkage": [5.0], "lda_gamma": [1e-3]}))
    return ["run", "--manifest", sess / "manifest.json", "--model", "rgc",
            "--protocol", "loto", "--window", "10", "--grid", grid,
            "--out", tmp / "o"]


def _preprocess_nan_envelope(tmp, session_dir):
    manifest = raw_session(tmp / "raw", [1250, 1250])
    _nan_envelope(manifest.parent, json.loads(manifest.read_text()))
    return ["preprocess", "--manifest", manifest, "--out", tmp / "o"]


def _envelope_4khz(tmp, session_dir):
    write_wav(tmp / "a.wav", np.zeros(4000), 4000)
    return ["envelope", "--audio", tmp / "a.wav", "--out", tmp / "e.aad"]


def _envelope_stereo(tmp, session_dir):
    write_wav(tmp / "a.wav", np.zeros(32000), 16000, n_channels=2)
    return ["envelope", "--audio", tmp / "a.wav", "--out", tmp / "e.aad"]


def _preprocess_ref_only_channel(tmp, session_dir):
    return ["preprocess", "--manifest",
            raw_session(tmp / "raw", [1250], channels=("ref",)),
            "--ref", "0", "--out", tmp / "o"]


def _preprocess_band_triple(tmp, session_dir):
    return ["preprocess", "--manifest", raw_session(tmp / "raw", [1250]),
            "--band", "1,2,3", "--out", tmp / "o"]


@pytest.mark.parametrize("argv, code, category", [
    pytest.param(_synth_invalid_band, 2, "config", id="synth-invalid-band"),
    pytest.param(_preprocess_out_below_file, 4, "io",
                 id="preprocess-out-below-file"),
    pytest.param(_run_speaker_without_id, 4, "data",
                 id="run-speaker-without-id"),
    pytest.param(_run_nan_envelope, 4, "data", id="run-nan-envelope"),
    pytest.param(_run_duplicate_trial_id, 4, "data",
                 id="run-duplicate-trial-id"),
    pytest.param(_run_rgc_shrinkage_over_one, 2, "config",
                 id="run-rgc-shrinkage-over-one"),
    pytest.param(_preprocess_nan_envelope, 4, "data",
                 id="preprocess-nan-envelope"),
    pytest.param(_preprocess_ref_only_channel, 4, "data",
                 id="preprocess-ref-only-channel"),
    pytest.param(_envelope_4khz, 3, "io", id="envelope-4khz-wav"),
    pytest.param(_envelope_stereo, 3, "io", id="envelope-stereo-wav"),
    pytest.param(_preprocess_band_triple, 2, "argument --band",
                 id="preprocess-band-triple"),
])
def test_exit_code_table(session_dir, tmp_path, argv, code, category):
    """Malformed input exits with the code and stderr category of its
    kind, never with a traceback."""
    r = run_cli(*map(str, argv(tmp_path, session_dir)))
    assert r.returncode == code, r.stderr
    assert f"error: {category}:" in r.stderr.splitlines()[-1]
    assert "Traceback" not in r.stderr


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

    def test_grid_budget_unknown_exit_2(self, session_dir, tmp_path):
        """Every point of a grid is searched, so a grid file's ``budget``
        is an unknown key, a configuration error."""
        _, sess = session_dir
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 10.0], "L": [8],
                                    "budget": 1}))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config: grid: budget unknown")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, grid, key", [
        pytest.param("wf", {"lam": ["x"], "L": [6]}, "lam", id="lam-str"),
        pytest.param("wf", {"lam": [-1], "L": [6]}, "lam", id="lam-negative"),
        pytest.param("wf", {"lam": [float("inf")], "L": [6]}, "lam",
                     id="lam-inf"),
        pytest.param("wf", {"lam": [True], "L": [6]}, "lam", id="lam-bool"),
        pytest.param("wf", {"L": ["a"], "lam": [1]}, "L", id="L-str"),
        pytest.param("wf", {"L": [2.5], "lam": [1]}, "L", id="L-float"),
        pytest.param("wf", {"L": [0], "lam": [1]}, "L", id="L-zero"),
        pytest.param("wf", {"lam": [1]}, "L", id="L-missing"),
        pytest.param("wf", {"lam": [1], "L": [6], "lamda": [1, 2]}, "lamda",
                     id="unknown-key"),
        pytest.param("cca", {"reg": [1], "L": [6], "n_components": [2]},
                     "L_y", id="cca-L_y-missing"),
        pytest.param("cca", {"reg": [-0.5], "L": [6], "L_y": [6],
                             "n_components": [2]}, "reg",
                     id="cca-reg-negative"),
    ])
    def test_grid_value_rejected_exit_2(self, session_dir, tmp_path, model,
                                        grid, key):
        """A grid that lacks a key of the model or has one the model does
        not take, or holds a value that is not a finite number in the
        key's range, is a configuration error naming the key."""
        _, sess = session_dir
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", model, "--protocol", "loto", "--window", "30",
                    "--grid", str(path), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: config: grid: {key} ")
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

    def test_rank_deficient_cca_exit_5(self, tmp_path, capsys):
        from aadkit import cli, dataio

        session = dataio.synth_generate(dataio.SynthConfig(
            n_trials=4, duration_s=10.0, n_channels=3, snr=5.0, seed=9))
        for trial in session.trials:
            trial.eeg.samples[:, 2] = trial.eeg.samples[:, 0]
        manifest = dataio.save_session(session, tmp_path / "sess")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"reg": [0.0, 1.0], "L": [4],
                                    "L_y": [5], "n_components": [1]}))
        code = cli.main(["run", "--manifest", str(manifest),
                         "--model", "cca", "--protocol", "loto",
                         "--window", "10", "--folds", "2",
                         "--grid", str(grid), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: inv_sqrt requires SPD input")

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

    def test_group_tuning_one_manifest_exports_the_same(
            self, session_dir, grid_file, tmp_path, capsys):
        """A group of one session tunes like a per-subject run."""
        from aadkit import cli

        _, sess = session_dir
        argv = ["run", "--manifest", str(sess / "manifest.json"),
                "--model", "wf", "--protocol", "nested_loto", "--window",
                "10", "--folds", "3", "--grid", str(grid_file)]
        outs = []
        for group in (False, True):
            out = tmp_path / f"o{int(group)}"
            code = cli.main(argv + ["--out", str(out)]
                            + ["--group-tuning"] * group)
            assert code == 0
            outs.append((capsys.readouterr().out,
                         {p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}))
        assert outs[0][1]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model", ["wf", "cca"])
    def test_nested_loto_two_folds_exit_2(self, session_dir, tmp_path,
                                          capsys, model):
        from aadkit import cli

        _, sess = session_dir
        code = cli.main(["run", "--manifest", str(sess / "manifest.json"),
                         "--model", model, "--protocol", "nested_loto",
                         "--window", "30", "--folds", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: config: nested_loto needs >= 3 folds")

    @pytest.mark.parametrize("model, protocol, folds, window, message", [
        ("cca", "loto", "2", "0.2", "L_y: 11 lags exceed the decision "
                                    "window, 8 samples"),
        ("wf", "within_trial", "3", "0.4", "L: 21 lags exceed the shortest "
                                           "trial or segment, 16 samples"),
    ], ids=["cca-L_y-over-window", "wf-L-over-unit"])
    def test_lags_over_limit_exit_2(self, ten_second_session, tmp_path,
                                    capsys, model, protocol, folds, window,
                                    message):
        from aadkit import cli

        code = cli.main(["run", "--manifest", ten_second_session(),
                         "--model", model, "--protocol", protocol,
                         "--folds", folds, "--window", window,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("group", [False, True],
                             ids=["per-subject", "group-tuning"])
    @pytest.mark.parametrize("second, lags, segment, message", [
        pytest.param(dict(duration_s=2.0), 100, "1",
                     "L: 100 lags exceed the shortest trial or segment, "
                     "80 samples", id="lags-over-second-trials"),
        pytest.param(dict(duration_s=20.0, fs=20.0), 4, "0.05",
                     "time_pcc_seg_s: 0.05 s is 1 samples at fs=20",
                     id="segment-under-two-samples-at-second-rate"),
    ])
    def test_every_session_checked_before_any_fit(
            self, tmp_path, capsys, monkeypatch, group, second, lags,
            segment, message):
        """A setting that only the second manifest's data refuses exits 2
        before the first manifest is fitted, tuned per subject or as a
        group."""
        from aadkit import cli, dataio, linear

        manifests = [
            str(dataio.save_session(dataio.synth_generate(dataio.SynthConfig(
                n_trials=6, n_channels=2, seed=i, subject=subject, **cfg)),
                tmp_path / subject))
            for i, (subject, cfg) in enumerate(
                [("a", dict(duration_s=20.0)), ("b", second)])
        ]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [1, 10], "L": [lags]}))
        fits = []
        monkeypatch.setattr(linear, "wf_fit", lambda *a: fits.append(a))
        argv = ["run", "--manifest", manifests[0], "--manifest",
                manifests[1], "--model", "wf", "--protocol", "loto",
                "--window", "1", "--folds", "2", "--grid", str(grid),
                "--segment", segment, "--out", str(tmp_path / "o")]
        code = cli.main(argv + ["--group-tuning"] * group)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config: {message}")
        assert not fits
        assert not (tmp_path / "o").exists()

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
        from aadkit import cli, crossval, dataio

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
            "group_tuning": True, "model": "wf",
            "protocol": "loto", "window": 30,
        }))
        manifest = str(sess / "manifest.json")
        # a second subject, since two manifests may not share one
        other = dataio.load_session(manifest)
        other.subject = "other"
        other = dataio.save_session(other, tmp_path / "other")
        code = cli.main(["run", "--manifest", manifest, "--manifest",
                         str(other), "--config", str(conf),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(calls) == 1

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


class TestChannels:
    """A --channels subset names at least one channel and no channel
    twice; run and ablate share the check."""

    @pytest.mark.parametrize("channels", [
        pytest.param(",", id="comma"),
        pytest.param(" , ", id="spaced-comma"),
        pytest.param("", id="empty"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_no_channel_named_exit_2(self, session_dir, grid_file, tmp_path,
                                     channels, source):
        _, sess = session_dir
        argv = ["run", "--manifest", str(sess / "manifest.json"),
                "--model", "wf", "--protocol", "loto", "--window", "30",
                "--folds", "2", "--grid", str(grid_file),
                "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--channels", channels]
        else:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"channels": channels}))
            argv += ["--config", str(conf)]
        r = run_cli(*argv)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: config: channels:")
        assert not (tmp_path / "o").exists()

    def test_duplicate_channel_exit_4(self, session_dir, grid_file,
                                      tmp_path):
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--folds", "2", "--grid", str(grid_file),
                    "--channels", "ch00,ch00,ch01",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 4, r.stderr
        assert r.stderr.startswith("error: data:")
        assert "ch00" in r.stderr
        assert not (tmp_path / "o").exists()

    def test_duplicate_layout_channel_exit_4(self, session_dir, tmp_path):
        """At reg 0 the repeated channel used to reach CCA as a singular
        covariance and exit 5."""
        _, sess = session_dir
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"reg": [0.0], "L": [4], "L_y": [4], "n_components": [2]}
        ))
        layouts = tmp_path / "layouts.json"
        layouts.write_text(json.dumps({"a": ["ch00", "ch00"]}))
        r = run_cli("ablate", "--manifest", str(sess / "manifest.json"),
                    "--model", "cca", "--protocol", "loto", "--window", "30",
                    "--folds", "2", "--grid", str(grid),
                    "--layouts", str(layouts), "--out", str(tmp_path / "o"))
        assert r.returncode == 4, r.stderr
        assert r.stderr.startswith("error: data:")
        assert "ch00" in r.stderr

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_csp_filters_over_channels_exit_2(self, session_dir, tmp_path,
                                              capsys, monkeypatch, command):
        """The default csp grid keeps 4 filters; two channels cannot give
        them, which is refused before any fit."""
        from aadkit import cli, spatial

        _, sess = session_dir
        fits = []
        monkeypatch.setattr(spatial, "csp_fit", lambda *a, **k: fits.append(a))
        argv = [command, "--manifest", str(sess / "manifest.json"),
                "--model", "csp", "--protocol", "loto", "--window", "10",
                "--folds", "2", "--out", str(tmp_path / "o")]
        if command == "run":
            argv += ["--channels", "ch00,ch01"]
        else:
            layouts = tmp_path / "layouts.json"
            layouts.write_text(json.dumps({"a": ["ch00", "ch01"]}))
            argv += ["--layouts", str(layouts)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: config: csp_f: 4 filters exceed the 2 channels")
        assert not fits
        assert not (tmp_path / "o").exists()


def _edit_t001_channels(edit):
    """Manifest edit: trial t001 lists its channels in reverse order, names
    and data alike, or leaves out its last channel."""
    def apply(root, spec):
        from aadkit import dataio

        trial = spec["trials"][1]
        samples, fs = dataio.read_array(root / trial["eeg"])
        cols = (list(range(samples.shape[1]))[::-1] if edit == "reversed"
                else list(range(samples.shape[1] - 1)))
        dataio.write_array(root / trial["eeg"], samples[:, cols], fs)
        trial["channels"] = [trial["channels"][c] for c in cols]
    return apply


class TestMixedChannels:
    @pytest.mark.parametrize("edit", ["reversed", "dropped"])
    @pytest.mark.parametrize("model", ["wf", "csp"])
    def test_exit_4_before_fit(self, session_dir, tmp_path, model, edit):
        manifest = _copied_session(session_dir, tmp_path,
                                   _edit_t001_channels(edit))
        r = run_cli("run", "--manifest", str(manifest), "--model", model,
                    "--protocol", "loto", "--window", "10", "--folds", "2",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 4, r.stderr
        assert r.stderr.startswith("error: data: trial t001: channel")
        assert not (tmp_path / "o").exists()

    def test_channels_flag_aligns_trials(self, session_dir, tmp_path):
        manifest = _copied_session(session_dir, tmp_path,
                                   _edit_t001_channels("reversed"))
        r = run_cli("run", "--manifest", str(manifest), "--model", "wf",
                    "--protocol", "loto", "--window", "10", "--folds", "2",
                    "--channels", "ch03,ch00", "--out", str(tmp_path / "o"))
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / "o/channel_stats.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["ch03", "ch00"]


@pytest.fixture(scope="module")
def short_session(tmp_path_factory):
    """Four 20 s trials: no 30 s decision window fits in any of them."""
    tmp = tmp_path_factory.mktemp("short")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "n_trials": 4, "duration_s": 20.0, "n_channels": 2, "seed": 5,
    }))
    assert run_cli("synth", "--config", str(cfg),
                   "--out", str(tmp / "sess")).returncode == 0
    grid = tmp / "grid.json"
    grid.write_text(json.dumps({"lam": [0.1, 10.0], "L": [4]}))
    return tmp / "sess" / "manifest.json", grid


class TestNoDecisionWindow:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_exit_4_before_export(self, short_session, tmp_path, command):
        manifest, grid = short_session
        argv = [command, "--manifest", str(manifest), "--model", "wf",
                "--protocol", "loto", "--window", "30", "--folds", "2",
                "--grid", str(grid), "--out", str(tmp_path / "o")]
        if command == "ablate":
            layouts = tmp_path / "layouts.json"
            layouts.write_text(json.dumps({"one": ["ch00"]}))
            argv += ["--layouts", str(layouts)]
        r = run_cli(*argv)
        assert r.returncode == 4, r.stderr
        assert r.stderr.startswith("error: data:")
        assert "30 s" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()


class TestSettings:
    @pytest.mark.parametrize("command", ["run", "ablate"])
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

    @pytest.mark.parametrize("argv, config, field", [
        pytest.param(["--seed", "-1"], {}, "seed", id="seed-flag"),
        pytest.param([], {"seed": -1}, "seed", id="seed-field"),
    ])
    def test_negative_seed_or_jobs_below_one_exit_2(
            self, session_dir, grid_file, tmp_path, capsys, argv, config,
            field):
        from aadkit import cli

        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(config))
        code = cli.main(["run", "--manifest", str(sess / "manifest.json"),
                         "--model", "wf", "--protocol", "loto",
                         "--window", "30", "--folds", "2",
                         "--grid", str(grid_file), "--config", str(conf),
                         "--out", str(tmp_path / "o"), *argv])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: config: {field}: must be >= ")

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_jobs_is_no_setting(self, session_dir, tmp_path, capsys,
                                command):
        """Outer loops run serially, so ``--jobs`` is an unknown flag and
        ``jobs`` an unknown config field: both exit 2."""
        from aadkit import cli

        _, sess = session_dir
        layouts = tmp_path / "layouts.json"
        layouts.write_text(json.dumps(["full"]))
        argv = [command, "--manifest", str(sess / "manifest.json"),
                "--model", "wf", "--out", str(tmp_path / "o")]
        if command == "ablate":
            argv += ["--layouts", str(layouts)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--jobs", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"jobs": 1}))
        assert cli.main(argv + ["--config", str(conf)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config: jobs: unknown config field")


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

    @pytest.mark.parametrize("layouts", [
        pytest.param([], id="empty"),
        pytest.param({"a": 5}, id="map-int"),
        pytest.param({"a": "ch00"}, id="map-str"),
        pytest.param(["nope"], id="unknown-preset"),
        pytest.param([5], id="int-preset"),
    ])
    def test_empty_layouts_exit_2(self, session_dir, tmp_path, layouts):
        """An empty layout list, a list entry that is not a preset name,
        or a mapping whose value is not a list of channel names, is a
        configuration error."""
        _, sess = session_dir
        path = tmp_path / "layouts.json"
        path.write_text(json.dumps(layouts))
        r = run_cli("ablate", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--layouts", str(path), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config: layouts:")
        assert "Traceback" not in r.stderr


@pytest.fixture(scope="module")
def ten_second_session(tmp_path_factory):
    """Four 10 s trials of three channels at 40 Hz; returns a factory of
    manifests, one per subject."""
    from aadkit import dataio

    root = tmp_path_factory.mktemp("ten")
    made = {}

    def manifest(subject="synth"):
        if subject not in made:
            cfg = dataio.SynthConfig(n_trials=4, duration_s=10.0,
                                     n_channels=3, seed=len(made),
                                     subject=subject)
            made[subject] = dataio.save_session(
                dataio.synth_generate(cfg), root / f"s{len(made)}")
        return str(made[subject])

    return manifest


class TestOutputNames:
    """A name read from an input file that becomes one path component of
    an output is refused before anything is written."""

    def test_preprocess_trial_id(self, tmp_path):
        manifest = raw_session(tmp_path / "raw", [1250])
        spec = json.loads(manifest.read_text())
        spec["trials"][0]["id"] = "../../escaped"
        manifest.write_text(json.dumps(spec))
        r = run_cli("preprocess", "--manifest", str(manifest),
                    "--out", str(tmp_path / "p/deep/out"))
        assert r.returncode == 4, r.stderr
        assert r.stderr.startswith(
            "error: data: trial id: '../../escaped' is not a file name")
        assert not (tmp_path / "p").exists()

    def test_ablate_layout_name(self, ten_second_session, tmp_path):
        layouts = tmp_path / "layouts.json"
        layouts.write_text(json.dumps(
            {"../../ablate_escaped": ["ch00", "ch01"]}))
        r = run_cli("ablate", "--manifest", ten_second_session(),
                    "--model", "wf", "--protocol", "loto", "--window", "5",
                    "--folds", "2", "--layouts", str(layouts),
                    "--out", str(tmp_path / "o/deep/out"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: config: layouts: "
                                   "'../../ablate_escaped' is not a file name")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("group", [False, True],
                             ids=["per-subject", "group-tuning"])
    def test_run_subject(self, ten_second_session, tmp_path, capsys, group):
        from aadkit import cli

        argv = ["run", "--manifest", ten_second_session("suba"),
                "--manifest", ten_second_session("../../run_escaped"),
                "--model", "wf", "--protocol", "loto", "--window", "5",
                "--folds", "2", "--out", str(tmp_path / "r/deep/out")]
        code = cli.main(argv + ["--group-tuning"] * group)
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: data: subject: '../../run_escaped' is not a file name")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("group", [False, True],
                             ids=["per-subject", "group-tuning"])
    def test_run_duplicate_subject(self, ten_second_session, tmp_path,
                                   capsys, monkeypatch, group):
        # both sessions would export to --out/synth
        from aadkit import cli, dataio, linear

        copy = dataio.save_session(
            dataio.load_session(ten_second_session()), tmp_path / "copy")
        fits = []
        monkeypatch.setattr(linear, "wf_fit", lambda *a: fits.append(a))
        argv = ["run", "--manifest", ten_second_session(),
                "--manifest", str(copy), "--model", "wf",
                "--protocol", "loto", "--window", "5", "--folds", "2",
                "--out", str(tmp_path / "r/out")]
        code = cli.main(argv + ["--group-tuning"] * group)
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: data: subject: 'synth' is repeated")
        assert not fits
        assert not (tmp_path / "r").exists()


class TestTrack:
    """Switch tracking is ``run``'s time-PCC curves: ``--segment`` sets
    their resolution, only ``wf`` and ``cca`` on whole-trial protocols
    compute them, and other runs ignore it."""

    def test_rows_per_trial(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--grid", str(grid_file), "--folds", "5",
                    "--out", str(tmp_path / "tr"))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "tr/time_pcc.csv").read_text().strip().splitlines()
        # 10 trials x 30 one-second segments x 3 speaker candidates
        assert len(lines) == 1 + 10 * 30 * 3

    def test_config_segment_applied(self, session_dir, grid_file, tmp_path):
        _, sess = session_dir
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"segment": 2}))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30",
                    "--grid", str(grid_file), "--folds", "5",
                    "--config", str(conf), "--out", str(tmp_path / "tr"))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "tr/time_pcc.csv").read_text().strip().splitlines()
        # 10 trials x 15 two-second segments x 3 speaker candidates
        assert len(lines) == 1 + 10 * 15 * 3
        segments = {}
        for row in lines[1:]:
            trial_id, seg, _, _ = row.split(",")
            segments.setdefault(trial_id, set()).add(int(seg))
        assert len(segments) == 10
        assert all(s == set(range(15)) for s in segments.values())

    @pytest.mark.parametrize("segment, n_samples", [
        pytest.param("0.001", 0, id="rounds-to-0"),
        pytest.param("0.02", 1, id="rounds-to-1"),
    ])
    def test_segment_below_two_samples_exit_2(self, session_dir, tmp_path,
                                              segment, n_samples):
        """Refused before anything is fit (the 40 Hz session makes 0.001 s
        zero samples and 0.02 s one sample)."""
        _, sess = session_dir
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [1.0], "L": [4]}))
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--folds", "2",
                    "--window", "10", "--grid", str(grid),
                    "--segment", segment, "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: config: time_pcc_seg_s:")
        assert f"is {n_samples} samples" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, protocol, window, folds", [
        pytest.param("csp", "loto", "10", "2", id="csp"),
        pytest.param("wf", "within_trial", "10", "3", id="within_trial"),
    ])
    def test_ignored_without_curves(self, session_dir, tmp_path, model,
                                    protocol, window, folds):
        """Runs that compute no curves export the same bytes with or
        without ``--segment``, and print the same line."""
        _, sess = session_dir
        argv = ["run", "--manifest", str(sess / "manifest.json"),
                "--model", model, "--protocol", protocol, "--window", window,
                "--folds", folds]
        outs = []
        for extra, out in (([], tmp_path / "plain"),
                           (["--segment", "2"], tmp_path / "seg")):
            r = run_cli(*argv, *extra, "--out", str(out))
            assert r.returncode == 0, r.stderr
            outs.append((r.stdout, {p.relative_to(out): p.read_bytes()
                                    for p in sorted(out.rglob("*"))
                                    if p.is_file()}))
        assert outs[0][1]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model, extra, seg_s", [
        pytest.param("wf", ["--segment", "2"], 2.0, id="wf-segment-2"),
        pytest.param("cca", [], 1.0, id="cca-default"),
        pytest.param("csp", [], None, id="csp-no-curves"),
    ])
    def test_summary_records_segment(self, session_dir, tmp_path, model,
                                     extra, seg_s):
        """``summary.json`` gives the curves' segment length in seconds
        when ``time_pcc.csv`` holds curves, and has no such key else."""
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", model, "--protocol", "loto", "--window", "10",
                    "--folds", "2", *extra, "--out", str(tmp_path / "o"))
        assert r.returncode == 0, r.stderr
        summary = json.loads((tmp_path / "o/summary.json").read_text())
        assert summary.get("time_pcc_seg_s") == seg_s
        rows = (tmp_path / "o/time_pcc.csv").read_text().splitlines()
        assert (len(rows) > 1) == (seg_s is not None)

    def test_track_is_no_command(self, session_dir, tmp_path):
        _, sess = session_dir
        r = run_cli("track", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "invalid choice: 'track'" in r.stderr
        assert not (tmp_path / "o").exists()


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

    def test_trial_lengths_off_the_output_grid_reload(self, tmp_path):
        """Raw trials whose length is not a whole number of 40 Hz samples
        come out with timelines that end where the trimmed trial ends."""
        from aadkit import dataio

        manifest = raw_session(tmp_path / "raw", [1250, 1252, 1254],
                               env_fs=100.0)
        r = run_cli("preprocess", "--manifest", str(manifest),
                    "--out", str(tmp_path / "prep"))
        assert r.returncode == 0, r.stderr
        prep = dataio.load_session(tmp_path / "prep/manifest.json")
        assert [t.eeg.n_samples for t in prep.trials] == [400, 401, 402]
        for trial in prep.trials:
            assert trial.timeline[-1].end_s == trial.duration_s

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
        grid = {"lam": [1.0, 100.0], "L": [11]}
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

    @pytest.mark.parametrize("fs", [22050, 44100, 48000])
    def test_wav_to_envelope_at_audio_rate(self, tmp_path, rng, fs):
        """40 Hz from these rates needs a ratio denominator above 1000."""
        p = tmp_path / "x.wav"
        write_wav(p, rng.uniform(-0.4, 0.4, 2 * fs + 5), fs)
        out = tmp_path / "env.aad"
        r = run_cli("envelope", "--audio", str(p), "--out", str(out))
        assert r.returncode == 0, r.stderr
        from aadkit import dataio

        env, env_fs = dataio.read_array(out)
        assert env_fs == 40.0
        assert env.shape[0] == 81
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


class TestNonFiniteFlags:
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("run", "--window", "inf", id="run-window-inf"),
        pytest.param("run", "--window", "nan", id="run-window-nan"),
        pytest.param("run", "--segment", "inf", id="run-segment-inf"),
        pytest.param("preprocess", "--to-fs", "inf", id="preprocess-to-fs-inf"),
        pytest.param("envelope", "--to-fs", "inf", id="envelope-to-fs-inf"),
    ])
    def test_exit_2(self, session_dir, tmp_path, command, flag, value):
        _, sess = session_dir
        if command == "run":
            # the flag under test comes last, so it overrides this window
            args = ["--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", "loto", "--window", "30"]
        elif command == "preprocess":
            args = ["--manifest", str(raw_session(tmp_path / "raw", [1250]))]
        else:
            wav = tmp_path / "a.wav"
            write_wav(wav, np.zeros(16000), 16000)
            args = ["--audio", str(wav)]
        r = run_cli(command, *args, flag, value,
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: config: {flag[2:]}:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("protocol, flag, setting", [
        pytest.param("loto", "--window", "window_s", id="window"),
        pytest.param("within_trial", "--window", "segment_s",
                     id="within_trial-window"),
        pytest.param("loto", "--segment", "time_pcc_seg_s", id="segment"),
    ])
    def test_overflowing_duration_exit_2(self, session_dir, tmp_path,
                                         protocol, flag, setting):
        """1e308 s is finite, but its sample count at 40 Hz is not."""
        _, sess = session_dir
        r = run_cli("run", "--manifest", str(sess / "manifest.json"),
                    "--model", "wf", "--protocol", protocol, "--window", "30",
                    flag, "1e308", "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: config: {setting}: 1e+308 s at "
                                   "fs=40 is not a finite number of samples")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("to_fs", ["250", "1e9", "1e308"])
    def test_preprocess_rate_above_eeg_rate_exit_2(self, tmp_path, to_fs):
        """A target rate above the EEG rate is refused before any
        resampling, which at 1e9 Hz would ask for gigabytes and at 1e308 Hz
        for more than numpy allows. Envelopes may still be resampled up to
        the target rate."""
        manifest = raw_session(tmp_path / "raw", [500, 500])
        r = run_cli("preprocess", "--manifest", str(manifest),
                    "--to-fs", to_fs, "--out", str(tmp_path / "prep"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config: to-fs:")
        assert "EEG rate 125 Hz" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "prep").exists()

    def test_envelope_rate_above_audio_rate_exit_2(self, tmp_path, rng):
        """A target rate above the audio rate is refused before the
        resampler asks for memory (1e9 Hz from 2 s would take 15 GiB)."""
        wav = tmp_path / "a.wav"
        write_wav(wav, rng.uniform(-0.4, 0.4, 32000), 16000)
        r = run_cli("envelope", "--audio", str(wav), "--to-fs", "1e9",
                    "--out", str(tmp_path / "env.aad"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: config: to-fs:")
        assert "16000" in r.stderr
        assert not (tmp_path / "env.aad").exists()


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

    def test_duplicate_speaker_ids_exit_4(self, tmp_path, rng):
        """A trial that load_session would reject is rejected at conversion,
        before anything is written."""
        src = tmp_path / "src"
        src.mkdir()
        t_len = 250
        np.savez(src / "trial_0.npz",
                 eeg=rng.standard_normal((t_len, 2)), fs_eeg=125.0,
                 envelopes=np.abs(rng.standard_normal((t_len, 3))),
                 env_fs=125.0, speaker_ids=np.array([1, 1, 2]),
                 directions_deg=np.array([-60.0, 0.0, 60.0]), task=1,
                 attended_sequence=np.array([1]))
        r = run_cli("convert-dataset", "--src", str(src),
                    "--out", str(tmp_path / "conv"))
        assert r.returncode == 4, r.stderr
        assert "duplicate speaker ids" in r.stderr
        assert not (tmp_path / "conv").exists()

    def test_empty_source_exit_4(self, tmp_path):
        (tmp_path / "empty").mkdir()
        r = run_cli("convert-dataset", "--src", str(tmp_path / "empty"),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 4


class TestRawDataPath:
    def test_wav_and_npz_trials_decode(self, tmp_path):
        """Raw 250 Hz EEG trials in .npz files and 16 kHz WAVs pass through
        envelope, convert-dataset, preprocess and run, and the attended
        speaker of a seeded high-SNR forward model is decoded. The last
        trial is 2 samples longer, so its 40 Hz length rounds up past the
        raw timeline."""
        from aadkit import cli, dataio

        rng = np.random.default_rng(2024)
        n_ch, snr = 6, 3.0
        kernels = rng.standard_normal((n_ch, 25))  # 100 ms at 250 Hz
        kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)
        src = tmp_path / "npz"
        src.mkdir()
        for i, t_len in enumerate([3000] * 5 + [3002]):
            envelopes = []
            for s in range(3):
                # noise carrier under a slow, syllable-rate modulation
                slow = np.convolve(np.abs(rng.standard_normal(t_len)),
                                   np.hanning(40), mode="same")
                audio = rng.standard_normal(64 * t_len) * np.repeat(
                    slow / slow.max(), 64)
                wav, env = tmp_path / f"{i}_{s}.wav", tmp_path / f"{i}_{s}.aad"
                write_wav(wav, 0.2 * audio, 16000)
                assert cli.main(["envelope", "--audio", str(wav), "--out",
                                 str(env), "--to-fs", "250"]) == 0
                samples, env_fs = dataio.read_array(env)
                envelopes.append(samples[:, 0])
            attended = envelopes[i % 3]
            z = (attended - attended.mean()) / attended.std()
            eeg = rng.standard_normal((t_len, n_ch))
            for c in range(n_ch):
                eeg[:, c] += snr * np.convolve(z, kernels[c])[:t_len]
            np.savez(src / f"trial_{i}.npz", eeg=eeg, fs_eeg=250.0,
                     envelopes=np.column_stack(envelopes), env_fs=env_fs,
                     speaker_ids=np.array([1, 2, 3]),
                     directions_deg=np.array([-60.0, 0.0, 60.0]), task=1,
                     attended_sequence=np.array([i % 3 + 1]))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [1.0, 100.0], "L": [6]}))
        for argv in (
            ["convert-dataset", "--src", src, "--out", tmp_path / "raw"],
            ["preprocess", "--manifest", tmp_path / "raw/manifest.json",
             "--out", tmp_path / "prep"],
            ["run", "--manifest", tmp_path / "prep/manifest.json",
             "--model", "wf", "--protocol", "loto", "--window", "6",
             "--folds", "3", "--grid", grid, "--out", tmp_path / "res"],
        ):
            assert cli.main([str(a) for a in argv]) == 0
        summary = json.loads((tmp_path / "res/summary.json").read_text())
        assert summary["n_windows"] == 12
        assert summary["accuracy"]["mean"] >= 0.9

    @pytest.mark.parametrize("audio_fs", [22050, 44100, 48000])
    def test_audio_rate_wavs_decode(self, tmp_path, audio_fs):
        """WAVs at 22.05, 44.1 and 48 kHz go to 40 Hz envelopes, a ratio
        with a denominator above 1000, next to raw 250 Hz EEG driven by
        those envelopes; convert-dataset, preprocess and run decode the
        attended speaker."""
        from aadkit import cli, dataio, preprocess

        rng = np.random.default_rng(audio_fs)
        n_ch, snr, t_len = 6, 3.0, 3000  # 12 s of EEG at 250 Hz
        kernels = rng.standard_normal((n_ch, 25))
        kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)
        src = tmp_path / "npz"
        src.mkdir()
        n_audio = 12 * audio_fs
        t = np.arange(n_audio) / audio_fs
        for i in range(4):
            envelopes = []
            for s in range(2):
                # noise carrier under a slow, syllable-rate modulation
                slow = np.convolve(np.abs(rng.standard_normal(t_len)),
                                   np.hanning(40), mode="same")
                mod = np.interp(t, np.arange(t_len) / 250.0, slow)
                audio = rng.standard_normal(n_audio) * mod / slow.max()
                wav, env = tmp_path / f"{i}_{s}.wav", tmp_path / f"{i}_{s}.aad"
                write_wav(wav, 0.2 * audio, audio_fs)
                assert cli.main(["envelope", "--audio", str(wav), "--out",
                                 str(env)]) == 0
                samples, env_fs = dataio.read_array(env)
                assert env_fs == 40.0 and samples.shape == (480, 1)
                envelopes.append(samples[:, 0])
            attended = preprocess.resample(preprocess.MultichannelSignal(
                envelopes[i % 2], 40.0), 250.0).samples[:, 0]
            z = (attended - attended.mean()) / attended.std()
            eeg = rng.standard_normal((t_len, n_ch))
            for c in range(n_ch):
                eeg[:, c] += snr * np.convolve(z, kernels[c])[:t_len]
            np.savez(src / f"trial_{i}.npz", eeg=eeg, fs_eeg=250.0,
                     envelopes=np.column_stack(envelopes), env_fs=40.0,
                     speaker_ids=np.array([1, 2]),
                     directions_deg=np.array([-60.0, 60.0]), task=1,
                     attended_sequence=np.array([i % 2 + 1]))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [1.0, 100.0], "L": [6]}))
        for argv in (
            ["convert-dataset", "--src", src, "--out", tmp_path / "raw"],
            ["preprocess", "--manifest", tmp_path / "raw/manifest.json",
             "--out", tmp_path / "prep"],
            ["run", "--manifest", tmp_path / "prep/manifest.json",
             "--model", "wf", "--protocol", "loto", "--window", "6",
             "--folds", "2", "--grid", grid, "--out", tmp_path / "res"],
        ):
            assert cli.main([str(a) for a in argv]) == 0
        summary = json.loads((tmp_path / "res/summary.json").read_text())
        assert summary["n_windows"] == 8
        assert summary["accuracy"]["mean"] >= 0.9
