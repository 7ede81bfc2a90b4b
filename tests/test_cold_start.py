"""Commands load only the SciPy modules their work needs.

``scipy.signal`` (and the ``scipy.stats`` it pulls in) costs about a second
to import and ``scipy.linalg`` about 0.3 s. The filter designs, the IIR
kernel and the gammatone resonators are numpy, so synthesis, conditioning,
envelopes and CSP load neither; only the Cholesky solve of a Wiener-filter
fit imports ``scipy.linalg.lapack``, on first use. Each case runs in a
fresh interpreter, whose ``sys.modules`` is then the record of what the
command loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run ``code`` in a new interpreter with the package on its path;
    return the SciPy modules it ended with, sorted, and its stdout."""
    trailer = (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps(sorted(m for m in _sys.modules\n"
        "                         if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + trailer],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    *out, loaded = r.stdout.strip().splitlines()
    return json.loads(loaded), out


def cli_call(*argv):
    return f"""
        import aadkit.cli
        assert aadkit.cli.main({[str(a) for a in argv]!r}) == 0
    """


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A small seeded synthetic session, made by ``synth`` in a fresh
    interpreter that must not load SciPy either."""
    tmp = tmp_path_factory.mktemp("cold")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "n_trials": 4, "duration_s": 20.0, "n_channels": 4,
        "snr": 5.0, "seed": 3,
    }))
    loaded, _ = run_fresh(cli_call("synth", "--config", cfg,
                                   "--out", tmp / "sess"))
    assert loaded == []
    return tmp / "sess" / "manifest.json"


def test_import_loads_no_filtering():
    loaded, _ = run_fresh("import aadkit; import aadkit.cli")
    assert loaded == []


def test_gammatone_design_loads_no_filtering():
    """Designing the bank is closed-form numpy."""
    loaded, _ = run_fresh("""
        from aadkit import envelope
        envelope.gammatone_bank(16000, 50.0, 5000.0, 17)
    """)
    assert loaded == []


@pytest.mark.parametrize("model, window", [
    ("wf", "20"), ("cca", "20"), ("rgc", "10"),
])
def test_run_loads_no_filtering(session, tmp_path, model, window):
    """Of the three, only the Wiener filter solves a Cholesky system, and
    it loads ``scipy.linalg`` alone."""
    loaded, _ = run_fresh(cli_call(
        "run", "--manifest", session, "--model", model, "--protocol", "loto",
        "--window", window, "--folds", "2", "--out", tmp_path / "o",
    ))
    if model == "wf":
        assert "scipy.linalg" in loaded and "scipy.signal" not in loaded
    else:
        assert loaded == []


def test_track_loads_no_scipy(session, tmp_path):
    """Switch tracking, ``run``'s time-PCC curves here at a 2 s
    resolution, is numpy too."""
    loaded, _ = run_fresh(cli_call(
        "run", "--manifest", session, "--model", "cca", "--protocol", "loto",
        "--window", "20", "--folds", "2", "--segment", "2",
        "--out", tmp_path / "o",
    ))
    assert loaded == []


def test_wf_run_loads_linalg_only_and_exports_the_same_files(session,
                                                              tmp_path):
    """The Cholesky solve imports ``scipy.linalg`` on first use, and the
    exports match a run in this process, where SciPy is loaded before the
    run starts."""
    args = ["run", "--manifest", session, "--model", "wf", "--protocol",
            "nested_loto", "--window", "20", "--folds", "3"]
    fresh, eager = tmp_path / "fresh", tmp_path / "eager"
    loaded, _ = run_fresh(cli_call(*args, "--out", fresh))
    assert "scipy.linalg" in loaded and "scipy.signal" not in loaded
    import scipy.linalg  # noqa: F401
    from aadkit import cli

    assert cli.main([str(a) for a in args] + ["--out", str(eager)]) == 0
    files = {out: sorted(p.relative_to(out) for p in out.rglob("*"))
             for out in (fresh, eager)}
    assert files[fresh] and files[fresh] == files[eager]
    for rel in files[fresh]:
        if (fresh / rel).is_file():
            want = (fresh / rel).read_bytes()
            assert (eager / rel).read_bytes() == want, rel


def test_csp_run_loads_no_scipy(session, tmp_path):
    loaded, _ = run_fresh(cli_call(
        "run", "--manifest", session, "--model", "csp",
        "--protocol", "within_trial", "--window", "5", "--folds", "3",
        "--out", tmp_path / "o",
    ))
    assert loaded == []


def test_synth_with_direction_gain_loads_no_scipy(tmp_path):
    """The direction carrier is band-passed through the numpy design and
    kernel."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_trials": 2, "duration_s": 10.0, "n_channels": 4,
        "direction_gain": 1.0, "seed": 3,
    }))
    loaded, _ = run_fresh(cli_call("synth", "--config", cfg,
                                   "--out", tmp_path / "sess"))
    assert loaded == []


def test_preprocess_loads_no_scipy(tmp_path):
    """The default chain: band-pass, notch, resampling and z-score."""
    from aadkit import dataio

    session = dataio.synth_generate(dataio.SynthConfig(
        n_trials=2, duration_s=10.0, n_channels=4, fs=250.0, seed=3))
    manifest = dataio.save_session(session, tmp_path / "raw")
    loaded, _ = run_fresh(cli_call("preprocess", "--manifest", manifest,
                                   "--ref", "0", "--out", tmp_path / "prep"))
    assert loaded == []


def test_envelope_loads_no_scipy():
    """The gammatone resonators and the resampling to 40 Hz."""
    loaded, _ = run_fresh("""
        import numpy as np
        from aadkit import envelope
        bank = envelope.gammatone_bank(16000, 50.0, 5000.0, 17)
        audio = envelope.AudioTrack(np.ones(1600), 16000)
        envelope.compute_envelope(audio, bank, 40.0)
    """)
    assert loaded == []


def test_bandpass_design_loads_no_scipy_with_same_coefficients():
    loaded, out = run_fresh("""
        import json
        from aadkit import preprocess
        f = preprocess.design_bandpass(0.5, 62, 8, 125)
        print(json.dumps(f.sections.tolist()))
    """)
    assert loaded == []
    from scipy import signal

    sos = signal.butter(4, [0.5, 62], btype="bandpass", fs=125, output="sos")
    expected = np.column_stack([sos[:, 0:3], sos[:, 4:6]])
    np.testing.assert_array_equal(np.array(json.loads(out[-1])), expected)
