"""Tests of the benchmark harness itself, on shrunken copies of the
workloads so that they run in seconds."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, run, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]

# Same code paths as the real workloads, on inputs small enough for a test.
SMALL = {
    "wf-nested": dict(synth=dict(n_trials=6, duration_s=10.0, n_channels=2,
                                 snr=5.0),
                      decoders=(workloads.Decoder("wf", "nested_loto", 3,
                                                  5.0),)),
    "cca-loto": dict(synth=dict(n_trials=4, duration_s=10.0, n_channels=2,
                                snr=5.0),
                     decoders=(workloads.Decoder("cca", "loto", 2, 10.0),)),
    "classify": dict(synth=dict(n_trials=6, duration_s=10.0, n_channels=4,
                                snr=5.0, direction_gain=1.0),
                     decoders=(workloads.Decoder("csp", "nested_loto", 3,
                                                 5.0),
                               workloads.Decoder("rgc", "nested_loto", 3,
                                                 5.0))),
    "frontend": dict(synth=dict(n_trials=2, duration_s=4.0, n_channels=16,
                                fs=250.0, snr=5.0),
                     audio_clips=1, audio_clip_s=1.0),
}

COUNT_STATS = ("calls", "sweeps", "samples", "bytes", "unique_frac",
               "fits_per_accumulate")


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(tracer.PER_LAYER)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "run_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_cover_layers(name, tmp_path):
    wl = small(name)
    runs = []
    for i in range(2):
        tr, bad, outputs, _, _ = run.traced_run(wl, 3, tmp_path / str(i))
        assert bad == []
        runs.append((tracer.per_layer_metrics(tr), outputs))
    counts = [
        {k: v["value"] for k, v in m.items() if k.endswith(COUNT_STATS)}
        for m, _ in runs
    ]
    assert counts[0] == counts[1]
    assert oracle.same_outputs(wl, runs[0][1], runs[1][1])


def test_traced_counts_at_roadmap_baseline_size(tmp_path):
    # ROADMAP's baseline session: 20 trials x 30 s, 8 channels, seed 7,
    # wf under nested_loto with 10 folds. The benchmark's wf-nested runs a
    # smaller session so that many passes fit in one run.
    wl = dataclasses.replace(
        workloads.WORKLOADS["wf-nested"],
        synth=dict(n_trials=20, duration_s=30.0, n_channels=8, snr=5.0),
        decoders=(workloads.Decoder("wf", "nested_loto", 10, 30.0),),
    )
    tr, bad, _, _, _ = run.traced_run(wl, 7, tmp_path)
    assert bad == []
    assert [tr.get(name).calls for name in (
        "design.build_lagged", "kernels.cholesky_inplace", "metrics.pcc",
    )] == [5480, 2710, 18060]


def test_unwrapped_binding_is_reported():
    import aadkit.linear

    with tracer.Tracer() as tr:
        assert tr.unbound_originals() == []
        original = aadkit.linear.wf_fit.__wrapped__
        aadkit.linear._stale_alias = original
        try:
            assert tr.unbound_originals() == [
                "aadkit.linear._stale_alias -> linear.wf_fit"]
        finally:
            del aadkit.linear._stale_alias
    assert aadkit.linear.wf_fit is original


@pytest.mark.parametrize("name", ["wf-nested", "classify"])
def test_oracle_rejects_a_changed_decision(name, tmp_path):
    wl = small(name)
    prepared = workloads.setup(wl, 3, tmp_path / "s")
    outputs = workloads.run_pass(wl, prepared, tmp_path / "p")
    assert oracle.check_decoders(wl, prepared, outputs) == []
    report = outputs[wl.decoders[0].model][1]
    report.windows[0].predicted = (report.windows[0].predicted + 1) % 3
    assert oracle.check_decoders(wl, prepared, outputs)


def test_oracle_rejects_a_perturbed_front_end(tmp_path):
    wl = small("frontend")
    prepared = workloads.setup(wl, 3, tmp_path / "s")
    outputs = workloads.run_pass(wl, prepared, tmp_path / "p")
    assert oracle.check_frontend(wl, prepared, outputs) == []
    outputs["eeg"][0] = outputs["eeg"][0] * (1 + 1e-7)
    assert oracle.check_frontend(wl, prepared, outputs)


def test_stored_reference_is_compared(tmp_path):
    wl = small("wf-nested")
    prepared = workloads.setup(wl, 3, tmp_path / "s")
    outputs = workloads.run_pass(wl, prepared, tmp_path / "p")
    summary = json.loads(json.dumps(oracle.summarize(wl, outputs)))
    ref = {wl.name: {"3": json.loads(json.dumps(summary))}}
    assert oracle.check_reference(wl, 3, summary, ref) == []
    assert oracle.check_reference(wl, 4, summary, ref) is None
    summary["wf"]["folds"][0][2] += 1
    assert oracle.check_reference(wl, 3, summary, ref)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wf-nested",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
