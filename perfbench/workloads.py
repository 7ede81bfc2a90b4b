"""The benchmark's workloads: seeded inputs, set-up and one timed pass.

Each workload builds its inputs from the seed alone, prepares them the way
the ``aadkit`` commands do (``synth`` -> ``run``, or ``preprocess`` and
``envelope``), and then times one pass of the calls a user waits for.
Functions of the package are always looked up on their module at call time
so that the tracer's wrappers see every call.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from aadkit import crossval, dataio, envelope, preprocess


@dataclass(frozen=True)
class Decoder:
    model: str
    protocol: str
    n_folds: int
    window_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    decoders: Tuple[Decoder, ...] = ()
    # front end only: audio clips and the gammatone bank
    audio_clips: int = 0
    audio_clip_s: float = 0.0
    audio_fs: float = 16000.0
    bank: Tuple[float, float, int] = (50.0, 5000.0, 17)
    to_fs: float = 40.0
    # layers whose calls must be non-zero in a traced pass
    layers: Tuple[str, ...] = ()


_DECODE_SESSION = dict(n_trials=8, duration_s=30.0, n_channels=8, snr=5.0)

_DATAIO = ("dataio.synth_generate", "dataio.save_session",
           "dataio.load_session")
_DECODE_LAYERS = _DATAIO + (
    "dataio.export_results", "dataio.serialize_model",
    "crossval.make_folds", "crossval.run_pipeline",
    "metrics.classification_metrics", "metrics.finalize_report",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wf-nested",
            why="Ridge grid search under nested CV (8x30 s, 8 ch, 4 "
                "folds): lagging, Cholesky solves and PCC scoring; never "
                "reaches an eigensolver or IIR filter",
            synth=_DECODE_SESSION,
            decoders=(Decoder("wf", "nested_loto", 4, 30.0),),
            layers=_DECODE_LAYERS + (
                "design.build_lagged", "design.accumulate",
                "numerics.solve_regularized", "kernels.cholesky_inplace",
                "linear.wf_fit", "metrics.pcc", "metrics.decide_window",
                "metrics.time_pcc_curve",
            ),
        ),
        Workload(
            name="cca-loto",
            why="Regularized CCA, Jacobi eigen/SVD-bound on 18/33-dim "
                "matrices (3 ch) with lagged targets; loto, 2 folds: "
                "nested_loto takes 777 s at ROADMAP's 20x30 s 8 ch baseline",
            synth=dict(_DECODE_SESSION, n_trials=4, n_channels=3),
            decoders=(Decoder("cca", "loto", 2, 30.0),),
            layers=_DECODE_LAYERS + (
                "design.build_lagged", "design.accumulate",
                "kernels.jacobi_sweep", "kernels.svd_sweep",
                "numerics.sym_eig", "numerics.spd_function", "numerics.svd",
                "linear.cca_fit", "metrics.pcc", "metrics.decide_window",
            ),
        ),
        Workload(
            name="classify",
            why="CSP then RGC on many short 5 s windows: per-call cost of "
                "200-sample IIR filtering and 4x4 eigensolves dominates; "
                "bypasses design and linear",
            synth=dict(_DECODE_SESSION, n_trials=10, duration_s=5.0,
                       n_channels=4, direction_gain=1.0),
            decoders=(
                Decoder("csp", "nested_loto", 5, 5.0),
                Decoder("rgc", "nested_loto", 5, 5.0),
            ),
            layers=_DECODE_LAYERS + (
                "kernels.sosfilt", "kernels.jacobi_sweep",
                "numerics.sym_eig", "numerics.gen_sym_eig",
                "numerics.spd_function", "spatial.csp_fit",
                "spatial.csp_features", "spatial.rgc_fit",
                "spatial.tangent_features", "spatial.segment_covariance",
                "spatial.lda_fit", "spatial.lda_predict",
            ),
        ),
        Workload(
            name="frontend",
            why="cEEGrid 250 Hz conditioning chain and 16 kHz audio "
                "envelopes; 22.05/44.1/48 kHz audio is left out: envelope "
                "resampling rejects those rates (ROADMAP item 4)",
            synth=dict(n_trials=1, duration_s=30.0, n_channels=16,
                       fs=250.0, snr=5.0),
            audio_clips=1,
            audio_clip_s=5.0,
            layers=_DATAIO + (
                "preprocess.standard_chain", "preprocess.filter_apply",
                "preprocess.resample", "preprocess.zscore",
                "envelope.gammatone_bank", "envelope.compute_envelope",
                "envelope.band_magnitudes", "kernels.sosfilt",
                "kernels.resonator_magnitudes", "kernels.fir_resample",
            ),
        ),
    )
}


@dataclass
class Prepared:
    """Inputs of the timed pass, produced by :func:`setup`."""

    session: dataio.Session
    plans: list = field(default_factory=list)  # one CvPlan per decoder
    clips: list = field(default_factory=list)  # AudioTrack per clip
    bank: Optional[envelope.GammatoneBank] = None


def synth_audio(seed, n_clips, clip_s, fs):
    """Speech-like test audio: noise carriers under slow random envelopes
    with a syllable-rate modulation, one independent clip per index."""
    clips = []
    n = int(round(clip_s * fs))
    t = np.arange(n) / fs
    for i in range(n_clips):
        rng = np.random.default_rng([seed, 500 + i])
        slow = np.abs(np.convolve(rng.standard_normal(n // 400 + 8),
                                  np.hanning(8), mode="same"))
        env = np.interp(t, np.linspace(0.0, clip_s, slow.size), slow)
        env *= 0.6 + 0.4 * np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 6.28))
        f0 = rng.uniform(100.0, 220.0)
        voiced = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 12))
        samples = env * (0.7 * voiced + 0.3 * rng.standard_normal(n))
        clips.append(envelope.AudioTrack(0.1 * samples, fs, speaker_id=i))
    return clips


def setup(workload, seed, workdir):
    """Generate, save and reload the session; plan folds or design the
    audio bank. Everything here happens before the first timed call."""
    cfg = dataio.SynthConfig(seed=seed, **workload.synth)
    session = dataio.synth_generate(cfg)
    manifest = dataio.save_session(session, Path(workdir) / "session")
    prepared = Prepared(session=dataio.load_session(manifest))
    for d in workload.decoders:
        prepared.plans.append(
            crossval.make_folds(prepared.session.trials, d.protocol,
                                d.n_folds, seed)
        )
    if workload.audio_clips:
        prepared.clips = synth_audio(seed, workload.audio_clips,
                                     workload.audio_clip_s, workload.audio_fs)
        lo, hi, n_bands = workload.bank
        prepared.bank = envelope.gammatone_bank(workload.audio_fs, lo, hi,
                                                n_bands)
    return prepared


def run_pass(workload, prepared, outdir):
    """One timed pass. Returns what the correctness check inspects:
    ``{model: (plan, report, exported summary bytes)}`` for decoders,
    ``{"eeg": [...], "envelopes": [...]}`` arrays for the front end."""
    if workload.decoders:
        out = {}
        for d, plan in zip(workload.decoders, prepared.plans):
            report = crossval.run_pipeline(
                prepared.session, d.model, plan,
                crossval.default_grid(d.model), d.window_s, jobs=1,
            )
            dest = Path(outdir) / d.model
            dataio.export_results(report, dest)
            out[d.model] = (plan, report, (dest / "summary.json").read_bytes())
        return out
    eeg = [
        preprocess.standard_chain(t.eeg, ref_index=0).samples
        for t in prepared.session.trials
    ]
    envs = [
        envelope.compute_envelope(clip, prepared.bank, workload.to_fs).samples
        for clip in prepared.clips
    ]
    return {"eeg": eeg, "envelopes": envs}
