"""Command line interface.

Subcommands: synth, convert-dataset, preprocess, envelope, run, ablate,
track. Commands take flags plus an optional --config JSON file; flags
override config-file fields. Exit codes: 0 success, 2 configuration
error, 3 I/O error (synth, envelope), 4 data error, 5 numerical failure.
Errors go to stderr with a machine-parsable category prefix.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import crossval, dataio, envelope as envmod, preprocess
from .errors import (
    AadError,
    BadChannelIndex,
    BadConfig,
    BadProtocolConfig,
    BadLag,
    DegenerateClass,
    DimensionMismatch,
    EmptyGrid,
    InvalidBand,
    IoError,
    IrrationalRatio,
    LengthMismatch,
    ManifestError,
    NonConvergence,
    NotSpd,
    ShapeMismatch,
    SingularScatter,
    SingularSystem,
    UnknownTask,
)

_CONFIG_ERRORS = (BadConfig, BadProtocolConfig, EmptyGrid, InvalidBand,
                  UnknownTask)
_DATA_ERRORS = (ManifestError, ShapeMismatch, BadChannelIndex, BadLag,
                DimensionMismatch, LengthMismatch, DegenerateClass,
                IrrationalRatio, IoError)
_NUMERIC_ERRORS = (SingularSystem, NonConvergence, NotSpd, SingularScatter)


def _fail(category, exc, code):
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


def _classify(exc, io_code=4):
    if isinstance(exc, _CONFIG_ERRORS):
        return _fail("config", exc, 2)
    if isinstance(exc, _NUMERIC_ERRORS):
        return _fail("numeric", exc, 5)
    if isinstance(exc, IoError):
        return _fail("io", exc, io_code)
    if isinstance(exc, _DATA_ERRORS):
        return _fail("data", exc, 4)
    return _fail("data", exc, 4)


def _merge_config(args, keys):
    """Overlay config-file fields under explicitly passed flags."""
    if not getattr(args, "config", None):
        return args
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"config: {exc}") from exc
    for key, value in raw.items():
        attr = key.replace("-", "_")
        if attr not in keys:
            raise BadConfig(f"{key}: unknown config field")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)
    return args


def _load_grid(args, model):
    if getattr(args, "grid", None):
        try:
            raw = json.loads(Path(args.grid).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfig(f"grid: {exc}") from exc
        budget = raw.pop("budget", None)
        gseed = raw.pop("seed", args.seed or 0)
        for key, values in raw.items():
            if not isinstance(values, list):
                raise BadConfig(f"grid: {key} must map to a list")
        return crossval.HyperGrid(raw, budget=budget, seed=gseed)
    return crossval.default_grid(model)


def _parse_channels(spec):
    if spec is None:
        return None
    if spec in crossval.LAYOUTS:
        return crossval.LAYOUTS[spec]
    return tuple(c.strip() for c in spec.split(",") if c.strip())


def _prepared_session(args):
    manifest = args.manifest
    if isinstance(manifest, (list, tuple)):
        if len(manifest) != 1:
            raise BadConfig("manifest: this command takes exactly one manifest")
        manifest = manifest[0]
    session = dataio.load_session(manifest)
    if not session.preprocessed:
        raise ManifestError(
            f"{manifest}: session is not preprocessed; run the "
            "preprocess command first"
        )
    channels = _parse_channels(args.channels)
    if channels:
        session = crossval.restrict_session(session, channels)
    return session


def _run_defaults(args):
    if args.model not in crossval.MODEL_KINDS:
        raise BadConfig(f"model: unknown model {args.model!r}")
    if args.protocol not in crossval.PROTOCOLS:
        raise BadConfig(f"protocol: unknown protocol {args.protocol!r}")
    if args.window is None or args.window <= 0:
        raise BadConfig("window: must be positive")


def _summary_line(report):
    return (
        f"model={report.model_kind} protocol={report.protocol} "
        f"window={report.window_s:g} acc={report.accuracy:.4f} "
        f"f1={report.macro_f1:.4f}"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    try:
        cfg = dataio.load_synth_config(args.config)
    except BadConfig as exc:
        return _fail("config", exc, 2)
    try:
        session = dataio.synth_generate(cfg)
        dataio.save_session(session, args.out)
    except BadConfig as exc:
        return _fail("config", exc, 2)
    except (OSError, IoError) as exc:
        return _fail("io", exc, 3)
    print(f"wrote {cfg.n_trials} trials to {args.out}")
    return 0


def cmd_run(args):
    try:
        args = _merge_config(
            args,
            {"model", "protocol", "window", "grid", "seed", "channels",
             "folds", "jobs", "out", "group_tuning", "manifest"},
        )
        if args.seed is None:
            args.seed = 0
        _run_defaults(args)
        grid = _load_grid(args, args.model)
        manifests = args.manifest
        if args.group_tuning and len(manifests) > 1:
            sessions = []
            for m in manifests:
                a = argparse.Namespace(manifest=m, channels=args.channels)
                sessions.append(_prepared_session(a))
            segment_s = args.window if args.protocol == "within_trial" else None
            reports, _ = crossval.run_pipeline_group(
                sessions, args.model, args.protocol, args.window, grid,
                n_folds=args.folds, seed=args.seed, segment_s=segment_s,
                jobs=args.jobs or 1,
            )
            for session, report in zip(sessions, reports):
                out = Path(args.out) / session.subject
                dataio.export_results(report, out)
                print(_summary_line(report))
            return 0
        for m in manifests:
            a = argparse.Namespace(manifest=m, channels=args.channels)
            session = _prepared_session(a)
            segment_s = args.window if args.protocol == "within_trial" else None
            plan = crossval.make_folds(
                session.trials, args.protocol, args.folds, args.seed,
                segment_s=segment_s,
            )
            report = crossval.run_pipeline(
                session, args.model, plan, grid, args.window,
                jobs=args.jobs or 1,
            )
            out = Path(args.out)
            if len(manifests) > 1:
                out = out / session.subject
            dataio.export_results(report, out)
            print(_summary_line(report))
        return 0
    except AadError as exc:
        return _classify(exc)
    except OSError as exc:
        return _fail("io", exc, 4)


def cmd_ablate(args):
    try:
        args = _merge_config(
            args,
            {"model", "protocol", "window", "grid", "seed", "channels",
             "folds", "jobs", "out", "layouts", "manifest"},
        )
        if args.seed is None:
            args.seed = 0
        _run_defaults(args)
        try:
            raw = json.loads(Path(args.layouts).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfig(f"layouts: {exc}") from exc
        if isinstance(raw, list):
            unknown = [n for n in raw if n not in crossval.LAYOUTS]
            if unknown:
                raise BadConfig(f"layouts: unknown preset names {unknown}")
            layouts = {n: crossval.LAYOUTS[n] for n in raw}
        elif isinstance(raw, dict):
            layouts = {n: tuple(chs) for n, chs in raw.items()}
        else:
            raise BadConfig("layouts: need a list of presets or a mapping")
        if not layouts:
            raise BadConfig("layouts: empty")
        session = _prepared_session(args)
        grid = _load_grid(args, args.model)
        segment_s = args.window if args.protocol == "within_trial" else None
        plan = crossval.make_folds(
            session.trials, args.protocol, args.folds, args.seed,
            segment_s=segment_s,
        )
        reports = crossval.run_channel_ablation(
            session, layouts, args.model, plan, grid, args.window,
            jobs=args.jobs or 1,
        )
        for name in layouts:
            report = reports[name]
            dataio.export_results(report, Path(args.out) / name)
            print(f"layout={name} {_summary_line(report)}")
        return 0
    except AadError as exc:
        return _classify(exc)
    except OSError as exc:
        return _fail("io", exc, 4)


def cmd_track(args):
    try:
        args = _merge_config(
            args,
            {"model", "protocol", "window", "grid", "seed", "channels",
             "folds", "jobs", "out", "segment", "manifest"},
        )
        if args.seed is None:
            args.seed = 0
        if args.model not in ("wf", "cca"):
            raise BadConfig(
                f"model: tracking needs an envelope decoder, got {args.model!r}"
            )
        args.protocol = args.protocol or "loto"
        args.window = args.window or 30.0
        _run_defaults(args)
        session = _prepared_session(args)
        grid = _load_grid(args, args.model)
        plan = crossval.make_folds(
            session.trials, args.protocol, args.folds, args.seed
        )
        report = crossval.run_pipeline(
            session, args.model, plan, grid, args.window,
            time_pcc_seg_s=args.segment or 1.0, jobs=args.jobs or 1,
        )
        dataio.export_results(report, Path(args.out))
        print(
            f"model={report.model_kind} trials={len(report.time_pcc)} "
            f"segment={report.time_pcc_seg_s:g}"
        )
        return 0
    except AadError as exc:
        return _classify(exc)
    except OSError as exc:
        return _fail("io", exc, 4)


def cmd_preprocess(args):
    try:
        session = dataio.load_session(args.manifest)
        band = None
        if args.band:
            lo, hi = (float(v) for v in args.band.split(","))
            band = (lo, hi)
        notch = None
        if args.notch:
            lo, hi = (float(v) for v in args.notch.split(","))
            notch = (lo, hi)
        to_fs = args.to_fs
        trials = []
        for trial in session.trials:
            eeg = trial.eeg
            ref = None
            if args.ref is not None:
                ref = (
                    eeg.channel_names.index(args.ref)
                    if args.ref in eeg.channel_names
                    else int(args.ref)
                )
            eeg = preprocess.standard_chain(
                eeg, ref_index=ref, band=band, band_order=args.band_order,
                notch=notch, to_fs=to_fs,
            )
            speakers = []
            for sp in trial.speakers:
                env = preprocess.MultichannelSignal(sp.envelope, sp.fs)
                if to_fs is not None and sp.fs != to_fs:
                    env = preprocess.resample(env, to_fs)
                env = preprocess.zscore(env)
                n = min(env.n_samples, eeg.n_samples)
                speakers.append(
                    dataio.SpeakerTrack(
                        sp.speaker_id, sp.direction_deg,
                        env.samples[:n, 0], env.fs,
                    )
                )
            n = min(eeg.n_samples, min(s.envelope.shape[0] for s in speakers))
            eeg = eeg.with_samples(eeg.samples[:n])
            speakers = [
                dataio.SpeakerTrack(s.speaker_id, s.direction_deg,
                                    s.envelope[:n], s.fs)
                for s in speakers
            ]
            trials.append(
                dataio.Trial(
                    trial_id=trial.trial_id,
                    task=trial.task,
                    group=trial.group,
                    eeg=eeg,
                    speakers=speakers,
                    timeline=trial.timeline,
                )
            )
        out = dataio.Session(
            session.subject, trials[0].eeg.fs if trials else session.fs,
            trials, preprocessed=True,
        )
        dataio.save_session(out, args.out)
        print(f"preprocessed {len(trials)} trials to {args.out}")
        return 0
    except AadError as exc:
        return _classify(exc)
    except (OSError, ValueError) as exc:
        return _fail("config", exc, 2)


def cmd_envelope(args):
    try:
        audio = dataio.read_wav(args.audio, speaker_id=args.speaker_id or 0)
        bank = envmod.gammatone_bank(
            audio.fs, args.f_low, args.f_high, args.bands
        )
        env = envmod.compute_envelope(audio, bank, args.to_fs)
        dataio.write_array(args.out, env.samples, env.fs)
        print(f"wrote {env.samples.shape[0]} envelope samples to {args.out}")
        return 0
    except AadError as exc:
        return _classify(exc, io_code=3)
    except ValueError as exc:
        return _fail("config", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 3)


def cmd_convert_dataset(args):
    """Convert a directory of per-trial .npz files to the manifest layout.

    Expected keys per file: eeg (T, C), fs_eeg, envelopes (T_env, S),
    env_fs, speaker_ids (S,), directions_deg (S,), task, attended_sequence
    and optionally switch_s and channels. Files are processed in sorted
    order.
    """
    try:
        src = Path(args.src)
        files = sorted(src.glob("*.npz"))
        if not files:
            raise ManifestError(f"no .npz trial files under {src}")
        trials = []
        fs = None
        for i, path in enumerate(files):
            with np.load(path, allow_pickle=False) as data:
                eeg = np.asarray(data["eeg"], dtype=np.float64)
                fs_eeg = float(data["fs_eeg"])
                envs = np.asarray(data["envelopes"], dtype=np.float64)
                env_fs = float(data["env_fs"])
                ids = [int(v) for v in data["speaker_ids"]]
                dirs = [float(v) for v in data["directions_deg"]]
                task = int(data["task"])
                seq = [int(v) for v in data["attended_sequence"]]
                switch = (
                    float(data["switch_s"]) if "switch_s" in data else None
                )
                names = (
                    [str(c) for c in data["channels"]]
                    if "channels" in data
                    else []
                )
            fs = fs or fs_eeg
            if fs_eeg != fs:
                raise ShapeMismatch(f"{path}: mixed EEG rates in dataset")
            speakers = [
                dataio.SpeakerTrack(ids[s], dirs[s], envs[:, s], env_fs)
                for s in range(len(ids))
            ]
            timeline = dataio.build_timeline(
                task, eeg.shape[0] / fs_eeg, switch, seq
            )
            trial = dataio.Trial(
                trial_id=f"t{i:03d}",
                task=task,
                group=dataio._derive_group({}, ids),
                eeg=preprocess.MultichannelSignal(eeg, fs_eeg, names),
                speakers=speakers,
                timeline=timeline,
            )
            trials.append(trial)
        session = dataio.Session(args.subject, fs, trials, preprocessed=False)
        dataio.save_session(session, args.out)
        print(f"converted {len(trials)} trials to {args.out}")
        return 0
    except AadError as exc:
        return _classify(exc)
    except (OSError, KeyError, ValueError) as exc:
        return _fail("data", exc, 4)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aadkit",
        description="Ear-EEG auditory attention decoding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic session")
    p.add_argument("--config", required=True, help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    def run_like(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--manifest", action="append", required=True)
        q.add_argument("--model", default=None)
        q.add_argument("--protocol", default=None)
        q.add_argument("--window", type=float, default=None)
        q.add_argument("--grid", default=None, help="hyperparameter grid JSON")
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--channels", default=None,
                       help="layout preset or comma-separated names")
        q.add_argument("--folds", type=int, default=None)
        q.add_argument("--jobs", type=int, default=1)
        q.add_argument("--config", default=None)
        q.add_argument("--out", required=True)
        return q

    p = run_like("run", "train and evaluate under a CV protocol")
    p.add_argument("--group-tuning", action="store_true", dest="group_tuning")
    p.set_defaults(func=cmd_run)

    p = run_like("ablate", "re-run with partial channel layouts")
    p.add_argument("--layouts", required=True,
                   help="JSON list of preset names or name->channels mapping")
    p.set_defaults(func=cmd_ablate)

    p = run_like("track", "per-trial time-resolved correlation curves")
    p.add_argument("--segment", type=float, default=1.0,
                   help="curve resolution in seconds")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("preprocess", help="condition a raw session")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to-fs", dest="to_fs", type=float, default=40.0)
    p.add_argument("--band", default="0.5,62")
    p.add_argument("--band-order", dest="band_order", type=int, default=8)
    p.add_argument("--notch", default="48,52")
    p.add_argument("--ref", default=None,
                   help="reference channel name or index")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("envelope", help="extract an audio envelope")
    p.add_argument("--audio", required=True, help="mono PCM wav file")
    p.add_argument("--out", required=True, help="output .aad path")
    p.add_argument("--to-fs", dest="to_fs", type=float, default=40.0)
    p.add_argument("--bands", type=int, default=17)
    p.add_argument("--f-low", dest="f_low", type=float, default=50.0)
    p.add_argument("--f-high", dest="f_high", type=float, default=5000.0)
    p.add_argument("--speaker-id", dest="speaker_id", type=int, default=0)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("convert-dataset",
                       help="convert published recordings to the manifest "
                            "layout (best effort)")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subject", default="converted")
    p.set_defaults(func=cmd_convert_dataset)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
