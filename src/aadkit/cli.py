"""Command line interface.

Subcommands: synth, convert-dataset, preprocess, envelope, run, ablate,
track. ``run``, ``ablate`` and ``track`` share one front half. Their
settings (model, protocol, window, grid, seed, channels, folds, jobs, plus
group_tuning for run and segment for track) each have one flag and one
field of the optional --config JSON file; a flag overrides the field, and
a field's value is converted as if it were typed after the flag. What
neither sets takes its default: seed 0, jobs 1, and for track protocol
loto, a 30 s window and 1 s segments. --manifest, --out and --layouts are
flags only. Exit codes: 0 success, 2 configuration error, 3 I/O error
(synth, envelope), 4 data error, 5 numerical failure. Errors go to stderr
with a machine-parsable category prefix.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import crossval, dataio, envelope as envmod, preprocess
from .errors import (
    AadError,
    BadConfig,
    BadProtocolConfig,
    EmptyGrid,
    InvalidBand,
    IoError,
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
    return _fail("data", exc, 4)


def _switch(text):
    """Converter of an on/off setting given in a config file."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# setting -> (converter, default); the flags of run, ablate and track and
# the config fields they accept are both built from this table
_SETTINGS = {
    "model": (str, None),
    "protocol": (str, None),
    "window": (float, None),
    "grid": (str, None),
    "seed": (int, 0),
    "channels": (str, None),
    "folds": (int, None),
    "jobs": (int, 1),
}
_COMMAND_SETTINGS = {
    "run": {**_SETTINGS, "group_tuning": (_switch, False)},
    "ablate": _SETTINGS,
    "track": {**_SETTINGS, "protocol": (str, "loto"),
              "window": (float, 30.0), "segment": (float, 1.0)},
}
_HELP = {
    "grid": "hyperparameter grid JSON",
    "channels": "layout preset or comma-separated names",
    "segment": "curve resolution in seconds",
}


def _settings(args):
    """Fill the settings no flag set from --config, then from the
    defaults, and check the model, protocol and window."""
    table = _COMMAND_SETTINGS[args.command]
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfig(f"config: {exc}") from exc
        if not isinstance(raw, dict):
            raise BadConfig("config: need a JSON object")
        for key, value in raw.items():
            name = key.replace("-", "_")
            if name not in table:
                raise BadConfig(f"{key}: unknown config field")
            if getattr(args, name) is not None:
                continue
            # convert the value as it would be typed after the flag
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                setattr(args, name, table[name][0](text))
            except ValueError as exc:
                raise BadConfig(f"{key}: {exc}") from exc
    for name, (_, default) in table.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.model not in crossval.MODEL_KINDS:
        raise BadConfig(f"model: unknown model {args.model!r}")
    if args.protocol not in crossval.PROTOCOLS:
        raise BadConfig(f"protocol: unknown protocol {args.protocol!r}")
    if args.window is None or args.window <= 0:
        raise BadConfig("window: must be positive")


def _load_grid(args):
    if args.grid:
        try:
            raw = json.loads(Path(args.grid).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfig(f"grid: {exc}") from exc
        if not isinstance(raw, dict):
            raise BadConfig("grid: need a JSON object")
        budget = raw.pop("budget", None)
        gseed = raw.pop("seed", args.seed)
        for key, value in (("budget", budget), ("seed", gseed)):
            # bool is an int subclass; JSON true is not a count or a seed
            if value is not None and type(value) is not int:
                raise BadConfig(f"grid: {key} must be an integer")
        for key, values in raw.items():
            if not isinstance(values, list):
                raise BadConfig(f"grid: {key} must map to a list")
        return crossval.HyperGrid(raw, budget=budget, seed=gseed)
    return crossval.default_grid(args.model)


def _sessions(args, many=False):
    """Yield the preprocessed --manifest sessions, cut to --channels."""
    if not many and len(args.manifest) != 1:
        raise BadConfig("manifest: this command takes exactly one manifest")
    channels = ()
    if args.channels in crossval.LAYOUTS:
        channels = crossval.LAYOUTS[args.channels]
    elif args.channels:
        channels = tuple(
            c.strip() for c in args.channels.split(",") if c.strip()
        )
    for manifest in args.manifest:
        session = dataio.load_session(manifest)
        if not session.preprocessed:
            raise ManifestError(
                f"{manifest}: session is not preprocessed; run the "
                "preprocess command first"
            )
        if channels:
            session = crossval.restrict_session(session, channels)
        yield session


def _plan_args(args):
    """``make_folds`` arguments after the trials; within_trial cuts each
    trial into window-long segments."""
    within = args.protocol == "within_trial"
    return dict(protocol=args.protocol, n_folds=args.folds, seed=args.seed,
                segment_s=args.window if within else None)


def _run_like(command):
    """Resolve the settings, then map the command's errors to exit codes."""
    @functools.wraps(command)
    def wrapped(args):
        try:
            _settings(args)
            return command(args)
        except AadError as exc:
            return _classify(exc)
        except OSError as exc:
            return _fail("io", exc, 4)
    return wrapped


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
        session = dataio.synth_generate(cfg)
        dataio.save_session(session, args.out)
    except BadConfig as exc:
        return _fail("config", exc, 2)
    except (OSError, IoError) as exc:
        return _fail("io", exc, 3)
    print(f"wrote {cfg.n_trials} trials to {args.out}")
    return 0


@_run_like
def cmd_run(args):
    grid = _load_grid(args)
    if args.group_tuning and len(args.manifest) > 1:
        sessions = list(_sessions(args, many=True))
        reports, _ = crossval.run_pipeline_group(
            sessions, args.model, window_s=args.window, grid=grid,
            jobs=args.jobs, **_plan_args(args),
        )
        for session, report in zip(sessions, reports):
            dataio.export_results(report, Path(args.out) / session.subject)
            print(_summary_line(report))
        return 0
    for session in _sessions(args, many=True):
        plan = crossval.make_folds(session.trials, **_plan_args(args))
        report = crossval.run_pipeline(
            session, args.model, plan, grid, args.window, jobs=args.jobs,
        )
        out = Path(args.out)
        if len(args.manifest) > 1:
            out = out / session.subject
        dataio.export_results(report, out)
        print(_summary_line(report))
    return 0


@_run_like
def cmd_ablate(args):
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
    [session] = _sessions(args)
    grid = _load_grid(args)
    plan = crossval.make_folds(session.trials, **_plan_args(args))
    reports = crossval.run_channel_ablation(
        session, layouts, args.model, plan, grid, args.window,
        jobs=args.jobs,
    )
    for name in layouts:
        report = reports[name]
        dataio.export_results(report, Path(args.out) / name)
        print(f"layout={name} {_summary_line(report)}")
    return 0


@_run_like
def cmd_track(args):
    if args.model not in ("wf", "cca"):
        raise BadConfig(
            f"model: tracking needs an envelope decoder, got {args.model!r}"
        )
    if args.protocol == "within_trial":
        # curves are cut from whole test trials only
        raise BadConfig(
            "protocol: tracking needs whole-trial test folds, got "
            "'within_trial'"
        )
    if args.segment <= 0:
        raise BadConfig("segment: must be positive")
    [session] = _sessions(args)
    grid = _load_grid(args)
    plan = crossval.make_folds(session.trials, **_plan_args(args))
    report = crossval.run_pipeline(
        session, args.model, plan, grid, args.window,
        time_pcc_seg_s=args.segment, jobs=args.jobs,
    )
    dataio.export_results(report, Path(args.out))
    print(
        f"model={report.model_kind} trials={len(report.time_pcc)} "
        f"segment={report.time_pcc_seg_s:g}"
    )
    return 0


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
            envs = []
            for sp in trial.speakers:
                env = preprocess.MultichannelSignal(sp.envelope, sp.fs)
                if to_fs is not None and sp.fs != to_fs:
                    env = preprocess.resample(env, to_fs)
                envs.append(preprocess.zscore(env))
            n = min([eeg.n_samples] + [env.n_samples for env in envs])
            eeg = eeg.with_samples(eeg.samples[:n])
            speakers = [
                dataio.SpeakerTrack(sp.speaker_id, sp.direction_deg,
                                    env.samples[:n, 0], env.fs)
                for sp, env in zip(trial.speakers, envs)
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

    def run_like(name, help_text, func):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--manifest", action="append", required=True)
        for key, (convert, _) in _COMMAND_SETTINGS[name].items():
            flag = "--" + key.replace("_", "-")
            if convert is _switch:
                q.add_argument(flag, action="store_true", default=None)
            else:
                q.add_argument(flag, type=convert, help=_HELP.get(key))
        q.add_argument("--config", default=None,
                       help="JSON file of settings; flags override it")
        q.add_argument("--out", required=True)
        q.set_defaults(func=func)
        return q

    run_like("run", "train and evaluate under a CV protocol", cmd_run)
    p = run_like("ablate", "re-run with partial channel layouts", cmd_ablate)
    p.add_argument("--layouts", required=True,
                   help="JSON list of preset names or name->channels mapping")
    run_like("track", "per-trial time-resolved correlation curves", cmd_track)

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
