"""Command line interface.

Subcommands: synth, convert-dataset, preprocess, envelope, run, ablate.
``run`` and ``ablate`` share one front half. Their settings (model,
protocol, window, grid, seed, channels, folds, plus group_tuning and
segment for run) each have one flag and one field of the optional
--config JSON file; a flag overrides the field, and a field's value is
converted as if it were typed after the flag. What neither sets takes its
default: seed 0, and 1 s time-PCC segments. The seed, which deals the
folds, is >= 0. --manifest, --out and --layouts are flags only. Every
JSON input file (--config, --grid, --layouts) is read by
``dataio.read_json``. ``crossval`` checks a --grid file like any grid,
and every point of it is searched. Durations and rates (--window,
--segment, --to-fs) are finite and positive, and a --to-fs is at most
its input's rate. --channels names a preset or distinct channels, at
least one.

Every command runs inside one error shell, ``_command``. Each error class
declares its category and exit code (see ``aadkit.errors``); the shell
prints the category and exits with that code, and an ``OSError`` exits as
an I/O error. Exit codes: 0 success, 2 configuration error, 3 I/O error
for synth and envelope (4 for the other commands), 4 data error, 5
numerical failure. Errors go to stderr with a machine-parsable category
prefix. The readers of input files raise typed errors, so a malformed file
ends with an exit code, not a traceback.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import crossval, dataio, envelope as envmod, preprocess
from .errors import (
    AadError,
    BadConfig,
    DegenerateClass,
    IoError,
    ManifestError,
    ShapeMismatch,
)


def _command(io_code=4):
    """The error shell of every command: an AadError exits with the
    category and code its class declares, an OSError as an I/O error;
    an I/O error's code is ``io_code``."""
    def decorate(command):
        @functools.wraps(command)
        def wrapped(args):
            try:
                return command(args)
            except AadError as exc:
                error = exc
            except OSError as exc:
                error = IoError(exc)
            print(f"error: {error.category}: {error}", file=sys.stderr)
            return error.exit_code or io_code
        return wrapped
    return decorate


def _switch(text):
    """Converter of an on/off setting given in a config file."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# setting -> (converter, default); the flags of run and ablate and the
# config fields they accept are both built from this table
_SETTINGS = {
    "model": (str, None),
    "protocol": (str, None),
    "window": (float, None),
    "grid": (str, None),
    "seed": (int, 0),
    "channels": (str, None),
    "folds": (int, None),
}
_COMMAND_SETTINGS = {
    "run": {**_SETTINGS, "group_tuning": (_switch, False),
            "segment": (float, 1.0)},
    "ablate": _SETTINGS,
}
_HELP = {
    "grid": "hyperparameter grid JSON",
    "channels": "layout preset or comma-separated names",
    "segment": "time-PCC curve resolution in seconds, for wf and cca on "
               "whole-trial protocols; ignored otherwise",
}


def _check_positive(name, value):
    """A duration or a rate: a finite number above zero."""
    if value is None or not (math.isfinite(value) and value > 0):
        raise BadConfig(f"{name}: must be a finite positive number")


def _settings(args):
    """Fill the settings no flag set from --config, then from the
    defaults, and check the model, protocol and window."""
    table = _COMMAND_SETTINGS[args.command]
    if args.config:
        for key, value in dataio.read_json(args.config, "config").items():
            name = key.replace("-", "_")
            if name not in table:
                raise BadConfig(f"{key}: unknown config field")
            if getattr(args, name) is not None:
                continue
            # convert the value as it would be typed after the flag
            text = value if isinstance(value, str) else json.dumps(value)
            convert = table[name][0]
            setattr(args, name, dataio.convert_field(key, convert, text))
    for name, (_, default) in table.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.model not in crossval.MODEL_KINDS:
        raise BadConfig(f"model: unknown model {args.model!r}")
    if args.protocol not in crossval.PROTOCOLS:
        raise BadConfig(f"protocol: unknown protocol {args.protocol!r}")
    _check_positive("window", args.window)
    if args.seed < 0:
        raise BadConfig("seed: must be >= 0")


def _load_grid(args):
    if args.grid:
        return dataio.read_json(args.grid, "grid")
    return crossval.default_grid(args.model)


def _sessions(args, many=False):
    """Yield the preprocessed --manifest sessions, cut to --channels."""
    if not many and len(args.manifest) != 1:
        raise BadConfig("manifest: this command takes exactly one manifest")
    channels = ()
    if args.channels in crossval.LAYOUTS:
        channels = crossval.LAYOUTS[args.channels]
    elif args.channels is not None:
        channels = tuple(
            c.strip() for c in args.channels.split(",") if c.strip()
        )
        if not channels:
            raise BadConfig(f"channels: {args.channels!r} names no channel")
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


def _check_scored(report):
    """A run that scored no decision window is refused before export,
    time-PCC curves or not."""
    if report.n_windows == 0:
        raise DegenerateClass(
            f"no valid {report.window_s:g} s decision window in any test "
            "fold; trials shorter than the window, or every window "
            "excluded"
        )


def _summary_line(report):
    return (
        f"model={report.model_kind} protocol={report.protocol} "
        f"window={report.window_s:g} acc={report.accuracy:.4f} "
        f"f1={report.macro_f1:.4f}"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@_command(io_code=3)
def cmd_synth(args):
    cfg = dataio.load_synth_config(args.config)
    dataio.save_session(dataio.synth_generate(cfg), args.out)
    print(f"wrote {cfg.n_trials} trials to {args.out}")
    return 0


@_command()
def cmd_run(args):
    """One manifest exports to --out; several export to one directory per
    subject under it, each subject checked to be a file name and not
    repeated, and every session's data checked against the settings,
    before anything is fitted. ``wf`` and ``cca`` runs on whole-trial
    protocols also export time-PCC curves at --segment resolution."""
    _settings(args)
    _check_positive("segment", args.segment)
    grid = _load_grid(args)
    sessions = list(_sessions(args, many=True))
    outs = [Path(args.out)]
    if len(sessions) > 1:
        subjects = [session.subject for session in sessions]
        for i, subject in enumerate(subjects):
            dataio.check_path_component("subject", subject, ManifestError)
            if subject in subjects[:i]:
                raise ManifestError(f"subject: {subject!r} is repeated")
        outs = [Path(args.out) / subject for subject in subjects]
    plans = [crossval.make_folds(session.trials, **_plan_args(args))
             for session in sessions]
    if args.group_tuning:
        reports, _ = crossval.run_pipeline_group(
            sessions, args.model, plans, grid, args.window,
            time_pcc_seg_s=args.segment)
    else:
        reports = crossval._run_each(sessions, args.model, plans, grid,
                                     args.window, args.segment)
    for report in reports:
        _check_scored(report)
    for out, report in zip(outs, reports):
        dataio.export_results(report, out)
        print(_summary_line(report))
    return 0


@_command()
def cmd_ablate(args):
    _settings(args)
    layouts = dataio.read_json(args.layouts, "layouts",
                               {list: "a list of presets", dict: "a mapping"})
    [session] = _sessions(args)
    grid = _load_grid(args)
    plan = crossval.make_folds(session.trials, **_plan_args(args))
    reports = crossval.run_channel_ablation(
        session, layouts, args.model, plan, grid, args.window)
    for report in reports.values():
        _check_scored(report)
    for name, report in reports.items():
        dataio.export_results(report, Path(args.out) / name)
        print(f"layout={name} {_summary_line(report)}")
    return 0


def _frequency_pair(text):
    """Converter of --band and --notch: "low,high" in Hz; empty skips."""
    if not text:
        return None
    low, high = (float(v) for v in text.split(","))
    return low, high


@_command()
def cmd_preprocess(args):
    _check_positive("to-fs", args.to_fs)
    session = dataio.load_session(args.manifest)
    if args.to_fs > session.fs:
        raise BadConfig(f"to-fs: {args.to_fs:g} Hz is above the EEG rate "
                        f"{session.fs:g} Hz")
    trials = []
    for trial in session.trials:
        eeg = trial.eeg
        ref = args.ref
        if ref in eeg.channel_names:
            ref = eeg.channel_names.index(ref)
        elif ref is not None:
            ref = dataio.convert_field("ref", int, ref)
        eeg = preprocess.standard_chain(
            eeg, ref_index=ref, band=args.band, band_order=args.band_order,
            notch=args.notch, to_fs=args.to_fs,
        )
        envs = []
        for sp in trial.speakers:
            env = preprocess.MultichannelSignal(sp.envelope, sp.fs)
            if sp.fs != args.to_fs:
                env = preprocess.resample(env, args.to_fs)
            envs.append(preprocess.zscore(env))
        n = min([eeg.n_samples] + [env.n_samples for env in envs])
        eeg = eeg.with_samples(eeg.samples[:n])
        speakers = [
            dataclasses.replace(sp, envelope=env.samples[:n, 0], fs=env.fs)
            for sp, env in zip(trial.speakers, envs)
        ]
        trials.append(dataclasses.replace(
            trial, eeg=eeg, speakers=speakers,
            timeline=dataio.clamp_timeline(trial.timeline, n / eeg.fs),
        ))
    out = dataio.Session(
        session.subject, trials[0].eeg.fs if trials else session.fs,
        trials, preprocessed=True,
    )
    dataio.save_session(out, args.out)
    print(f"preprocessed {len(trials)} trials to {args.out}")
    return 0


@_command(io_code=3)
def cmd_envelope(args):
    _check_positive("to-fs", args.to_fs)
    audio = dataio.read_wav(args.audio)
    if args.to_fs > audio.fs:
        raise BadConfig(f"to-fs: {args.to_fs:g} Hz is above the audio rate "
                        f"{audio.fs:g} Hz")
    bank = envmod.gammatone_bank(audio.fs, args.f_low, args.f_high, args.bands)
    env = envmod.compute_envelope(audio, bank, args.to_fs)
    dataio.write_array(args.out, env.samples, env.fs)
    print(f"wrote {env.samples.shape[0]} envelope samples to {args.out}")
    return 0


@_command()
def cmd_convert_dataset(args):
    """Convert a directory of per-trial .npz files (see
    ``dataio.read_npz_trial``) to the manifest layout, in sorted order."""
    src = Path(args.src)
    files = sorted(src.glob("*.npz"))
    if not files:
        raise ManifestError(f"no .npz trial files under {src}")
    trials = []
    for i, path in enumerate(files):
        trial = dataio.read_npz_trial(path, f"t{i:03d}")
        if trials and trial.eeg.fs != trials[0].eeg.fs:
            raise ShapeMismatch(f"{path}: mixed EEG rates in dataset")
        trials.append(trial)
    session = dataio.Session(args.subject, trials[0].eeg.fs, trials,
                             preprocessed=False)
    dataio.save_session(session, args.out)
    print(f"converted {len(trials)} trials to {args.out}")
    return 0


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

    p = sub.add_parser("preprocess", help="condition a raw session")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to-fs", dest="to_fs", type=float, default=40.0)
    p.add_argument("--band", type=_frequency_pair, default="0.5,62")
    p.add_argument("--band-order", dest="band_order", type=int, default=8)
    p.add_argument("--notch", type=_frequency_pair, default="48,52")
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
