"""Session storage, attended-stream construction, synthetic sessions and
results export.

Sessions live as a ``manifest.json`` plus binary ``.aad`` arrays. An array
file is an 8-field little-endian uint32 header (magic ``AADK``, version,
T, C, fs in millihertz, three reserved zeros) followed by float32 samples,
time-major. Trials carry 2-3 speaker envelopes, spatial directions and an
attention timeline built from the task description (switch tasks split the
trial at the cue, "ignore" tasks label the post-cue span as unattended).

A name that becomes one path component of an output (trial id, subject,
layout name) must pass ``check_path_component``. The CSV exports use
standard quoting, so a field holding a comma or a quote keeps its column;
a trial id or channel name may hold no control character, which would
split or merge rows, and the trial ids of a session must differ.
"""

import csv
import json
import math
import struct
import typing
import wave
import zipfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import kernels, preprocess
from .envelope import AudioTrack
from .errors import (
    BadConfig,
    IoError,
    ManifestError,
    ShapeMismatch,
    UnknownTask,
)
from .preprocess import MultichannelSignal

MAGIC = int.from_bytes(b"AADK", "little")
VERSION = 1

CEEGRID_CHANNELS = [f"L{i}" for i in range(1, 9)] + [f"R{i}" for i in range(1, 9)]

DIRECTIONS_DEG = (-120.0, -60.0, 0.0, 60.0, 120.0)


def direction_class(direction_deg):
    """Map a loudspeaker azimuth to {0: left, 1: front, 2: right}."""
    if direction_deg < 0:
        return 0
    if direction_deg == 0:
        return 1
    return 2


# ---------------------------------------------------------------------------
# binary arrays
# ---------------------------------------------------------------------------


def write_array(path, samples, fs):
    samples = np.asarray(samples, dtype=np.float32)
    if samples.ndim == 1:
        samples = samples[:, None]
    t_len, n_ch = samples.shape
    header = struct.pack(
        "<8I", MAGIC, VERSION, t_len, n_ch, int(round(fs * 1000)), 0, 0, 0
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.astype("<f4").tobytes(order="C"))


def read_array(path):
    """Read an ``.aad`` array; returns (samples float64 (T, C), fs)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 32:
        raise ShapeMismatch(f"{path}: truncated header")
    magic, version, t_len, n_ch, fs_milli, *_ = struct.unpack("<8I", raw[:32])
    if magic != MAGIC:
        raise ManifestError(f"{path}: bad magic {magic:#x}")
    if version != VERSION:
        raise ManifestError(f"{path}: unsupported version {version}")
    expected = 32 + 4 * t_len * n_ch
    if len(raw) != expected:
        raise ShapeMismatch(
            f"{path}: payload is {len(raw) - 32} bytes, header says "
            f"{expected - 32}"
        )
    samples = np.frombuffer(raw[32:], dtype="<f4").reshape(t_len, n_ch)
    if not np.all(np.isfinite(samples)):
        raise ShapeMismatch(f"{path}: samples must be finite")
    return samples.astype(np.float64), fs_milli / 1000.0


def read_json(path, label, kinds=None):
    """Parse the JSON file at ``path``. ``kinds`` maps each accepted
    top-level type to its name in messages (default: an object). Every
    failure is a BadConfig prefixed with ``label``."""
    kinds = kinds or {dict: "a JSON object"}
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BadConfig(f"{label}: {exc}") from exc
    if not isinstance(raw, tuple(kinds)):
        raise BadConfig(f"{label}: need {' or '.join(kinds.values())}")
    return raw


def check_path_component(label, name, error):
    """Raise ``error`` prefixed with ``label`` unless ``name`` can be one
    path component under an output directory: non-empty, not ``.`` or
    ``..``, and without ``/``, ``\\`` or NUL."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise error(f"{label}: {name!r} is not a file name")


def convert_field(label, convert, text):
    """``convert(text)``, with a ValueError raised as BadConfig prefixed
    with ``label``."""
    try:
        return convert(text)
    except ValueError as exc:
        raise BadConfig(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# trials and sessions
# ---------------------------------------------------------------------------


@dataclass
class SpeakerTrack:
    speaker_id: int
    direction_deg: float
    envelope: np.ndarray
    fs: float


@dataclass
class TimelineSpan:
    start_s: float
    end_s: float
    attended: Optional[int]  # speaker id, None for "ignore" spans


@dataclass
class Trial:
    trial_id: str
    task: int
    group: int
    eeg: MultichannelSignal
    speakers: List[SpeakerTrack]
    timeline: List[TimelineSpan]

    @property
    def duration_s(self):
        return self.eeg.n_samples / self.eeg.fs

    def speaker_ids(self):
        return [s.speaker_id for s in self.speakers]


@dataclass
class Session:
    subject: str
    fs: float
    trials: List[Trial]
    preprocessed: bool = False


def build_timeline(task, duration_s, switch_s, attended_sequence):
    """Attention timeline from the task semantics.

    Tasks 1 and 7 hold a single attended span. Tasks 2, 3, 5 and 6 switch
    to the second listed speaker at the cue (task 3 with an unknown target
    gets an unattended second span). Task 4 ignores everything after the
    cue.
    """
    seq = list(attended_sequence)
    if not seq:
        raise ManifestError("attended_sequence must not be empty")
    if task in (1, 7):
        return [TimelineSpan(0.0, duration_s, seq[0])]
    if task in (2, 3, 5, 6):
        if switch_s is None:
            raise ManifestError(f"task {task} requires switch_s")
        second = seq[1] if len(seq) > 1 else None
        return [
            TimelineSpan(0.0, switch_s, seq[0]),
            TimelineSpan(switch_s, duration_s, second),
        ]
    if task == 4:
        if switch_s is None:
            raise ManifestError("task 4 requires switch_s")
        return [
            TimelineSpan(0.0, switch_s, seq[0]),
            TimelineSpan(switch_s, duration_s, None),
        ]
    raise UnknownTask(f"task {task} is not one of 1-7")


def clamp_timeline(timeline, end_s):
    """The timeline cut or stretched to end at ``end_s``: spans that start
    at or after it are dropped and the last span ends there."""
    spans = [span for span in timeline if span.start_s < end_s]
    return spans[:-1] + [replace(spans[-1], end_s=end_s)]


def span_rows(span, fs, n_samples):
    """Rows ``[lo, hi)`` of a signal with ``n_samples`` rows at ``fs`` that
    a timeline span covers: both ends rounded to the nearest sample, the
    end clamped to the signal, so ``hi <= lo`` when it covers none."""
    return (int(round(span.start_s * fs)),
            min(int(round(span.end_s * fs)), n_samples))


def _check_trial_ids(trials):
    """ManifestError naming the first trial id that repeats."""
    seen = set()
    for trial in trials:
        if trial.trial_id in seen:
            raise ManifestError(f"trial id {trial.trial_id!r} repeats")
        seen.add(trial.trial_id)


def _check_names(trial):
    """ManifestError unless the trial id and channel names are free of
    control characters, which would split or merge rows of the CSV
    exports."""
    for label, name in [("trial id", trial.trial_id)] + [
            ("channel name", str(c)) for c in trial.eeg.channel_names]:
        if any(ord(c) < 0x20 or c == "\x7f" for c in name):
            raise ManifestError(f"{label} {name!r}: control character")


def _validate_trial(trial):
    _check_names(trial)
    ids = trial.speaker_ids()
    if not 2 <= len(ids) <= 3:
        raise ManifestError(
            f"trial {trial.trial_id}: {len(ids)} speakers, need 2 or 3"
        )
    if len(set(ids)) != len(ids):
        raise ManifestError(f"trial {trial.trial_id}: duplicate speaker ids")
    dirs = [s.direction_deg for s in trial.speakers]
    if len(set(dirs)) != len(dirs):
        raise ManifestError(f"trial {trial.trial_id}: directions not distinct")
    env_len = {s.envelope.shape[0] for s in trial.speakers}
    if len(env_len) != 1:
        raise ShapeMismatch(f"trial {trial.trial_id}: envelope lengths differ")
    prev_end = 0.0
    for span in trial.timeline:
        if not math.isclose(span.start_s, prev_end, abs_tol=1e-9):
            raise ManifestError(
                f"trial {trial.trial_id}: timeline not contiguous"
            )
        if span.end_s <= span.start_s:
            raise ManifestError(f"trial {trial.trial_id}: empty timeline span")
        if span.attended is not None and span.attended not in ids:
            raise ManifestError(
                f"trial {trial.trial_id}: attended speaker {span.attended} "
                "not in trial"
            )
        prev_end = span.end_s
    if not math.isclose(prev_end, trial.duration_s, rel_tol=1e-6, abs_tol=1e-6):
        raise ManifestError(
            f"trial {trial.trial_id}: timeline ends at {prev_end}, trial "
            f"lasts {trial.duration_s}"
        )


def _derive_group(trial_entry, speaker_ids):
    group = trial_entry.get("group")
    if group is not None:
        return int(group)
    if all(1 <= s <= 3 for s in speaker_ids):
        return 1
    if all(4 <= s <= 6 for s in speaker_ids):
        return 2
    return 0


def load_session(manifest_path):
    """Load and validate a session manifest with its arrays. A missing or
    ill-typed field is a ManifestError."""
    manifest_path = Path(manifest_path)
    try:
        spec = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    try:
        return _parse_manifest(spec, manifest_path.parent)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ManifestError(
            f"malformed manifest {manifest_path}: {type(exc).__name__}: {exc}"
        ) from exc


def _parse_manifest(spec, base):
    for key in ("subject", "fs_eeg", "trials"):
        if key not in spec:
            raise ManifestError(f"manifest missing field {key!r}")
    fs = float(spec["fs_eeg"])
    trials = []
    for entry in spec["trials"]:
        for key in ("id", "task", "eeg", "speakers"):
            if key not in entry:
                raise ManifestError(f"trial entry missing field {key!r}")
        eeg_data, eeg_fs = read_array(base / entry["eeg"])
        if not math.isclose(eeg_fs, fs, rel_tol=1e-6):
            raise ShapeMismatch(
                f"trial {entry['id']}: eeg rate {eeg_fs} != session rate {fs}"
            )
        names = entry.get("channels") or None
        if names is not None and len(names) != eeg_data.shape[1]:
            raise ShapeMismatch(
                f"trial {entry['id']}: {len(names)} channel names for "
                f"{eeg_data.shape[1]} channels"
            )
        eeg = MultichannelSignal(eeg_data, fs, names or [])
        speakers = []
        for sp in entry["speakers"]:
            env, env_fs = read_array(base / sp["envelope"])
            speakers.append(SpeakerTrack(
                int(sp["id"]), float(sp["direction_deg"]), env[:, 0], env_fs
            ))
        if "timeline" in entry:
            timeline = [
                TimelineSpan(float(s["start_s"]), float(s["end_s"]),
                             s.get("attended"))
                for s in entry["timeline"]
            ]
        else:
            timeline = build_timeline(
                int(entry["task"]), eeg.n_samples / fs,
                entry.get("switch_s"), entry.get("attended_sequence", []),
            )
        trial = Trial(
            trial_id=str(entry["id"]),
            task=int(entry["task"]),
            group=_derive_group(entry, [s.speaker_id for s in speakers]),
            eeg=eeg,
            speakers=speakers,
            timeline=timeline,
        )
        _validate_trial(trial)
        trials.append(trial)
    _check_trial_ids(trials)
    return Session(
        subject=str(spec["subject"]),
        fs=fs,
        trials=trials,
        preprocessed=bool(spec.get("preprocessed", False)),
    )


def read_npz_trial(path, trial_id):
    """One raw trial from a .npz file with the keys eeg (T, C), fs_eeg,
    envelopes (T_env, S), env_fs, speaker_ids (S,), directions_deg (S,),
    task, attended_sequence and optionally switch_s and channels. A missing
    or unreadable key is a ManifestError, and the trial passes the checks
    that :func:`load_session` makes of every trial."""
    try:
        # np.load leaves a file it opened itself open when the zip is bad
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            fs = float(data["fs_eeg"])
            names = data["channels"] if "channels" in data else []
            eeg = MultichannelSignal(data["eeg"], fs, [str(c) for c in names])
            envs = np.asarray(data["envelopes"], dtype=np.float64)
            env_fs = float(data["env_fs"])
            ids = [int(v) for v in data["speaker_ids"]]
            dirs = [float(v) for v in data["directions_deg"]]
            speakers = [SpeakerTrack(ids[s], dirs[s], envs[:, s], env_fs)
                        for s in range(len(ids))]
            task = int(data["task"])
            seq = [int(v) for v in data["attended_sequence"]]
            switch = float(data["switch_s"]) if "switch_s" in data else None
    except (EOFError, IndexError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ManifestError(exc) from exc
    trial = Trial(trial_id, task, _derive_group({}, ids), eeg, speakers,
                  build_timeline(task, eeg.n_samples / fs, switch, seq))
    _validate_trial(trial)
    return trial


def save_session(session, out_dir):
    """Write a session as manifest.json plus .aad arrays; returns the
    manifest path. Every trial id must name a file and appear once, and
    no name may hold a control character (ManifestError), checked before
    anything is written."""
    for trial in session.trials:
        check_path_component("trial id", trial.trial_id, ManifestError)
        _check_names(trial)
    _check_trial_ids(session.trials)
    out_dir = Path(out_dir)
    arrays = out_dir / "arrays"
    arrays.mkdir(parents=True, exist_ok=True)
    entries = []
    for trial in session.trials:
        eeg_rel = f"arrays/{trial.trial_id}_eeg.aad"
        write_array(out_dir / eeg_rel, trial.eeg.samples, trial.eeg.fs)
        speakers = []
        for sp in trial.speakers:
            rel = f"arrays/{trial.trial_id}_spk{sp.speaker_id}.aad"
            write_array(out_dir / rel, sp.envelope, sp.fs)
            speakers.append(
                {
                    "id": sp.speaker_id,
                    "direction_deg": sp.direction_deg,
                    "envelope": rel,
                }
            )
        entries.append(
            {
                "id": trial.trial_id,
                "task": trial.task,
                "group": trial.group,
                "eeg": eeg_rel,
                "channels": list(trial.eeg.channel_names),
                "speakers": speakers,
                "timeline": [
                    {
                        "start_s": span.start_s,
                        "end_s": span.end_s,
                        "attended": span.attended,
                    }
                    for span in trial.timeline
                ],
            }
        )
    manifest = {
        "subject": session.subject,
        "fs_eeg": session.fs,
        "preprocessed": session.preprocessed,
        "trials": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# attended / unattended composite streams
# ---------------------------------------------------------------------------


@dataclass
class AttendedStreams:
    attended: np.ndarray  # (T,)
    unattended: List[np.ndarray]  # per-instant lower/higher speaker order
    mask: np.ndarray  # (T,) bool, False where no speaker is attended
    fs: float


def build_attended_streams(trial):
    """Piecewise composites following the attention timeline.

    At every instant the attended stream carries the attended speaker's
    envelope; unattended stream i carries the envelope of the i-th lowest
    remaining speaker id. Spans without an attended speaker are masked out:
    their attended samples are zero and the unattended slots follow the
    all-speaker id order.
    """
    fs = trial.speakers[0].fs
    t_len = trial.speakers[0].envelope.shape[0]
    by_id = {s.speaker_id: s.envelope for s in trial.speakers}
    ids = sorted(by_id)
    n_unatt = len(ids) - 1
    attended = np.zeros(t_len)
    unattended = [np.zeros(t_len) for _ in range(n_unatt)]
    mask = np.zeros(t_len, dtype=bool)
    for span in trial.timeline:
        lo, hi = span_rows(span, fs, t_len)
        if hi <= lo:
            continue
        if span.attended is None:
            others = ids[:n_unatt]
        else:
            mask[lo:hi] = True
            attended[lo:hi] = by_id[span.attended][lo:hi]
            others = [s for s in ids if s != span.attended]
        for i, sid in enumerate(others):
            unattended[i][lo:hi] = by_id[sid][lo:hi]
    return AttendedStreams(attended=attended, unattended=unattended,
                           mask=mask, fs=fs)


# ---------------------------------------------------------------------------
# synthetic sessions
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    n_trials: int = 20
    duration_s: float = 30.0
    n_channels: int = 8
    fs: float = 40.0
    n_speakers: int = 3
    kernel_lags: int = 11
    snr: float = 5.0
    interference_gain: float = 0.3
    switch_times: Optional[List[Optional[float]]] = None
    tasks: Optional[List[int]] = None
    seed: int = 0
    direction_gain: float = 0.0
    active_channels: Optional[List[int]] = None
    group_b_every: int = 3
    balance_directions: bool = True
    subject: str = "synth"

    def validate(self):
        if self.n_trials < 1:
            raise BadConfig("n_trials: must be >= 1")
        if self.duration_s <= 0:
            raise BadConfig("duration_s: must be positive")
        if self.n_channels < 1:
            raise BadConfig("n_channels: must be >= 1")
        if self.fs <= 0:
            raise BadConfig("fs: must be positive")
        if self.n_speakers not in (2, 3):
            raise BadConfig("n_speakers: must be 2 or 3")
        if self.kernel_lags < 1:
            raise BadConfig("kernel_lags: must be >= 1")
        if not self.snr > 0:
            raise BadConfig("snr: must be positive")
        if self.interference_gain < 0:
            raise BadConfig("interference_gain: must be >= 0")
        if self.switch_times is not None:
            if len(self.switch_times) != self.n_trials:
                raise BadConfig("switch_times: need one entry per trial")
            for sw in self.switch_times:
                if sw is not None and not 0 < sw < self.duration_s:
                    raise BadConfig("switch_times: cue outside the trial")
        if self.tasks is not None:
            if len(self.tasks) != self.n_trials:
                raise BadConfig("tasks: need one entry per trial")
            for t in self.tasks:
                if t not in (1, 2, 4, 6):
                    raise BadConfig("tasks: synthetic tasks are 1, 2, 4, 6")
        if self.active_channels is not None:
            for c in self.active_channels:
                if not 0 <= c < self.n_channels:
                    raise BadConfig("active_channels: index out of range")
        if self.group_b_every < 0:
            raise BadConfig("group_b_every: must be >= 0")
        if self.seed < 0:
            raise BadConfig("seed: must be >= 0")
        return self


def _json_fits(value, hint):
    """Whether a JSON value has the type of a SynthConfig field: a bool is
    not an int, an int is a float, and a list field takes a list or null."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_json_fits(value, h) for h in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(
            _json_fits(v, args[0]) for v in value
        )
    if hint is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is hint


def load_synth_config(path):
    raw = read_json(path, "config")
    hints = {f.name: f.type for f in fields(SynthConfig)}
    for key in raw:
        if key not in hints:
            raise BadConfig(f"{key}: unknown config field")
    for key, value in raw.items():
        hint = hints[key]
        if not _json_fits(value, hint):
            name = (hint.__name__ if isinstance(hint, type)
                    else str(hint).replace("typing.", ""))
            raise BadConfig(f"{key}: need {name}, got {value!r}")
    return SynthConfig(**raw).validate()


def _smooth_positive_noise(rng, t_len, fs):
    """Nonnegative envelope-like series: low-pass filtered |noise|^0.6."""
    raw = np.abs(rng.standard_normal(t_len)) ** 0.6
    width = max(3, int(round(0.25 * fs)))
    window = np.hanning(width + 2)[1:-1]
    window /= window.sum()
    return np.convolve(raw, window, mode="same")


def _trial_tasks(cfg):
    if cfg.tasks is not None:
        return list(cfg.tasks)
    if cfg.switch_times is None:
        return [1] * cfg.n_trials
    return [1 if sw is None else 2 for sw in cfg.switch_times]


def synth_generate(cfg):
    """Deterministic synthetic session with a known forward model.

    EEG is the attended composite envelope pushed through per-channel FIR
    kernels at the requested signal-to-noise amplitude ratio, plus scaled
    interference from the unattended mixture through a second kernel, plus
    unit white noise. Optionally a direction-coded narrowband spatial
    component is added for classifier experiments. Per-trial RNG
    substreams make the output independent of generation order.
    """
    cfg.validate()
    t_len = int(round(cfg.duration_s * cfg.fs))
    rng_k = np.random.default_rng([cfg.seed, 0])
    h_att = rng_k.standard_normal((cfg.n_channels, cfg.kernel_lags))
    h_att /= np.linalg.norm(h_att, axis=1, keepdims=True)
    h_int = rng_k.standard_normal((cfg.n_channels, cfg.kernel_lags))
    h_int /= np.linalg.norm(h_int, axis=1, keepdims=True)
    if cfg.active_channels is not None:
        keep = np.zeros(cfg.n_channels, dtype=bool)
        keep[list(cfg.active_channels)] = True
        h_att[~keep] = 0.0
        h_int[~keep] = 0.0
    patterns = np.linalg.qr(rng_k.standard_normal((cfg.n_channels, 3)))[0][:, :3]
    band_sos = None
    if cfg.direction_gain > 0:
        band_sos = preprocess.design_bandpass(
            6.0, min(14.0, 0.45 * cfg.fs), 4, cfg.fs
        ).sections
    tasks = _trial_tasks(cfg)
    switch_times = cfg.switch_times or [None] * cfg.n_trials

    if cfg.n_channels == 16:
        channel_names = list(CEEGRID_CHANNELS)
    else:
        channel_names = [f"ch{i:02d}" for i in range(cfg.n_channels)]

    trials = []
    for i in range(cfg.n_trials):
        rng = np.random.default_rng([cfg.seed, 1000 + i])
        task = tasks[i]
        n_spk = 2 if task == 6 else cfg.n_speakers
        group_b = cfg.group_b_every > 0 and (i + 1) % cfg.group_b_every == 0
        ids = [4, 5, 6][:n_spk] if group_b else [1, 2, 3][:n_spk]

        if cfg.balance_directions and n_spk == 3:
            dirs = list(rng.permutation([-60.0, 0.0, 60.0]))
            want = i % 3
            att_pos = next(
                p for p, d in enumerate(dirs) if direction_class(d) == want
            )
        else:
            dirs = list(rng.choice(DIRECTIONS_DEG, size=n_spk, replace=False))
            att_pos = int(rng.integers(n_spk))

        envelopes = [
            _smooth_positive_noise(rng, t_len, cfg.fs) for _ in range(n_spk)
        ]
        speakers = [
            SpeakerTrack(ids[p], dirs[p], envelopes[p], cfg.fs)
            for p in range(n_spk)
        ]

        switch = switch_times[i]
        if task == 1:
            seq = [ids[att_pos]]
        elif task == 4:
            seq = [ids[att_pos]]
            switch = switch if switch is not None else cfg.duration_s / 2
        else:
            second = (att_pos + 1) % n_spk
            seq = [ids[att_pos], ids[second]]
            switch = switch if switch is not None else cfg.duration_s / 2
        timeline = build_timeline(task, cfg.duration_s, switch, seq)

        centered = []
        for env in envelopes:
            std = env.std()
            centered.append((env - env.mean()) / (std if std > 0 else 1.0))
        att = np.zeros(t_len)
        unatt = np.zeros(t_len)
        for span in timeline:
            lo, hi = span_rows(span, cfg.fs, t_len)
            for p in range(n_spk):
                if span.attended == ids[p]:
                    att[lo:hi] = centered[p][lo:hi]
                else:
                    unatt[lo:hi] += centered[p][lo:hi]

        eeg = rng.standard_normal((t_len, cfg.n_channels))
        for c in range(cfg.n_channels):
            eeg[:, c] += cfg.snr * np.convolve(att, h_att[c])[:t_len]
            eeg[:, c] += cfg.interference_gain * np.convolve(
                unatt, h_int[c]
            )[:t_len]
        if cfg.direction_gain > 0:
            carrier = kernels.sosfilt(
                band_sos, rng.standard_normal((t_len, 1))
            )[:, 0]
            std = carrier.std()
            if std > 0:
                carrier /= std
            for span in timeline:
                if span.attended is None:
                    continue
                klass = direction_class(dirs[ids.index(span.attended)])
                lo, hi = span_rows(span, cfg.fs, t_len)
                eeg[lo:hi] += cfg.direction_gain * np.outer(
                    carrier[lo:hi], patterns[:, klass]
                )

        trial = Trial(
            trial_id=f"t{i:03d}",
            task=task,
            group=2 if group_b else 1,
            eeg=MultichannelSignal(eeg, cfg.fs, list(channel_names)),
            speakers=speakers,
            timeline=timeline,
        )
        _validate_trial(trial)
        trials.append(trial)
    return Session(subject=cfg.subject, fs=cfg.fs, trials=trials,
                   preprocessed=True)


def shuffle_attended(session, seed):
    """Replace every attended label with a random speaker of the same
    trial; the chance-level control for decoding accuracy."""
    rng = np.random.default_rng([seed, 424242])
    trials = []
    for trial in session.trials:
        ids = trial.speaker_ids()
        timeline = [
            TimelineSpan(
                span.start_s,
                span.end_s,
                None if span.attended is None else int(rng.choice(ids)),
            )
            for span in trial.timeline
        ]
        trials.append(replace(trial, timeline=timeline))
    return replace(session, trials=trials)


# ---------------------------------------------------------------------------
# WAV ingestion (mono PCM, 16 or 24 bit)
# ---------------------------------------------------------------------------


def read_wav(path, speaker_id=0):
    try:
        with wave.open(str(path), "rb") as fh:
            n_ch = fh.getnchannels()
            width = fh.getsampwidth()
            fs = fh.getframerate()
            frames = fh.readframes(fh.getnframes())
    except (OSError, wave.Error) as exc:
        raise IoError(f"cannot read wav {path}: {exc}") from exc
    if n_ch != 1:
        raise IoError(f"{path}: only mono wav is supported, got {n_ch} channels")
    if width not in (2, 3):
        raise IoError(f"{path}: unsupported sample width {width * 8} bit")
    if fs < 8000:
        raise IoError(f"{path}: audio rate {fs} Hz is below 8 kHz")
    if not frames or len(frames) % width:
        raise IoError(f"{path}: no whole audio frames")
    if width == 2:
        data = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    else:
        # each sample in the top three bytes of a little-endian int32
        padded = np.zeros((len(frames) // 3, 4), dtype=np.uint8)
        padded[:, 1:] = np.frombuffer(frames, dtype=np.uint8).reshape(-1, 3)
        data = padded.view("<i4")[:, 0] / float(1 << 31)
    return AudioTrack(samples=data, fs=float(fs), speaker_id=speaker_id)


# ---------------------------------------------------------------------------
# model serialization: flat float64 arrays with dimension headers
# ---------------------------------------------------------------------------


def _pack(tag, scalars, arrays):
    parts = [tag.encode("ascii"), struct.pack("<I", len(scalars))]
    parts.append(struct.pack(f"<{len(scalars)}d", *scalars))
    parts.append(struct.pack("<I", len(arrays)))
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def serialize_model(model):
    """Deterministic byte serialization of any fitted model."""
    from .linear import CcaModel, WfModel
    from .spatial import CspModel, LdaModel, RgcModel

    if isinstance(model, WfModel):
        return _pack("WF01", [model.lam, model.lags, model.channels], [model.w])
    if isinstance(model, CcaModel):
        return _pack("CC01", [model.reg],
                     [model.wx, model.wy, model.correlations])
    if isinstance(model, CspModel):
        keys = sorted(model.filters)
        arrays = [model.filters[k] for k in keys]
        scalars = [model.n_classes, model.f_per, model.fs, model.channels]
        scalars += [v for band in model.bands for v in band]
        return _pack("CS01", scalars, arrays)
    if isinstance(model, RgcModel):
        return _pack("RG01", [model.shrinkage],
                     [model.mean, model.mean_inv_sqrt])
    if isinstance(model, LdaModel):
        return _pack("LD01", [],
                     [model.class_means, model.weights, model.biases,
                      model.priors])
    if isinstance(model, tuple):
        return b"".join(serialize_model(m) for m in model)
    raise TypeError(f"cannot serialize {type(model).__name__}")


# ---------------------------------------------------------------------------
# results export
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    """A header row, then the rows, as standard CSV with ``\\n`` line ends.
    ``None`` is written as an empty field and a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_results(report, out_dir):
    """Write windows.csv, summary.json, time_pcc.csv, channel_stats.csv and
    per-fold model blobs. Re-export of the same report is byte-identical."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / name for name in (
            "windows.csv", "summary.json", "time_pcc.csv", "channel_stats.csv")]
        wpath, spath, tpath, cpath = paths

        _write_csv(wpath, ["trial_id", "window_index", "predicted",
                           "attended", "tie", "rho_attended",
                           "rho_unattended1", "rho_unattended2"], (
            # fewer than three candidates leave the last rho fields empty
            [w.trial_id, w.window_index, w.predicted, w.attended, int(w.tie),
             *(list(w.rhos or ()) + [None] * 3)[:3]]
            for w in report.windows))

        summary = {
            "model": report.model_kind,
            "protocol": report.protocol,
            "window_s": report.window_s,
            "accuracy": {"mean": report.accuracy, "std": report.accuracy_std},
            "macro_f1": {"mean": report.macro_f1, "std": report.macro_f1_std},
            "window_accuracy": report.window_accuracy(),
            "attended_pcc": report.attended_pcc,
            "unattended_pcc1": report.unattended_pcc1,
            "unattended_pcc2": report.unattended_pcc2,
            "delta_pcc1": report.delta_pcc1,
            "delta_pcc2": report.delta_pcc2,
            "n_windows": report.n_windows,
            "n_excluded": report.n_excluded,
            "folds": [
                {
                    "fold": f.fold_index,
                    "test_ids": sorted(str(t) for t in f.test_ids),
                    "params": {k: f.params[k] for k in sorted(f.params)},
                    "accuracy": f.accuracy,
                    "macro_f1": f.macro_f1,
                    "n_windows": f.n_windows,
                }
                for f in report.folds
            ],
        }
        spath.write_text(json.dumps(summary, indent=2, sort_keys=True))

        _write_csv(tpath, ["trial_id", "segment_index", "candidate", "pcc"], (
            [trial_id, seg, label, value]
            for trial_id, (labels, curve) in sorted(report.time_pcc.items())
            for seg, values in enumerate(curve.tolist())
            for label, value in zip(labels, values)))

        stats = []
        if report.channel_max_abs is not None:
            stats = zip(report.channel_names, report.channel_max_abs.tolist(),
                        report.channel_mean_sq.tolist())
        _write_csv(cpath, ["channel", "max_abs", "mean_sq"], stats)

        models_dir = out_dir / "models"
        models_dir.mkdir(exist_ok=True)
        for f in report.folds:
            mpath = models_dir / f"fold_{f.fold_index:03d}.model"
            mpath.write_bytes(f.model_bytes)
            paths.append(mpath)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write results to {out_dir}: {exc}") from exc
