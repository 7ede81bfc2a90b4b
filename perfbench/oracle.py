"""Correctness checks for one pass of a workload.

Two independent checks, both run on the first pass of every run:

* an oracle that recomputes the outputs with numpy/scipy library calls
  (``linalg.solve``/``eigh``/``svd``, ``signal.sosfilt``/``lfilter``/
  ``upfirdn``) instead of the package's hand-written kernels. For the
  decoders it refits every outer fold with the selected parameters and
  re-decides every test window; the window count must match exactly, and
  so must every decision whose oracle margin is wider than roundoff. For
  the front end every output sample must agree to 1e-9 relative.
* the stored reference (``reference.json``), computed with the package at
  the commit that introduced this benchmark, for the seeds it lists:
  per-fold selected parameters, accuracy and window count must be equal,
  and front-end fingerprints agree to 1e-9 relative.

Later passes in the same run must reproduce the first pass exactly.
"""

import json
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import signal

from aadkit import dataio, preprocess, spatial

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
# a decision only counts as a mismatch when the oracle's winning margin is
# wider than this; narrower margins are within roundoff of a tie
MARGIN = 1e-7


# ---------------------------------------------------------------------------
# summaries: what is compared against the stored reference and across passes
# ---------------------------------------------------------------------------


def _params(params):
    return {k: float(params[k]) for k in sorted(params)}


def decode_summary(outputs):
    """Per decoder: per-fold (params, accuracy, n_windows) and the means."""
    return {
        model: {
            "folds": [
                [_params(f.params), f.accuracy, f.n_windows]
                for f in report.folds
            ],
            "accuracy": report.accuracy,
            "macro_f1": report.macro_f1,
        }
        for model, (_, report, _) in outputs.items()
    }


def _weights(n):
    return np.random.default_rng(20251017).standard_normal(n)


def frontend_summary(outputs):
    """Per output array: shape, per-channel norms and projections on a
    fixed random vector."""
    out = {}
    for key, arrays in outputs.items():
        rows = []
        for a in arrays:
            a = np.asarray(a, dtype=np.float64)
            a2 = a.reshape(a.shape[0], -1)
            rows.append({
                "shape": list(a.shape),
                "norm": np.linalg.norm(a2, axis=0).tolist(),
                "proj": (_weights(a2.shape[0]) @ a2).tolist(),
            })
        out[key] = rows
    return out


def summarize(workload, outputs):
    if workload.decoders:
        return decode_summary(outputs)
    return frontend_summary(outputs)


def same_outputs(workload, first, other):
    """Exact equality of two passes (later passes against the first)."""
    if workload.decoders:
        # exported summary.json carries every fold's params and accuracy
        return all(
            first[m][2] == other[m][2]
            and [r.rhos for r in first[m][1].windows]
            == [r.rhos for r in other[m][1].windows]
            for m in first
        )
    return all(
        len(first[k]) == len(other[k])
        and all(np.array_equal(a, b) for a, b in zip(first[k], other[k]))
        for k in first
    )


# ---------------------------------------------------------------------------
# stored reference
# ---------------------------------------------------------------------------


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_reference(workload, seed, summary, reference):
    """Mismatches against the stored reference; None when the seed has
    no stored entry."""
    ref = reference.get(workload.name, {}).get(str(seed))
    if ref is None:
        return None
    if workload.decoders:
        got = json.loads(json.dumps(summary))
        return [
            f"{m}: {got.get(m)} != reference {ref[m]}"
            for m in ref
            if got.get(m, {}).get("folds") != ref[m]["folds"]
        ]
    bad = []
    for key, rows in ref.items():
        for i, (want, have) in enumerate(zip(rows, summary[key])):
            scale = np.asarray(want["norm"]) * np.linalg.norm(
                _weights(want["shape"][0])
            )
            if want["shape"] != have["shape"] or not (
                np.allclose(have["norm"], want["norm"], rtol=REL_TOL, atol=0)
                and np.all(np.abs(np.subtract(have["proj"], want["proj"]))
                           <= REL_TOL * scale)
            ):
                bad.append(f"{key}[{i}] differs from reference")
        if len(rows) != len(summary[key]):
            bad.append(f"{key}: {len(summary[key])} outputs, "
                       f"reference has {len(rows)}")
    return bad


# ---------------------------------------------------------------------------
# oracle: decoders
# ---------------------------------------------------------------------------


def _lag(x, lags):
    """Column c*L + l holds x_c(t - l), zero-padded (package layout)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, n_ch = x.shape
    out = np.zeros((t_len, n_ch, lags))
    for lag in range(lags):
        out[lag:, :, lag] = x[: t_len - lag]
    return out.reshape(t_len, n_ch * lags)


def _pcc(a, b):
    a = a - a.mean()
    b = b - b.mean()
    den = np.sqrt((a @ a) * (b @ b))
    return 0.0 if den == 0 else float(np.clip((a @ b) / den, -1.0, 1.0))


def _inv_sqrt(m):
    d, v = np.linalg.eigh(m)
    return (v / np.sqrt(d)) @ v.T


def _winner(scores):
    """Index of the maximum and its margin over the runner-up."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return int(order[0]), float(scores[order[0]] - scores[order[1]])


def _linear_fit(model, session, units, params):
    lags = int(params["L"])
    ly = int(params.get("L_y", 0) or 0)
    rxx = rxy = ryy = 0.0
    for tid in units:
        trial = next(t for t in session.trials if t.trial_id == tid)
        streams = dataio.build_attended_streams(trial)
        keep = streams.mask
        x = _lag(trial.eeg.samples, lags)[keep]
        y = _lag(streams.attended, ly)[keep] if ly else streams.attended[keep]
        rxx = rxx + x.T @ x
        rxy = rxy + x.T @ y
        if ly:
            ryy = ryy + y.T @ y
    if model == "wf":
        return np.linalg.solve(rxx + params["lam"] * np.eye(len(rxx)), rxy)
    reg = params["reg"]
    wxw = _inv_sqrt(rxx + reg * np.eye(len(rxx)))
    wyw = _inv_sqrt(ryy + reg * np.eye(len(ryy)))
    u, _, vt = np.linalg.svd(wxw @ rxy @ wyw)
    k = int(params["n_components"])
    return wxw @ u[:, :k], wyw @ vt.T[:, :k]


def _linear_windows(model, session, fold, weights, win):
    """Yield (trial_id, window, predicted, margin, label) per test window
    of a linear decoder; the attended candidate is always index 0."""
    params = fold.params
    lags = int(params["L"])
    for tid in sorted(fold.test_ids):
        trial = next(t for t in session.trials if t.trial_id == tid)
        streams = dataio.build_attended_streams(trial)
        x = _lag(trial.eeg.samples, lags)
        cands = [streams.attended] + list(streams.unattended)
        for w in range(trial.eeg.n_samples // win):
            a, b = w * win, (w + 1) * win
            if not streams.mask[a:b].all():
                continue
            if model == "wf":
                rec = x[a:b] @ weights
                rhos = [_pcc(rec, c[a:b]) for c in cands]
            else:
                wx, wy = weights
                px = x[a:b] @ wx
                rhos = []
                for c in cands:
                    py = _lag(c[a:b], int(params["L_y"])) @ wy
                    rhos.append(np.mean([_pcc(px[:, i], py[:, i])
                                         for i in range(px.shape[1])]))
            pred, margin = _winner(rhos)
            yield tid, w, pred, margin, 0


def _window_label(trial, lo, hi, fs):
    for span in trial.timeline:
        if round(span.start_s * fs) <= lo and hi <= round(span.end_s * fs):
            if span.attended is None:
                return None
            sp = next(s for s in trial.speakers
                      if s.speaker_id == span.attended)
            return dataio.direction_class(sp.direction_deg)
    return None


def _labeled(session, units, win):
    out = []
    for tid in units:
        trial = next(t for t in session.trials if t.trial_id == tid)
        for w in range(trial.eeg.n_samples // win):
            a, b = w * win, (w + 1) * win
            label = _window_label(trial, a, b, session.fs)
            if label is not None:
                out.append((tid, w, trial.eeg.samples[a:b], label))
    return out


def _cov(seg, shrinkage=0.0):
    x = seg - seg.mean(axis=0)
    c = x.T @ x / (x.shape[0] - 1)
    c = 0.5 * (c + c.T)
    if shrinkage:
        n = c.shape[0]
        c = (1 - shrinkage) * c + shrinkage * np.trace(c) / n * np.eye(n)
    return c


def _spd_fn(c, fn):
    d, v = np.linalg.eigh(0.5 * (c + c.T))
    return (v * fn(d)) @ v.T


def _classifier_features(model, fs, train, params):
    """Fit the spatial front end on training windows; return a feature
    function for any window."""
    if model == "csp":
        f_per = int(params.get("csp_f", spatial.DEFAULT_CSP_FILTERS))
        soses = [signal.butter(2, band, btype="bandpass", fs=fs,
                               output="sos") for band in spatial.DEFAULT_BANDS]
        labels = np.array([r[3] for r in train])
        filters = []
        for sos in soses:
            covs = [_cov(signal.sosfilt(sos, r[2], axis=0)) for r in train]
            r_all = np.mean(covs, axis=0)
            for k in range(3):
                r_k = np.mean([covs[i] for i in np.flatnonzero(labels == k)],
                              axis=0)
                _, vec = scipy.linalg.eigh(r_k, r_all)
                filters.append((sos, vec[:, ::-1][:, :f_per]))

        def feats(seg):
            out = []
            for sos, w in filters:
                f = signal.sosfilt(sos, seg, axis=0)
                proj = (f - f.mean(axis=0)) @ w
                out.append(np.log(np.maximum(np.mean(proj ** 2, axis=0),
                                             1e-300)))
            return np.concatenate(out)

        return feats
    shrink = float(params.get("rgc_shrinkage",
                              spatial.DEFAULT_RGC_SHRINKAGE))
    logs = [_spd_fn(_cov(r[2], shrink), np.log) for r in train]
    mean = _spd_fn(np.mean(logs, axis=0), np.exp)
    w = _spd_fn(mean, lambda d: 1.0 / np.sqrt(d))
    n = mean.shape[0]
    iu = np.triu_indices(n)
    coeff = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))

    def feats(seg):
        return coeff * _spd_fn(w @ _cov(seg, shrink) @ w, np.log)[iu]

    return feats


def _lda(features, labels, gamma):
    x = np.asarray(features)
    labels = np.asarray(labels)
    n, d = x.shape
    present = np.unique(labels)
    means = np.zeros((3, d))
    prior = np.full(3, -np.inf)
    scatter = np.zeros((d, d))
    for k in present:
        rows = x[labels == k]
        means[k] = rows.mean(axis=0)
        prior[k] = np.log(rows.shape[0] / n)
        scatter += (rows - means[k]).T @ (rows - means[k])
    pooled = scatter / (n - present.size)
    pooled = pooled + gamma * np.trace(pooled) / d * np.eye(d)
    weights = np.linalg.solve(pooled, means.T)
    biases = -0.5 * np.einsum("kd,dk->k", means, weights) + prior
    return weights, biases


def _classifier_windows(model, session, plan, fold, win):
    params = fold.params
    loop = plan.outer[fold.fold_index]
    train = _labeled(session, loop.fit, win)
    feats = _classifier_features(model, session.fs, train, params)
    gamma = float(params.get("lda_gamma", spatial.DEFAULT_LDA_GAMMA))
    weights, biases = _lda([feats(r[2]) for r in train],
                           [r[3] for r in train], gamma)
    for tid, w, seg, label in _labeled(session, loop.test, win):
        pred, margin = _winner(feats(seg) @ weights + biases)
        yield tid, w, pred, margin, label


def check_decoders(workload, prepared, outputs):
    """Oracle mismatches for every decoder of a pass."""
    bad = []
    session = prepared.session
    for d in workload.decoders:
        plan, report, _ = outputs[d.model]
        win = int(round(d.window_s * session.fs))
        records = iter(report.windows)
        for fold in report.folds:
            mine = [next(records) for _ in range(fold.n_windows)]
            if d.model in ("wf", "cca"):
                weights = _linear_fit(d.model, session,
                                      plan.outer[fold.fold_index].fit,
                                      fold.params)
                ref = list(_linear_windows(d.model, session, fold, weights,
                                           win))
            else:
                ref = list(_classifier_windows(d.model, session, plan, fold,
                                               win))
            where = f"{d.model} fold {fold.fold_index}"
            if len(ref) != len(mine):
                bad.append(f"{where}: {len(mine)} windows, oracle {len(ref)}")
                continue
            for r, (tid, w, pred, margin, label) in zip(mine, ref):
                if (r.trial_id, r.window_index, r.attended) != (tid, w, label):
                    bad.append(f"{where}: window {r.trial_id}/"
                               f"{r.window_index} is not oracle {tid}/{w}")
                elif margin > MARGIN and r.predicted != pred:
                    bad.append(f"{where}: window {tid}/{w} predicted "
                               f"{r.predicted}, oracle {pred}")
            acc = np.mean([r.correct for r in mine]) if mine else 0.0
            if mine and acc != fold.accuracy:
                bad.append(f"{where}: accuracy {fold.accuracy} is not the "
                           f"share of correct windows {acc}")
    return bad


# ---------------------------------------------------------------------------
# oracle: front end
# ---------------------------------------------------------------------------


def _resample(x, fs_from, fs_to):
    """The package's polyphase resampler through scipy's ``upfirdn``."""
    up, down = preprocess._rational_ratio(fs_from, fs_to)
    h = preprocess._antialias_fir(fs_from, fs_to, up)
    delay = (len(h) - 1) // 2
    n_out = -(-x.shape[0] * up // down)
    # prepend p input zeros so that output k lands on upsampled index
    # k*down + delay: p*up = -delay (mod down)
    p = (-delay * pow(up, -1, down)) % down
    xp = np.concatenate([np.zeros((p,) + x.shape[1:]), x])
    full = signal.upfirdn(h, xp, up, down, axis=0)
    offset = (delay + p * up) // down
    y = np.zeros((n_out,) + x.shape[1:])
    part = full[offset: offset + n_out]
    y[: part.shape[0]] = part
    return y


def _zscore(x):
    c = x - x.mean(axis=0)
    std = c.std(axis=0, ddof=1)
    floor = 1e-15 * np.maximum(1.0, np.abs(x.mean(axis=0)))
    return np.where(std > floor, c / np.where(std > floor, std, 1.0), 0.0)


def frontend_oracle(workload, prepared):
    eeg = []
    for trial in prepared.session.trials:
        x = trial.eeg.samples
        x = np.delete(x - x[:, :1], 0, axis=1)
        fs = trial.eeg.fs
        # standard_chain's default band-pass and notch
        for cascade in (preprocess.design_bandpass(0.5, 62.0, 8, fs),
                        preprocess.design_notch(48.0, 52.0, fs)):
            s = cascade.sections
            sos = np.column_stack([s[:, :3], np.ones(len(s)), s[:, 3:]])
            x = signal.sosfilt(sos, x, axis=0)
        eeg.append(_zscore(_resample(x, fs, workload.to_fs)))
    envs = []
    bank = prepared.bank
    for clip in prepared.clips:
        mags = []
        for pole, gain in zip(bank.poles, bank.gains):
            w = clip.samples.astype(np.complex128)
            for _ in range(bank.n_stages):
                w = signal.lfilter([1.0], [1.0, -pole], w)
            mags.append(gain * np.abs(w))
        summed = np.sum(np.stack(mags, axis=1) ** 0.6, axis=1)
        env = _resample(summed[:, None], clip.fs, workload.to_fs)[:, 0]
        envs.append(np.maximum(env, 0.0))
    return {"eeg": eeg, "envelopes": envs}


def check_frontend(workload, prepared, outputs):
    want = frontend_oracle(workload, prepared)
    bad = []
    for key in want:
        for i, (a, b) in enumerate(zip(outputs[key], want[key])):
            if a.shape != b.shape:
                bad.append(f"{key}[{i}]: shape {a.shape}, oracle {b.shape}")
            elif np.max(np.abs(a - b)) > REL_TOL * max(np.max(np.abs(b)),
                                                       1e-300):
                bad.append(f"{key}[{i}]: max deviation "
                           f"{np.max(np.abs(a - b)):.3e} from oracle")
    return bad


def check(workload, seed, prepared, outputs, reference):
    """All mismatches of one pass and whether a stored reference applied."""
    if workload.decoders:
        bad = check_decoders(workload, prepared, outputs)
    else:
        bad = check_frontend(workload, prepared, outputs)
    ref_bad = check_reference(workload, seed, summarize(workload, outputs),
                              reference)
    return bad + (ref_bad or []), ref_bad is not None
