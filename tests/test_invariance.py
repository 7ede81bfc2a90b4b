"""Relabelings of a session that must not change what a run decides.

Permuting the EEG channels, reversing the trial order and renumbering the
speakers carry no information about attention, so none of them may change
a selected hyperparameter or a window decision, for any of the four
decoders. One small seeded session with task-1, task-2, task-4 and
two-speaker (task-6) trials and a direction carrier is run under
``nested_loto`` as given and after each relabeling. Its signal-to-noise
ratio is low enough that the Wiener filter also decides some windows for
an unattended candidate.
"""

from dataclasses import replace

import pytest

from aadkit import crossval, dataio

GRIDS = {
    "wf": {"lam": [0.1, 10.0], "L": [4, 8]},
    "cca": {"reg": [0.01, 1.0], "L": [4], "L_y": [4], "n_components": [1, 2]},
    "csp": {"csp_f": [1, 2], "lda_gamma": [0.1, 0.5]},
    "rgc": {"rgc_shrinkage": [0.0, 0.5], "lda_gamma": [0.1, 0.5]},
}
CHANNEL_ORDER = [2, 0, 3, 1]


@pytest.fixture(scope="module")
def session():
    return dataio.synth_generate(dataio.SynthConfig(
        n_trials=8, duration_s=20.0, n_channels=4, tasks=[1, 2, 4, 6] * 2,
        direction_gain=0.3, snr=0.2, seed=14))


def permute_channels(session):
    trials = [
        replace(t, eeg=t.eeg.with_samples(
            t.eeg.samples[:, CHANNEL_ORDER],
            channel_names=[t.eeg.channel_names[c] for c in CHANNEL_ORDER]))
        for t in session.trials
    ]
    return replace(session, trials=trials)


def reverse_trials(session):
    return replace(session, trials=session.trials[::-1])


def renumber_speakers(session):
    """The lowest speaker id becomes the highest, and so on; with three
    speakers this swaps a window's two unattended candidates."""
    ids = sorted({s.speaker_id for t in session.trials for s in t.speakers})
    new = dict(zip(ids, reversed(ids)))
    trials = [
        replace(t,
                speakers=[replace(s, speaker_id=new[s.speaker_id])
                          for s in t.speakers],
                timeline=[replace(span, attended=None if span.attended is None
                                  else new[span.attended])
                          for span in t.timeline])
        for t in session.trials
    ]
    return replace(session, trials=trials)


def outcome(session, model, renumbered=False):
    """Per outer loop the selected parameters, and per window its
    decision. A linear decoder's candidates after the attended one are
    the other speakers in id order, so under renumbering its prediction
    is mapped back to the original order."""
    plan = crossval.make_folds(session.trials, "nested_loto", n_folds=4)
    report = crossval.run_pipeline(session, model, plan, GRIDS[model], 5.0)

    def predicted(w):
        if renumbered and model in ("wf", "cca") and w.predicted > 0:
            return len(w.rhos) - w.predicted
        return w.predicted

    windows = sorted((w.trial_id, w.window_index, w.correct, w.tie,
                      predicted(w)) for w in report.windows)
    return [f.params for f in report.folds], windows


@pytest.mark.parametrize("relabel", [permute_channels, reverse_trials,
                                     renumber_speakers])
@pytest.mark.parametrize("model", sorted(GRIDS))
def test_relabeling_changes_no_selection_or_decision(session, model,
                                                     relabel):
    params, windows = outcome(session, model)
    assert windows
    assert outcome(relabel(session), model,
                   renumbered=relabel is renumber_speakers) == (params,
                                                                 windows)
