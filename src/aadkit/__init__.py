"""Ear-EEG auditory attention decoding toolkit.

Envelope extraction, four decoders (Wiener filter, CCA, filterbank CSP,
Riemannian tangent-space classifier), leakage-proof cross-validation and
attention-switch tracking, verifiable end to end on synthetic sessions.
"""

__version__ = "0.1.0"

from .crossval import (  # noqa: F401
    default_grid,
    make_folds,
    run_channel_ablation,
    run_pipeline,
)
from .dataio import (  # noqa: F401
    Session,
    SynthConfig,
    Trial,
    build_attended_streams,
    export_results,
    load_session,
    save_session,
    synth_generate,
)
from .metrics import MetricsReport, decide_window, pcc  # noqa: F401
