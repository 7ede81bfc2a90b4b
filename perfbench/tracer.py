"""Outside-in tracing of aadkit's layers.

Every public function of every layer module is replaced, from outside the
package, by a wrapper that records a span (name, parent, start, end) and
adds the call to per-function statistics. Self time is a span's duration
minus the time its child spans cover. Modules bind each other's functions
by name (``from .design import build_lagged``), so installing a wrapper
rebinds every module-level name in the package that refers to the
original object; :meth:`Tracer.unbound_originals` proves that none is left.
"""

import functools
import hashlib
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

LAYERS = (
    "dataio",
    "preprocess",
    "envelope",
    "design",
    "linear",
    "spatial",
    "numerics",
    "kernels",
    "metrics",
    "crossval",
)


@dataclass
class FnStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    # kernel-specific work counts, filled by the counters below
    sweeps: int = 0
    samples: int = 0
    bytes: int = 0


def _count_sweeps(st, args, kwargs, result):
    st.sweeps += max(int(result), 0)


def _count_sosfilt_samples(st, args, kwargs, result):
    # sosfilt(sections, x): one value per (sample, channel)
    st.samples += int(args[1].size)


def _count_resample_samples(st, args, kwargs, result):
    # fir_resample(x, h, up, down, n_out): input values consumed
    st.samples += int(args[0].size)


def _count_resonator_samples(st, args, kwargs, result):
    # one value per (input sample, band)
    st.samples += int(result.size)


def _count_export_bytes(st, args, kwargs, result):
    st.bytes += sum(p.stat().st_size for p in result)


class _LaggedCounter:
    """Output bytes and distinct (input, lags) pairs of build_lagged."""

    def __init__(self):
        self.keys = set()

    def __call__(self, st, args, kwargs, result):
        st.bytes += int(result.matrix.nbytes)
        x = args[0] if args else kwargs["x"]
        samples = getattr(x, "samples", x)
        digest = hashlib.blake2b(
            memoryview(samples.tobytes()), digest_size=16
        ).digest()
        lags = args[1] if len(args) > 1 else kwargs["lags"]
        self.keys.add((digest, samples.shape, int(lags)))


class Tracer:
    """Spans and per-function statistics for one traced pass."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, parent_id, name, start, end, self_s)
        self._stack = []
        self._next_id = 0
        self._installed = []  # (module, attribute, original)
        self._originals = {}  # id(original) -> (qualified name, original)
        self.lagged = _LaggedCounter()
        self._counters = {
            "kernels.jacobi_sweep": _count_sweeps,
            "kernels.svd_sweep": _count_sweeps,
            "kernels.sosfilt": _count_sosfilt_samples,
            "kernels.fir_resample": _count_resample_samples,
            "kernels.resonator_magnitudes": _count_resonator_samples,
            "dataio.export_results": _count_export_bytes,
            "design.build_lagged": self.lagged,
        }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, FnStats())
        counter = self._counters.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, self._next_id]  # [time covered by children, span id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                st.calls += 1
                st.self_s += own
                st.total_s += duration
                spans.append((frame[1], parent, name, start, end, own))
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                begin = clock()
                counter(st, args, kwargs, result)
                if stack:
                    # counting is tracing overhead, not the parent's work
                    stack[-1][0] += clock() - begin
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every layer's public functions and rebind all references."""
        modules = _package_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"aadkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # re-exported from another layer
                name = f"{layer}.{attr}"
                self._originals[id(obj)] = (name, obj)
                wrappers[id(obj)] = self._wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is self._originals[id(obj)][1]:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def unbound_originals(self):
        """Names in the package that still refer to an unwrapped original:
        module globals, class attributes and function defaults."""
        left = []
        for mod in _package_modules().values():
            for attr, obj in vars(mod).items():
                left += self._holders(f"{mod.__name__}.{attr}", obj)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, cobj in vars(obj).items():
                        left += self._holders(
                            f"{mod.__name__}.{attr}.{cattr}", cobj
                        )
                if inspect.isfunction(obj):
                    defaults = (obj.__defaults__ or ()) + tuple(
                        (obj.__kwdefaults__ or {}).values()
                    )
                    for d in defaults:
                        left += self._holders(
                            f"{mod.__name__}.{attr} (default)", d
                        )
        return left

    def _holders(self, where, obj):
        hit = self._originals.get(id(obj))
        if hit is not None and hit[1] is obj:
            return [f"{where} -> {hit[0]}"]
        return []

    # -- results --------------------------------------------------------------

    def get(self, name):
        return self.stats.get(name, FnStats())


def _package_modules():
    import aadkit

    mods = {"aadkit": aadkit}
    for layer in LAYERS + ("accel", "errors", "cli"):
        mods[f"aadkit.{layer}"] = importlib.import_module(f"aadkit.{layer}")
    return mods


# ---------------------------------------------------------------------------
# per-layer metrics reported by a traced run: (name, unit, better)
# ---------------------------------------------------------------------------


def _fn_metrics(fns, stats):
    return [(f"{fn}.{stat}", "count" if stat in ("calls", "sweeps",
                                                  "samples")
             else "bytes" if stat == "bytes" else "s", "lower")
            for fn in fns for stat in stats]


PER_LAYER = (
    _fn_metrics(["design.build_lagged"], ["calls", "self_s", "bytes"])
    + [("design.build_lagged.unique_frac", "ratio", "higher")]
    + _fn_metrics(["design.accumulate"], ["calls", "self_s"])
    + _fn_metrics(["numerics.solve_regularized"], ["self_s"])
    + _fn_metrics(["kernels.cholesky_inplace"], ["calls", "self_s"])
    + _fn_metrics(["linear.wf_fit", "linear.cca_fit"], ["calls"])
    + _fn_metrics(["kernels.jacobi_sweep", "kernels.svd_sweep"],
                  ["calls", "self_s", "sweeps"])
    + _fn_metrics(["numerics.sym_eig", "numerics.gen_sym_eig",
                   "numerics.spd_function", "numerics.svd"],
                  ["calls", "self_s"])
    + _fn_metrics(["kernels.sosfilt", "kernels.resonator_magnitudes",
                   "kernels.fir_resample"], ["calls", "self_s", "samples"])
    + _fn_metrics(["envelope.compute_envelope", "envelope.band_magnitudes",
                   "envelope.gammatone_bank", "preprocess.standard_chain",
                   "preprocess.filter_apply", "preprocess.resample",
                   "preprocess.zscore"], ["self_s"])
    + _fn_metrics(["spatial.csp_fit", "spatial.csp_features",
                   "spatial.rgc_fit", "spatial.tangent_features",
                   "spatial.segment_covariance", "spatial.lda_fit",
                   "spatial.lda_predict", "metrics.pcc",
                   "metrics.decide_window", "metrics.classification_metrics",
                   "metrics.time_pcc_curve", "metrics.finalize_report"],
                  ["calls", "self_s"])
    + _fn_metrics(["crossval.run_pipeline", "crossval.make_folds"],
                  ["self_s"])
    + [("crossval.fits_per_accumulate", "ratio", "higher")]
    + _fn_metrics(["dataio.export_results"], ["self_s", "bytes"])
    + _fn_metrics(["dataio.serialize_model"], ["calls"])
    + _fn_metrics(["dataio.synth_generate", "dataio.save_session",
                   "dataio.load_session"], ["self_s"])
    + [("trace_overhead", "ratio", "lower")]
)


def per_layer_metrics(tr):
    """Values of every PER_LAYER metric except trace_overhead, which needs
    the untraced pass time."""
    lagged = tr.get("design.build_lagged")
    accumulates = tr.get("design.accumulate").calls
    fits = tr.get("linear.wf_fit").calls + tr.get("linear.cca_fit").calls
    derived = {
        "design.build_lagged.unique_frac":
            len(tr.lagged.keys) / lagged.calls if lagged.calls else 0.0,
        "crossval.fits_per_accumulate":
            fits / accumulates if accumulates else 0.0,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace_overhead":
            continue
        if name in derived:
            value = derived[name]
        else:
            fn, stat = name.rsplit(".", 1)
            value = getattr(tr.get(fn), stat)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(tr, path):
    """Per-function totals and every span, for offline inspection."""
    t0 = tr.spans[0][3] if tr.spans else 0.0
    doc = {
        "functions": {name: vars(st) for name, st in sorted(tr.stats.items())
                      if st.calls},
        "span_fields": ["id", "parent", "name", "start_s", "end_s",
                        "self_s"],
        "spans": [[i, p, n, s - t0, e - t0, own]
                  for i, p, n, s, e, own in tr.spans],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")))
