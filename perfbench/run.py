"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wf-nested [--seed 7] [--seconds 24]
                             [--trace 0|1]

All workloads, one after another::

    for w in wf-nested cca-loto classify frontend; do
        python3 perfbench/run.py --workload $w; done

The process pins itself to one CPU and runs BLAS single-threaded.
``--trace 0`` sets the workload up in this process and in
``SETUP_CHILDREN`` fresh interpreters, runs one untimed warm-up pass, then
repeats timed passes until ``--seconds`` seconds (counted from the warm-up
pass) would be exceeded; the first timed pass always runs. Every timed
stretch runs under a :class:`perfbench.calibrate.Probe`, which samples the
host's speed while it runs, and both end-to-end times are given at the
probe's reference speed:

* ``run_s``: median over the timed passes of a pass's corrected time;
* ``setup_s``: median over the set-ups of the corrected time to import
  ``aadkit`` and set the workload up.

Raw wall times go to the result file and the human-readable lines.
``--trace 1`` runs the warm-up and one timed untraced pass, then sets up
and runs once more with every layer wrapped by
:class:`perfbench.tracer.Tracer`, and reports the per-layer metrics.

Every pass is checked (see :mod:`perfbench.oracle`); a pass whose outputs
are wrong counts as failed and the command exits with status 1. Human-
readable lines go to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full record, with
the environment, goes to ``perfbench/out/``.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_CHILDREN = 2

# Import and set up in a fresh interpreter; prints the corrected and the
# wall seconds taken.
_SETUP_CHILD = """\
import sys
sys.path[:0] = {paths!r}
from perfbench import calibrate
with calibrate.Probe() as probe:
    import aadkit
    from perfbench import workloads
    workloads.setup(workloads.WORKLOADS[{name!r}], {seed!r}, {workdir!r})
print(probe.corrected(), probe.wall_s)
"""


def _pin_to_one_cpu():
    """Run on one CPU with single-threaded BLAS. The load is one process
    with one Python thread; at these matrix sizes extra BLAS threads and
    migrations between CPUs add run-to-run noise, not speed."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(allowed), allowed[-1]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment(seed, nproc, cpu):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def _spread(values):
    """Median, quartiles and count of a list of timings, and the
    timings."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def _setup_in_child(wl, seed, workdir):
    """``(corrected, wall)`` seconds of importing and setting up in a fresh
    interpreter, which inherits this process's CPU pinning and BLAS thread
    cap."""
    code = _SETUP_CHILD.format(paths=[str(ROOT / "src"), str(ROOT)],
                               name=wl.name, seed=seed, workdir=str(workdir))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return tuple(float(v) for v in proc.stdout.split()[-2:])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(wl, seed, work):
    """Set up and run one pass with every layer wrapped. Returns the
    tracer, coverage failures, the outputs, the set-up wall time and the
    pass's corrected time."""
    from perfbench import calibrate, tracer, workloads

    with tracer.Tracer() as tr:
        bad = [f"unwrapped binding {u}" for u in tr.unbound_originals()]
        t = time.perf_counter()
        prepared = workloads.setup(wl, seed, work / "setup")
        setup_s = time.perf_counter() - t
        with calibrate.Probe() as probe:
            outputs = workloads.run_pass(wl, prepared, work / "pass")
        pass_s = probe.corrected()
    bad += [f"layer {name} recorded no calls" for name in wl.layers
            if tr.get(name).calls == 0]
    return tr, bad, outputs, setup_s, pass_s


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "aadkit" / "__init__.py").exists():
        print(f"aadkit sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc, cpu = _pin_to_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import calibrate

    main_setup = calibrate.Probe()
    with main_setup:
        import aadkit  # noqa: F401  (import time is part of setup_s)
    from aadkit.errors import AadError

    from perfbench import oracle, tracer, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = _environment(args.seed, nproc, cpu)
    reference = oracle.load_reference()
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    checks = []  # (pass label, mismatches)
    try:
        with main_setup:
            prepared = workloads.setup(wl, args.seed, work / "setup")
        # (corrected, wall) seconds of each set-up
        setups = [(main_setup.corrected(), main_setup.wall_s)]
        if not args.trace:
            setups += [_setup_in_child(wl, args.seed, work / f"setup{i}")
                       for i in range(SETUP_CHILDREN)]

        # pass0 fills caches and finishes lazy set-up; it is checked by the
        # oracle but not timed. --seconds covers it and every timed pass.
        passes = []  # one Probe per timed pass
        first = None
        label = "pass0"
        start = time.perf_counter()
        try:
            first = workloads.run_pass(wl, prepared, work / label)
            while True:
                label = f"pass{len(passes) + 1}"
                with calibrate.Probe() as probe:
                    outputs = workloads.run_pass(wl, prepared, work / label)
                passes.append(probe)
                checks.append((label, [] if oracle.same_outputs(
                    wl, first, outputs) else [
                        "outputs differ from the first pass"]))
                spent = time.perf_counter() - start
                if args.trace or spent + statistics.median(
                        p.wall_s for p in passes) > args.seconds:
                    break
        except AadError as exc:
            checks.append((label, [f"{type(exc).__name__}: {exc}"]))
        # the oracle allocates more than the program: read the peak first
        peak_rss_mb = _peak_rss_mb()
        reference_used = False
        if first is not None:
            bad, reference_used = oracle.check(wl, args.seed, prepared,
                                               first, reference)
            checks.insert(0, ("pass0", bad))

        traced = None
        if args.trace and first is not None:
            tr, bad, toutputs, tsetup_s, traced_s = traced_run(
                wl, args.seed, work / "traced")
            if not oracle.same_outputs(wl, first, toutputs):
                bad.append("traced outputs differ from untraced outputs")
            checks.append(("traced", bad))
            traced = (tr, traced_s, tsetup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if first is None or not passes:
        for label, bad in checks:
            print(f"{label}: {'; '.join(bad)}", file=sys.stderr)
        return 1

    failed = sum(1 for _, bad in checks if bad)
    correct = failed == 0
    summary = oracle.summarize(wl, first)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "environment": env,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(checks),
        "failed": failed,
        "failed_frac": failed / len(checks),
        "reference": "stored" if reference_used else "oracle only",
        "mismatches": {label: bad for label, bad in checks if bad},
        "setup_s": _spread([c for c, _ in setups]),
        "setup_wall_s": _spread([w for _, w in setups]),
        "run_s": _spread([p.corrected() for p in passes]),
        "run_wall_s": _spread([p.wall_s for p in passes]),
        "probe_sample_s": _spread([statistics.fmean(p.samples)
                                   for p in passes]),
        "peak_rss_mb": peak_rss_mb,
    }
    if wl.decoders:
        record["outputs"] = summary
        record["accuracy"] = statistics.mean(
            m["accuracy"] for m in summary.values())
        record["macro_f1"] = statistics.mean(
            m["macro_f1"] for m in summary.values())

    if traced is None:
        metrics = {
            "run_s": {"value": record["run_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    else:
        tr, traced_s, tsetup_s = traced
        metrics = tracer.per_layer_metrics(tr)
        metrics["trace_overhead"] = {"value": traced_s /
                                     record["run_s"]["median"],
                                     "unit": "ratio"}
        record["traced_run_s"] = traced_s
        record["traced_setup_s"] = tsetup_s
        record["spans"] = len(tr.spans)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(tr, OUT / f"spans-{wl.name}-{args.seed}.json")
    record["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{wl.name}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, default=float))
    _print_human(record)
    print(json.dumps({"correct": correct, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_human(rec):
    print(f"# {rec['workload']}: {rec['why']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in
                              rec["environment"].items()))
    for key in ("run_s", "run_wall_s", "setup_s", "setup_wall_s",
                "probe_sample_s"):
        s = rec[key]
        print(f"{key:<18} median {s['median']:.5g} s  q1 {s['q1']:.5g}  "
              f"q3 {s['q3']:.5g}  n={s['n']}")
    print(f"{'peak_rss_mb':<18} {rec['peak_rss_mb']:.1f} MB")
    if "accuracy" in rec:
        print(f"{'accuracy':<18} {rec['accuracy']:.4f}  "
              f"macro_f1 {rec['macro_f1']:.4f}")
    print(f"{'failed_frac':<18} {rec['failed_frac']:.4f} "
          f"({rec['failed']}/{rec['attempted']}), reference: "
          f"{rec['reference']}")
    for label, bad in rec["mismatches"].items():
        for line in bad[:20]:
            print(f"MISMATCH {label}: {line}")
    if rec["trace"]:
        for name, m in rec["metrics"].items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
