"""Regenerate ``perfbench/reference.json``: the outputs each workload gives
at a set of seeds, for the correctness check of later versions.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--seeds 0-15] [--workload NAME ...]

Each seed's pass must first pass the library oracle; a seed that does not
is reported and left out. Existing entries for other seeds are kept.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-15"))
    p.add_argument("--workload", nargs="*")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import oracle, workloads

    reference = oracle.load_reference()
    names = args.workload or list(workloads.WORKLOADS)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=ROOT / "perfbench"))
    status = 0
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            for seed in args.seeds:
                prepared = workloads.setup(wl, seed, work / "setup")
                outputs = workloads.run_pass(wl, prepared, work / "pass")
                bad, _ = oracle.check(wl, seed, prepared, outputs, {})
                if bad:
                    print(f"{name} seed {seed}: oracle mismatch, skipped: "
                          f"{bad[:3]}", file=sys.stderr)
                    status = 1
                    continue
                reference.setdefault(name, {})[str(seed)] = json.loads(
                    json.dumps(oracle.summarize(wl, outputs))
                )
                print(f"{name} seed {seed}: ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    oracle.REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
