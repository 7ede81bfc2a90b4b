"""Pipeline benchmark for aadkit: seeded workloads, end-to-end timings and an
outside-in per-layer trace. Entry point: ``python3 perfbench/run.py``."""
