"""Empty module. Nothing in the package imports it; it exists only because
the benchmark's tracer (``perfbench/tracer.py``, ``_package_modules``)
imports ``aadkit.accel``."""
