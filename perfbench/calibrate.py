"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host. The speed those cores
give one thread drifts by a factor of two or more over tens of seconds and
jitters by 10-20% from one second to the next (neighbours on the same
physical cores), and CPU time drifts with wall time, so neither says how
fast the program is.

:class:`Probe` measures the speed the timed code itself runs at: while it
is active, a ``SIGALRM`` handler runs every ``INTERVAL_S`` of wall time and
times a short fixed pure-Python loop of the kind of work the package's
numpy kernels are bound by (interpreter dispatch and float arithmetic).
The handler runs in the main thread between bytecodes, so the samples are
spread over the timed code and see the same fast and slow stretches. Then
::

    corrected = (wall - time spent in the probe) * REFERENCE_S / mean sample

is the timed code's wall time on a core on which one sample takes
``REFERENCE_S``. The loop does not touch ``aadkit``, so a change to the
package moves the corrected time as it moves the wall time at a fixed host
speed. The probe costs about 2% of the timed code's time, which it
subtracts.
"""

import signal
import time

# One sample's seconds on an idle core of the host the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11); only a scale factor.
REFERENCE_S = 0.0004
INTERVAL_S = 0.02
_ROUNDS = 2000


def _loop():
    s = 0.0
    row = [0.0] * 8
    for i in range(_ROUNDS):
        s += (i * 0.5) % 7.0
        p = i & 7
        row[p] = 0.6 * row[p] - 0.8 * s
    return s + row[0]


class Probe:
    """Samples the host's speed while the code in its ``with`` blocks runs.
    One probe may be entered several times; wall time and samples add up."""

    def __init__(self):
        self.wall_s = 0.0
        self.samples = []
        self._start = None
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s += time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval
            self._sample(None, None)
            self.wall_s += self.samples[-1]

    def corrected(self):
        """Wall seconds in the ``with`` blocks, less the probe's own time,
        at the reference speed."""
        spent = sum(self.samples)
        return (self.wall_s - spent) * REFERENCE_S * len(self.samples) / spent
