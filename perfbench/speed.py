"""Speed calibration: scale measured times to one reference speed.

The machine this benchmark was tuned on runs the same code at speeds that
differ by up to a factor of two or more, changing every few tens of
milliseconds and drifting over minutes, because the host shares its cores.
A fixed probe is timed right before and right after every measured
interval.  The interval's time is divided by the mean of those two timings
and multiplied by the probe's reference time, its time when the machine is
not contended.  A scaled time is therefore the time the interval would take
at the reference speed.  Program changes scale it directly; changes in the
machine's speed cancel out as far as the probe slows down like the
interval.

There are two probes, one for each kind of interval:

* ``calibration_ms``, a loop of pure-Python arithmetic and dict stores, for
  calls made in this process.  ``REF_MS`` is 0.15 ms, its first percentile
  on a 2.0 GHz Xeon vCPU.
* ``start_ms``, a bare interpreter without the site module
  (``python -S -c pass``), for child processes: the set-up interpreters and
  the ``cli-mix`` operations.  On the same machine a child process slows
  down by about the 0.7th power of the loop's slowdown, and by the first
  power of a bare interpreter's, so the loop over-corrects child processes
  and the bare interpreter does not.  ``REF_START_MS`` is 11 ms, its first
  percentile there.
"""

from __future__ import annotations

import math
import subprocess
import time

REF_MS = 0.15
REF_START_MS = 11.0


def _loop() -> float:
    acc = 0.0
    table = {}
    for i in range(400):
        x = math.sinh(i * 1e-3) ** 2
        table[(i & 31, i & 7)] = x
        acc += x / (1.0 + 0.5 * math.exp(-x))
    return acc


def calibration_ms() -> float:
    """Wall time of one calibration loop, in ms."""
    start = time.perf_counter_ns()
    _loop()
    return (time.perf_counter_ns() - start) / 1e6


def start_ms(python: str, env: dict) -> float:
    """Wall time of one bare interpreter started with ``env``, in ms."""
    start = time.perf_counter_ns()
    subprocess.run([python, "-S", "-c", "pass"], env=env, check=True, capture_output=True, timeout=60)
    return (time.perf_counter_ns() - start) / 1e6


def scale(before_ms: float, after_ms: float, ref_ms: float = REF_MS) -> float:
    """Factor that turns a time measured between two probes into reference time."""
    return 2.0 * ref_ms / (before_ms + after_ms)
