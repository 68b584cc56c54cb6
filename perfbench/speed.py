"""Host-speed probe: a fixed unit of CPU work that runs, at the lowest
priority, on the CPU where the benchmark measures rimlab.

Usage: python3 perfbench/speed.py CPU OUT

On a shared host the same code does not run at one speed.  On the 2-vCPU
KVM guest the benchmark was defined on, a fixed loop ran up to 1.25-1.45x
slower in some phases than in others, and a phase could last minutes, so a
whole run could fall into one.  The loop's CPU time grew with its wall time
and steal time stayed near zero: the vCPU itself ran slower.

``run.py`` pins itself, rimlab and this probe to one CPU.  The probe runs
at nice 19, so the scheduler gives it about 1.5% of the CPU while rimlab
runs, in short slices spread over the whole measured interval, and its
units see the CPU at the same moments as rimlab does.  The probe records
the end (``time.perf_counter``, the same clock as ``run.py``'s) and the CPU
time of each unit, and writes them to OUT as pairs of doubles on SIGTERM.
A timing is scaled by ``REF_UNIT_S`` over the mean CPU time of the units
that ended inside it, so it reads as seconds on a host that runs one unit
in ``REF_UNIT_S``.  The probe is rimlab-independent code, so a change to
rimlab moves the scaled timing by exactly its own effect.

Over ten passes of each workload, pass wall time and the mean unit time
inside the pass correlated at 0.96-0.98, and scaling cut the passes'
spread (standard deviation / mean) from about 8% to about 2.5%.  A probe
on the other vCPU did not help: the two vCPUs' speeds hardly correlate
over a few seconds.  Neither did a second of probing on the same CPU
before and after each pass.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from array import array

import numpy as np

# about one unit, run beside rimlab, on the machine the benchmark was defined on
REF_UNIT_S = 4e-4

_RNG = np.random.default_rng(20140915)
_RATES = np.linspace(0.1, 3.0, 16)
_HISTORY = _RNG.standard_normal((1024, 16))
_SCRATCH = np.empty_like(_HISTORY)
_OP = _RNG.standard_normal((16, 16)) * 0.2
_STATE = _RNG.standard_normal((64, 16))


def _unit() -> float:
    """Work of rimlab's kind: sweeps over a history of 1024 x 16 values, as
    in its backward operator, chains of small numpy calls, as in its step
    loop, and plain interpreted Python."""
    for _ in range(2):
        np.multiply(_HISTORY, _RATES, out=_SCRATCH)
        np.exp(_SCRATCH, out=_SCRATCH)
        np.cumsum(_SCRATCH, axis=0, out=_SCRATCH)
    x = _STATE
    for _ in range(4):
        x = np.sin(x @ _OP) + 0.5 * x
    acc = 0
    for i in range(300):
        acc += i * i % 7
    return float(_SCRATCH[-1, 0] + x[0, 0]) + acc


class _Stop(Exception):
    pass


def _stop(signum, frame):
    raise _Stop


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    parent = os.getppid()
    stamps = array("d")
    signal.signal(signal.SIGTERM, _stop)
    print("ready", flush=True)
    cpu_s = time.process_time
    try:
        for _ in range(20):  # warms the caches; not recorded
            _unit()
        while os.getppid() == parent:  # ends with an orphaned run
            c0 = cpu_s()
            _unit()
            c1 = cpu_s()
            stamps.extend((time.perf_counter(), c1 - c0))
    except _Stop:
        pass
    with open(out, "wb") as f:
        stamps[: len(stamps) // 2 * 2].tofile(f)
    return 0


def mean_unit(stamps: array, start: float, end: float) -> float | None:
    """Mean CPU time of the units that ended inside [start, end]."""
    times = [stamps[i + 1] for i in range(0, len(stamps) - 1, 2) if start <= stamps[i] <= end]
    return sum(times) / len(times) if times else None


if __name__ == "__main__":
    sys.exit(main())
