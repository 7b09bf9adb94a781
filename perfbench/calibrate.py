"""Reference CPU speed, measured next to the work it scales.

On a shared host the same code runs up to about 1.4x slower for seconds or
minutes at a time, and this moves whole runs: medians over a run cannot
absorb it.  So every time the benchmark reports is scaled to a fixed
reference speed.  A latency ``t`` measured between ticks becomes
``t * ref / c``, with ``c`` the median time of the ticks taken just before
and after it, on the same CPU.  Two kinds of tick match the two kinds of
work:

* ``tick`` is a fixed pure-Python loop of dict lookups and small-integer
  arithmetic, run in the process that serves library requests.  Of the
  loops tried (this one, big-integer products, complex-float recurrences),
  its time tracked that of the package's MultiPoly recurrences and root
  finder most closely: their ratio to it moved by about 7% between
  25-second windows, where their raw times moved by 33-39%.  It allocates
  no container, so the size of the heap under test and its garbage
  collector do not touch it.
* ``spawn_tick`` starts and reaps ``python3 -S -c pass``.  Work done by a
  fresh interpreter (start-up, reading and unmarshalling modules) follows
  it, not the loop: the time of ``trident --version`` over the spawn tick
  moved by 2.4% between windows, over the loop tick by 23%, and raw by
  17%; ``import trident`` in a probe moved by 5.5%, 11.5% and 20%.
"""

import os
import subprocess
import sys
from statistics import median
from time import perf_counter

# Scaled times read in seconds of a machine on which a tick takes REF_TICK_S
# and a spawn tick REF_SPAWN_S.
REF_TICK_S = 0.002
REF_SPAWN_S = 0.0125
_TABLE = {i: 7 * i + 1 for i in range(512)}
_LOOPS = 15000


def tick() -> float:
    """Seconds that the fixed reference loop takes now."""
    table, acc = _TABLE, 0
    t0 = perf_counter()
    for i in range(_LOOPS):
        acc += table[i & 511] * i % 7
    return perf_counter() - t0


def spawn_tick(env=None) -> float:
    """Seconds from spawning a bare interpreter that does nothing to reaping it."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", "-c", "pass"], env=env,
                            stdin=subprocess.DEVNULL)
    try:
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"spawn tick exited with {proc.returncode}")
    return perf_counter() - t0


def scale(latencies: list[float], ticks: list[float], ref: float) -> list[float]:
    """Latencies at the reference speed, for ticks whose reference time is ``ref``.

    ``latencies[i]`` was measured between ``ticks[i]`` and ``ticks[i + 1]``;
    it is scaled by the median of the two ticks on either side of it.
    """
    if len(ticks) != len(latencies) + 1:
        raise ValueError("need one tick before each latency and one after the last")
    return [t * ref / median(ticks[max(0, i - 1):i + 3]) for i, t in enumerate(latencies)]
