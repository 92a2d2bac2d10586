"""Host-speed calibration: a fixed loop timed next to every measured operation.

The benchmark runs on hosts whose cores are shared: the same code runs a
third or more slower for minutes at a time, and the process's CPU time slows
with it, so the slowdown is in the core, not in the scheduler. No run is long
enough to average that out. So the benchmark pins itself and its children to
one core, and pairs every measured time with the time of `loop_seconds`
taken right around it on that core: a pure-Python loop of dict reads and
writes, calls and dict copies (the kind of work scanforge does) that does not
touch scanforge. The ratio of the two is nearly free of the host's swings;
`reference_seconds` turns the median ratio back into seconds by multiplying
it by `REFERENCE_S`, the loop's time on an unloaded core of the reference
host (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7). On such a core a
reference second is a wall-clock second.
"""

from __future__ import annotations

import statistics
from time import perf_counter

KEYS = tuple(f"n{i}" for i in range(1024))
ROUNDS = 200
REFERENCE_S = 0.016


def _step(a: int, b: int) -> int:
    return (a + b) & 7


def loop_seconds() -> float:
    """Wall seconds of one run of the fixed calibration loop."""
    t0 = perf_counter()
    values = dict.fromkeys(KEYS, 0)
    copied = 0
    for r in range(ROUNDS):
        for k in KEYS:
            values[k] = _step(values[k], r)
        copied += len(dict(values))  # a copy a round, freed at once: no weight on peak RSS
    assert copied == ROUNDS * len(KEYS)
    return perf_counter() - t0


def reference_seconds(pairs: list[tuple[float, float]]) -> float:
    """Median of (measured seconds / calibration seconds around it), in reference seconds."""
    return REFERENCE_S * statistics.median(t / host for t, host in pairs)
