"""Host-speed correction shared by worker.py and run.py.

This host's speed drifts by tens of percent over seconds to minutes, in CPU
time as in wall time. The worker times `calibrate` before each job and after
each round's last job; a job's host factor is the mean of the calibrations
just before and just after it, over REF_CAL_MS, and its latency is divided
by that factor. The loop runs no library code, so a change to ecgroups moves
corrected and raw latencies alike. See README.md, "Host speed".
"""

from __future__ import annotations

import statistics
import time

# the calibration loop's time at this host's usual speed
REF_CAL_MS = 2.2


def calibrate() -> float:
    """Wall time in ms of a fixed loop of integer arithmetic, about 2 ms on
    this host. It allocates no containers, so the garbage collector never
    runs inside it."""
    t0 = time.perf_counter()
    x = 1
    for i in range(10000):
        x = (x * 48271 + i) % 2147483647
    return (time.perf_counter() - t0) * 1e3


def corrected(latencies_ms, cal_ms, per_round: int) -> list:
    """Latencies at the host's usual speed. `cal_ms` holds per_round + 1
    calibrations per round: one before each job and one after the last."""
    out = []
    for i, x in enumerate(latencies_ms):
        c = i // per_round * (per_round + 1) + i % per_round
        out.append(x * 2 * REF_CAL_MS / (cal_ms[c] + cal_ms[c + 1]))
    return out
