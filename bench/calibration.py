"""A fixed unit of stdlib work that tracks how fast the host runs right now.

On a shared host the CPU time of one and the same request swings by a
third or more within a minute, in phases of a few to tens of seconds (other
tenants on the same cores slow every instruction down, so CPU time moves as
well as elapsed time). The unit below is the same kind of work the engine
does, exact `Fraction` arithmetic on integers of a few hundred bits, and
nothing in it comes from the engine, so a change to the engine cannot
change it. Timed right before and after a request it measures the host's
speed at that moment, and

    scaled time = measured time * REFERENCE_S / unit time nearby

is the request's CPU time on a host where the unit takes REFERENCE_S.
Interleaved with p_eval calls for 90 s on a shared 2-CPU host, the ratio of
the two times spread 0.05 (IQR over the median of 6-s windows) where either
time alone spread 0.31.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# CPU time of one unit on an idle core of a 2-CPU x86-64 cloud host; a fixed
# number, so scaled times of two runs compare directly.
REFERENCE_S = 0.0045
# after a request, units are timed for about this share of its latency (at
# least one unit), so a long request, which averages over more of the host's
# swings, gets a steadier speed estimate
SHARE = 0.05


def work() -> Fraction:
    s = Fraction(0)
    for n in range(1, 1000):
        s += Fraction(1, n * n + 7)
        s = Fraction(s.numerator % (1 << 200), s.denominator % (1 << 200) + 1)
    return s


def unit_s() -> float:
    """CPU seconds of one unit, with the cyclic collector held off so that
    garbage the engine left behind is not collected on the unit's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        work()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def gap(latency: float) -> list[float]:
    """Unit times taken after a request of the given latency."""
    return [unit_s() for _ in range(max(1, round(SHARE * latency / REFERENCE_S)))]


def scale(latencies: list[float], gaps: list[list[float]]) -> list[float]:
    """Scale each latency to the reference speed. `gaps[i]` holds the units
    timed just before request i and `gaps[i + 1]` those just after it; a
    request's speed is the median of the units from the gap before it to
    the gap after the next, so a single disturbed unit moves no latency
    much."""
    if len(gaps) != len(latencies) + 1 or not all(gaps):
        raise ValueError("need units before every request and after the last")
    return [t * REFERENCE_S
            / statistics.median(u for g in gaps[max(i - 1, 0):i + 3] for u in g)
            for i, t in enumerate(latencies)]
