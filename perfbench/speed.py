"""The host's speed, rated by a fixed pure-Python computation.

On a shared 2-vCPU x86_64 VM the speed drifts by up to 2x over seconds
to minutes: a fixed loop's time moves with it, in user CPU time, not in
steal or system time.  The benchmark times ``unit``
between its instances, and scales every time it reports by how long the
unit took there against ``UNIT_S``, its time on the reference machine.
A reported time is thus in reference seconds: what the measured work
would take on the reference machine at its usual speed.

The unit is interpreter work like most of the program's: integer
arithmetic, dict reads and writes, and a keyed sort of small tuples.  Of
the candidates tried, its time tracked the benchmark's pass times most
closely.  It is frozen: changing it or ``UNIT_S`` changes every reported
time.
"""

from __future__ import annotations

import statistics
import time

# Seconds one unit takes on the reference machine (2-vCPU x86_64 VM,
# Python 3.11.7), its median over a few thousand runs.
UNIT_S = 0.00038


def _value(item):
    return item[1]


def unit() -> int:
    counts = {}
    for i in range(1000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + (i & 3)
    return sorted(counts.items(), key=_value)[0][0]


def sample(units: int) -> float:
    """Seconds that one unit takes now, the mean over ``units`` runs.

    The first run starts with whatever the program left in the caches.
    That is kept on purpose: it makes the sample feel the shared caches
    and memory as the program does, and a warmed-up sample followed the
    pass times less closely.
    """
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


def scale(samples) -> float:
    """Factor from measured to reference seconds, over samples of one stretch.

    With no samples, times stay as measured.
    """
    return UNIT_S / statistics.median(samples) if samples else 1.0
