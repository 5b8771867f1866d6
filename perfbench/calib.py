"""Reference workload that tracks the host CPU's current speed.

On a shared virtual machine the speed of plain CPU-bound Python drifts by
±20–50% over minutes (its CPU time moves with its wall time, so this is
not stolen time), and host times taken minutes apart drift with it. :func:`sample` times a fixed,
self-contained pure-Python workload that never changes with the
repository, in two parts shaped like the simulator's work:

* a max-min fair progressive filling of 240 flows over 60 ports — the
  dict, list and float mix of rate allocation, in cache;
* a walk, in shuffled order, over 60 000 small objects (about 8 MB, past
  the L2 cache) — the pointer chasing of a large flow table, which slows
  when other tenants crowd the shared last-level cache.

Either part alone tracks the drift less well than both (measured on
``stream-fork``: the spread of 30 s medians fell from 0.15 unscaled to
0.07–0.09 with one part and 0.03 with both). The benchmark samples it
between simulations and scales each run's host times by ``REFERENCE_S``
over the mean of the samples on either side of it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from time import perf_counter

#: A typical :func:`sample` on the reference host (a 2-vCPU Intel Xeon
#: Sapphire Rapids VM, Python 3.11, where samples took 45–85 ms). It only
#: sets the scale of the reported times, which then read as host seconds
#: on that host when its sample takes this long.
REFERENCE_S = 0.060

_PORTS = 30
_FLOWS = [(src, _PORTS + dst, volume) for src, dst, volume in (
    (rng.randrange(_PORTS), rng.randrange(_PORTS), rng.random() * 10 + 0.1)
    for rng in [random.Random(1)] for _ in range(240))]
_WALK_OBJECTS = 60_000
#: The objects walked, in shuffled order; built on the first sample so
#: that importing this module costs nothing.
_walk: list[list] = []


def _fill() -> float:
    """Rate every flow max-min fairly until all finish; return the time."""
    remaining = {i: flow[2] for i, flow in enumerate(_FLOWS)}
    now = 0.0
    while remaining:
        count = defaultdict(int)
        for i in remaining:
            src, dst, _ = _FLOWS[i]
            count[src] += 1
            count[dst] += 1
        rate = {i: min(1.0 / count[_FLOWS[i][0]], 1.0 / count[_FLOWS[i][1]])
                for i in remaining}
        step = min(remaining[i] / rate[i] for i in remaining)
        now += step
        for i in list(remaining):
            left = remaining[i] - rate[i] * step
            if left <= 1e-9:
                del remaining[i]
            else:
                remaining[i] = left
    return now


def _chase() -> float:
    """Walk the objects, accumulating into a small dict."""
    total = 0.0
    buckets: dict[int, float] = {}
    for value, key, _ in _walk:
        total += value * 1.0001
        key &= 1023
        buckets[key] = buckets.get(key, 0.0) + total
    return total


def sample() -> float:
    """Host seconds one reference workload takes now."""
    if not _walk:
        rng = random.Random(5)
        objects = [[rng.random(), i, None] for i in range(_WALK_OBJECTS)]
        rng.shuffle(objects)
        _walk.extend(objects)
    start = perf_counter()
    _fill()
    _chase()
    return perf_counter() - start
