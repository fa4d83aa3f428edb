"""The machine's pace, measured beside the program so its drift can be taken out.

The host this benchmark runs on shares its cores with other tenants, and
its speed drifts by up to 2x over seconds to minutes.  A run therefore
times a fixed unit of work, `unit()`, right before every solve and verify
call and reports each call's wall time scaled by `REF_UNIT_MS` over the
unit's own time in the same pass: the time the call would have taken at
the pace where one unit takes `REF_UNIT_MS`.  Drift slows the program and
the unit alike, so it cancels; a change to the program moves only the
program's side, since the unit uses nothing from parcut.

The unit mixes the kinds of work parcut does: pure-Python float, list and
heap loops (its sweeps and hull walks), many small numpy calls (its
small LPs) and an argsort of an 8192-row array (its large inputs).
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

# About the median time of one unit on the machine the bounds were set on
# (2 cores, Python 3.11.7, numpy 2.4.6), where it ranged from 3.4 to 6.5 ms.
# It fixes only the scale of the reported times; changing it moves them all.
REF_UNIT_MS = 5.0

_BIG = np.random.default_rng(12345).uniform(-1.0, 1.0, (8192, 2))
_SMALL = np.random.default_rng(54321).uniform(-1.0, 1.0, (128, 3, 3)) + 3.0 * np.eye(3)


def unit() -> float:
    """One fixed unit of work; returns a checksum so that none of it is idle."""
    seed, pts = 12345, []
    for _ in range(800):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        a = seed / 0x7FFFFFFF * 2.0 * math.pi
        pts.append((math.cos(a), math.sin(a)))
    pts.sort()
    hull: list = []
    for p in pts + pts[::-1]:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ) <= 0.0:
            hull.pop()
        hull.append(p)
    heap = [(x * y, k) for k, (x, y) in enumerate(pts)]
    heapq.heapify(heap)
    acc = sum(heapq.heappop(heap)[0] for _ in range(400))
    for M in _SMALL:
        acc += float(np.linalg.solve(M, M[0]).sum())
    order = np.argsort(_BIG[:, 0] * 0.6 + _BIG[:, 1] * 0.8, kind="stable")
    acc += float(np.abs(_BIG[order]).max(axis=0).sum())
    return acc + len(hull)


def timed_units(count: int) -> float:
    """Seconds taken by `count` units in a row."""
    t0 = time.perf_counter()
    for _ in range(count):
        unit()
    return time.perf_counter() - t0


def unit_ms(count: int) -> float:
    """The mean time of one unit, in ms, over `count` units in a row."""
    return timed_units(count) * 1e3 / count


def at_ref(value: float, unit_ms: float) -> float:
    """A time taken while one unit took `unit_ms`, at the reference pace."""
    return value * REF_UNIT_MS / unit_ms
