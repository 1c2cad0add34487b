"""A fixed calibration load, timed alongside the workloads.

On a shared host the CPU speed a process gets drifts, and it moves every
wall-clock figure of a run together: on a 2-core host the model-sweep
figures of consecutive runs swung by a factor of 1.6 within a quarter of an
hour.  The workers time this load between items, and after set-up, and
divide every time by `slowdown()` (the mean time of the load over
NOMINAL_S) and multiply every rate by it.  Figures then read as on a host
where the load takes NOMINAL_S, and a drift in machine speed largely
cancels.

The mean, not the median: the speed a process gets flips between a fast
and a slow state within seconds (the load's time moved between 7.7 and
14.5 ms from one second to the next on that host), and a run's time is
the sum over both.  The share of slow samples ranged from 0.1 to 1.0 per
run, so the median jumped from one state to the other while the mean
followed the share.  Over 7 runs of each workload, `items_per_s` spread
0.24-0.58 raw, 0.098-0.131 scaled by the median and 0.045-0.064 scaled by
the mean.

The load is a small de Bruijn lambda-calculus normalizer on frozen
dataclasses with structural pattern matching, the same kind of interpreter
work as pimodulo's kernel, that computes 6 * (3 + 4) on Church numerals.
It calls nothing of pimodulo, but it shares the process with it.  It runs
with the collector off, so the program's heap is never scanned on its
time.  On a 2-core host, holding 1.2 million extra objects on the heap
changed its median time by a ratio of 0.98 (quartiles 0.86 and 1.08 over
15 alternations), inside the host's own noise.  The raw figures and the
factor are printed beside the scaled ones, so a move of the factor shows.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.010   # about the load's time on the host the bounds were set on
SETUP_SAMPLES = 5   # loads timed after each set-up


@dataclass(frozen=True)
class V:
    index: int


@dataclass(frozen=True)
class L:
    body: object


@dataclass(frozen=True)
class A:
    fn: object
    arg: object


def _shift(t, by: int, cut: int = 0):
    match t:
        case V(i):
            return V(i + by) if i >= cut else t
        case L(b):
            return L(_shift(b, by, cut + 1))
        case A(f, a):
            return A(_shift(f, by, cut), _shift(a, by, cut))


def _subst(t, u, depth: int = 0):
    match t:
        case V(i):
            if i == depth:
                return _shift(u, depth)
            return V(i - 1) if i > depth else t
        case L(b):
            return L(_subst(b, u, depth + 1))
        case A(f, a):
            return A(_subst(f, u, depth), _subst(a, u, depth))


def _step(t):
    """One leftmost-outermost beta step, or None at a normal form."""
    match t:
        case A(L(b), a):
            return _subst(b, a)
        case L(b):
            r = _step(b)
            return None if r is None else L(r)
        case A(f, a):
            r = _step(f)
            if r is not None:
                return A(r, a)
            r = _step(a)
            return None if r is None else A(f, r)
    return None


def _normalize(t):
    while (r := _step(t)) is not None:
        t = r
    return t


def _church(n: int):
    body = V(0)
    for _ in range(n):
        body = A(V(1), body)
    return L(L(body))


_PLUS = L(L(L(L(A(A(V(3), V(1)), A(A(V(2), V(1)), V(0)))))))
_TIMES = L(L(L(A(V(2), A(V(1), V(0))))))
_TERM = A(A(_TIMES, _church(6)), A(A(_PLUS, _church(3)), _church(4)))


def time_once() -> float:
    _normalize(_TERM)  # warm the caches, so the work before does not count
    # A collection during the load would scan the program's heap, so its
    # time would grow with that heap.  The load's objects hold no cycles
    # and are freed as it goes, so it leaves the collector's counts as
    # they were.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _normalize(_TERM)
        _normalize(_TERM)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: list[float]) -> float:
    """How much slower than NOMINAL_S the load ran on average (>1 is slower)."""
    return statistics.fmean(samples) / NOMINAL_S
