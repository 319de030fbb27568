"""A fixed reference computation that gauges the machine's speed.

The machine the benchmark runs on is shared, and its speed changes in
phases of tens of seconds to minutes by up to about 1.8x.  Wall times
taken in different phases cannot be compared, so the benchmark times
this fixed computation in the process it measures, next to each
measured interval, and reports the interval at the reference speed:
its wall time times ``REFERENCE_S`` over the reference timing.

The reference is pure-Python object arithmetic, like the program's own
work: small objects, list indexing, modular integer arithmetic, method
dispatch and dict stores.  Changing it, or ``REFERENCE_S``, changes
every time metric, so it must stay as it is for as long as the
benchmark's figures are compared.
"""

from __future__ import annotations

import gc
import statistics
import time

# median seconds of one reference() call on an Intel Xeon 2-vCPU VM
# under Python 3.11.7; it only sets the scale of the reported seconds
REFERENCE_S = 0.003
ROUNDS = 330
# reference() calls in one timing; their median ignores a call that an
# interrupt or a page fault happened to hit
CALLS = 3


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] = (out[i + j] + a * b) % 7
        return _Poly(out)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _Poly([(x + (b[i] if i < len(b) else 0)) % 7 for i, x in enumerate(a)])


def reference():
    x = _Poly([1, 2, 3, 4, 5, 6])
    seen = {}
    for k in range(ROUNDS):
        y = x * _Poly([1, k % 7, 2]) + x  # the constant term stays nonzero
        seen[k & 7] = y
        x = _Poly(y.c[:6])
    return x.c


def timed():
    """Seconds of one reference() call: the median of ``CALLS`` calls.
    The garbage collector is off meanwhile, so that a collection of the
    program's heap is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            reference()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def at_reference_speed(seconds, gauge_s):
    """Wall ``seconds`` as seconds at the reference speed, given the
    reference timing ``gauge_s`` taken in the same process around them."""
    return seconds * REFERENCE_S / gauge_s
