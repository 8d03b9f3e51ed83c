"""Times scaled by the host's current speed, measured with a fixed reference loop.

The benchmark runs on a vCPU that shares a physical core with a sibling whose
load it cannot see. While the sibling is busy, all pure-Python code runs up
to 1.7 times slower, and the host changes between the two speeds from one
second to the next. A wall time alone therefore measures the host as much as
the program.

``Sampler`` measures the host's speed while an operation runs. It times
``reference()``, a fixed loop that does the kind of work the library does
(small dicts of integer coefficients, tuples, hashing, ``gcd``), right
before and right after the operation, and from a timer signal every 11 to
29 ms in between. The operation's time, less the time spent in those
samples, is then scaled by ``REF_S`` over the mean sample time. A scaled
time is the time the operation would take at the speed at which one
reference sample takes ``REF_S`` seconds, which is about the speed of an
uncontended core of the machine this benchmark was written on.

The reference loop must never call into ``chcpair``, so that a change to
the library cannot change the yardstick.
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

# Nominal seconds of one reference sample, which runs ROUNDS rounds.
REF_S = 0.002
ROUNDS = 12
# Delays between two samples while an operation runs, taken in turn. They
# differ so that the samples do not fall in step with periodic load on the
# sibling vCPU.
GAPS_S = (0.013, 0.021, 0.017, 0.029, 0.011, 0.023, 0.019, 0.027)

_ROWS = [({j: (i * 7 + j * 3) % 11 - 5 for j in range(6)}, i) for i in range(8)]


def _combine() -> int:
    seen: dict = {}
    for a, ka in _ROWS:
        for b, kb in _ROWS:
            c = {v: x + b.get(v, 0) for v, x in a.items()}
            g = 0
            for x in c.values():
                g = gcd(g, x)
            key = (tuple(sorted(c.items())), ka + kb, g)
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference() -> float:
    """Seconds of one reference sample, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            _combine()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


_current: "Sampler | None" = None


def _on_timer(signum, frame) -> None:
    # A signal can still be pending when a Sampler has closed; it is dropped.
    if _current is not None:
        _current.take()


class Sampler:
    """Samples the host's speed around and during a stretch of timed work.

    ``with Sampler() as s:`` times a reference sample, then arms a timer
    whose handler takes further samples until the block ends, and one more
    sample after it. ``s.inside`` is the wall time spent in samples taken
    within the block so far; a caller subtracts its growth from what it
    timed. ``s.scale`` turns such a time into a scaled time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, GAPS_S[len(self.samples) % len(GAPS_S)])

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.inside += time.perf_counter() - t0
        self._arm()

    def __enter__(self) -> "Sampler":
        global _current
        if signal.getsignal(signal.SIGALRM) is not _on_timer:
            signal.signal(signal.SIGALRM, _on_timer)
        self.samples.append(reference())
        _current = self
        self._arm()
        return self

    def __exit__(self, *exc) -> None:
        global _current
        _current = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(reference())

    @property
    def scale(self) -> float:
        return REF_S * len(self.samples) / sum(self.samples)
