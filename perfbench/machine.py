"""Machine speed: a fixed reference loop and the scaling that removes drift.

The processor this benchmark runs on changes speed while a run is going, and
thread CPU time follows wall time, so neither clock protects a measurement.
Every timed block is therefore paired with an adjacent timing of a reference
loop that uses no tracevm code, and each time is reported both as measured and
at a nominal speed:

    scaled = measured * (NOMINAL_LOOP_S / loop time measured beside it)

The loop mixes the kinds of work tracevm does: calls with dict reads and
writes (dispatch, the interpreter, event plumbing), 64-bit wrap-around
arithmetic (bytecode bodies) and small allocations (frames, events,
instantiation). A sandbox's speed changes do not slow these alike, so a loop
of one kind alone would track only part of a block. Its working set stays in
the first-level caches, so its time does not depend on what ran just before
it, and the objects it allocates are ints, which the cyclic garbage collector
does not track, so timing the loop does not move the program's collections.

The machine keeps one speed for a fraction of a second at a time, so a block
that runs longer than ``SAMPLE_INTERVAL_S`` is also sampled from inside: a
SIGALRM timer times the loop every interval while the block runs, and the time
those samples take is left out of the block's time.
"""

from __future__ import annotations

import math
import signal
import time
from typing import NamedTuple

REF_ITERATIONS = 400
# Nominal time of one reference loop: about what a 2-vCPU x86-64 sandbox
# running CPython 3.11 measured as its median. Scaled figures read as if every
# block ran beside a loop of exactly this length.
NOMINAL_LOOP_S = 0.0004
# Period of the loop samples taken inside a long block.
SAMPLE_INTERVAL_S = 0.05
_BIAS = 2**63
_MASK = 2**64 - 1


def _mix(acc: int, value: int) -> int:
    return (acc * 31 + value) & 0xFFFFFFFF


def ref_loop(n: int = REF_ITERATIONS) -> int:
    table: dict[int, int] = {}
    kept = []
    acc = 0
    s = 7
    for i in range(n):
        key = i & 63
        acc = _mix(acc, table.get(key, i))
        table[key] = acc >> 3
        s = (s * 7 + _BIAS & _MASK) - _BIAS
        s = (s + 11 + _BIAS & _MASK) - _BIAS
        kept.append(acc * _BIAS + i)
    return acc ^ s ^ len(kept)


def time_ref_loop() -> float:
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, q: float):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100 * len(s)))
    return s[rank - 1]


class _Sampler:
    """While entered, times the reference loop from a SIGALRM handler every
    ``SAMPLE_INTERVAL_S``. ``samples`` holds ``(start, loop seconds,
    handler seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        loop = time_ref_loop()
        self.samples.append((t0, loop, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def paused(self, t0: float, t1: float) -> float:
        """Handler time spent inside ``[t0, t1)``."""
        return sum(d for start, _loop, d in self.samples if t0 <= start < t1)

    def loops(self) -> list[float]:
        return [loop for _start, loop, _d in self.samples]


class Block(NamedTuple):
    """One timed block: its seconds, the pairer that timed it, the index of
    the loop timed just before it, and the loop samples taken inside it."""

    seconds: float
    pairer: "Pairer"
    loop: int
    inner: tuple = ()

    def scaled(self) -> float:
        return scale(self.seconds, self.pairer.loop_time(self))

    def raw(self) -> float:
        return self.seconds


class Pairer:
    """Times blocks, each right after a timing of the reference loop.

    A block's loop time is the median of the two timings on each side of it
    and of any samples taken inside it, so the estimate follows the machine
    from block to block without taking on the jitter of one short timing.
    """

    def __init__(self):
        self.loops: list[float] = []

    def time(self, fn, *args, **kwargs):
        """Return ``(Block, result of fn(*args, **kwargs))``."""
        self.loops.append(time_ref_loop())
        with _Sampler() as sampler:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
        seconds = t1 - t0 - sampler.paused(t0, t1)
        return Block(seconds, self, len(self.loops) - 1, tuple(sampler.loops())), result

    def close(self) -> None:
        self.loops.append(time_ref_loop())

    def loop_time(self, block: Block) -> float:
        j = block.loop
        return median(self.loops[max(0, j - 1):j + 3] + list(block.inner))


def scale(measured: float, loop_time: float) -> float:
    return measured * (NOMINAL_LOOP_S / loop_time)


def timed_with_reference(fn):
    """Run ``fn`` between loop timings and with loop samples taken inside it.

    ``fn`` receives a ``Stopwatch`` and times only the sections it wraps.
    Returns ``(result, measured_s, loop_s)``: the sections' time less the
    samples taken inside them, and the median of every loop timing.
    """
    loops = [time_ref_loop()]
    watch = Stopwatch()
    with _Sampler() as sampler:
        result = fn(watch)
    loops += sampler.loops() + [time_ref_loop()]
    paused = sum(sampler.paused(t0, t1) for t0, t1 in watch.sections)
    return result, watch.total - paused, median(loops)


class Stopwatch:
    """Accumulates the time spent inside ``with watch:`` sections."""

    __slots__ = ("total", "sections", "_t0")

    def __init__(self):
        self.total = 0.0
        self.sections: list[tuple[float, float]] = []
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.total += t1 - self._t0
        self.sections.append((self._t0, t1))
        return False
