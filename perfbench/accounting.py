"""Timing and open-loop accounting helpers for the benchmark.

* :func:`percentile` refuses a percentile that fewer than
  ``MIN_TAIL_SAMPLES`` samples lie beyond, so a tail figure is never read
  off a handful of points.
* :func:`summarise` reports a timing the way every metric line prints it:
  the median, the highest percentile the sample count supports, and the
  count itself.
* :func:`host_speed` reads the host's current speed off a fixed
  calibration loop run right after a timed stretch, so a sweep's
  timings can be scaled to one reference speed.
* An open loop times each request from when it was *due*
  (:func:`latency_from_due`), so a stall also charges the requests queued
  behind it, and :func:`backlog_growing` tells a rate the system keeps up
  with from one it falls behind at.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

#: Samples that must lie beyond a percentile before it may be reported.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles :func:`summarise` tries, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` when fewer than
    ``MIN_TAIL_SAMPLES`` samples lie beyond the percentile — 20 samples
    for a median, 1000 for a p99.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(values)
    beyond = len(ordered) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(ordered)} samples leave {beyond:g}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class Summary:
    """Median, the highest supported tail percentile, and the count."""

    median: float
    tail_q: float
    tail: float
    count: int

    def describe(self, unit: str) -> str:
        """``p50 1.20 ms, p99 4.10 ms, n=1234``."""
        tail = (f", p{self.tail_q:g} {self.tail:.4g} {unit}"
                if self.tail_q > 50.0 else "")
        return f"p50 {self.median:.4g} {unit}{tail}, n={self.count}"


def summarise(values) -> Summary:
    """Summary of ``values``; raises :class:`InsufficientSamples` when
    even the median is not supported."""
    values = list(values)
    median = percentile(values, 50.0)
    for q in TAIL_PERCENTILES:
        try:
            return Summary(median, q, percentile(values, q), len(values))
        except InsufficientSamples:
            continue
    return Summary(median, 50.0, median, len(values))


def latency_from_due(due: float, done: float) -> float:
    """Latency of an open-loop request: completion minus due time, so
    time spent waiting to be sent counts."""
    return done - due


def backlog_growing(dues, latencies, *, factor: float = 2.0,
                    slack_s: float = 0.005) -> bool:
    """Whether an open-loop run fell progressively behind its schedule.

    At a rate the system sustains, latency from due time is stationary;
    above it, every request waits for the backlog ahead of it and latency
    climbs with time.  The run is split by due time into quarters, and
    the backlog is growing when the last quarter's median latency exceeds
    ``factor`` times the first quarter's plus ``slack_s``.
    """
    ordered = [latency for _, latency in sorted(zip(dues, latencies))]
    quarter = len(ordered) // 4
    if quarter == 0:
        raise InsufficientSamples(
            f"backlog detection needs at least 4 requests, got {len(ordered)}")
    first = sorted(ordered[:quarter])[quarter // 2]
    last = sorted(ordered[-quarter:])[quarter // 2]
    return last > factor * first + slack_s


#: Calibration-loop rounds per second that scaled timings refer to (about
#: what one core of a 2-vCPU cloud VM gives under CPython 3).
REFERENCE_SPEED = 6.0e6
#: Rounds per timed chunk of the calibration loop (about 0.4 ms).
CALIBRATION_CHUNK = 2000


def calibration_loop(rounds: int) -> float:
    """Fixed pure-Python work (dict reads and writes, float arithmetic)
    whose speed tracks the interpreter's share of the host."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(rounds):
        key = i & 255
        total = total * 0.5 + table.get(key, 1.0)
        table[key] = total
    return total


def host_speed(min_seconds: float) -> float:
    """The host's speed right now over :data:`REFERENCE_SPEED`, from
    running the calibration loop for at least ``min_seconds``.

    A virtual machine sharing its host loses CPU to other tenants without
    seeing it as waiting: the same Python code runs up to a third slower
    for stretches of a fraction of a second, in wall and CPU time alike.
    Measuring the speed right after a timed stretch of work and
    multiplying the stretch's duration by it gives the duration the work
    would have taken at the reference speed: the host's swings cancel,
    any change in the work's own cost stays.
    """
    rounds = 0
    started = time.perf_counter()
    while True:
        calibration_loop(CALIBRATION_CHUNK)
        rounds += CALIBRATION_CHUNK
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return rounds / elapsed / REFERENCE_SPEED
