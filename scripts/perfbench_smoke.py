#!/usr/bin/env python3
"""Perfbench smoke gate: the 2 s benchmark runs CI makes, checked in one place.

Usage (from any directory; takes no arguments)::

    python3 scripts/perfbench_smoke.py

Runs every entry of :data:`SMOKES` through ``perfbench/run.py`` (seed 1,
2 s), reads the JSON object it prints last and checks it with
:func:`check`: every run must report ``"correct": true`` and no failed
operation, an untraced run must reach its workload's committed
``points_per_s`` floor (:data:`FLOORS`) and a traced run must report
the span metrics of :data:`SPANS` above zero.  Prints one line per
smoke and exits non-zero when any smoke fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Untraced ``points_per_s`` floors: a third of the median of seven
#: untraced 2 s runs (seeds 1-7) of each workload on a 2-vCPU x86-64 VM,
#: wide enough for host-to-host noise, tight enough to catch a hot path
#: going off a cliff.  Perfbench scales its timings to a reference host
#: speed, so the floors travel.
FLOORS = {
    "sweep_scalar": 5883.0,      # median 17650 points/s
    "sweep_structural": 286.0,   # median 858
    "sweep_fleet": 2277.0,       # median 6832
    "serve_mixed": 1031.0,       # median 3094 requests/s
}

#: Span metrics a traced run must report above zero.  Each proves the
#: tracer still finds the name it wraps where its caller looks it up
#: (renaming one away empties the span): the warm record path for
#: ``sweep_scalar``, the cold scheme builds for ``sweep_structural`` and,
#: for ``serve_mixed``, the spans every request records, hit or miss.
#: The miss-path ``serve_mixed`` metrics (``cache.put_us_p50``,
#: ``cache.point_key_us_p50``, ``service.batch_wait_ms_p50``) stay
#: unchecked: a 2 s run sees fewer misses than perfbench's percentile
#: needs, so they read 0.0 there, and perfbench is the benchmark's own
#: code, not this gate's to change.
SPANS = {
    "sweep_scalar": ("compare.point_ms_p50", "scheme.SC.evaluate_ms_p50"),
    "sweep_structural": ("structural.scheme_misses",),
    "serve_mixed": ("service.evaluate_ms_p50", "service.http_ms_p50", "cache.get_us_p50"),
}

#: ``(workload, traced)`` pairs, in run order.
SMOKES = [(workload, False) for workload in FLOORS] + [(workload, True) for workload in SPANS]


def check(workload: str, traced: bool, line: str) -> list[str]:
    """Why the perfbench result ``line`` of one smoke fails (empty list
    when it passes)."""
    try:
        result = json.loads(line)
        metrics = result["metrics"]
    except (ValueError, TypeError, KeyError) as error:
        return [f"no perfbench result line ({error!r}): {line[:200]!r}"]
    problems = []
    if result.get("correct") is not True:
        problems.append('"correct" is not true (an output differs from serial '
                        'compare_schemes, or a metric is not finite)')
    if result.get("failed") != 0:
        problems.append(f"{result.get('failed')} failed operations")

    def value(name: str) -> float:
        return metrics.get(name, {}).get("value", 0.0)

    if traced:
        problems += [f"no {name} spans" for name in SPANS[workload] if not value(name) > 0]
    elif not value("points_per_s") >= FLOORS[workload]:
        problems.append(f"points_per_s {value('points_per_s'):.1f} below the "
                        f"committed floor {FLOORS[workload]:g}")
    return problems


def run(workload: str, traced: bool) -> str:
    """Run one smoke and return the last line perfbench printed (empty
    when it exited with an error, which it reports on stderr)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", str(int(traced))]
    process = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE, text=True)
    lines = process.stdout.strip().splitlines()
    return lines[-1] if process.returncode == 0 and lines else ""


def main() -> int:
    failed = 0
    for workload, traced in SMOKES:
        line = run(workload, traced)
        problems = check(workload, traced, line)
        failed += bool(problems)
        label = f"{workload} ({'traced' if traced else 'untraced'})"
        if problems:
            print(f"FAIL {label}: " + "; ".join(problems), flush=True)
        elif traced:
            print(f"ok   {label}", flush=True)
        else:
            points = json.loads(line)["metrics"]["points_per_s"]["value"]
            print(f"ok   {label}: points_per_s {points:.0f} "
                  f"(floor {FLOORS[workload]:g})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
