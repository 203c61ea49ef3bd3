"""Single-point evaluation benchmark: the serial hot path itself.

Every serving/distributed layer funnels into one
:func:`~repro.core.comparison.compare_schemes` call per design point, so
this bench measures that call directly — fresh points (distinct
``static_probability`` values) over a warm structural cache, the
cache-miss latency every other throughput figure is built on — plus the
leakage-kernel effectiveness behind it: how many bias-point evaluations
one point requests (``leakage_calls_per_point``, zero since the per-scheme
activity profile made a warm point pure arithmetic) and what fraction the
memo serves (``point_kernel_hit_rate``, 0 when nothing is looked up).

Under ``REPRO_BENCH_GATE=1`` the ``point_eval_*`` /
``leakage_calls_per_point`` keys are merged into ``BENCH_engine.json``
and appended to ``BENCH_history.json``, and the ci_check trend table
renders ``point_eval_points_per_second`` next to the engine and service
trends.  The regression gate arms once the history holds enough records
(same >=5-record rolling-median rule as the service and distributed
gates).
"""

from __future__ import annotations

import os
import time

from repro import compare_schemes, paper_experiment
from repro.circuit.biasing import kernel_totals
from repro.core.scheme_evaluator import clear_structural_cache

GATE_ENABLED = os.environ.get("REPRO_BENCH_GATE") == "1"

#: Fail the smoke when throughput drops below rolling-median/3 — the
#: same margin as the engine/service gates.
REGRESSION_FACTOR = 3.0

#: The gate arms only once this many history records carry the metric.
MIN_GATE_RECORDS = 5

#: Fresh single points: distinct activity scalars over shared structure
#: (the design-space common case the structural cache was built for).
POINTS = [0.05 + 0.9 * i / 63 for i in range(64)]


def test_point_evaluation_throughput(benchmark, bench_store):
    """Fresh-point compare_schemes latency + leakage-kernel efficiency,
    recorded as point_eval_* / leakage_calls_per_point bench keys."""
    # A clean slate makes the kernel arithmetic exact: one cold call
    # builds libraries/schemes and fills the memo, then the measured
    # points run over warm structure exactly as a sweep or service does.
    clear_structural_cache()
    base = paper_experiment()
    compare_schemes(base)

    before = kernel_totals()
    before_lookups, before_misses = before.lookups, before.misses

    def run_points():
        start = time.perf_counter()
        for probability in POINTS:
            compare_schemes(base.with_overrides(static_probability=probability))
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(run_points, rounds=1, iterations=1)

    totals = kernel_totals()
    lookups = totals.lookups - before_lookups
    misses = totals.misses - before_misses
    points = len(POINTS)
    payload = {
        "point_eval_points": points,
        "point_eval_seconds": elapsed,
        "point_eval_points_per_second": points / elapsed,
        "leakage_calls_per_point": lookups / points,
        "point_kernel_misses_per_point": misses / points,
        "point_kernel_hit_rate": (lookups - misses) / lookups if lookups else 0.0,
    }
    print()
    print(f"single-point evaluation ({points} fresh points, all schemes, "
          f"{os.cpu_count()} cpu):")
    print(f"  points/s      : {payload['point_eval_points_per_second']:8.1f}")
    print(f"  kernel        : {payload['leakage_calls_per_point']:.1f} "
          f"bias-point lookups/point, "
          f"{payload['point_kernel_hit_rate'] * 100.0:.1f}% memo hits")

    # A fresh point over warm structure is arithmetic on each scheme's
    # activity profile: it must not evaluate (or even look up) a single
    # bias point.  With no lookups the hit rate above reads 0.
    assert lookups == 0
    assert misses == 0

    if not GATE_ENABLED:
        return

    # Runs BEFORE the new record lands, so a failing run cannot poison
    # its own baseline.
    bench_store.regression_gate(
        "point_eval_points_per_second",
        payload["point_eval_points_per_second"],
        regression_factor=REGRESSION_FACTOR,
        min_records=MIN_GATE_RECORDS,
        label="gate          ",
    )

    bench_store.merge(payload)
    bench_store.append_history({
        "bench": "point",
        "cpu_count": os.cpu_count(),
        "point_eval_points_per_second": payload["point_eval_points_per_second"],
        "leakage_calls_per_point": payload["leakage_calls_per_point"],
    })
