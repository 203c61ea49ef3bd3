"""The perfbench smoke gate's result check (``scripts/perfbench_smoke.py``),
fed canned perfbench result lines: no workload runs here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perfbench_smoke.py"
_spec = importlib.util.spec_from_file_location("perfbench_smoke", SCRIPT)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)


def result_line(correct=True, failed=0, **metrics) -> str:
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {name: {"value": value, "unit": "-"}
                                   for name, value in metrics.items()}})


def untraced(workload: str, points_per_s: float | None = None, **fields) -> str:
    points = smoke.FLOORS[workload] * 3 if points_per_s is None else points_per_s
    return result_line(points_per_s=points, setup_s=0.3, **fields)


def traced(workload: str, missing: str | None = None) -> str:
    spans = {name: 1.0 for name in smoke.SPANS[workload] if name != missing}
    return result_line(**spans, **{"trace_overhead.points_per_s": -100.0})


def test_every_workload_has_a_floor_and_three_are_traced():
    assert set(smoke.FLOORS) == {"sweep_scalar", "sweep_structural",
                                 "sweep_fleet", "serve_mixed"}
    assert smoke.SMOKES == [(w, False) for w in smoke.FLOORS] + [
        ("sweep_scalar", True), ("sweep_structural", True), ("serve_mixed", True)]
    # Stricter than the armed gates it replaced: serial grid >= 426
    # points/s, service burst >= 355 queries/s.
    assert smoke.FLOORS["sweep_scalar"] > 426
    assert smoke.FLOORS["serve_mixed"] > 355


@pytest.mark.parametrize("workload, is_traced", [
    (workload, False) for workload in smoke.FLOORS] + [
    (workload, True) for workload in smoke.SPANS])
def test_a_good_line_passes(workload, is_traced):
    line = traced(workload) if is_traced else untraced(workload)
    assert smoke.check(workload, is_traced, line) == []


@pytest.mark.parametrize("line", [
    untraced("sweep_scalar", correct=False),
    untraced("sweep_scalar", failed=1),
    untraced("sweep_scalar", points_per_s=smoke.FLOORS["sweep_scalar"] - 1),
    result_line(setup_s=0.3),
    "",
    "sweep_scalar (seed 1, 2 s per measurement)",
], ids=["incorrect", "failed", "below-floor", "no-points", "empty", "not-json"])
def test_a_bad_untraced_line_fails(line):
    assert smoke.check("sweep_scalar", False, line)


@pytest.mark.parametrize("workload, missing", [
    ("sweep_scalar", "compare.point_ms_p50"),
    ("sweep_scalar", "scheme.SC.evaluate_ms_p50"),
    ("sweep_structural", "structural.scheme_misses"),
    ("serve_mixed", "service.evaluate_ms_p50"),
    ("serve_mixed", "service.http_ms_p50"),
    ("serve_mixed", "cache.get_us_p50"),
])
def test_a_traced_line_without_its_spans_fails(workload, missing):
    problems = smoke.check(workload, True, traced(workload, missing=missing))
    assert problems == [f"no {missing} spans"]


def test_a_traced_line_ignores_the_floor_but_not_correctness():
    # Traced runs print per-layer metrics only, so no points_per_s.
    spans = {name: 1.0 for name in smoke.SPANS["serve_mixed"]}
    assert smoke.check("serve_mixed", True, result_line(**spans)) == []
    assert smoke.check("serve_mixed", True, result_line(correct=False, **spans))
    assert smoke.check("serve_mixed", True, result_line(failed=2, **spans))
