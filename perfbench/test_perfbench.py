"""Tests of the benchmark's own pieces: the input-domain guard, the
seeded generators, the open-loop accounting helpers and the tracer.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
from accounting import (InsufficientSamples, backlog_growing,  # noqa: E402
                        calibration_loop, host_speed, latency_from_due, percentile,
                        summarise)
from tracing import Tracer, self_times  # noqa: E402


# -- input-domain guard ----------------------------------------------------------

@pytest.mark.parametrize("point", [
    {"static_probability": 0.004},
    {"static_probability": -0.1},
    {"toggle_activity": 1.5},
    {"technology_node": "22nm"},
    {"technology_node": "7nm"},
])
def test_check_point_rejects_points_outside_the_domain(point):
    with pytest.raises(ValueError):
        inputs.check_point(point)


def test_check_point_accepts_the_domain_edges():
    point = {"static_probability": inputs.MIN_STATIC_PROBABILITY,
             "toggle_activity": 1.0, "technology_node": "32nm"}
    assert inputs.check_point(point) is point


def _workload_samples(seed):
    traffic = inputs.ServeTraffic(seed)
    return {
        "scalar": inputs.scalar_block(seed, 3),
        "structural": inputs.structural_block(seed, 1),
        "serve": [traffic.next_request()[1] for _ in range(200)],
    }


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generators_stay_inside_the_domain(seed):
    for points in _workload_samples(seed).values():
        for point in points:
            inputs.check_point(point)
            assert point.get("technology_node") != "22nm"
            assert point.get("static_probability", 0.5) >= inputs.MIN_STATIC_PROBABILITY


def test_seeded_sample_of_each_workload_evaluates():
    from repro.core.comparison import compare_schemes
    from repro.core.config import ExperimentConfig

    for name, points in _workload_samples(5).items():
        for index in inputs.sample_indices(5, name, len(points), 3):
            records = compare_schemes(
                ExperimentConfig().with_overrides(**points[index])).as_records()
            assert len(records) == 5


def test_same_seed_same_inputs_and_seeds_differ():
    assert _workload_samples(9) == _workload_samples(9)
    assert _workload_samples(9) != _workload_samples(10)


def test_scalar_stream_never_repeats_a_point():
    stream = inputs.point_stream(inputs.scalar_block, 2)
    points = [tuple(sorted(p.items())) for p in itertools.islice(stream, 640)]
    assert len(set(points)) == len(points)


def test_structural_block_exceeds_the_structural_cache():
    block = inputs.structural_block(4, 0)
    libraries = {(p["technology_node"], p["corner"], p["temperature_celsius"])
                 for p in block}
    assert len(block) == 1200
    assert len(libraries) == 60 > 32


def test_serve_traffic_shares_are_exact_per_deck():
    traffic = inputs.ServeTraffic(3)
    kinds = [traffic.next_request()[0] for _ in range(inputs.DECK_SIZE * 4)]
    assert kinds.count(inputs.PAIR) == 4 * inputs.PAIRS_PER_DECK
    assert kinds.count(inputs.FRESH) == 4 * inputs.FRESH_PER_DECK
    warm = {tuple(sorted(p.items())) for p in traffic.warm_points}
    assert len(warm) == 64


# -- accounting helpers --------------------------------------------------------

def test_percentile_refuses_without_ten_samples_beyond():
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50.0)
    assert percentile(range(1, 21), 50.0) == 10
    with pytest.raises(InsufficientSamples):
        percentile(range(999), 99.0)
    assert percentile(range(1, 1001), 99.0) == 990


def test_summarise_reports_highest_supported_tail_and_count():
    summary = summarise(range(1, 201))
    assert (summary.median, summary.tail_q, summary.tail, summary.count) == (100, 95.0, 190, 200)
    assert "n=200" in summary.describe("ms")
    with pytest.raises(InsufficientSamples):
        summarise([1.0, 2.0])


def test_host_speed_runs_at_least_as_long_as_asked():
    started = time.perf_counter()
    speed = host_speed(0.02)
    assert time.perf_counter() - started >= 0.02
    assert 0.0 < speed < 100.0
    assert calibration_loop(10) == calibration_loop(10)


def test_latency_counts_from_due_time():
    assert latency_from_due(due=10.0, done=10.25) == pytest.approx(0.25)


def test_backlog_detection():
    dues = [i * 0.01 for i in range(400)]
    steady = [0.002 + 0.001 * (i % 3) for i in range(400)]
    growing = [0.002 + 0.0005 * i for i in range(400)]
    assert not backlog_growing(dues, steady)
    assert backlog_growing(dues, growing)
    with pytest.raises(InsufficientSamples):
        backlog_growing([0.0, 0.1], [0.0, 0.0])


# -- tracer ------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores_names():
    from repro.core import scheme_evaluator
    from repro.engine import executor
    from repro.engine.executor import SerialExecutor, WorkItem
    from repro.core.config import ExperimentConfig

    original = executor.compare_schemes
    tracer = Tracer().install()
    try:
        item = WorkItem(config=ExperimentConfig(), scheme_names=("SC", "DFC"),
                        baseline_name="SC")
        SerialExecutor().run([item])
    finally:
        tracer.uninstall()
    assert executor.compare_schemes is original
    assert scheme_evaluator.evaluate_scheme.__name__ == "evaluate_scheme"
    names = [span["name"] for span in tracer.spans]
    assert names[:2] == ["executor.run", "compare.point"]
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["scheme.SC"]["parent"] == by_name["compare.point"]["id"]
    assert by_name["executor.run"]["items"] == 1


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 2.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "b", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
