"""The four benchmark workloads and the metrics each one reports.

Why these four (each one stresses a different layer):

* ``sweep_scalar`` — a serial ``Evaluator`` over activity scalars at the
  paper's structural point.  Structure stays warm, so per-point analysis,
  leakage-kernel lookups and the cache write path dominate; HTTP and the
  fleet are bypassed.
* ``sweep_structural`` — a shuffled grid over node x corner x
  temperature x port count x flit width whose working set exceeds the
  structural cache, so library/scheme building and kernel misses
  dominate.
* ``sweep_fleet`` — the ``sweep_scalar`` generator through a 2-worker
  ``DistributedExecutor``: the wire, dispatch and registration layer sits
  on the critical path.
* ``serve_mixed`` — HTTP traffic against a ``repro.engine.service`` child
  process: the only workload where HTTP, batching windows and the cache
  read path dominate and evaluation speed matters only for misses.  An
  open loop of the full mix at the reference rate gives the per-layer
  figures; a closed loop of warm repeats gives the end-to-end ones.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`);
timings are scaled to a reference host speed (``CALIBRATION_SHARE``),
except ``serve_mixed``'s open-loop figures, which are as timed;
:func:`measure` runs one of them once, optionally traced, and returns a
:class:`Measurement`.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import loadgen
from accounting import (InsufficientSamples, backlog_growing, host_speed,
                        latency_from_due, percentile, summarise)
from tracing import Tracer, durations, load_spans, self_times, within

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep_scalar", "sweep_structural", "sweep_fleet", "serve_mixed")

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SCHEMES = ("SC", "DFC", "DPC", "SDFC", "SDPC")

#: (name, unit) of every per-layer metric, reported by every traced run;
#: a layer a workload does not exercise reads 0.
PER_LAYER = (
    ("service.evaluate_ms_p50", "ms"),
    ("service.http_ms_p50", "ms"),
    ("service.batch_wait_ms_p50", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced_ratio", "ratio"),
    ("service.rejected", "count"),
    ("cache.get_us_p50", "us"),
    ("cache.point_key_us_p50", "us"),
    ("cache.put_us_p50", "us"),
    ("cache.flush_index_ms_total", "ms"),
    ("cache.disk_hits", "count"),
    ("evaluator.overhead_ms_per_point", "ms"),
    ("executor.run_ms_per_point", "ms"),
    ("fleet.register_s", "s"),
    ("fleet.overhead_ms_per_point", "ms"),
    ("fleet.balance", "ratio"),
    ("fleet.redispatched", "count"),
    ("fleet.workers_lost", "count"),
    ("compare.point_ms_p50", "ms"),
    ("compare.point_ms_p99", "ms"),
    ("structural.library_misses", "count"),
    ("structural.scheme_misses", "count"),
    ("structural.scheme_hit_ratio", "ratio"),
    ("structural.build_ms_total", "ms"),
    *((f"scheme.{name}.evaluate_ms_p50", "ms") for name in SCHEMES),
    ("kernel.lookups_per_point", "count"),
    ("kernel.hit_ratio", "ratio"),
    ("kernel.misses_per_point", "count"),
    ("loadgen.lateness_ms_p99", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("model.table1_max_rel_error", "ratio"),
    *((f"trace_overhead.{name}", unit) for name, unit in END_TO_END),
)

#: Points per ``Evaluator.evaluate`` call in the sweeps (one 8 x 8 grid).
BLOCK_POINTS = inputs.BLOCK_SIDE * inputs.BLOCK_SIDE
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"sweep_scalar": 5, "sweep_structural": 5,
                 "sweep_fleet": 3, "serve_mixed": 3}
#: A sweep run is split into this many sessions, each on a fresh
#: evaluator (and fleet) and at least ``MIN_SESSION_BLOCKS`` blocks long;
#: ``points_per_s`` is the median of the sessions' rates.
SESSIONS = 8
MIN_SESSION_BLOCKS = 5
#: After each sweep block and each set-up the host's speed is measured
#: (``host_speed``) for this share of its wall time, and its timings are
#: scaled by it: ``setup_s`` everywhere, and sweep ``points_per_s`` and
#: ``latency_p50_ms``, read as at the reference host speed.
CALIBRATION_SHARE = 0.25
#: A sweep's ``peak_rss_mb`` is read once its first session has evaluated
#: this many points (or at that session's end, if sooner): a fixed amount
#: of work, since the session's cache grows with every point it gets
#: through.
RSS_POINTS = 1024
#: A ``serve_mixed`` run is this many rounds of open loop then closed
#: loop, each phase followed by a host-speed measurement that scales its
#: timings.
SERVE_ROUNDS = 8
#: Worker processes of the ``sweep_fleet`` fleet.
FLEET_WORKERS = 2
#: Keep-alive connections of the load generator (``nproc`` here).
CONNECTIONS = 2
#: CPUs ``serve_mixed`` runs the load generator and the service on.  On a
#: small VM, handing a request between processes on two vCPUs costs a
#: cross-CPU wake-up whose delay swings with the host's load, by a quarter
#: and more from run to run; on one CPU the hand-off is a context switch,
#: so the closed loop's cost is CPU time, which ``host_speed`` tracks.
SERVE_CPUS = 1
#: The open-loop rate of ``serve_mixed`` (requests/s) — its reference rate.
REFERENCE_RATE = 200.0
#: Share of a ``serve_mixed`` run spent in the open loop; the rest is the
#: closed loop whose figures are the workload's ``points_per_s`` and
#: ``latency_p50_ms``.
OPEN_LOOP_SHARE = 0.6
#: The closed loop is one caller that waits, sending warm repeats only:
#: with one CPU (``SERVE_CPUS``) and one connection each request's time is
#: the HTTP front and cache read path's CPU time, steady enough to bound.
#: A second connection makes the median latency jump between the two
#: ways the connections interleave; fresh misses make the rate hinge on
#: the batch flush window.  Both stay in the open loop.
CLOSED_LOOP_CONNECTIONS = 1
#: Generator lateness p99 (ms) above which the open-loop figures are void.
LATENESS_LIMIT_MS = 5.0
#: Flags the service runs with (plus ``--cache-dir <fresh dir> --port 0``).
SERVICE_FLAGS = ("--executor", "serial")
#: Output-check sample size per session; ``sweep_fleet`` checks every point.
CHECK_SAMPLE = {"sweep_scalar": 32, "sweep_structural": 12}
#: ``serve_mixed`` checks one request in this many.
SERVE_CHECK_STRIDE = 8


class BenchmarkError(RuntimeError):
    """The workload could not run (as opposed to a wrong answer)."""


@dataclass
class Measurement:
    """What one run of one workload produced."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def _child_pids() -> list[int]:
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        text = (task / "children").read_text(encoding="ascii")
        pids.extend(int(pid) for pid in text.split())
    return pids


def _sweep_rss(fleet: bool) -> float:
    """Peak RSS of this process, plus its fleet workers for a fleet."""
    return _vm_hwm_mb() + (sum(_vm_hwm_mb(pid) for pid in _child_pids()) if fleet else 0.0)


def reference_records(point: dict) -> list[dict]:
    """Serial ``compare_schemes`` records of one point: the reference
    every workload's output is checked against."""
    from repro.core.comparison import compare_schemes
    from repro.core.config import ExperimentConfig

    return compare_schemes(ExperimentConfig().with_overrides(**point)).as_records()


def _p50_or_zero(values, scale: float) -> float:
    try:
        return percentile(values, 50.0) * scale
    except InsufficientSamples:
        return 0.0


def _p99_or_zero(values, scale: float) -> float:
    try:
        return percentile(values, 99.0) * scale
    except InsufficientSamples:
        return 0.0


def _timing_line(name: str, values, scale: float, unit: str) -> str:
    try:
        return f"  {name}: " + summarise([v * scale for v in values]).describe(unit)
    except InsufficientSamples:
        return f"  {name}: n={len(values)} (too few samples for a median)"


def _setup_point(seed: int, repeat: int) -> dict:
    return inputs.scalar_block(seed, repeat, stream="setup")[0]


def span_layers(spans: list[dict], points: int) -> dict[str, float]:
    """Per-layer metrics derivable from the spans of a timed window
    alone; ``points`` is the number of points evaluated in it."""
    layers: dict[str, float] = {}
    layers["cache.get_us_p50"] = _p50_or_zero(durations(spans, "cache.get"), 1e6)
    layers["cache.put_us_p50"] = _p50_or_zero(durations(spans, "cache.put"), 1e6)
    layers["cache.point_key_us_p50"] = _p50_or_zero(
        durations(spans, "cache.point_key"), 1e6)
    layers["cache.flush_index_ms_total"] = sum(durations(spans, "cache.flush_index")) * 1e3
    run_total = sum(durations(spans, "executor.run"))
    evaluate_total = sum(durations(spans, "evaluator.evaluate"))
    layers["executor.run_ms_per_point"] = run_total * 1e3 / points if points else 0.0
    layers["evaluator.overhead_ms_per_point"] = (
        (evaluate_total - run_total) * 1e3 / points if points and evaluate_total else 0.0)
    compare = durations(spans, "compare.point")
    layers["compare.point_ms_p50"] = _p50_or_zero(compare, 1e3)
    layers["compare.point_ms_p99"] = _p99_or_zero(compare, 1e3)
    scheme_evaluations = 0
    for name in SCHEMES:
        values = durations(spans, f"scheme.{name}")
        scheme_evaluations += len(values)
        layers[f"scheme.{name}.evaluate_ms_p50"] = _p50_or_zero(values, 1e3)
    library_builds = durations(spans, "structural.library_build")
    scheme_builds = durations(spans, "structural.scheme_build")
    layers["structural.library_misses"] = float(len(library_builds))
    layers["structural.scheme_misses"] = float(len(scheme_builds))
    layers["structural.scheme_hit_ratio"] = (
        1.0 - len(scheme_builds) / scheme_evaluations if scheme_evaluations else 0.0)
    layers["structural.build_ms_total"] = (sum(library_builds) + sum(scheme_builds)) * 1e3
    return layers


def _self_time_lines(spans: list[dict]) -> list[str]:
    totals = self_times(spans)
    lines = ["  self time by layer (traced run, s):"]
    for name, total in sorted(totals.items(), key=lambda item: -item[1]):
        lines.append(f"    {name:<28} {total:10.4f}")
    return lines


def _kernel_layers(hits: int, misses: int, points: int) -> dict[str, float]:
    lookups = hits + misses
    return {
        "kernel.lookups_per_point": lookups / points if points else 0.0,
        "kernel.misses_per_point": misses / points if points else 0.0,
        "kernel.hit_ratio": hits / lookups if lookups else 0.0,
    }


# ---------------------------------------------------------------------------
# the three sweeps
# ---------------------------------------------------------------------------

def wait_for_fleet(executor, workers: int, timeout: float = 60.0) -> None:
    """Block until ``workers`` workers have registered with ``executor``."""
    deadline = time.monotonic() + timeout
    while len(executor.workers_payload()) < workers:
        if time.monotonic() > deadline:
            raise BenchmarkError(f"fleet did not register {workers} workers")
        time.sleep(0.002)


def _read_line(process: subprocess.Popen, timeout: float) -> str:
    """First stdout line of ``process``, or :class:`BenchmarkError`."""
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise BenchmarkError("child process did not answer in time")
    line = process.stdout.readline()
    if not line:
        raise BenchmarkError(f"child process exited with {process.wait()}")
    return line


def _stop(process: subprocess.Popen, interrupt: bool) -> None:
    """Wait for ``process`` to end (after SIGINT when ``interrupt``),
    killing it if it will not."""
    if interrupt and process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def _probe_setup(workload: str, seed: int, repeat: int) -> tuple[float, float]:
    """``(setup_s, register_s)`` of one cold set-up in a fresh interpreter;
    ``setup_s`` is scaled to the reference host speed."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(repeat)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = _read_line(process, timeout=120.0)
        elapsed = time.monotonic() - started
    finally:
        _stop(process, interrupt=False)
    return elapsed * host_speed(CALIBRATION_SHARE * elapsed), json.loads(line)["register_s"]


@dataclass
class _Session:
    """One timed stretch of a sweep on a fresh evaluator (and fleet).

    ``busy_s`` is the wall time of its blocks (input generation plus the
    ``evaluate`` call), ``scaled_s`` the same scaled to the reference
    host speed, block by block; ``latencies`` are scaled likewise.
    """

    start: float = 0.0
    end: float = 0.0
    points: int = 0
    blocks: int = 0
    busy_s: float = 0.0
    scaled_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    balance: float = 0.0
    redispatched: int = 0
    workers_lost: int = 0

    @property
    def points_per_s(self) -> float:
        return self.points / self.scaled_s

    @property
    def raw_points_per_s(self) -> float:
        return self.points / self.busy_s


def _sweep(workload: str, seed: int, seconds: float, tracer: Tracer | None) -> Measurement:
    from repro.circuit.biasing import kernel_totals
    from repro.engine.distributed import DistributedExecutor
    from repro.engine.evaluator import Evaluator
    from repro.engine.grid import DesignSpace
    from repro.errors import ReproError

    fleet = workload == "sweep_fleet"
    measurement = Measurement()
    probes = [_probe_setup(workload, seed, repeat)
              for repeat in range(SETUP_REPEATS[workload])]
    setups = [setup for setup, _ in probes]
    registers = [register for _, register in probes]

    block_fn = inputs.structural_block if workload == "sweep_structural" else inputs.scalar_block
    stream = inputs.point_stream(block_fn, seed)
    kernel = kernel_totals()
    kernel_hits = kernel_misses = 0
    sessions: list[_Session] = []
    rss = None
    checked = mismatches = evaluated = 0
    reference_s = 0.0
    for index in range(SESSIONS):
        session = _Session()
        executor = None
        try:
            if fleet:
                executor = DistributedExecutor(spawn_workers=FLEET_WORKERS).start()
                wait_for_fleet(executor, FLEET_WORKERS)
            evaluator = Evaluator(executor=executor if fleet else "serial")
            # The first point builds the structure; timing starts warm.
            evaluator.evaluate(DesignSpace.from_points([_setup_point(seed, index)]))
            hits0, misses0 = kernel.hits, kernel.misses
            fleet0 = executor.stats_payload() if fleet else None
            points: list[dict] = []
            records: list[tuple] = []
            session.start = time.monotonic()
            while (time.monotonic() - session.start < seconds / SESSIONS
                   or session.blocks < MIN_SESSION_BLOCKS):
                step_started = time.monotonic()
                block = [next(stream) for _ in range(BLOCK_POINTS)]
                session.blocks += 1
                measurement.attempted += len(block)
                began = time.monotonic()
                try:
                    result = evaluator.evaluate(DesignSpace.from_points(block))
                except ReproError as exc:
                    measurement.failed += len(block)
                    measurement.lines.append(f"  block failed: {exc}")
                    continue
                done = time.monotonic()
                speed = host_speed(CALIBRATION_SHARE * (done - step_started))
                session.busy_s += done - step_started
                session.scaled_s += (done - step_started) * speed
                session.latencies.append((done - began) * speed)
                session.points += len(block)
                points.extend(block)
                records.extend(point.records for point in result.points)
                if rss is None and session.points >= RSS_POINTS:
                    rss = _sweep_rss(fleet)
            session.end = time.monotonic()
            if rss is None:
                rss = _sweep_rss(fleet)
            kernel_hits += kernel.hits - hits0
            kernel_misses += kernel.misses - misses0
            if fleet:
                fleet1 = executor.stats_payload()
                done = [worker["completed"] - fleet0["workers"].get(wid, {}).get("completed", 0)
                        for wid, worker in fleet1["workers"].items()]
                session.balance = min(done) / max(done) if max(done) else 0.0
                session.redispatched = fleet1["redispatched"] - fleet0["redispatched"]
                session.workers_lost = fleet1["workers_lost"] - fleet0["workers_lost"]
        finally:
            if executor is not None:
                executor.close()
        sessions.append(session)
        evaluated += len(points)
        # Output check against serial compare_schemes, between sessions.
        sample = (range(len(points)) if fleet else inputs.sample_indices(
            seed, f"{workload}-{index}", len(points), CHECK_SAMPLE[workload]))
        check_started = time.monotonic()
        mismatches += sum(list(records[i]) != reference_records(points[i]) for i in sample)
        reference_s += time.monotonic() - check_started
        checked += len(sample)

    measurement.failed += mismatches
    measurement.lines.append(
        f"  output check: {checked - mismatches}/{checked} points "
        f"identical to serial compare_schemes")

    latencies = [latency for session in sessions for latency in session.latencies]
    measurement.end_to_end = {
        "setup_s": statistics.median(setups),
        "points_per_s": statistics.median(session.points_per_s for session in sessions),
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "peak_rss_mb": rss,
    }
    measurement.lines += [
        f"  setup: median of {len(setups)} = {statistics.median(setups):.4f} s",
        "  points/s by session, at reference host speed: "
        + ", ".join(f"{s.points_per_s:.1f}" for s in sessions),
        "  points/s by session, as timed: "
        + ", ".join(f"{s.raw_points_per_s:.1f}" for s in sessions),
        "  host speed over reference by session: "
        + ", ".join(f"{s.scaled_s / s.busy_s:.3f}" for s in sessions),
        _timing_line(f"block latency ({BLOCK_POINTS} points, at reference host speed)",
                     latencies, 1e3, "ms"),
    ]
    if tracer is not None:
        spans = [span for session in sessions
                 for span in within(tracer.spans, session.start, session.end)]
        layers = span_layers(spans, evaluated)
        layers.update(_kernel_layers(kernel_hits, kernel_misses, evaluated))
        if fleet:
            busy_ms = sum(session.busy_s for session in sessions) * 1e3
            layers.update({
                "fleet.register_s": statistics.median(registers),
                "fleet.overhead_ms_per_point":
                    busy_ms / evaluated * FLEET_WORKERS - reference_s * 1e3 / checked,
                "fleet.balance": statistics.median(session.balance for session in sessions),
                "fleet.redispatched": float(sum(s.redispatched for s in sessions)),
                "fleet.workers_lost": float(sum(s.workers_lost for s in sessions)),
            })
        measurement.layers = layers
        measurement.lines += _self_time_lines(spans)
    return measurement


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

class _Server:
    """The evaluation service in a child process, via the launcher."""

    def __init__(self, out_dir: Path, trace_path: Path | None) -> None:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_path is not None:
            command += ["--trace-out", str(trace_path)]
        command += ["--", *SERVICE_FLAGS, "--cache-dir", cache_dir, "--port", "0"]
        self.trace_path = trace_path
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stdin=subprocess.DEVNULL, text=True)
        self.host = "127.0.0.1"
        try:
            line = _read_line(self.process, timeout=60.0)
            match = re.search(r"http://[^:/\s]+:(\d+)", line)
            if match is None:
                raise BenchmarkError(f"service did not report its port: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.port = int(match.group(1))

    def stop(self) -> None:
        """SIGINT (a clean shutdown that flushes the trace), then wait."""
        _stop(self.process, interrupt=True)


def _serve(seed: int, seconds: float, traced: bool, out_dir: Path) -> Measurement:
    measurement = Measurement()
    setups: list[float] = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS["serve_mixed"]):
            if server is not None:
                server.stop()
            trace_path = out_dir / f"spans-{repeat}.jsonl" if traced else None
            started = time.monotonic()
            server = _Server(out_dir, trace_path)
            status, _ = loadgen.request_once(server.host, server.port, "POST", "/evaluate",
                                             {"overrides": _setup_point(seed, repeat)})
            if status != 200:
                raise BenchmarkError(f"set-up request answered {status}")
            elapsed = time.monotonic() - started
            setups.append(elapsed * host_speed(CALIBRATION_SHARE * elapsed))

        traffic = inputs.ServeTraffic(seed)
        if loadgen.warm(server.host, server.port, traffic.warm_points) != len(traffic.warm_points):
            raise BenchmarkError("warm-up requests failed")
        check_offset = random.Random(f"{seed}:serve-check").randrange(SERVE_CHECK_STRIDE)

        def keep(index: int) -> bool:
            return index % SERVE_CHECK_STRIDE == check_offset

        _, stats0 = loadgen.request_once(server.host, server.port, "GET", "/stats")
        start = time.monotonic()
        open_rounds: list[loadgen.LoadResult] = []
        closed_rounds: list[loadgen.LoadResult] = []
        index = 0
        closed_seconds = seconds * (1.0 - OPEN_LOOP_SHARE) / SERVE_ROUNDS
        for _ in range(SERVE_ROUNDS):
            open_rounds.append(loadgen.open_loop(
                server.host, server.port, traffic.next_request, rate=REFERENCE_RATE,
                seconds=seconds * OPEN_LOOP_SHARE / SERVE_ROUNDS,
                connections=CONNECTIONS, first_index=index, keep_records=keep))
            index += len(open_rounds[-1].outcomes)
            before = host_speed(CALIBRATION_SHARE * closed_seconds)
            closed_rounds.append(loadgen.closed_loop(
                server.host, server.port, traffic.next_warm_request, seconds=closed_seconds,
                connections=CLOSED_LOOP_CONNECTIONS, first_index=index, keep_records=keep))
            index += len(closed_rounds[-1].outcomes)
            # The speed a closed round ran at: the mean of the speeds
            # measured just before and just after it.
            closed_rounds[-1].speed = (
                before + host_speed(CALIBRATION_SHARE * closed_seconds)) / 2.0
        end = time.monotonic()
        rss = _vm_hwm_mb(server.process.pid)
        _, stats1 = loadgen.request_once(server.host, server.port, "GET", "/stats")
    finally:
        if server is not None:
            server.stop()

    opened = loadgen.LoadResult(
        outcomes=[o for result in open_rounds for o in result.outcomes],
        lateness=[late for result in open_rounds for late in result.lateness])
    closed_outcomes = [o for result in closed_rounds for o in result.outcomes]
    outcomes = opened.outcomes + closed_outcomes
    measurement.attempted = len(outcomes)
    errors = sum(outcome.status != 200 for outcome in outcomes)
    references: dict[tuple, list[dict]] = {}
    checked = mismatches = 0
    for outcome in outcomes:
        if outcome.status != 200 or outcome.records is None:
            continue
        key = tuple(sorted(outcome.point.items()))
        if key not in references:
            references[key] = reference_records(outcome.point)
        checked += 1
        mismatches += outcome.records != references[key]
    measurement.failed = errors + mismatches
    measurement.lines.append(
        f"  output check: {checked - mismatches}/{checked} sampled responses identical "
        f"to serial compare_schemes; {errors} requests failed")

    def due_latencies(result, misses_only=False):
        return [latency_from_due(o.due, o.done) for o in result.outcomes
                if o.status == 200 and not (misses_only and o.from_cache)]

    def closed_rate(result):
        """Requests/s of a closed-loop round, at the reference host speed."""
        answered = sum(o.status == 200 for o in result.outcomes)
        return answered / ((result.end - result.start) * result.speed)

    capacity_latencies = [(o.done - o.sent) * result.speed for result in closed_rounds
                          for o in result.outcomes if o.status == 200]
    all_latencies = due_latencies(opened)
    misses = due_latencies(opened, misses_only=True)
    growing = any(backlog_growing([o.due for o in r.outcomes if o.status == 200],
                                  due_latencies(r)) for r in open_rounds)
    late = _p99_or_zero(opened.lateness, 1e3) > LATENESS_LIMIT_MS
    measurement.end_to_end = {
        "setup_s": statistics.median(setups),
        "points_per_s": (sum(o.status == 200 for o in closed_outcomes)
                         / sum((r.end - r.start) * r.speed for r in closed_rounds)),
        "latency_p50_ms": percentile(capacity_latencies, 50.0) * 1e3,
        "peak_rss_mb": rss,
    }
    measurement.lines += [
        f"  setup: median of {len(setups)} = {statistics.median(setups):.4f} s",
        f"  open loop at {REFERENCE_RATE:g} req/s over {CONNECTIONS} connections, "
        f"{SERVE_ROUNDS} rounds: backlog {'GROWING' if growing else 'steady'}, generator "
        f"{'LATE' if late else 'on time'} -> latency figures "
        f"{'VOID' if growing or late else 'valid'}",
        _timing_line("open-loop latency from due", all_latencies, 1e3, "ms"),
        _timing_line("open-loop miss latency from due", misses, 1e3, "ms"),
        _timing_line("generator lateness", opened.lateness, 1e3, "ms"),
        _timing_line("closed-loop warm-repeat latency (at reference host speed)",
                     capacity_latencies, 1e3, "ms"),
        "  closed-loop req/s by round, at reference host speed: "
        + ", ".join(f"{closed_rate(r):.1f}" for r in closed_rounds),
        "  host speed over reference by closed round: "
        + ", ".join(f"{r.speed:.3f}" for r in closed_rounds),
    ]
    if traced:
        spans = within(load_spans(server.trace_path), start, end)
        measurement.layers = _serve_layers(spans, opened, outcomes, stats0, stats1,
                                           all_latencies, misses)
        measurement.lines += _self_time_lines(spans)
    return measurement


def _serve_layers(spans, opened, outcomes, stats0, stats1, latencies,
                  misses) -> dict[str, float]:
    service0, service1 = stats0["service"], stats1["service"]

    def delta(name: str) -> int:
        return service1[name] - service0[name]

    evaluated = delta("evaluated")
    layers = span_layers(spans, evaluated)
    kernel0, kernel1 = stats0["kernel"], stats1["kernel"]
    layers.update(_kernel_layers(kernel1["hits"] - kernel0["hits"],
                                 kernel1["misses"] - kernel0["misses"], evaluated))
    evaluate_spans = [span for span in spans if span["name"] == "service.evaluate"]
    by_request = {span["request"]: span for span in evaluate_spans if span["request"]}
    http = [(o.done - o.sent) - (by_request[str(o.index)]["end"] - by_request[str(o.index)]["start"])
            for o in outcomes if str(o.index) in by_request]
    # A miss waits for its batch: its evaluate span minus the run span of
    # the batch that carried its key.
    run_of_batch = {span["parent"]: span["end"] - span["start"]
                    for span in spans if span["name"] == "executor.run"}
    batch_of_key = {}
    for span in spans:
        if span["name"] == "service.batch":
            for key in span["keys"]:
                batch_of_key[key] = run_of_batch.get(span["id"], 0.0)
    waits = [(span["end"] - span["start"]) - batch_of_key[span["key"]]
             for span in evaluate_spans
             if not span.get("from_cache", True) and not span.get("coalesced")
             and span.get("key") in batch_of_key]
    requests = delta("requests")
    layers.update({
        "service.evaluate_ms_p50": _p50_or_zero(durations(spans, "service.evaluate"), 1e3),
        "service.http_ms_p50": _p50_or_zero(http, 1e3),
        "service.batch_wait_ms_p50": _p50_or_zero(waits, 1e3),
        "service.batch_size_mean": evaluated / delta("batches") if delta("batches") else 0.0,
        "service.hit_ratio": delta("cache_hits") / requests if requests else 0.0,
        "service.coalesced_ratio": delta("coalesced") / requests if requests else 0.0,
        "service.rejected": float(delta("rejected_overload") + delta("deadline_exceeded")),
        "cache.disk_hits": float(stats1["cache"]["disk_hits"] - stats0["cache"]["disk_hits"]),
        "loadgen.lateness_ms_p99": _p99_or_zero(opened.lateness, 1e3),
        "serve.latency_p50_ms": _p50_or_zero(latencies, 1e3),
        "serve.latency_p99_ms": _p99_or_zero(latencies, 1e3),
        "serve.miss_latency_p50_ms": _p50_or_zero(misses, 1e3),
    })
    return layers


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, traced: bool,
            out_dir: Path) -> Measurement:
    """Run ``workload`` once for ``seconds``; traced runs also fill
    :attr:`Measurement.layers`."""
    if workload == "serve_mixed":
        # The service process installs its own tracer via the launcher.
        # It inherits this process's CPU affinity: see SERVE_CPUS.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, set(sorted(cpus)[:SERVE_CPUS]))
        try:
            return _serve(seed, seconds, traced, out_dir)
        finally:
            os.sched_setaffinity(0, cpus)
    if not traced:
        return _sweep(workload, seed, seconds, None)
    tracer = Tracer().install()
    try:
        return _sweep(workload, seed, seconds, tracer)
    finally:
        tracer.uninstall()
