#!/usr/bin/env python
"""Profile single-point evaluation: the measurement every perf PR starts from.

Runs :func:`~repro.core.comparison.point_records`, the record path every
executor serves, under :mod:`cProfile` — one cold point (library and
scheme construction included) by default, or fresh points over a warm
structural cache with ``--warm``, which is the steady state the serving
and distributed layers actually see — and prints the top functions by
``tottime``.

Examples
--------
Profile the paper's point, cold::

    PYTHONPATH=src python scripts/profile_point.py

Profile 32 fresh points over warm structure, top 15 rows::

    PYTHONPATH=src python scripts/profile_point.py --warm --points 32 --top 15

Profile 300 distinct (library, crossbar) structures in the order
``perfbench/inputs.py:structural_block`` emits them, in 64-point blocks
through ``Evaluator.evaluate`` like the ``sweep_structural`` benchmark
(one warm-up point at the paper's structure first, so the first
library's one-off costs stay out of the profile)::

    PYTHONPATH=src python scripts/profile_point.py --structural 300

Profile 40 fresh 64-point ``perfbench/inputs.py:scalar_block`` grids
through ``Evaluator.evaluate`` — point keys, config building, the
in-memory cache and the serial executor included, the loop the
``sweep_scalar`` benchmark times (after one warm-up point)::

    PYTHONPATH=src python scripts/profile_point.py --sweep 40

Profile 3000 warm ``POST /evaluate`` answers in-process: the
``serve_mixed`` closed loop's Zipf repeats over its 64 warm points
(seed 1), each through ``EvaluationService.evaluate`` and the HTTP
response encoder, after one unprofiled pass over the warm points::

    PYTHONPATH=src python scripts/profile_point.py --serve 3000

``--serve`` prints the split of a warm answer: the front
(``canonical_overrides`` and ``_point_for``, the query memo, which
calls ``_config_for`` and ``point_key`` on memo misses only),
``cache.get``, the rest of ``service.evaluate``, and the encoding
(``_encode_response``), plus the ``point_key`` calls per answer.

``--sweep`` also prints the cumulative shares of ``with_overrides``
(config building), ``point_key`` and ``point_records`` in the profile,
and what is left of ``Evaluator.evaluate`` (its own bookkeeping: cache
gets and puts, results), and the ``evaluate_scheme`` calls per
scheme-point: the share of points that miss their record plan's
static-probability slot (1/8 on the benchmark's p-major grids).
``--structural`` prints the cold split: ``with_overrides``,
``point_key``, ``library_for`` (library builds), the
frame build (``CrossbarScheme.view``: each scheme's devices and
capacitances, with the structure's shared wires and the library's
device figures read on first use), the flat terms (``geometry_terms``,
the energies and delays) and the device parts (``device_part_terms``,
the leakage walk of a device-part miss).  Scheme construction itself
(``create_scheme``) only stores the scheme's spec.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import pstats
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import paper_experiment  # noqa: E402
from repro.circuit.biasing import kernel_totals  # noqa: E402
from repro.core.comparison import point_records  # noqa: E402
from repro.engine.evaluator import Evaluator  # noqa: E402
from repro.engine.grid import DesignSpace  # noqa: E402
from repro.engine.service import EvaluationService, _encode_response  # noqa: E402


def _perfbench_inputs():
    sys.path.insert(0, str(_ROOT / "perfbench"))
    import inputs

    return inputs


def _structural_blocks(count: int) -> list:
    """The first ``count`` points of the seed-1 ``sweep_structural``
    stream (``structural_block`` blocks in order, every point its own
    (library, crossbar) structure), as 64-point
    :class:`~repro.engine.grid.DesignSpace` blocks like the benchmark's."""
    inputs = _perfbench_inputs()
    stream = inputs.point_stream(inputs.structural_block, 1)
    points = [next(stream) for _ in range(count)]
    side = inputs.BLOCK_SIDE * inputs.BLOCK_SIDE
    return [DesignSpace.from_points(points[start:start + side])
            for start in range(0, count, side)]


def _sweep_blocks(count: int) -> list:
    """The first ``count`` seed-1 ``scalar_block`` grids, each a
    :class:`~repro.engine.grid.DesignSpace` of 64 fresh points."""
    inputs = _perfbench_inputs()
    return [DesignSpace.from_points(inputs.scalar_block(1, block))
            for block in range(count)]


#: The parts of a ``--sweep`` point: config building and the point key
#: (the evaluator's front) and the records, as ``(file, function, label)``.
_SWEEP_PARTS = (("config.py", "with_overrides", "with_overrides"),
                ("cache.py", "point_key", "point_key"),
                ("comparison.py", "point_records", "point_records"))
#: The parts of a ``--structural`` point: the front, then the cold
#: record path's library builds, the frame build (each scheme's view of
#: its structure's frame: the shared wires and device figures read on
#: first use), the flat terms (the geometry pass) and the device parts
#: (the leakage walk, on a device-part miss).
_STRUCTURAL_PARTS = (("config.py", "with_overrides", "with_overrides"),
                     ("cache.py", "point_key", "point_key"),
                     ("scheme_evaluator.py", "library_for", "library_for"),
                     ("base.py", "view", "frame build (CrossbarScheme.view)"),
                     ("frame.py", "geometry_terms", "flat terms (geometry_terms)"),
                     ("frame.py", "device_part_terms", "device parts (device_part_terms)"))
_EVALUATE = ("evaluator.py", "evaluate")
#: The parts of a ``--serve`` answer: the front (canonicalising, then
#: the query memo, which builds the config and key on a miss only), the
#: cache read and the response encoding.
_SERVE_FRONT = (("service.py", "canonical_overrides"), ("service.py", "_point_for"))
_SERVE_GET = ("cache.py", "get")
_SERVE_EVALUATE = ("service.py", "evaluate")
_SERVE_ENCODE = ("service.py", "_encode_response")
#: The per-scheme evaluation a point that misses its plan's slot calls.
_EVALUATE_SCHEME = ("scheme_evaluator.py", "evaluate_scheme")


def _cumulative(stats: pstats.Stats, filename: str, function: str) -> float:
    """``function``'s (in ``filename``) cumulative time, callees included."""
    return sum(row[3] for (path, _, name), row in stats.stats.items()
               if name == function and Path(path).name == filename)


def _calls(stats: pstats.Stats, filename: str, function: str) -> int:
    """How many times ``function`` (in ``filename``) was called."""
    return sum(row[1] for (path, _, name), row in stats.stats.items()
               if name == function and Path(path).name == filename)


def _split(stats: pstats.Stats, parts: tuple, bookkeeping: bool) -> str:
    """One line: each of ``parts``' share of the profile's total time,
    cumulative; with ``bookkeeping``, also ``Evaluator.evaluate``'s
    time outside them."""
    times = [_cumulative(stats, filename, function) for filename, function, _ in parts]
    shares = [f"{label} {time / stats.total_tt * 100.0:.1f} %"
              for (_, _, label), time in zip(parts, times)]
    if bookkeeping:
        own = _cumulative(stats, *_EVALUATE) - sum(times)
        shares.append(f"Evaluator.evaluate bookkeeping {own / stats.total_tt * 100.0:.1f} %")
    return "cumulative share: " + ", ".join(shares)


def _serve_split(stats: pstats.Stats) -> str:
    """One line: the front, ``cache.get``, the rest of
    ``service.evaluate`` and the encoding, as shares of the profile."""
    front = sum(_cumulative(stats, *part) for part in _SERVE_FRONT)
    get = _cumulative(stats, *_SERVE_GET)
    rest = _cumulative(stats, *_SERVE_EVALUATE) - front - get
    encode = _cumulative(stats, *_SERVE_ENCODE)
    shares = [(f"front ({', '.join(function for _, function in _SERVE_FRONT)})", front),
              ("cache.get", get), ("service.evaluate rest", rest),
              ("_encode_response", encode)]
    return "cumulative share: " + ", ".join(
        f"{name} {time / stats.total_tt * 100.0:.1f} %" for name, time in shares)


def _serve_requests(count: int) -> tuple[list[dict], list[dict]]:
    """The seed-1 ``serve_mixed`` warm points and ``count`` closed-loop
    warm repeats drawn from them."""
    traffic = _perfbench_inputs().ServeTraffic(1)
    return traffic.warm_points, [traffic.next_warm_request()[1] for _ in range(count)]


def main(argv: list[str] | None = None) -> int:
    """Profile one (or several) design-point evaluations and print a report."""
    parser = argparse.ArgumentParser(
        description="cProfile the point_records hot path.")
    parser.add_argument("--points", type=int, default=1,
                        help="how many points to profile (default 1)")
    parser.add_argument("--warm", action="store_true",
                        help="pre-build libraries/schemes so the profile shows "
                             "the steady-state (cache-warm) hot path")
    parser.add_argument("--structural", type=int, default=0, metavar="N",
                        help="profile N distinct structures in the benchmark's "
                             "structural_block order instead (the cold stream)")
    parser.add_argument("--sweep", type=int, default=0, metavar="N",
                        help="profile N fresh 64-point scalar_block grids through "
                             "Evaluator.evaluate instead (the sweep_scalar loop)")
    parser.add_argument("--serve", type=int, default=0, metavar="N",
                        help="profile N warm answers of the evaluation service "
                             "in-process instead (service.evaluate plus the "
                             "HTTP response encoder)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort column (default tottime)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print (default 20)")
    args = parser.parse_args(argv)

    base = paper_experiment()
    if args.serve:
        service = EvaluationService(executor="serial", max_batch_size=1)
        warm_points, requests = _serve_requests(args.serve)
        label = "warm POST /evaluate answers in-process"
        count = len(requests)

        async def answer(points: list[dict]) -> None:
            for point in points:
                _encode_response(200, await service.evaluate(point), close=False)

        # One pass fills the cache, the entries' records text and the
        # query memo.
        loop = asyncio.new_event_loop()
        loop.run_until_complete(answer(warm_points))

        def run() -> None:
            loop.run_until_complete(answer(requests))
    elif args.sweep or args.structural:
        evaluator = Evaluator()
        evaluator.evaluate(DesignSpace.from_points([{}]))
        if args.sweep:
            spaces = _sweep_blocks(args.sweep)
            label = "fresh points through Evaluator.evaluate"
        else:
            spaces = _structural_blocks(args.structural)
            label = "distinct structures through Evaluator.evaluate"
        count = sum(len(space) for space in spaces)

        def run() -> None:
            for space in spaces:
                evaluator.evaluate(space)
    else:
        if args.warm:
            point_records(base)
        # Distinct activity scalars: fresh points, never analysis-memo replays.
        configs = [base.with_overrides(static_probability=0.05 + 0.9 * i / max(1, args.points))
                   for i in range(args.points)]
        label = f"{'warm' if args.warm else 'cold'} structural cache"
        count = len(configs)

        def run() -> None:
            for config in configs:
                point_records(config)

    before = kernel_totals()
    before_lookups, before_misses = before.lookups, before.misses
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run()
    profiler.disable()
    elapsed = time.perf_counter() - start

    totals = kernel_totals()
    lookups = totals.lookups - before_lookups
    misses = totals.misses - before_misses
    print(f"{count} point(s), {label}: {elapsed * 1e3:.1f} ms total, "
          f"{count / elapsed:.1f} points/s")
    if lookups:
        print(f"leakage kernel: {lookups / count:.1f} lookups/point, "
              f"{misses / count:.1f} misses/point "
              f"({(lookups - misses) / lookups * 100.0:.1f}% memo hits)")
    stats = pstats.Stats(profiler)
    if args.sweep:
        print(_split(stats, _SWEEP_PARTS, bookkeeping=True))
        scheme_points = count * len(evaluator.scheme_names)
        print(f"evaluate_scheme calls per scheme-point: "
              f"{_calls(stats, *_EVALUATE_SCHEME) / scheme_points:.3f}")
    elif args.structural:
        print(_split(stats, _STRUCTURAL_PARTS, bookkeeping=False))
    elif args.serve:
        loop.close()
        print(_serve_split(stats))
        print(f"point_key calls per answer: {_calls(stats, 'cache.py', 'point_key') / count:.3f}")
    print()
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
