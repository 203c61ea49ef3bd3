"""One cold set-up of a sweep workload, in a fresh interpreter.

Usage::

    python perfbench/setup_probe.py WORKLOAD SEED REPEAT

Imports the library, builds the workload's evaluator (for
``sweep_fleet``: starts a 2-worker fleet and waits for both workers to
register), evaluates one cold point and prints one JSON line
``{"register_s": ...}``.  The caller times it from launch to that line,
so ``setup_s`` covers interpreter start, imports, construction and the
first point — any work moved into any of them shows.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    workload, seed, repeat = argv[0], int(argv[1]), int(argv[2])
    from repro.engine.evaluator import Evaluator
    from repro.engine.grid import DesignSpace

    import inputs
    import workloads

    point = inputs.scalar_block(seed, repeat, stream="setup")[0]
    register_s = 0.0
    if workload == "sweep_fleet":
        from repro.engine.distributed import DistributedExecutor

        started = time.monotonic()
        with DistributedExecutor(spawn_workers=workloads.FLEET_WORKERS) as fleet:
            workloads.wait_for_fleet(fleet, workloads.FLEET_WORKERS)
            register_s = time.monotonic() - started
            Evaluator(executor=fleet).evaluate(DesignSpace.from_points([point]))
            print(json.dumps({"register_s": register_s}), flush=True)
        return 0
    with Evaluator(executor="serial") as evaluator:
        evaluator.evaluate(DesignSpace.from_points([point]))
    print(json.dumps({"register_s": register_s}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
