"""Quickstart for the design-space engine: a 2-parameter grid.

Evaluates the full temperature-by-static-probability grid across a
two-worker local fleet (the distributed executor), slices the resulting
:class:`~repro.engine.ResultSet` along each axis, asks for the Pareto
front of total power versus delay, and demonstrates that a re-run is
served entirely from the cache.

Run with ``python examples/grid_exploration.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import DesignSpace, Evaluator, paper_experiment  # noqa: E402
from repro.analysis import sweep_table  # noqa: E402

SCHEMES = ["SC", "DFC", "SDPC"]


def main() -> None:
    space = DesignSpace.grid({
        "temperature_celsius": [25.0, 70.0, 110.0],
        "static_probability": [0.1, 0.3, 0.5, 0.7, 0.9],
    })
    # The evaluator owns the fleet it builds from "distributed": the with
    # block shuts it down, spawned workers included.
    with Evaluator(base_config=paper_experiment(), scheme_names=SCHEMES,
                   executor="distributed", max_workers=2) as evaluator:
        start = time.perf_counter()
        results = evaluator.evaluate(space)
        elapsed = time.perf_counter() - start
        print(f"evaluated {len(results)} grid points in {elapsed:.2f} s "
              f"({len(results) / elapsed:.1f} points/s, 2-worker fleet, "
              f"worker start-up included)")
        print()
        report(results)

        # Second run: every point is a cache hit.
        start = time.perf_counter()
        rerun = evaluator.evaluate(space)
        elapsed = time.perf_counter() - start
        print(f"re-run: {rerun.cache_hit_count}/{len(rerun)} points from cache "
              f"in {elapsed * 1e3:.1f} ms")


def report(results) -> None:
    """Tabulate ``results`` along each axis and print its Pareto front."""
    # Slice the grid: one row of the temperature axis, tabulated along
    # static probability (and the transpose).
    print(sweep_table(results.filter(temperature_celsius=110.0), SCHEMES,
                      "total_power_mw", axis="static_probability",
                      title="Total power (mW) vs static probability at 110 C"))
    print()
    print(sweep_table(results.filter(static_probability=0.5), SCHEMES,
                      "active_leakage_saving_percent", axis="temperature_celsius",
                      title="Active leakage saving (%) vs temperature at p1=0.5"))
    print()

    # Pareto: which design points minimise SDPC total power and delay at once?
    front = results.pareto_front("SDPC", ["total_power_mw", "high_to_low_ps"])
    print("SDPC Pareto front over (total power, high-to-low delay):")
    for point in front:
        print(f"  {point.overrides}  ->  "
              f"{point.value('SDPC', 'total_power_mw'):.1f} mW, "
              f"{point.value('SDPC', 'high_to_low_ps'):.1f} ps")
    print()


if __name__ == "__main__":
    main()
