"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_scalar --seed 1 --seconds 10 --trace 0

Workloads: ``sweep_scalar``, ``sweep_structural``, ``sweep_fleet``,
``serve_mixed`` (see ``workloads.py`` for why each exists).  The inputs
are generated from ``--seed``; every workload checks its outputs against
serial ``compare_schemes`` and counts a mismatch as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
workload twice — untraced, then with the layer wrappers installed — and
prints the per-layer metrics of the traced run plus the tracing overhead
(traced minus untraced) of every end-to-end metric.  Human-readable lines
(sample counts, the output check, self time by layer) come first; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"points_per_s": {"value": 1650.2, "unit": "1/s"}, ...}}
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for caches and span files, inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

#: Paper Table 1 columns (``benchmarks/conftest.py`` keys) and the record
#: fields they correspond to.
TABLE1_FIELDS = {
    "hl_ps": "high_to_low_ps",
    "lh_ps": "low_to_high_ps",
    "active_saving": "active_leakage_saving_percent",
    "standby_saving": "standby_leakage_saving_percent",
    "total_mw": "total_power_mw",
}


def table1_max_rel_error() -> float:
    """Largest relative error of the model's Table 1 against the paper's
    (``PAPER_TABLE1`` in ``benchmarks/conftest.py``)."""
    from repro import compare_schemes, paper_experiment

    spec = importlib.util.spec_from_file_location(
        "perfbench_paper_table", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    records = {record["scheme"]: record
               for record in compare_schemes(paper_experiment()).as_records()}
    errors = []
    for scheme, paper in module.PAPER_TABLE1.items():
        for column, field in TABLE1_FIELDS.items():
            expected = paper[column]
            if expected:
                errors.append(abs(records[scheme][field] - expected) / abs(expected))
    return max(errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        runs = [workloads.measure(args.workload, args.seed, args.seconds,
                                  traced=False, out_dir=out_dir)]
        if args.trace:
            runs.append(workloads.measure(args.workload, args.seed, args.seconds,
                                          traced=True, out_dir=out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    table1_error = table1_max_rel_error()
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s per measurement)")
    for label, run in zip(("untraced", "traced"), runs):
        print(f" {label} run: {run.attempted} attempted, {run.failed} failed")
        for line in run.lines:
            print(line)
        for name, unit in workloads.END_TO_END:
            print(f"  {name} = {run.end_to_end[name]:.6g} {unit}")
    print(f" model.table1_max_rel_error = {table1_error:.6g} (paper Table 1)")

    if args.trace:
        plain, traced = runs
        layers = dict(traced.layers)
        layers["model.table1_max_rel_error"] = table1_error
        for name, _ in workloads.END_TO_END:
            layers[f"trace_overhead.{name}"] = traced.end_to_end[name] - plain.end_to_end[name]
        catalogue, values = workloads.PER_LAYER, layers
        for name, unit in catalogue:
            print(f"  {name} = {values.get(name, 0.0):.6g} {unit}")
    else:
        catalogue, values = workloads.END_TO_END, runs[0].end_to_end

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in catalogue}
    correct = (failed == 0 and math.isfinite(table1_error)
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
