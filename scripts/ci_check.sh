#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run the exact CI gate before
# pushing.  Offline-safe: installs nothing and skips tools that are not
# available (CI installs them; locally they are optional).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> Compile check (python -m compileall src)"
python -m compileall -q src

if python -c "import pyflakes" >/dev/null 2>&1; then
    echo "==> Lint (pyflakes)"
    python -m pyflakes src tests benchmarks examples scripts
else
    echo "==> Lint skipped: pyflakes not installed (CI runs it)"
fi

echo "==> Tier-1 tests"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "==> Engine + point + service + distributed benchmark smoke (gated vs BENCH_history.json rolling median)"
REPRO_BENCH_GATE=1 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks -q -k "engine or point or service or distributed" --benchmark-disable-gc

echo "==> Perfbench smoke: sweep_scalar outputs identical to serial compare_schemes"
python3 perfbench/run.py --workload sweep_scalar --seed 1 --seconds 2 --trace 0 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else "perfbench sweep_scalar: output check failed")'

echo "==> Perfbench smoke: traced sweep_scalar, the tracer's compare.point and scheme.* wrappers still see the warm record path"
python3 perfbench/run.py --workload sweep_scalar --seed 1 --seconds 2 --trace 1 | tail -n 1 \
    | python3 -c 'import json, sys; d = json.loads(sys.stdin.read()); m = d["metrics"]; sys.exit(0 if d.get("correct") is True and m.get("compare.point_ms_p50", {}).get("value", 0) > 0 and m.get("scheme.SC.evaluate_ms_p50", {}).get("value", 0) > 0 else "perfbench sweep_scalar (traced): output check failed or no compare.point / scheme.SC spans")'

echo "==> Perfbench smoke: sweep_fleet, every fleet-evaluated point identical to serial compare_schemes"
python3 perfbench/run.py --workload sweep_fleet --seed 1 --seconds 2 --trace 0 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else "perfbench sweep_fleet: output check failed")'

echo "==> Perfbench smoke: sweep_structural, cold builds and 6/8-port records identical to serial compare_schemes"
python3 perfbench/run.py --workload sweep_structural --seed 1 --seconds 2 --trace 0 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else "perfbench sweep_structural: output check failed")'

echo "==> Perfbench smoke: traced sweep_structural, the tracer's scheme-build and library-build wrappers still see the cold path"
python3 perfbench/run.py --workload sweep_structural --seed 1 --seconds 2 --trace 1 | tail -n 1 \
    | python3 -c 'import json, sys; d = json.loads(sys.stdin.read()); sys.exit(0 if d.get("correct") is True and d["metrics"].get("structural.scheme_misses", {}).get("value", 0) > 0 else "perfbench sweep_structural (traced): output check failed or no structural spans")'

echo "==> Perfbench smoke: traced serve_mixed through the HTTP service"
python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 2 --trace 1 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else "perfbench serve_mixed: output check failed")'

echo "==> BENCH_engine.json"
cat BENCH_engine.json

echo "==> BENCH_history.json trend"
python - <<'EOF'
import json
import statistics

history = json.load(open("BENCH_history.json"))
print(f"{len(history)} records; last: {json.dumps(history[-1], sort_keys=True)}")

BLOCKS = "▁▂▃▄▅▆▇█"
METRICS = ["serial_points_per_second", "point_eval_points_per_second",
           "service_queries_per_second", "distributed_points_per_second"]


def sparkline(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        return BLOCKS[3] * len(values)
    scale = (len(BLOCKS) - 1) / (hi - lo)
    return "".join(BLOCKS[int((v - lo) * scale)] for v in values)


width = max(len(m) for m in METRICS)
print(f"{'metric'.ljust(width)}  runs  {'median':>10}  {'last':>10}  trend")
for metric in METRICS:
    values = [r[metric] for r in history
              if isinstance(r.get(metric), (int, float))]
    if not values:
        print(f"{metric.ljust(width)}     0           -           -  (no records)")
        continue
    print(f"{metric.ljust(width)}  {len(values):4d}  "
          f"{statistics.median(values):10.1f}  {values[-1]:10.1f}  "
          f"{sparkline(values[-20:])}")
EOF

echo "==> Example smoke: radix scaling (nested crossbar.port_count axes)"
python examples/radix_scaling.py > /dev/null

echo "==> Example smoke: async serving round trip"
python examples/serving.py > /dev/null

echo "==> Example smoke: distributed fleet + two-writer shared cache (cache CLI compact/stats)"
python examples/distributed.py > /dev/null

echo "==> CI gate passed"
