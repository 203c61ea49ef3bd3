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

echo "==> Perfbench smokes: outputs identical to serial compare_schemes, points/s floors, tracer spans"
python3 scripts/perfbench_smoke.py

echo "==> Example smoke: radix scaling (nested crossbar.port_count axes)"
python examples/radix_scaling.py > /dev/null

echo "==> Example smoke: async serving round trip"
python examples/serving.py > /dev/null

echo "==> Example smoke: distributed fleet + two-writer shared cache (cache CLI compact/stats)"
python examples/distributed.py > /dev/null

echo "==> Example smoke: network simulation, power gating and NoC power roll-up"
python examples/noc_power_gating.py > /dev/null

echo "==> Example smoke: object API (quickstart, Table 1, segmentation, design space, grid)"
for example in quickstart crossbar_comparison segmentation_study \
               design_space_exploration grid_exploration; do
    python "examples/${example}.py" > /dev/null
done

echo "==> Calibration report smoke (object API scalars against the paper)"
python scripts/calibration_report.py > /dev/null

echo "==> CI gate passed"
