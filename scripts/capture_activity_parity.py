#!/usr/bin/env python
"""Capture a record golden: full Table 1 records of ``compare_schemes``.

``--golden activity`` (the default) writes
``tests/golden/activity_parity.json``: the complete
``compare_schemes`` records (every registered scheme, every column) for
three technology nodes x crossbar radixes {3, 5} x a set of
(``static_probability``, ``toggle_activity``) pairs that spans
p in [0.005, 1] and t in [0, 1], endpoints included.  The companion
``leakage_parity.json`` golden fixes t = 0.5; this one also pins the
toggle-dependent terms (switching energy, keeper contention) and the
p-dependent standby break-even.

Near p = 0 a segmented feedback scheme can leak *less* idle than in
standby, so its minimum idle time is undefined and ``compare_schemes``
raises :class:`~repro.errors.PowerError`.  Such a case is recorded as
``{"error": <class name>, "message": <text>}`` instead of records: the
sign of idle minus standby leakage at the low endpoint is part of the
contract too.

The golden is a regression contract: capture it once from a trusted
implementation and never regenerate it from the code it is meant to
check.  ``tests/test_leakage_kernel.py`` compares against it at 1e-12
relative tolerance, integer columns exact.

``--golden comparison`` writes ``tests/golden/comparison_records.json``:
``compare_schemes(...).as_records()`` at a seeded sample of the
perfbench ``sweep_scalar`` and ``sweep_structural`` inputs
(``perfbench/inputs.py``), at the four corners static probability
{0, 1} x toggle activity {0, 1} and at a keeper too strong for its
driver.  A point that fails is recorded as its error's class name and
message (every scheme fails at p = 0, where standby saves nothing; the
strong keeper raises ``TimingError``).  Record keys keep their
``as_records`` order, so ``tests/test_comparison_golden.py`` compares
each point exactly: ``==`` and equal ``repr``.

Usage (from the repository root)::

    python scripts/capture_activity_parity.py [--golden {activity,comparison}] [--output PATH]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import compare_schemes, paper_experiment  # noqa: E402
from repro.errors import PowerError, ReproError  # noqa: E402

NODES = ("90nm", "65nm", "45nm")
PORT_COUNTS = (3, 5)
#: (static_probability, toggle_activity) pairs: all four corners of the
#: p in [0.005, 1] x t in [0, 1] box, low-p points on both sides of the
#: segmented schemes' standby break-even, the paper point, and interior
#: points off the 0.5 diagonal.
ACTIVITY_PAIRS = (
    (0.005, 0.0),
    (0.005, 1.0),
    (0.02, 1.0),
    (0.05, 0.0),
    (1.0, 0.0),
    (1.0, 1.0),
    (0.5, 0.5),
    (0.137, 0.731),
    (0.9, 0.25),
    (0.62, 1.0),
)


def capture() -> list[dict]:
    """Every case of the golden, in a stable order."""
    cases = []
    for node in NODES:
        for ports in PORT_COUNTS:
            for probability, toggle in ACTIVITY_PAIRS:
                overrides = {
                    "technology_node": node,
                    "crossbar.port_count": ports,
                    "static_probability": probability,
                    "toggle_activity": toggle,
                }
                config = paper_experiment().with_overrides(**overrides)
                try:
                    outcome = {"records": compare_schemes(config).as_records()}
                except PowerError as exc:
                    outcome = {"error": type(exc).__name__, "message": str(exc)}
                cases.append({**overrides, **outcome})
    return cases


#: Seed and sample sizes of the comparison golden's perfbench points.
COMPARISON_SEED = 1
SCALAR_SAMPLE = 60
STRUCTURAL_SAMPLE = 80
#: The comparison golden's points off the perfbench domain.
EDGE_POINTS = tuple(
    {"static_probability": probability, "toggle_activity": toggle}
    for probability in (0.0, 1.0) for toggle in (0.0, 1.0)
) + ({"crossbar.keeper_width": 2e-6},)


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", _ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def comparison_points(seed: int = COMPARISON_SEED) -> list[dict]:
    """The comparison golden's overrides, in a stable order."""
    inputs = _perfbench_inputs()
    rng = random.Random(seed)
    return (rng.sample(inputs.scalar_block(seed, 0), SCALAR_SAMPLE)
            + rng.sample(inputs.structural_block(seed, 0), STRUCTURAL_SAMPLE)
            + [dict(point) for point in EDGE_POINTS])


def capture_comparison() -> list[dict]:
    """Every case of the comparison golden: the overrides, then the
    records or the error."""
    cases = []
    for overrides in comparison_points():
        config = paper_experiment().with_overrides(**overrides)
        try:
            outcome = {"records": compare_schemes(config).as_records()}
        except ReproError as exc:
            outcome = {"error": type(exc).__name__, "message": str(exc)}
        cases.append({**overrides, **outcome})
    return cases


GOLDENS = {
    "activity": (capture, "activity_parity.json", True),
    "comparison": (capture_comparison, "comparison_records.json", False),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--golden", choices=sorted(GOLDENS), default="activity")
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)
    capture_cases, name, sort_keys = GOLDENS[args.golden]
    output = args.output or _ROOT / "tests" / "golden" / name
    cases = capture_cases()
    output.write_text(json.dumps(cases, indent=2, sort_keys=sort_keys) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
