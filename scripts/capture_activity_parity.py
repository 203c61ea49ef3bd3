#!/usr/bin/env python
"""Capture the activity-parity golden: full Table 1 records across (p, t).

Writes ``tests/golden/activity_parity.json``: the complete
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

Usage (from the repository root)::

    python scripts/capture_activity_parity.py [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import compare_schemes, paper_experiment  # noqa: E402
from repro.errors import PowerError  # noqa: E402

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path,
                        default=_ROOT / "tests" / "golden" / "activity_parity.json")
    args = parser.parse_args(argv)
    cases = capture()
    args.output.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(cases)} cases to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
