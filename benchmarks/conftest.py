"""Shared fixtures for the paper-reproduction benchmarks (Table 1, figures,
ablations, NoC).

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark both
times the evaluation it wraps and prints the regenerated table/figure
content (paper value next to measured value where applicable), so the
benchmark log doubles as the reproduction record; :data:`PAPER_TABLE1`
below holds the paper's Table 1 values.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import compare_schemes, paper_experiment  # noqa: E402

#: Paper Table 1 values (DATE 2005), used for side-by-side printing.
PAPER_TABLE1 = {
    "SC": {"hl_ps": 61.40, "lh_ps": 54.87, "active_saving": None, "standby_saving": None,
           "min_idle": 3, "total_mw": 182.81, "penalty": None},
    "DFC": {"hl_ps": 51.87, "lh_ps": 58.17, "active_saving": 10.13, "standby_saving": 12.36,
            "min_idle": 2, "total_mw": 154.07, "penalty": 0.0},
    "DPC": {"hl_ps": 53.08, "lh_ps": 61.25, "active_saving": 43.70, "standby_saving": 93.68,
            "min_idle": 1, "total_mw": 180.45, "penalty": 0.0},
    "SDFC": {"hl_ps": 62.81, "lh_ps": 64.28, "active_saving": 42.09, "standby_saving": 43.91,
             "min_idle": 3, "total_mw": 122.18, "penalty": 4.69},
    "SDPC": {"hl_ps": 54.90, "lh_ps": 62.80, "active_saving": 63.57, "standby_saving": 95.96,
             "min_idle": 1, "total_mw": 168.55, "penalty": 2.28},
}


@pytest.fixture(scope="session")
def paper_values():
    """The paper's Table 1 numbers."""
    return PAPER_TABLE1


@pytest.fixture(scope="session")
def table1_comparison():
    """The full scheme comparison at the paper's configuration (computed once)."""
    return compare_schemes(paper_experiment())


@pytest.fixture(scope="session")
def table1_records(table1_comparison):
    """Comparison records keyed by scheme name."""
    return {record["scheme"]: record for record in table1_comparison.as_records()}
