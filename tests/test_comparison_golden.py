"""The object API's Table 1 records against a golden frozen before its
scalars became views over the record terms.

``tests/golden/comparison_records.json`` holds
``compare_schemes(...).as_records()`` at 145 points
(``scripts/capture_activity_parity.py --golden comparison``): a seeded
sample of the perfbench ``sweep_scalar`` and ``sweep_structural``
inputs, the corners static probability {0, 1} x toggle activity {0, 1}
and a keeper too strong for its driver.  A failing point holds its
error's class name and message.

Every comparison is exact: the records ``==`` the golden's and their
``repr`` is the golden's too (key order, the sign of a zero and every
float digit).  :func:`~repro.core.comparison.point_records` is held to
the same golden, so the record path and the object API answer alike
from one formula set.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import compare_schemes, paper_experiment
from repro.core.comparison import point_records
from repro.core.scheme_evaluator import clear_structural_cache
from repro.errors import ReproError

GOLDEN_PATH = Path(__file__).parent / "golden" / "comparison_records.json"
_OUTCOME_KEYS = ("records", "error", "message")
CASES = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _expected(case: dict):
    if "records" in case:
        return case["records"]
    return (case["error"], case["message"])


def _outcome(evaluate):
    try:
        return evaluate()
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _config(case: dict):
    return paper_experiment().with_overrides(**{
        path: value for path, value in case.items() if path not in _OUTCOME_KEYS})


def test_golden_covers_every_kind_of_point():
    assert len(CASES) == 145
    assert sum("records" in case for case in CASES) == 142
    errors = sorted(case["error"] for case in CASES if "error" in case)
    assert errors == ["PowerError", "PowerError", "TimingError"]
    assert sum("crossbar.port_count" in case for case in CASES) == 80


@pytest.mark.parametrize("entry", ["compare_schemes", "point_records"])
def test_records_equal_the_frozen_golden(entry):
    clear_structural_cache()
    evaluate = {
        "compare_schemes": lambda config: compare_schemes(config).as_records(),
        "point_records": point_records,
    }[entry]
    for case in CASES:
        expected = _expected(case)
        actual = _outcome(lambda: evaluate(_config(case)))
        assert actual == expected, case
        assert repr(actual) == repr(expected), case
    clear_structural_cache()
