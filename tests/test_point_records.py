"""Exact parity of the engine's record path with the object API.

:func:`repro.core.comparison.point_records` writes the Table 1 records
straight from each scheme's activity profile; every executor serves it.
It must equal ``compare_schemes(...).as_records()`` exactly: the same
keys in the same order and bit-identical floats (compared with ``==``,
no tolerance), and for an invalid point the same exception type and
message.  The points come from both committed goldens and from a seeded
sample of the perfbench structural grid, which reaches the 6- and
8-port crossbars the goldens do not.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

from repro import compare_schemes, paper_experiment
from repro.core.comparison import point_records
from repro.crossbar import factory
from repro.crossbar.base import CrossbarScheme, SchemeFeatures, VtPlan
from repro.crossbar.sdfc import SegmentedDualVtFeedbackCrossbar
from repro.errors import ConfigurationError, CrossbarError, PowerError

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

#: Leaves of a golden case that are not config overrides.
_OUTCOME_KEYS = ("records", "error", "message")


def _golden_configs(name: str) -> list:
    cases = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    return [paper_experiment().with_overrides(**{
        path: value for path, value in case.items() if path not in _OUTCOME_KEYS})
        for case in cases]


def _structural_sample(seed: int = 7, size: int = 60) -> list:
    """A seeded sample of one perfbench ``sweep_structural`` block."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    block = inputs.structural_block(seed, 0)
    sample = random.Random(seed).sample(block, size)
    return [paper_experiment().with_overrides(**point) for point in sample]


def _outcome(evaluate):
    """Records, or the (type, message) of the exception raised."""
    try:
        return evaluate()
    except Exception as exc:
        return (type(exc), str(exc))


def _assert_exact_parity(config, scheme_names=None, baseline_name="SC"):
    reference = _outcome(lambda: compare_schemes(
        config, scheme_names=scheme_names, baseline_name=baseline_name).as_records())
    records = _outcome(lambda: point_records(
        config, scheme_names=scheme_names, baseline_name=baseline_name))
    assert records == reference
    if isinstance(reference, list):
        assert [list(record) for record in records] == [list(record) for record in reference]
        for record, expected in zip(records, reference):
            for column, value in expected.items():
                assert type(record[column]) is type(value), column
    return reference


def test_activity_golden_points_match_exactly():
    outcomes = [_assert_exact_parity(config)
                for config in _golden_configs("activity_parity.json")]
    errors = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    assert errors and all(error[0] is PowerError for error in errors)
    assert len(errors) < len(outcomes)


def test_leakage_golden_points_match_exactly():
    for config in _golden_configs("leakage_parity.json"):
        assert isinstance(_assert_exact_parity(config), list)


def test_structural_sample_matches_exactly_on_every_radix():
    configs = _structural_sample()
    assert {6, 8} <= {config.crossbar.port_count for config in configs}
    for config in configs:
        assert isinstance(_assert_exact_parity(config), list)


@pytest.mark.parametrize("scheme_names, baseline_name", [
    (["SDPC", "SC"], "SDPC"),
    (["SC"], "SC"),
    (["DFC", "SC", "DFC"], "SC"),
    (["sc", "dpc"], "sc"),
])
def test_scheme_subsets_orders_and_spellings_match(scheme_names, baseline_name):
    config = paper_experiment().with_overrides(static_probability=0.3, toggle_activity=0.8)
    _assert_exact_parity(config, scheme_names, baseline_name)


#: 90 nm, 3 ports, p = 0.005: SDFC's standby saves nothing there, so
#: its minimum idle time (and the whole comparison) raises.
_SDFC_FAILS = {"technology_node": "90nm", "crossbar.port_count": 3,
               "static_probability": 0.005, "toggle_activity": 0.0}


class _SegmentedTwin(SegmentedDualVtFeedbackCrossbar):
    """SDFC under another name: fails exactly where SDFC does."""

    name = "TWIN"


def test_savings_raise_before_a_failing_baseline(monkeypatch):
    """A failing baseline raises only after every other scheme's
    savings: here TWIN's, although SDFC comes first."""
    monkeypatch.setitem(factory._REGISTRY, "TWIN", _SegmentedTwin)
    config = paper_experiment().with_overrides(**_SDFC_FAILS)
    outcome = _assert_exact_parity(config, ["SDFC", "SC", "TWIN"], "SDFC")
    assert outcome[0] is PowerError and outcome[1].startswith("scheme 'TWIN'")
    outcome = _assert_exact_parity(config, ["SDFC", "SC"], "SDFC")
    assert outcome[0] is PowerError and outcome[1].startswith("scheme 'SDFC'")


@pytest.mark.parametrize("scheme_names, baseline_name, error", [
    (["SC", "DFC"], "DPC", ConfigurationError),
    (["SC", "XYZ"], "SC", CrossbarError),
])
def test_invalid_scheme_sets_raise_the_same_error(scheme_names, baseline_name, error):
    outcome = _assert_exact_parity(paper_experiment(), scheme_names, baseline_name)
    assert outcome[0] is error


class _SleeplessCrossbar(CrossbarScheme):
    """A single-Vt crossbar without a sleep device, so no standby mode."""

    name = "NOSLEEP"

    def __init__(self, library, config=None):
        super().__init__(
            library, config, features=SchemeFeatures(has_sleep=False), vt_plan=VtPlan())


def test_the_first_failing_scheme_in_order_raises(monkeypatch):
    monkeypatch.setitem(factory._REGISTRY, "NOSLEEP", _SleeplessCrossbar)
    config = paper_experiment().with_overrides(**_SDFC_FAILS)
    # NOSLEEP fails while its figures are computed, before SDFC's savings.
    outcome = _assert_exact_parity(config, ["SC", "SDFC", "NOSLEEP"])
    assert outcome == (PowerError, "scheme 'NOSLEEP' has no standby mode")
