"""Exact parity of the engine's record path with the object API.

:func:`repro.core.comparison.point_records` writes the Table 1 records
through each structure's record plan; every executor serves it.
It must equal ``compare_schemes(...).as_records()`` exactly: the same
keys in the same order and bit-identical floats (compared with ``==``,
no tolerance), and for an invalid point the same exception type and
message.  The points come from both committed goldens, from a seeded
sample of the perfbench structural grid, which reaches the 6- and
8-port crossbars the goldens do not, and from seeded perfbench scalar
sweeps, served both through the structure memo's identity check (one
crossbar object, as an evaluator's grid) and through its value lookup
(a fresh crossbar object per point, as fleet and service items).
Streams of points also drive the structure's record plan through slot
hits and misses, baseline changes, evictions, clears and re-registered
schemes, each point held to the reference on its own.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import random
from array import array
from pathlib import Path

import pytest

from repro import compare_schemes, paper_experiment
from repro.core import scheme_evaluator
from repro.core.comparison import point_records
from repro.core.scheme_evaluator import (
    SchemeEvaluator,
    clear_structural_cache,
    schemes_for,
    structural_cache_stats,
)
from repro.crossbar import factory
from repro.crossbar.factory import available_schemes
from repro.crossbar.base import DEVICE_PART_LENGTH, CrossbarScheme, SchemeFeatures, VtPlan
from repro.crossbar.sdfc import SegmentedDualVtFeedbackCrossbar
from repro.errors import ConfigurationError, CrossbarError, PowerError

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

#: One path's sleep leakage in a device part: the three doubles before
#: the high-Vt fraction.
_SLEEP = slice(DEVICE_PART_LENGTH - 4, DEVICE_PART_LENGTH - 1)

#: Leaves of a golden case that are not config overrides.
_OUTCOME_KEYS = ("records", "error", "message")


def _golden_configs(name: str) -> list:
    cases = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    return [paper_experiment().with_overrides(**{
        path: value for path, value in case.items() if path not in _OUTCOME_KEYS})
        for case in cases]


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _structural_sample(seed: int = 7, size: int = 60) -> list:
    """A seeded sample of one perfbench ``sweep_structural`` block."""
    block = _perfbench_inputs().structural_block(seed, 0)
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


def _assert_stream_matches(configs, scheme_names=None, baseline_name="SC"):
    """``point_records`` over ``configs`` in order, from a cleared cache,
    equals ``compare_schemes`` point by point: records ``==`` and with
    the same ``repr`` (so -0.0 is not 0.0), or the same exception type
    and message.  Returns the outcomes."""
    expected = [_outcome(lambda config=config: compare_schemes(
        config, scheme_names, baseline_name).as_records()) for config in configs]
    clear_structural_cache()
    for config, reference in zip(configs, expected):
        outcome = _outcome(lambda: point_records(config, scheme_names, baseline_name))
        assert outcome == reference
        assert repr(outcome) == repr(reference)
    return expected


def _points(pairs, base=None):
    base = paper_experiment() if base is None else base
    return [base.with_overrides(static_probability=p, toggle_activity=t) for p, t in pairs]


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
    (["DPC", "SDFC", "SC", "DFC", "SDPC"], "DFC"),
])
def test_scheme_subsets_orders_and_spellings_match(scheme_names, baseline_name):
    """Each set through a build, a record-plan slot hit and a slot miss."""
    configs = _points([(0.3, 0.8), (0.3, 0.1), (0.6, 0.1), (0.6, 0.5)])
    _assert_stream_matches(configs, scheme_names, baseline_name)


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


# --------------------------------------------------------------------------- #
# the structure memo and the record terms                                      #
# --------------------------------------------------------------------------- #

#: Structural-cache counters a memo hit must reproduce (the kernel
#: counters are not the memo's).
_COUNTERS = ("library_hits", "library_misses", "scheme_hits", "scheme_misses",
             "device_part_hits", "device_part_misses")


def _counters() -> dict[str, int]:
    stats = structural_cache_stats()
    return {name: getattr(stats, name) for name in _COUNTERS}


def _scalar_sweep(seeds=(1, 2, 3), blocks: int = 4) -> list:
    """Seeded perfbench ``scalar_block`` grids at the paper point, each
    config built from one base, so all share its crossbar object."""
    inputs = _perfbench_inputs()
    base = paper_experiment()
    return [base.with_overrides(**point)
            for seed in seeds for block in range(blocks)
            for point in inputs.scalar_block(seed, block)]


def _fresh_crossbar(config):
    return dataclasses.replace(config, crossbar=dataclasses.replace(config.crossbar))


def test_scalar_sweep_on_one_crossbar_object_matches_exactly():
    """The identity path, with a cache clear halfway through."""
    configs = _scalar_sweep()
    assert all(config.crossbar is configs[0].crossbar for config in configs)
    clear_structural_cache()
    for index, config in enumerate(configs):
        if index == len(configs) // 2:
            clear_structural_cache()
        assert isinstance(_assert_exact_parity(config), list)
    # Each half built its five schemes once.
    assert structural_cache_stats().scheme_misses == len(available_schemes())


def test_scalar_sweep_on_fresh_crossbar_objects_matches_exactly():
    """The value path: every point carries its own, equal crossbar."""
    configs = [_fresh_crossbar(config) for config in _scalar_sweep()]
    assert configs[0].crossbar is not configs[1].crossbar
    clear_structural_cache()
    for index, config in enumerate(configs):
        if index == len(configs) // 2:
            clear_structural_cache()
        assert isinstance(_assert_exact_parity(config), list)
    assert structural_cache_stats().scheme_misses == len(available_schemes())


@pytest.mark.parametrize("probability", [0.005, 1.0])
@pytest.mark.parametrize("toggle", [0.0, 1.0])
def test_activity_extremes_match_exactly_on_both_paths(probability, toggle):
    config = paper_experiment().with_overrides(
        static_probability=probability, toggle_activity=toggle)
    for _ in range(2):  # a build, then the identity path
        _assert_exact_parity(config)
    _assert_exact_parity(_fresh_crossbar(config))


def test_every_node_and_radix_of_the_structural_grid_matches_exactly():
    firsts: dict[tuple, dict] = {}
    for point in _perfbench_inputs().structural_block(11, 0):
        firsts.setdefault((point["technology_node"], point["crossbar.port_count"]), point)
    assert len(firsts) == 4 * 5
    for point in firsts.values():
        config = paper_experiment().with_overrides(**point)
        for _ in range(2):  # a build, then the identity path
            assert isinstance(_assert_exact_parity(config), list)
        assert isinstance(_assert_exact_parity(_fresh_crossbar(config)), list)


def _structure(node: str, flit_width: int, p: float = 0.5):
    return paper_experiment().with_overrides(**{
        "technology_node": node, "crossbar.flit_width": flit_width,
        "static_probability": p})


#: (node, flit width) streams for the memo's counters.  The second holds
#: the memo hit on A (45nm, 128) then a regular library hit on 65nm (C),
#: then a third library (D, 90nm) that evicts one, then a 65nm point: an
#: eviction that missed the regular hit's recency drops 65nm here.
_MEMO_STREAMS = {
    "mixed": [("45nm", 128), ("45nm", 64), ("45nm", 128), ("45nm", 128),
              ("45nm", 32), ("45nm", 128), ("45nm", 64), ("65nm", 128),
              ("90nm", 128), ("45nm", 32), ("45nm", 32), ("65nm", 128)],
    "memo-hit-then-regular-hit": [("45nm", 128), ("65nm", 128), ("45nm", 128),
                                  ("45nm", 128), ("65nm", 64), ("90nm", 128),
                                  ("65nm", 128)],
}


@pytest.mark.parametrize("stream", list(_MEMO_STREAMS))
def test_memo_hits_count_and_evict_as_the_per_scheme_lookups(monkeypatch, stream):
    """The same stream of points through compare_schemes (a library and
    a scheme lookup per scheme) and point_records (the memo) leaves the
    same counters after every point, through library and scheme LRU
    evictions, and the same LRU order at the end: memo hits count as
    those lookups' hits and keep their schemes as recent as those
    lookups would."""
    cache = scheme_evaluator._STRUCTURAL_CACHE
    monkeypatch.setattr(cache, "max_libraries", 2)
    monkeypatch.setattr(cache, "max_schemes", 10)
    configs = [_structure(node, width, p=0.1 + 0.05 * index)
               for index, (node, width) in enumerate(_MEMO_STREAMS[stream])]

    def trace_of(evaluate) -> tuple[list[dict[str, int]], list, list]:
        clear_structural_cache()
        trace = []
        for config in configs:
            evaluate(config)
            trace.append(_counters())
        cache._sync()  # the order the next lookup sees
        return trace, list(cache._libraries), list(cache._schemes)

    reference = trace_of(compare_schemes)
    assert trace_of(point_records) == reference
    assert reference[0][-1]["scheme_hits"] > 0 and reference[0][-1]["library_misses"] > 2


def test_a_value_equal_crossbar_is_served_from_the_memo():
    clear_structural_cache()
    config = paper_experiment()
    first = dict(schemes_for(config))
    memoised = scheme_evaluator._STRUCTURAL_CACHE._last
    assert dict(schemes_for(_fresh_crossbar(config))) == first
    assert scheme_evaluator._STRUCTURAL_CACHE._last is memoised


@pytest.mark.parametrize("evaluate", [point_records, compare_schemes])
def test_memo_never_serves_a_scheme_of_a_replaced_library(monkeypatch, evaluate):
    monkeypatch.setattr(scheme_evaluator._STRUCTURAL_CACHE, "max_libraries", 1)
    clear_structural_cache()
    paper, other = _structure("45nm", 128), _structure("65nm", 128)
    first = dict(schemes_for(paper))
    assert dict(schemes_for(paper)) == first  # served from the memo
    evaluate(other)  # replaces the 45 nm library
    misses = structural_cache_stats().library_misses
    served = dict(schemes_for(paper))
    assert structural_cache_stats().library_misses == misses + 1
    library = SchemeEvaluator(paper).library
    assert all(scheme.library is library for scheme in served.values())
    assert all(served[name] is not first[name] for name in first)
    assert point_records(paper) == compare_schemes(paper).as_records()


def test_clear_drops_the_memo_and_held_schemes_keep_equal_figures():
    clear_structural_cache()
    config = paper_experiment()
    point_records(config)
    held = dict(schemes_for(config))
    clear_structural_cache()
    served = dict(schemes_for(config))
    assert structural_cache_stats().scheme_misses == len(served)
    assert all(served[name] is not held[name] for name in held)
    # A held scheme keeps its terms, which give the same figures.
    name = "SDPC"
    assert (scheme_evaluator.evaluate_scheme(held[name], config)[1:]
            == scheme_evaluator.evaluate_scheme(served[name], config)[1:])


# --------------------------------------------------------------------------- #
# the record plan and its static-probability slot                              #
# --------------------------------------------------------------------------- #


class _CountedEvaluate:
    """Counts :func:`scheme_evaluator.evaluate_scheme` calls, the work a
    point that misses the plan's slot does once per scheme."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self._evaluate = scheme_evaluator.evaluate_scheme
        monkeypatch.setattr(scheme_evaluator, "evaluate_scheme", self)

    def __call__(self, scheme, config):
        self.calls += 1
        return self._evaluate(scheme, config)


def test_grid_order_serves_seven_of_eight_points_from_the_slot(monkeypatch):
    """A p-major grid: one full evaluation per static probability."""
    configs = _scalar_sweep(seeds=(5,), blocks=2)
    counted = _CountedEvaluate(monkeypatch)
    _assert_stream_matches(configs)
    schemes = len(available_schemes())
    # compare_schemes does not call it; point_records once per p run.
    runs = 1 + sum(a.static_probability != b.static_probability
                   for a, b in zip(configs, configs[1:]))
    assert runs == 2 * 8
    assert counted.calls == runs * schemes


@pytest.mark.parametrize("seed", [5, 6])
def test_shuffled_and_alternating_orders_match(seed):
    configs = _scalar_sweep(seeds=(seed,), blocks=2)
    random.Random(seed).shuffle(configs)
    _assert_stream_matches(configs)
    alternating = _points([(0.2, 0.1), (0.7, 0.1), (0.2, 0.9), (0.7, 0.9), (0.2, 0.5)])
    _assert_stream_matches(alternating)
    _assert_stream_matches([_fresh_crossbar(config) for config in alternating])


def test_one_probability_with_varied_toggles_matches(monkeypatch):
    configs = _points([(0.37, t) for t in (0.0, 0.25, 1.0, 0.5, 0.0, 0.999)])
    counted = _CountedEvaluate(monkeypatch)
    _assert_stream_matches(configs)
    assert counted.calls == len(available_schemes())


def test_an_invalid_toggle_raises_on_a_slot_hit():
    base = paper_experiment().with_overrides(static_probability=0.4, toggle_activity=0.5)
    invalid = copy.copy(base)
    object.__setattr__(invalid, "toggle_activity", 1.5)  # past the config's own check
    outcomes = _assert_stream_matches([base, invalid, base])
    assert outcomes[1] == (PowerError, "toggle_activity must be in [0, 1], got 1.5")


def _tight_sleep(base: type, name: str) -> type:
    """``base`` with 1 % of its sleep leakage (the device part's sleep
    terms), so standby pays off even at p = 0 (where no bundled
    scheme's does)."""
    def derive_device_part(self):
        part = base.derive_device_part(self)
        part[_SLEEP] = array("d", [value * 0.01 for value in part[_SLEEP]])
        return part

    return type(name, (base,), {"name": name, "derive_device_part": derive_device_part})


def test_zero_and_negative_zero_do_not_share_a_slot(monkeypatch):
    from repro.crossbar.dpc import DualVtPrechargedCrossbar
    from repro.crossbar.sc import SingleVtCrossbar

    monkeypatch.setitem(factory._REGISTRY, "TSC", _tight_sleep(SingleVtCrossbar, "TSC"))
    monkeypatch.setitem(factory._REGISTRY, "TDPC",
                        _tight_sleep(DualVtPrechargedCrossbar, "TDPC"))
    names = ["TSC", "TDPC"]
    configs = _points([(0.0, 0.3), (-0.0, 0.3), (-0.0, 0.6), (0.0, 0.6)])
    counted = _CountedEvaluate(monkeypatch)
    outcomes = _assert_stream_matches(configs, names, "TSC")
    assert all(isinstance(outcome, list) for outcome in outcomes)
    # Equal as floats, so only the slot's bit match tells them apart.
    assert counted.calls == 3 * len(names)
    # With the bundled schemes p = 0 raises, on both signs.
    outcomes = _assert_stream_matches(_points([(0.5, 0.3), (0.0, 0.3), (-0.0, 0.3)]))
    assert outcomes[1] == outcomes[2] == (
        PowerError, "scheme 'DFC' saves no power in standby; minimum idle time undefined")


def test_a_failing_probability_after_a_warm_one_raises_and_leaves_the_slot(monkeypatch):
    """0.001 misses the slot and raises DFC's idle-time error; it never
    becomes the slot, so it raises again, and the warm p still hits."""
    configs = _points([(0.5, 0.3), (0.5, 0.4), (0.001, 0.3), (0.001, 0.4), (0.5, 0.9)])
    counted = _CountedEvaluate(monkeypatch)
    outcomes = _assert_stream_matches(configs)
    failure = (PowerError, "scheme 'DFC' saves no power in standby; minimum idle time undefined")
    assert outcomes[2] == outcomes[3] == failure
    assert counted.calls == 3 * len(available_schemes())


def test_baseline_idle_cycles_raise_after_the_others_through_the_slot(monkeypatch):
    """A warm slot, then a p where both the baseline (SDFC) and TWIN fail:
    TWIN's error, as compare_schemes raises it."""
    monkeypatch.setitem(factory._REGISTRY, "TWIN", _SegmentedTwin)
    base = paper_experiment().with_overrides(**_SDFC_FAILS)
    configs = [base.with_overrides(static_probability=p, toggle_activity=t)
               for p, t in [(0.5, 0.2), (0.5, 0.3), (0.005, 0.2), (0.5, 0.4)]]
    outcomes = _assert_stream_matches(configs, ["SDFC", "SC", "TWIN"], "SDFC")
    assert outcomes[2][0] is PowerError and outcomes[2][1].startswith("scheme 'TWIN'")


def test_a_new_baseline_on_the_same_structure_refills_the_plan():
    """Same names, so the same memo entry, under two baselines in turn."""
    names = ["SC", "DPC", "SDPC"]
    clear_structural_cache()
    for p, baseline in [(0.3, "SC"), (0.3, "DPC"), (0.3, "DPC"), (0.3, "SC"), (0.4, "SDPC")]:
        config = paper_experiment().with_overrides(static_probability=p, toggle_activity=0.2)
        assert (point_records(config, names, baseline)
                == compare_schemes(config, names, baseline).as_records())


def test_a_structure_switch_and_back_matches():
    configs = []
    for node in ("45nm", "65nm", "45nm"):
        base = paper_experiment().with_overrides(technology_node=node)
        configs += _points([(0.3, 0.2), (0.3, 0.7), (0.6, 0.7)], base)
    _assert_stream_matches(configs)


def _plan(config):
    return scheme_evaluator.structure_for(config)[1]


def test_an_eviction_drops_the_plan(monkeypatch):
    """Another structure's lookups evict this structure's library: its
    next point builds the structure again, with a new plan."""
    monkeypatch.setattr(scheme_evaluator._STRUCTURAL_CACHE, "max_libraries", 1)
    paper = _structure("45nm", 128, p=0.3)
    other = _structure("65nm", 128, p=0.3)
    clear_structural_cache()
    point_records(paper)
    plan = _plan(paper)
    assert plan.slot[0] == 0.3
    compare_schemes(other)  # per-scheme lookups: evicts the 45 nm library
    misses = structural_cache_stats().library_misses
    assert point_records(paper) == compare_schemes(paper).as_records()
    assert structural_cache_stats().library_misses == misses + 1
    assert _plan(paper) is not plan
    library = SchemeEvaluator(paper).library
    for (name, scheme), row in zip(schemes_for(paper), _plan(paper).slot[3]):
        assert scheme.library is library
        assert row[0] == name and row[1] is scheme.record_terms


def test_clear_and_a_reregistered_scheme_drop_the_plan(monkeypatch):
    from repro.crossbar.dfc import DualVtFeedbackCrossbar

    monkeypatch.setitem(factory._REGISTRY, "TWIN", _SegmentedTwin)
    # register_scheme below recomputes the ordered names; restore them too.
    monkeypatch.setattr(factory, "_ORDERED_NAMES", factory._ORDERED_NAMES)
    names = ["SC", "TWIN"]
    config = paper_experiment().with_overrides(static_probability=0.3, toggle_activity=0.2)
    clear_structural_cache()
    twin_as_sdfc = point_records(config, names)
    assert twin_as_sdfc == compare_schemes(config, names).as_records()
    plan = scheme_evaluator.structure_for(config, names)[1]
    clear_structural_cache()
    assert point_records(config, names) == twin_as_sdfc
    assert scheme_evaluator.structure_for(config, names)[1] is not plan

    class _DfcTwin(DualVtFeedbackCrossbar):
        name = "TWIN"

    factory.register_scheme("TWIN", _DfcTwin, overwrite=True)
    twin_as_dfc = point_records(config, names)  # the slot's p, a new factory
    assert twin_as_dfc == compare_schemes(config, names).as_records()
    assert twin_as_dfc != twin_as_sdfc
