"""The leakage fast paths must change nothing but the speed.

Two committed goldens pin the full ``compare_schemes`` output (all
registered schemes, every Table 1 column):

* ``tests/golden/leakage_parity.json`` — captured from the pre-kernel
  implementation across three technology nodes, two static
  probabilities and two crossbar radixes, at toggle activity 0.5;
* ``tests/golden/activity_parity.json`` — captured before the activity
  profile existed (``scripts/capture_activity_parity.py``) across three
  nodes x radixes {3, 5} x (static probability, toggle activity) pairs
  spanning p in [0.005, 1] and t in [0, 1], endpoints included.

The memoised kernel, the allocation-free accumulator and the per-scheme
record terms must reproduce every float to 1e-12 relative tolerance
and every integer column (``minimum_idle_cycles`` is a ``ceil``)
exactly.

The rest checks the fast paths are actually *fast*: bias-point
evaluations are shared across ports (a port-count sweep adds almost no
kernel misses), a fresh activity point on warm schemes makes no kernel
lookups at all, and each scheme derives its terms once.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path

import pytest

from repro import compare_schemes, errors, paper_experiment
from repro.circuit.biasing import (
    LeakageKernel,
    kernel_for,
    kernel_totals,
    leakage_from_node_voltages,
)
from repro.circuit.leakage import (
    AffineLeakage,
    AffineLeakageAccumulator,
    LeakageAccumulator,
    LeakageBreakdown,
)
from repro.core.scheme_evaluator import (
    SchemeEvaluator,
    clear_structural_cache,
    structural_cache_stats,
)
from repro.crossbar.base import CrossbarScheme
from repro.crossbar.factory import available_schemes, create_scheme
from repro.errors import CircuitError, CrossbarError
from repro.power import analyse_minimum_idle_time, evaluate_scheme
from repro.technology import default_45nm

GOLDEN_PATH = Path(__file__).parent / "golden" / "leakage_parity.json"
ACTIVITY_GOLDEN_PATH = Path(__file__).parent / "golden" / "activity_parity.json"

#: Relative tolerance of the golden comparison (absolute for exact zeros).
PARITY_RTOL = 1e-12


def _golden_cases():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _activity_cases():
    return json.loads(ACTIVITY_GOLDEN_PATH.read_text(encoding="utf-8"))


def _assert_records_match(live, golden):
    """Floats to PARITY_RTOL, everything else (names, integer counts) exact."""
    assert len(live) == len(golden)
    for new, old in zip(live, golden):
        assert new.keys() == old.keys()
        for column, old_value in old.items():
            new_value = new[column]
            if isinstance(old_value, float):
                assert math.isclose(new_value, old_value,
                                    rel_tol=PARITY_RTOL, abs_tol=1e-30), (
                    f"{new['scheme']}.{column}: {new_value!r} != {old_value!r}"
                )
            else:
                assert type(new_value) is type(old_value), f"{new['scheme']}.{column}"
                assert new_value == old_value, f"{new['scheme']}.{column}"


def _case_id(case):
    parts = [case["technology_node"], f"p{case['static_probability']}"]
    if "crossbar.port_count" in case:
        parts.append(f"ports{case['crossbar.port_count']}")
    return "-".join(parts)


@pytest.mark.parametrize("case", _golden_cases(), ids=_case_id)
def test_compare_schemes_matches_pre_kernel_golden(case):
    """Full comparison output matches the pre-refactor numbers at 1e-12."""
    overrides = {"technology_node": case["technology_node"],
                 "static_probability": case["static_probability"]}
    if "crossbar.port_count" in case:
        overrides["crossbar.port_count"] = case["crossbar.port_count"]
    config = paper_experiment().with_overrides(**overrides)
    _assert_records_match(compare_schemes(config).as_records(), case["records"])


def _activity_case_id(case):
    return (f"{case['technology_node']}-ports{case['crossbar.port_count']}"
            f"-p{case['static_probability']}-t{case['toggle_activity']}")


@pytest.mark.parametrize("case", _activity_cases(), ids=_activity_case_id)
def test_compare_schemes_matches_pre_profile_activity_golden(case):
    """Every (p, t) point matches the pre-profile numbers — including the
    toggle-dependent columns and the low-p points where a scheme's
    standby saves nothing and the comparison raises."""
    config = paper_experiment().with_overrides(**{
        path: case[path] for path in ("technology_node", "crossbar.port_count",
                                      "static_probability", "toggle_activity")})
    if "error" in case:
        error = getattr(errors, case["error"])
        with pytest.raises(error, match=re.escape(case["message"])):
            compare_schemes(config)
        return
    _assert_records_match(compare_schemes(config).as_records(), case["records"])


def test_activity_golden_covers_the_activity_box():
    """The golden spans p in [0.005, 1] and t in [0, 1], endpoints
    included, at three nodes and radixes {3, 5}, and both outcomes."""
    cases = _activity_cases()
    probabilities = {case["static_probability"] for case in cases}
    toggles = {case["toggle_activity"] for case in cases}
    assert min(probabilities) == 0.005 and max(probabilities) == 1.0
    assert min(toggles) == 0.0 and max(toggles) == 1.0
    assert len({case["technology_node"] for case in cases}) == 3
    assert {case["crossbar.port_count"] for case in cases} == {3, 5}
    assert any("error" in case for case in cases)
    assert sum("records" in case for case in cases) > len(cases) // 2


def test_fresh_activity_point_on_warm_schemes_makes_no_kernel_lookups():
    """Once a scheme is analysed, a new (p, t) is arithmetic only."""
    clear_structural_cache()
    compare_schemes(paper_experiment())
    lookups = kernel_totals().lookups
    for probability, toggle in ((0.37, 0.81), (0.05, 0.0), (1.0, 1.0)):
        compare_schemes(paper_experiment().with_overrides(
            static_probability=probability, toggle_activity=toggle))
    assert kernel_totals().lookups == lookups


def test_cold_comparison_lookup_budget():
    """A cold paper-point comparison stays within its lookup budget
    (345 before the activity profile; the one-pass profile shares the
    driver-chain and merge-support terms of the segmented cases)."""
    clear_structural_cache()
    compare_schemes(paper_experiment())
    assert 0 < kernel_totals().lookups <= 345


def test_each_scheme_derives_its_terms_once(monkeypatch):
    """The record terms and the path-leakage objects are derived on first
    analysis and reused at every later activity point."""
    built: dict[str, list[str]] = {}
    for name in ("record_terms", "path_leakage"):
        original = getattr(CrossbarScheme, name).func

        def counting(scheme, original=original, name=name):
            built.setdefault(name, []).append(scheme.name)
            return original(scheme)

        patched = functools.cached_property(counting)
        patched.__set_name__(CrossbarScheme, name)
        monkeypatch.setattr(CrossbarScheme, name, patched)
    clear_structural_cache()
    for probability in (0.5, 0.2, 0.9):
        for toggle in (0.0, 0.5):
            compare_schemes(paper_experiment().with_overrides(
                static_probability=probability, toggle_activity=toggle))
    assert sorted(built["record_terms"]) == sorted(available_schemes())
    assert sorted(built["path_leakage"]) == sorted(available_schemes())
    clear_structural_cache()


def test_activity_methods_keep_probability_validation(library):
    """The arithmetic fast path still rejects probabilities outside [0, 1]
    (NaN included) and a clock that is not positive."""
    scheme = create_scheme("SDPC", library)
    for call in (lambda: scheme.active_leakage(1.5),
                 lambda: scheme.idle_leakage(-0.1),
                 lambda: scheme.active_leakage_power(math.nan),
                 lambda: scheme.dynamic_energy_per_cycle(1.2, 0.5),
                 lambda: scheme.dynamic_energy_per_cycle(0.5, -1.0),
                 lambda: scheme.dynamic_energy_per_cycle(math.nan, 0.5),
                 lambda: scheme.sleep_transition_energy(2.0),
                 lambda: scheme.standby_power_saving(-0.5)):
        with pytest.raises(CrossbarError):
            call()
    for frequency in (-3e9, 0.0, math.nan):
        for call in (lambda: scheme.dynamic_power(frequency=frequency),
                     lambda: scheme.total_power(frequency=frequency),
                     lambda: analyse_minimum_idle_time(scheme, frequency=frequency),
                     lambda: evaluate_scheme(scheme, frequency=frequency)):
            with pytest.raises(errors.PowerError, match="frequency must be positive"):
                call()


def test_kernel_matches_unmemoised_function(library):
    """kernel.evaluate is value-identical to leakage_from_node_voltages."""
    kernel = kernel_for(library)
    from repro.technology.transistor import Polarity, VtFlavor

    device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 2.0e-6)
    vdd = library.supply_voltage
    for bias in [(0.0, vdd, 0.0, 1), (vdd, vdd, 0.0, 1), (0.0, vdd, 0.0, 2),
                 (vdd, 0.3, 0.0, 1), (0.0, 0.0, 0.0, 1)]:
        direct = leakage_from_node_voltages(device, *bias[:3],
                                            series_off_devices=bias[3])
        memoised_cold = kernel.evaluate(device, *bias[:3],
                                        series_off_devices=bias[3])
        memoised_warm = kernel.evaluate(device, *bias[:3],
                                        series_off_devices=bias[3])
        assert memoised_cold == direct
        assert memoised_warm is memoised_cold  # the memo returns the object


def test_kernel_validation_and_stats(library):
    """Validation errors still fire (on first sight) and stats count."""
    from repro.technology.transistor import Polarity, VtFlavor

    kernel = LeakageKernel(max_entries=4)
    device = library.make_transistor(Polarity.PMOS, VtFlavor.HIGH, 1.0e-6)
    vdd = library.supply_voltage
    with pytest.raises(CircuitError):
        kernel.evaluate(device, 2.0 * vdd, 0.0, 0.0)  # outside the rails
    with pytest.raises(CircuitError):
        kernel.evaluate(device, 0.0, 0.0, 0.0, series_off_devices=0)
    kernel.evaluate(device, 0.0, vdd, vdd)
    kernel.evaluate(device, 0.0, vdd, vdd)
    assert kernel.stats.misses == 1
    assert kernel.stats.hits == 1
    assert kernel.stats.hit_rate == 0.5
    # The bound clears rather than grows without limit.
    for voltage in (0.1, 0.2, 0.3, 0.4, 0.5):
        kernel.evaluate(device, voltage, vdd, vdd)
    assert len(kernel) <= 4


def test_port_count_sweep_shares_bias_points():
    """A port-count sweep re-uses bias points: hit rate stays high and
    misses barely grow with the radix (the count multiplies instead)."""
    clear_structural_cache()
    base = paper_experiment()
    compare_schemes(base.with_overrides(**{"crossbar.port_count": 3}))
    # kernel_totals() returns the live counter object — snapshot the ints.
    lookups_first = kernel_totals().lookups
    misses_first = kernel_totals().misses

    for ports in (4, 5):
        compare_schemes(base.with_overrides(**{"crossbar.port_count": ports}))
    totals = kernel_totals()

    # Wider crossbars re-bias the *same* shared devices at the same rail
    # voltages: the sweep's extra unique bias points are a tiny fraction
    # of its lookups.
    sweep_lookups = totals.lookups - lookups_first
    sweep_misses = totals.misses - misses_first
    assert sweep_lookups > 0
    assert sweep_misses <= 0.05 * sweep_lookups
    assert totals.hit_rate > 0.8

    stats = structural_cache_stats()
    assert stats.kernel_hits == totals.hits
    assert stats.kernel_misses == totals.misses
    payload = stats.as_payload()
    assert payload["kernel_hits"] == totals.hits
    assert 0.0 < payload["kernel_hit_rate"] <= 1.0


def test_scheme_evaluator_exposes_kernel_stats():
    """The kernel of an evaluator's library reports that library's counters."""
    clear_structural_cache()
    evaluator = SchemeEvaluator(paper_experiment())
    evaluator.evaluate("SC")
    stats = kernel_for(evaluator.library).stats
    assert stats.misses > 0
    assert stats.lookups == stats.hits + stats.misses
    payload = stats.as_payload()
    assert set(payload) == {"hits", "misses", "hit_rate"}
    # A second evaluation of the same scheme is memo-served end to end.
    before_misses = stats.misses
    evaluator.evaluate("SC")
    assert kernel_for(evaluator.library).stats.misses == before_misses

    # Clearing the structural cache zeroes BOTH the aggregate and the
    # per-library counters of kernels still alive on held libraries, so
    # a library's stats stay a consistent share of the totals.
    clear_structural_cache()
    assert kernel_totals().lookups == 0
    assert kernel_for(evaluator.library).stats.lookups == 0


def test_accumulator_matches_breakdown_arithmetic():
    """LeakageAccumulator.add/freeze is bit-identical to +/scaled chains."""
    parts = [LeakageBreakdown(1e-9, 2e-9, 3e-9),
             LeakageBreakdown(4e-9, 5e-9, 6e-9),
             LeakageBreakdown(7e-9, 8e-9, 9e-9)]
    scales = [1.0, 2.5, 640.0]

    chained = LeakageBreakdown.zero()
    for part, scale in zip(parts, scales):
        chained = chained + part.scaled(scale)

    acc = LeakageAccumulator()
    for part, scale in zip(parts, scales):
        acc.add(part, scale)
    frozen = acc.freeze()

    assert frozen == chained
    assert frozen.total == chained.total
    with pytest.raises(CircuitError):
        LeakageAccumulator().add(parts[0], -1.0)


def test_affine_leakage_mix_matches_breakdown_arithmetic():
    """AffineLeakage.mixed_at is the weighted mix of both affine states."""
    acc_a, acc_b = AffineLeakageAccumulator(), AffineLeakageAccumulator()
    acc_a.fixed.add(LeakageBreakdown(1e-9, 2e-9, 3e-9))
    acc_a.high.add(LeakageBreakdown(4e-9, 5e-9, 6e-9), 3.0)
    acc_a.low.add(LeakageBreakdown(7e-9, 8e-9, 9e-9), 3.0)
    acc_b.fixed.add(LeakageBreakdown(2e-9, 1e-9, 5e-9))
    acc_b.low.add(LeakageBreakdown(1e-9, 1e-9, 1e-9), 4.0)
    a, b = acc_a.freeze(), acc_b.freeze()

    def at(x, p):
        return x.fixed + x.high.scaled(p) + x.low.scaled(1.0 - p)

    for weight, probability in ((0.0, 0.0), (1.0, 1.0), (0.3, 0.8), (0.5, 0.005)):
        expected = (at(a, probability).scaled(weight)
                    + at(b, probability).scaled(1.0 - weight)).scaled(640.0)
        mixed = a.mixed_at(b, weight, probability, scale=640.0)
        for name in ("subthreshold", "gate", "junction"):
            assert math.isclose(getattr(mixed, name), getattr(expected, name),
                                rel_tol=1e-15)


def test_affine_leakage_mixed_power_of_floats_is_bit_identical_to_mixed_at():
    """The allocation-free power of a mix is the breakdown route's, exactly."""
    acc_a, acc_b = AffineLeakageAccumulator(), AffineLeakageAccumulator()
    acc_a.fixed.add(LeakageBreakdown(1e-9, 2e-9, 3e-9))
    acc_a.high.add(LeakageBreakdown(4e-9, 5e-9, 6e-9), 3.0)
    acc_a.low.add(LeakageBreakdown(7e-9, 8e-9, 9e-9), 3.0)
    acc_b.fixed.add(LeakageBreakdown(2e-9, 1e-9, 5e-9))
    acc_b.high.add(LeakageBreakdown(3e-9, 2e-9, 1e-9), 2.0)
    a, b = acc_a.freeze(), acc_b.freeze()
    for weight, probability, scale in ((0.0, 0.0, 1.0), (1.0, 1.0, 640.0),
                                       (0.3, 0.8, 128.0), (0.5, 0.005, 3.0)):
        expected = a.mixed_at(b, weight, probability, scale).power(1.1)
        assert AffineLeakage.mixed_power_of_floats(
            a.floats(), b.floats(), weight, probability, scale, 1.1) == expected


def test_affine_leakage_floats_round_trip_and_validate():
    """from_floats inverts floats at any offset and rejects a negative term."""
    acc = AffineLeakageAccumulator()
    acc.fixed.add(LeakageBreakdown(1e-9, 2e-9, 3e-9))
    acc.high.add(LeakageBreakdown(4e-9, 5e-9, 6e-9))
    acc.low.add(LeakageBreakdown(7e-9, 8e-9, 9e-9))
    affine = acc.freeze()
    assert AffineLeakage.from_floats((0.0,) + affine.floats(), 1) == affine
    with pytest.raises(CircuitError):
        AffineLeakage.from_floats((-1e-12,) + affine.floats()[1:])


def test_breakdown_arithmetic_still_validates_boundaries():
    """Constructor and scaled() keep their validation semantics."""
    with pytest.raises(CircuitError):
        LeakageBreakdown(subthreshold=-1e-12)
    with pytest.raises(CircuitError):
        LeakageBreakdown(1e-9, 1e-9, 1e-9).scaled(-2.0)
    total = LeakageBreakdown(1e-9, 0.0, 0.0) + LeakageBreakdown(0.0, 1e-9, 0.0)
    assert total == LeakageBreakdown(1e-9, 1e-9, 0.0)


def test_shared_transistors_per_library():
    """make_transistor memoises per (polarity, flavor, width), per library."""
    from repro.technology.transistor import Polarity, VtFlavor

    library = default_45nm()
    a = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6)
    b = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6)
    c = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 2.0e-6)
    assert a is b
    assert a is not c
    other = default_45nm()
    assert other.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6) is not a
