"""Shared device parts: the structural cache's third keyspace.

A built scheme's device part — its state-dependent leakage terms and its
high-Vt device fraction — is shared by value across every crossbar of one
technology point with the same device key.  These tests hold shared parts
to freshly derived ones directly, record for record: perfbench's output
check cannot, because its reference ``compare_schemes`` reads the same
cache.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro import paper_experiment
from repro.core.comparison import point_records
from repro.core.paths import sweepable_paths
from repro.core.scheme_evaluator import (
    SchemeEvaluator,
    clear_structural_cache,
    structural_cache_stats,
)
from repro.crossbar.base import DEVICE_PART_FIELDS, DEVICE_PART_LENGTH
from repro.crossbar.factory import available_schemes, create_scheme
from repro.crossbar.ports import CrossbarConfig
from repro.errors import TechnologyError
from repro.interconnect.wire import Wire
from repro.technology.transistor import Polarity, VtFlavor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import structural_block  # noqa: E402

#: One valid non-default value for every crossbar config path.
PERTURBATIONS = {
    "crossbar.port_count": 6,
    "crossbar.flit_width": 64,
    "crossbar.allow_self_connection": True,
    "crossbar.wire_layer": "global",
    "crossbar.layout_overhead": 1.25,
    "crossbar.input_wire_length": 4.0e-4,
    "crossbar.row_wire_length": 3.0e-4,
    "crossbar.output_wire_length": 5.0e-4,
    "crossbar.input_driver_nmos_width": 4.0e-6,
    "crossbar.input_driver_pmos_width": 7.0e-6,
    "crossbar.pass_width": 1.6e-6,
    "crossbar.keeper_width": 0.7e-6,
    "crossbar.sleep_width": 1.5e-6,
    "crossbar.precharge_width": 1.0e-6,
    "crossbar.segment_switch_width": 3.5e-6,
    "crossbar.driver1_nmos_width": 1.2e-6,
    "crossbar.driver1_pmos_width": 2.4e-6,
    "crossbar.driver2_nmos_width": 4.5e-6,
    "crossbar.driver2_pmos_width": 9.0e-6,
    "crossbar.receiver_capacitance": 5.0e-15,
    "crossbar.timing_budget_fraction": 0.3,
}

SEED = 7


def _structural_sample() -> list[dict]:
    """Every flit width of eight seeded (library, port count) groups of
    one ``structural_block``, shuffled: the cold stream's shape, with
    device-key repeats in it."""
    groups: dict[tuple, list[dict]] = {}
    for point in structural_block(SEED, 0):
        key = tuple(value for path, value in sorted(point.items())
                    if path != "crossbar.flit_width")
        groups.setdefault(key, []).append(point)
    rng = random.Random(SEED)
    points = [point for key in rng.sample(sorted(groups), 8) for point in groups[key]]
    rng.shuffle(points)
    return points


def _perturbed(field: str) -> CrossbarConfig:
    return CrossbarConfig().with_overrides(**{field: PERTURBATIONS[f"crossbar.{field}"]})


def test_perturbations_cover_every_crossbar_path():
    assert set(PERTURBATIONS) == {path for path in sweepable_paths()
                                  if path.startswith("crossbar.")}


def test_shared_device_parts_give_the_records_of_fresh_ones():
    """Records with the device-part memo warm equal records with every
    part derived afresh, over the cold stream and one perturbation of
    every crossbar path."""
    base = paper_experiment()
    configs = [base.with_overrides(**point) for point in _structural_sample()]
    configs += [base.with_overrides(**{path: value})
                for path, value in PERTURBATIONS.items()]

    clear_structural_cache()
    point_records(base)
    warm = [point_records(config) for config in configs]
    stats = structural_cache_stats()
    # Both branches are exercised: shared parts, and parts derived here.
    assert stats.device_part_hits > len(configs)
    assert stats.device_part_misses > len(configs)

    fresh = []
    for config in configs:
        clear_structural_cache()
        fresh.append(point_records(config))
        assert structural_cache_stats().device_part_hits == 0
    assert warm == fresh
    clear_structural_cache()


@pytest.mark.parametrize("name", available_schemes())
def test_device_part_ignores_every_field_outside_its_key(library, name):
    """Perturbing a crossbar field outside the device key leaves a freshly
    derived device part unchanged."""
    reference = create_scheme(name, library, CrossbarConfig()).derive_device_part()
    assert len(reference) == DEVICE_PART_LENGTH
    for field in dataclasses.fields(CrossbarConfig):
        if field.name in DEVICE_PART_FIELDS:
            continue
        part = create_scheme(name, library, _perturbed(field.name)).derive_device_part()
        assert part == reference, field.name


def test_every_device_key_field_changes_some_device_part(library):
    """The key holds no field the derivation ignores."""
    base = {name: create_scheme(name, library, CrossbarConfig()).derive_device_part()
            for name in available_schemes()}
    for field in DEVICE_PART_FIELDS:
        config = _perturbed(field)
        assert any(create_scheme(name, library, config).derive_device_part() != part
                   for name, part in base.items()), field


def test_device_part_counters_and_clear():
    base = paper_experiment()
    clear_structural_cache()
    point_records(base)
    stats = structural_cache_stats()
    schemes = len(available_schemes())
    assert (stats.device_part_hits, stats.device_part_misses) == (0, schemes)
    # Another flit width: new schemes, the same device parts.
    point_records(base.with_overrides(**{"crossbar.flit_width": 64}))
    assert (stats.device_part_hits, stats.device_part_misses) == (schemes, schemes)
    payload = stats.as_payload()
    assert payload["device_part_hits"] == schemes
    assert payload["device_part_misses"] == schemes

    clear_structural_cache()
    assert structural_cache_stats().as_payload()["device_part_hits"] == 0
    # The parts went with the clear: a third flit width derives them again.
    point_records(base.with_overrides(**{"crossbar.flit_width": 32}))
    assert structural_cache_stats().device_part_misses == schemes
    assert structural_cache_stats().device_part_hits == 0
    clear_structural_cache()


def test_a_shared_device_part_still_checks_the_circuit_first():
    """The device key leaves the wires out, so a crossbar on a wire layer
    that does not exist still finds its device parts shared.  Its
    circuit's checks run before the part is looked up, so its wire error
    comes before the point's own (an out-of-range static probability),
    as it did when each scheme was built whole."""
    base = paper_experiment()
    clear_structural_cache()
    point_records(base)
    point_records(base.with_overrides(**{"crossbar.wire_layer": "global"}))
    assert structural_cache_stats().device_part_hits == len(available_schemes())
    bad = base.with_overrides(**{"crossbar.wire_layer": "bogus"})
    object.__setattr__(bad, "static_probability", 1.5)  # past the config's own check
    with pytest.raises(TechnologyError, match="unknown wire layer 'bogus'"):
        point_records(bad)
    clear_structural_cache()


def test_caller_library_derives_its_own_device_part():
    """A caller-supplied library with a cached library's technology point
    but an edited device table gets its own standby leakage and leaves
    the shared keyspace alone."""
    config = paper_experiment()
    clear_structural_cache()
    shared = SchemeEvaluator(config).build_scheme("DFC").standby_leakage()

    edited = config.build_library()
    for key, parameters in list(edited.devices.items()):
        edited.devices[key] = dataclasses.replace(
            parameters, i0_per_meter=2.0 * parameters.i0_per_meter)
    before = structural_cache_stats().as_payload()
    own = SchemeEvaluator(config, library=edited).build_scheme("DFC").standby_leakage()
    after = structural_cache_stats().as_payload()
    assert own.subthreshold > shared.subthreshold
    assert own == create_scheme("DFC", edited, config.crossbar).standby_leakage()
    for counter in ("device_part_hits", "device_part_misses"):
        assert after[counter] == before[counter]

    # A cached crossbar with the paper point's device key still gets the
    # unedited part.
    wider = config.with_overrides(**{"crossbar.flit_width": 64})
    cached = SchemeEvaluator(wider).build_scheme("DFC").standby_leakage()
    assert structural_cache_stats().device_part_hits == after["device_part_hits"] + 1
    assert cached == create_scheme("DFC", wider.build_library(),
                                   wider.crossbar).standby_leakage()
    clear_structural_cache()


def test_wires_are_shared_per_library(library):
    wire = Wire.on_layer(library, 2.0e-4, "intermediate")
    assert Wire.on_layer(library, 2.0e-4, "intermediate") is wire
    assert Wire.on_layer(library, 2.0e-4, "global") is not wire
    assert wire.pi_model() is wire.pi_model()
    fresh = Wire(length=2.0e-4, model=library.wire_model("intermediate"))
    assert (wire.resistance, wire.capacitance) == (fresh.resistance, fresh.capacitance)
    assert wire.pi_model() == fresh.pi_model()
    assert Wire.on_layer(paper_experiment().build_library(), 2.0e-4) is not wire


def test_device_parameters_follow_an_edited_device_table():
    library = paper_experiment().build_library()
    key = (Polarity.NMOS, VtFlavor.HIGH)
    first = library.device_parameters(*key)
    assert library.device_parameters(*key) is first
    library.devices[key] = dataclasses.replace(library.devices[key], dibl=0.2)
    edited = library.device_parameters(*key)
    assert edited.dibl == 0.2
    assert edited == library.corner.apply(library.devices[key])
