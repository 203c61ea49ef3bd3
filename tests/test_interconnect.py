"""Tests for the interconnect substrate: wires, pi models, buses,
crosstalk, repeaters and segmentation."""

from __future__ import annotations

import pytest

from repro.errors import CrossbarError, TechnologyError
from repro.interconnect import (
    Bus,
    NeighbourActivity,
    PiModel,
    SegmentationPlan,
    SegmentedWire,
    Wire,
    average_miller_factor,
    coupling_delay_factor,
    miller_factor,
    optimal_repeaters,
    repeated_wire_delay,
    worst_case_miller_factor,
)


class TestWire:
    def test_resistance_and_capacitance_scale_with_length(self, library):
        short = Wire.on_layer(library, 50e-6)
        long = Wire.on_layer(library, 100e-6)
        assert long.resistance == pytest.approx(2 * short.resistance)
        assert long.capacitance == pytest.approx(2 * short.capacitance)

    def test_pi_model_splits_capacitance_evenly(self, library):
        wire = Wire.on_layer(library, 100e-6)
        pi = wire.pi_model()
        assert pi.near_capacitance == pytest.approx(pi.far_capacitance)
        assert pi.total_capacitance == pytest.approx(wire.capacitance)
        assert pi.resistance == pytest.approx(wire.resistance)

    def test_split_preserves_totals(self, library):
        wire = Wire.on_layer(library, 100e-6)
        near, far = wire.split([0.5, 0.5])
        assert near.resistance + far.resistance == pytest.approx(wire.resistance)
        assert near.capacitance + far.capacitance == pytest.approx(wire.capacitance)

    def test_split_rejects_bad_fractions(self, library):
        wire = Wire.on_layer(library, 100e-6)
        with pytest.raises(TechnologyError):
            wire.split([0.7, 0.7])
        with pytest.raises(TechnologyError):
            wire.split([])

    def test_switching_capacitance_with_miller(self, library):
        wire = Wire.on_layer(library, 100e-6)
        assert wire.switching_capacitance(2.0) > wire.capacitance

    def test_negative_length_rejected(self, library):
        with pytest.raises(TechnologyError):
            Wire(length=-1e-6, model=library.wire_model())


class TestPiModel:
    def test_driver_stage_delay_grows_with_load(self):
        pi = PiModel(10e-15, 500.0, 10e-15).floats()
        assert (PiModel.driver_stage_delay_of_floats(pi, 1000.0, 20e-15)
                > PiModel.driver_stage_delay_of_floats(pi, 1000.0, 5e-15))

    def test_cascade_preserves_total_r_and_c(self):
        a = PiModel(5e-15, 200.0, 5e-15)
        b = PiModel(7e-15, 300.0, 7e-15)
        cascade = PiModel(*PiModel.cascade_of_floats(a.floats(), b.floats()))
        assert cascade.resistance == pytest.approx(500.0)
        assert cascade.total_capacitance == pytest.approx(24e-15)

    def test_cascade_elmore_matches_manual_sum(self):
        a = PiModel(5e-15, 200.0, 5e-15)
        b = PiModel(7e-15, 300.0, 7e-15)
        driver = 1000.0
        load = 10e-15
        # Elmore through the cascade computed edge by edge.
        ln2 = 0.6931471805599453
        manual = ln2 * (
            driver * (24e-15 + load)
            + 200.0 * (5e-15 + 14e-15 + load)
            + 300.0 * (7e-15 + load)
        )
        cascade = PiModel.cascade_of_floats(a.floats(), b.floats())
        assert (PiModel.driver_stage_delay_of_floats(cascade, driver, load)
                == pytest.approx(manual, rel=0.15))

    def test_negative_values_rejected(self):
        with pytest.raises(TechnologyError):
            PiModel(-1e-15, 100.0, 1e-15)


class TestCrosstalk:
    def test_miller_factors(self):
        assert miller_factor(NeighbourActivity.QUIET) == 1.0
        assert miller_factor(NeighbourActivity.SAME_DIRECTION) == 0.0
        assert miller_factor(NeighbourActivity.OPPOSITE_DIRECTION) == 2.0
        assert worst_case_miller_factor() == 2.0

    def test_average_miller_factor_weights(self):
        assert average_miller_factor(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert average_miller_factor(0.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_average_miller_rejects_bad_probabilities(self):
        with pytest.raises(TechnologyError):
            average_miller_factor(0.5, 0.5, 0.5)

    def test_coupling_delay_factor_bounds(self):
        assert coupling_delay_factor(1e-15, 1e-15, 2.0) > 1.0
        assert coupling_delay_factor(1e-15, 1e-15, 0.0) < 1.0
        assert coupling_delay_factor(1e-15, 0.0, 2.0) == pytest.approx(1.0)


class TestBus:
    def test_transition_energy_counts_rising_bits(self, library):
        bus = Bus(8, 100e-6, library.wire_model())
        zero_to_ones = bus.transition_energy(0b0000, 0b1111, 1.0)
        assert zero_to_ones.switched_bits == 4
        assert zero_to_ones.energy > 0

    def test_no_transition_no_energy(self, library):
        bus = Bus(8, 100e-6, library.wire_model())
        transition = bus.transition_energy(0xAA, 0xAA, 1.0)
        assert transition.switched_bits == 0
        assert transition.energy == 0.0

    def test_opposite_toggles_cost_more_than_same_direction(self, library):
        bus = Bus(2, 100e-6, library.wire_model())
        together = bus.transition_energy(0b00, 0b11, 1.0)
        opposite = bus.transition_energy(0b01, 0b10, 1.0)
        assert opposite.energy > together.energy

    def test_random_data_energy_positive_and_scales_with_width(self, library):
        narrow = Bus(32, 100e-6, library.wire_model())
        wide = Bus(128, 100e-6, library.wire_model())
        assert wide.random_data_energy_per_cycle(1.0) == pytest.approx(
            4 * narrow.random_data_energy_per_cycle(1.0)
        )

    def test_total_capacitances(self, library):
        bus = Bus(128, 100e-6, library.wire_model())
        assert bus.total_ground_capacitance() > 0
        assert bus.total_coupling_capacitance() > 0

    def test_invalid_width_rejected(self, library):
        with pytest.raises(TechnologyError):
            Bus(0, 100e-6, library.wire_model())


class TestRepeaters:
    def test_long_wire_gets_multiple_repeaters(self, library):
        wire = Wire.on_layer(library, 2e-3, "global")
        design = optimal_repeaters(library, wire)
        assert design.stage_count >= 2
        assert design.repeater_width > library.minimum_width

    def test_repeated_delay_better_than_unrepeated_for_long_wire(self, library):
        wire = Wire.on_layer(library, 5e-3, "global")
        driver_resistance = 1000.0
        unrepeated = 0.69 * (driver_resistance * wire.capacitance + wire.resistance * wire.capacitance / 2)
        assert repeated_wire_delay(library, wire) < unrepeated

    def test_repeated_delay_scales_roughly_linearly_with_length(self, library):
        one = repeated_wire_delay(library, Wire.on_layer(library, 1e-3, "global"))
        two = repeated_wire_delay(library, Wire.on_layer(library, 2e-3, "global"))
        assert two == pytest.approx(2 * one, rel=0.35)

    def test_zero_length_wire_rejected(self, library):
        with pytest.raises(TechnologyError):
            optimal_repeaters(library, Wire.on_layer(library, 0.0))


class TestSegmentation:
    def test_plan_validation(self):
        with pytest.raises(CrossbarError):
            SegmentationPlan(near_fraction=0.0)
        with pytest.raises(CrossbarError):
            SegmentationPlan(inputs_on_near_segment=4, total_inputs=4)
        with pytest.raises(CrossbarError):
            SegmentationPlan(segment_count=1)

    def test_near_traffic_fraction(self):
        plan = SegmentationPlan(inputs_on_near_segment=2, total_inputs=4)
        assert plan.near_traffic_fraction == pytest.approx(0.5)

    def test_average_switched_fraction_below_one(self):
        plan = SegmentationPlan(near_fraction=0.5, inputs_on_near_segment=2, total_inputs=4)
        assert plan.average_switched_fraction() == pytest.approx(0.75)

    def test_segmented_wire_preserves_totals(self, library):
        wire = Wire.on_layer(library, 100e-6)
        plan = SegmentationPlan()
        segmented = SegmentedWire.from_wire(wire, plan)
        assert segmented.total_resistance == pytest.approx(wire.resistance)
        assert segmented.total_capacitance == pytest.approx(wire.capacitance)

    def test_segmented_average_switched_capacitance_below_total(self, library):
        wire = Wire.on_layer(library, 100e-6)
        segmented = SegmentedWire.from_wire(wire, SegmentationPlan())
        assert segmented.average_switched_capacitance() < segmented.total_capacitance
