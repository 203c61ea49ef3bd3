"""Tests for the interconnect substrate: wires, pi models, repeaters
and segmentation."""

from __future__ import annotations

import pytest

from repro.errors import CrossbarError, TechnologyError
from repro.interconnect import (
    PiModel,
    RepeaterDesign,
    SegmentationPlan,
    SegmentedWire,
    Wire,
    optimal_repeaters,
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

    def test_negative_length_rejected(self, library):
        with pytest.raises(TechnologyError):
            Wire(length=-1e-6, model=library.wire_model())

    def test_neighbour_count_outside_zero_to_two_rejected(self, library):
        with pytest.raises(TechnologyError):
            Wire(length=1e-6, model=library.wire_model(), neighbours=3)


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


class TestRepeaters:
    def test_long_wire_gets_multiple_repeaters(self, library):
        wire = Wire.on_layer(library, 2e-3, "global")
        design = optimal_repeaters(library, wire)
        assert design.stage_count >= 2
        assert design.repeater_width > library.minimum_width

    def test_zero_length_wire_rejected(self, library):
        with pytest.raises(TechnologyError):
            optimal_repeaters(library, Wire.on_layer(library, 0.0))

    def test_short_wire_gets_one_stage(self, library):
        design = optimal_repeaters(library, Wire.on_layer(library, 20e-6))
        assert design.stage_count == 1
        assert design.total_delay == pytest.approx(design.stage_delay)

    def test_design_without_stages_rejected(self):
        with pytest.raises(TechnologyError):
            RepeaterDesign(stage_count=0, repeater_width=1e-7, stage_delay=1e-12,
                           total_delay=0.0, total_repeater_capacitance=0.0)

    def test_repeated_delay_better_than_unrepeated_for_long_wire(self, library):
        wire = Wire.on_layer(library, 5e-3, "global")
        driver_resistance = 1000.0
        unrepeated = 0.69 * (driver_resistance * wire.capacitance + wire.resistance * wire.capacitance / 2)
        assert optimal_repeaters(library, wire).total_delay < unrepeated

    def test_repeated_delay_scales_roughly_linearly_with_length(self, library):
        one = optimal_repeaters(library, Wire.on_layer(library, 1e-3, "global")).total_delay
        two = optimal_repeaters(library, Wire.on_layer(library, 2e-3, "global")).total_delay
        assert two == pytest.approx(2 * one, rel=0.35)


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

    def test_average_switched_fraction_below_one(self, library):
        plan = SegmentationPlan(near_fraction=0.5, inputs_on_near_segment=2, total_inputs=4)
        segmented = SegmentedWire.from_wire(Wire.on_layer(library, 100e-6), plan)
        fraction = segmented.average_switched_capacitance() / segmented.total_capacitance
        assert fraction == pytest.approx(0.75)

    def test_near_segment_holds_its_share_of_the_wire(self, library):
        wire = Wire.on_layer(library, 100e-6)
        segmented = SegmentedWire.from_wire(wire, SegmentationPlan(near_fraction=0.3))
        assert segmented.near.resistance == pytest.approx(0.3 * wire.resistance)
        assert segmented.far.capacitance == pytest.approx(0.7 * wire.capacitance)
