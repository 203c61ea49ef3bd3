"""Property-based tests (hypothesis) for the core data structures and
physical invariants the analytical models must respect."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import DeviceRole, DeviceStatistics, LeakageBreakdown
from repro.interconnect import PiModel, SegmentationPlan, SegmentedWire, Wire
from repro.noc import RoundRobinArbiter
from repro.technology import Polarity, VtFlavor, default_45nm, stack_factor, subthreshold_current
from repro.timing import VtCandidate, assign_high_vt

LIBRARY = default_45nm()

common_settings = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestLeakageProperties:
    @common_settings
    @given(
        sub=st.floats(0, 1e-3), gate=st.floats(0, 1e-3), junction=st.floats(0, 1e-3),
        scale=st.floats(0, 1e3),
    )
    def test_breakdown_scaling_is_linear(self, sub, gate, junction, scale):
        breakdown = LeakageBreakdown(sub, gate, junction)
        assert breakdown.scaled(scale).total == pytest.approx(breakdown.total * scale, rel=1e-9)

    @common_settings
    @given(
        a=st.floats(0, 1e-3), b=st.floats(0, 1e-3), c=st.floats(0, 1e-3),
        d=st.floats(0, 1e-3), e=st.floats(0, 1e-3), f=st.floats(0, 1e-3),
    )
    def test_breakdown_addition_commutes(self, a, b, c, d, e, f):
        x = LeakageBreakdown(a, b, c)
        y = LeakageBreakdown(d, e, f)
        assert (x + y).total == pytest.approx((y + x).total, rel=1e-12)

    @common_settings
    @given(vgs=st.floats(0.0, 0.2), vds=st.floats(0.01, 1.0), width=st.floats(1e-7, 1e-5))
    def test_subthreshold_current_monotone_in_vgs_vds_width(self, vgs, vds, width):
        base = subthreshold_current(width, 1.0, vgs, vds, 0.3, 0.1, 0.1)
        more_gate = subthreshold_current(width, 1.0, vgs + 0.05, vds, 0.3, 0.1, 0.1)
        more_drain = subthreshold_current(width, 1.0, vgs, min(vds + 0.2, 1.2), 0.3, 0.1, 0.1)
        wider = subthreshold_current(width * 2, 1.0, vgs, vds, 0.3, 0.1, 0.1)
        assert more_gate >= base
        assert more_drain >= base
        assert wider == pytest.approx(2 * base, rel=1e-9)

    @common_settings
    @given(stack=st.integers(1, 6))
    def test_stack_factor_monotone_and_bounded(self, stack):
        factor = stack_factor(stack)
        assert 0 < factor <= 1.0
        assert stack_factor(stack + 1) <= factor

    @common_settings
    @given(width=st.floats(1e-7, 1e-5))
    def test_high_vt_never_leaks_more_than_nominal(self, width):
        nominal = LIBRARY.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, width)
        high = LIBRARY.make_transistor(Polarity.NMOS, VtFlavor.HIGH, width)
        assert high.off_current() < nominal.off_current()
        assert high.saturation_current() < nominal.saturation_current()


#: One sized device per Vt flavor; the statistics read only the flavor.
FLAVOR_DEVICES = {flavor: LIBRARY.make_transistor(Polarity.NMOS, flavor, 1e-6)
                  for flavor in VtFlavor}

inventory_entries = st.lists(
    st.tuples(st.sampled_from(list(VtFlavor)), st.sampled_from(list(DeviceRole)),
              st.integers(0, 64)),
    max_size=12)


def inventory(entries):
    return [(FLAVOR_DEVICES[flavor], role, count) for flavor, role, count in entries]


class TestDeviceStatisticsProperties:
    @common_settings
    @given(entries=inventory_entries)
    def test_flavor_and_role_counts_each_sum_to_the_device_count(self, entries):
        stats = DeviceStatistics.of_inventory(inventory(entries))
        assert stats.device_count == sum(count for _, _, count in entries)
        assert sum(stats.count_by_flavor.values()) == stats.device_count
        assert sum(stats.count_by_role.values()) == stats.device_count
        assert 0.0 <= stats.high_vt_fraction <= 1.0

    @common_settings
    @given(entries=inventory_entries, data=st.data())
    def test_splitting_or_reordering_entries_leaves_the_statistics(self, entries, data):
        split = []
        for flavor, role, count in entries:
            part = data.draw(st.integers(0, count))
            split += [(flavor, role, part), (flavor, role, count - part)]
        whole = DeviceStatistics.of_inventory(inventory(entries))
        assert DeviceStatistics.of_inventory(inventory(reversed(split))) == whole


class TestInterconnectProperties:
    @common_settings
    @given(length=st.floats(1e-6, 5e-3))
    def test_pi_model_conserves_wire_totals(self, length):
        wire = Wire.on_layer(LIBRARY, length)
        pi = wire.pi_model()
        assert pi.total_capacitance == pytest.approx(wire.capacitance, rel=1e-12)
        assert pi.resistance == pytest.approx(wire.resistance, rel=1e-12)

    @common_settings
    @given(length=st.floats(1e-6, 1e-3), fraction=st.floats(0.05, 0.95))
    def test_wire_split_conserves_totals(self, length, fraction):
        wire = Wire.on_layer(LIBRARY, length)
        near, far = wire.split([fraction, 1.0 - fraction])
        assert near.resistance + far.resistance == pytest.approx(wire.resistance, rel=1e-9)
        assert near.capacitance + far.capacitance == pytest.approx(wire.capacitance, rel=1e-9)

    @common_settings
    @given(
        r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
        c1=st.floats(1e-16, 1e-13), c2=st.floats(1e-16, 1e-13),
    )
    def test_pi_cascade_conserves_totals(self, r1, r2, c1, c2):
        a = PiModel(c1 / 2, r1, c1 / 2)
        b = PiModel(c2 / 2, r2, c2 / 2)
        cascade = PiModel(*PiModel.cascade_of_floats(a.floats(), b.floats()))
        assert cascade.resistance == pytest.approx(r1 + r2, rel=1e-12)
        assert cascade.total_capacitance == pytest.approx(c1 + c2, rel=1e-12)

    @common_settings
    @given(
        near_fraction=st.floats(0.05, 0.95),
        near_inputs=st.integers(1, 3),
    )
    def test_segmentation_switched_fraction_bounded(self, near_fraction, near_inputs):
        plan = SegmentationPlan(near_fraction=near_fraction,
                                inputs_on_near_segment=near_inputs, total_inputs=4)
        segmented = SegmentedWire.from_wire(Wire.on_layer(LIBRARY, 100e-6), plan)
        fraction = segmented.average_switched_capacitance() / segmented.total_capacitance
        assert near_fraction * (1 - 1e-9) <= fraction <= 1.0 + 1e-12


class TestVtAssignmentProperties:
    @common_settings
    @given(
        savings=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
        costs=st.lists(st.floats(0.0, 5e-12), min_size=1, max_size=10),
        budget=st.floats(0.0, 2e-11),
    )
    def test_assignment_respects_slack_budget(self, savings, costs, budget):
        size = min(len(savings), len(costs))
        candidates = [
            VtCandidate(f"c{i}", savings[i], costs[i], on_critical_path=True)
            for i in range(size)
        ]
        result = assign_high_vt(candidates, budget)
        assert result.slack_used <= budget + 1e-18
        assert len(result.selected) + len(result.rejected) == size

    @common_settings
    @given(budget_small=st.floats(0.0, 1e-12), budget_extra=st.floats(0.0, 1e-11))
    def test_more_slack_never_reduces_savings(self, budget_small, budget_extra):
        candidates = [
            VtCandidate("a", 3.0, 1e-12), VtCandidate("b", 2.0, 2e-12), VtCandidate("c", 1.0, 3e-12)
        ]
        small = assign_high_vt(candidates, budget_small)
        large = assign_high_vt(candidates, budget_small + budget_extra)
        assert large.total_leakage_saving >= small.total_leakage_saving


class TestArbiterProperties:
    @common_settings
    @given(request_trace=st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                                  min_size=1, max_size=40))
    def test_arbiter_only_grants_requesting_inputs(self, request_trace):
        arbiter = RoundRobinArbiter(4)
        for requests in request_trace:
            winner = arbiter.grant(requests)
            if winner is None:
                assert not any(requests)
            else:
                assert requests[winner]

    @common_settings
    @given(rounds=st.integers(1, 50))
    def test_arbiter_is_starvation_free_under_full_load(self, rounds):
        arbiter = RoundRobinArbiter(3)
        winners = [arbiter.grant([True, True, True]) for _ in range(3 * rounds)]
        for index in range(3):
            assert winners.count(index) == rounds
