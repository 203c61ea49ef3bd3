"""Shared machinery for the five crossbar schemes (SC, DFC, DPC, SDFC, SDPC).

All five schemes share the same skeleton — a matrix crossbar output row:

* ``inputs_per_output`` NMOS pass transistors (N1-N4 in Fig. 1) connect
  the input column wires to the shared merge node (node A, physically
  the output row wire);
* a two-stage output driver (I1, I2) buffers the merge node onto the
  output port wire;
* either a feedback keeper (P1, Fig. 1) restores the degraded high level
  the NMOS pass devices leave behind, or a clocked pre-charge device
  (P1, Fig. 2) parks the node at Vdd each cycle;
* a sleep transistor (N5) forces the merge node to ground in standby;
* the segmented variants (Fig. 3) split the row wire into a near and a
  far segment joined by a segment switch, with per-segment sleep (and,
  for SDPC, pre-charge) control.

What distinguishes the schemes is captured by two small value objects —
:class:`SchemeFeatures` (which structural options are present) and
:class:`VtPlan` (which devices are high-Vt) — plus the scheme name and
its modelling notes.  The heavy lifting (timing paths, state-dependent
leakage, dynamic energy, standby-transition energy, device inventory)
lives here so that every scheme is analysed with exactly the same
machinery and the Table 1 comparisons are apples-to-apples.  Delays are
stage-based static timing on plain floats: each stage's driver and
series resistance, wire pi model, load and keeper contention go through
:func:`~repro.timing.path.stage_delay`, and a path is the sum of its
stages.

Activity data
-------------
Every analysis depends on the data activity only through two scalars,
the static probability ``p`` and the toggle activity ``t``; the rest is
structure.  A built scheme derives its activity-independent terms once
and every activity point is then a few float multiply-adds on them:

* active and idle leakage are quadratic in ``p`` (the merge-node value
  and the parked input wires both follow it);
* dynamic energy per cycle is affine in ``p`` and ``t``;
* the standby transition energy is affine in ``p``;
* delays and standby leakage do not depend on either.

Device part
-----------
The leakage terms and the high-Vt device fraction depend only on the
technology point, the scheme's features and Vt plan, the device widths
and the number of crosspoints per row — not on the flit width or the
wire geometry.  :meth:`CrossbarScheme.derive_device_part` packs them
into a flat :class:`array.array` of :data:`DEVICE_PART_LENGTH` doubles
(layout below), which the structural cache shares by value across every
crossbar of one library that has the same :data:`DEVICE_PART_FIELDS`.
The rest — the nine energies and the delay report — is the scheme's
geometry (``_geometry``), derived once per scheme as floats.

Record terms: one formula set
-----------------------------
:meth:`CrossbarScheme.derive_record_terms` gathers every term a
point's Table 1 figures read into one flat tuple (layout below): the
path leakage is the device part's first 36 doubles as they stand, the
standby power is :meth:`~CrossbarScheme.standby_leakage`'s power, and
the tail is the geometry.  Two functions hold the only copy of the
activity formulas: :func:`record_leakage` (everything that depends on
the static probability alone: active and standby leakage power, the
standby transition energy and the standby saving) and
:func:`record_dynamic_energy` (the switching energy per cycle, which
also depends on the toggle activity; times the clock, it is the
dynamic power).  The engine's record plan reuses the first across the
points of one static probability and calls the second per point.

The scheme's scalar methods (:meth:`~CrossbarScheme.active_leakage_power`,
:meth:`~CrossbarScheme.dynamic_energy_per_cycle`,
:meth:`~CrossbarScheme.sleep_transition_energy`,
:meth:`~CrossbarScheme.standby_power_saving`, ...) validate their
arguments and read the cached :attr:`~CrossbarScheme.record_terms`
through these functions.  The :class:`LeakageBreakdown` methods
(:meth:`~CrossbarScheme.active_leakage` and its kin) read the same
device part through :attr:`~CrossbarScheme.path_leakage` objects
instead, so the mechanism split — and, through
:class:`~repro.power.LeakageAnalysis`, an independent copy of the
leakage powers — stays available.  ``tests/golden/comparison_records.json``
pins the records, ``tests/test_record_terms.py`` holds the terms equal
to an in-test copy of the older object derivation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ..circuit.dynamic import check_frequency, contention_energy, switching_energy
from ..circuit.devices import DeviceRole, DeviceStatistics
from ..circuit.gates import (
    Inverter,
    Keeper,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
)
from ..circuit.leakage import (
    AffineLeakage,
    AffineLeakageAccumulator,
    LeakageAccumulator,
    LeakageBreakdown,
)
from ..errors import CircuitError, CrossbarError, TechnologyError
from ..interconnect.pi_model import PiModel
from ..interconnect.segmentation import SegmentationPlan, SegmentedWire
from ..interconnect.wire import Wire
from ..technology.library import TechnologyLibrary
from ..technology.transistor import Mosfet, VtFlavor
from ..timing.delay_analysis import DelayReport, contention_factor, pass_rise_penalty
from ..timing.path import stage_delay
from .ports import CrossbarConfig

__all__ = ["VtPlan", "SchemeFeatures", "SchemeFigures", "CrossbarScheme",
           "DEVICE_PART_FIELDS", "DEVICE_PART_LENGTH",
           "record_leakage", "record_dynamic_energy"]

#: The :class:`CrossbarConfig` fields a scheme's device part reads: the
#: crosspoint count per row and the widths of every output-path device.
#: The input driver and the wire geometry are not among them.
DEVICE_PART_FIELDS: tuple[str, ...] = (
    "port_count", "allow_self_connection",
    "pass_width", "keeper_width", "sleep_width", "precharge_width",
    "segment_switch_width",
    "driver1_nmos_width", "driver1_pmos_width",
    "driver2_nmos_width", "driver2_pmos_width",
)

#: ``(merge_high, granted)`` states of :attr:`CrossbarScheme.path_leakage`
#: in device-part order.
_PATH_STATES = ((True, True), (True, False), (False, True), (False, False))
#: Device-part layout: each path state's ``fixed``, ``high`` and ``low``
#: terms as (subthreshold, gate, junction) — 36 doubles — then one
#: path's sleep leakage (three doubles, zero without a sleep mode), then
#: the single-path high-Vt device fraction.
_SLEEP_OFFSET = 9 * len(_PATH_STATES)
_HIGH_VT_OFFSET = _SLEEP_OFFSET + 3
DEVICE_PART_LENGTH = _HIGH_VT_OFFSET + 1
#: Record-terms layout: vdd, then the output-path, input-wire and output
#: counts, then each path state's nine :meth:`AffineLeakage.floats
#: <repro.circuit.leakage.AffineLeakage.floats>` in ``_PATH_STATES``
#: order (granted high, idle high, granted low, idle low), then the
#: standby power, the nine energies (``_geometry`` order) and the delay
#: report.
_TERMS_PATHS, _TERMS_WIRES, _TERMS_OUTPUTS = 1, 2, 3
_TERMS_GRANTED_HIGH, _TERMS_IDLE_HIGH, _TERMS_GRANTED_LOW, _TERMS_IDLE_LOW = 4, 13, 22, 31
_TERMS_STANDBY_POWER = _TERMS_IDLE_LOW + 9
_TERMS_ENERGY = _TERMS_STANDBY_POWER + 1
_TERMS_DELAY = _TERMS_ENERGY + 9


def record_leakage(terms: tuple, static_probability: float
                   ) -> tuple[float, float, float, float]:
    """The leakage half of a point's figures from record terms (see
    :meth:`CrossbarScheme.derive_record_terms`), which depends on the
    static probability alone: the active and standby leakage power (W),
    the energy of one standby entry + exit (J) and the leakage power
    saved in standby relative to idling awake (W).  Unvalidated."""
    p = static_probability
    vdd, paths = terms[0], terms[_TERMS_PATHS]
    mixed_power = AffineLeakage.mixed_power_of_floats
    active_power = mixed_power(terms[_TERMS_GRANTED_HIGH:_TERMS_IDLE_HIGH],
                               terms[_TERMS_GRANTED_LOW:_TERMS_IDLE_LOW], p, p, paths, vdd)
    idle_power = mixed_power(terms[_TERMS_IDLE_HIGH:_TERMS_GRANTED_LOW],
                             terms[_TERMS_IDLE_LOW:_TERMS_STANDBY_POWER], p, p, paths, vdd)
    standby_power = terms[_TERMS_STANDBY_POWER]
    # Standby entry + exit: the sleep-control gates, plus the re-charge of
    # a merge structure parked high before the sleep device discharged it
    # and the driver-internal node flip that comes with it.
    sleep_control, parked_merge, internal_node = terms[_TERMS_ENERGY + 6:_TERMS_DELAY]
    return (active_power, standby_power,
            (sleep_control + p * parked_merge + p * internal_node) * paths,
            max(idle_power - standby_power, 0.0))


def record_dynamic_energy(terms: tuple, static_probability: float,
                          toggle_activity: float) -> float:
    """The whole crossbar's average switching energy per clock cycle (J)
    from record terms; see :meth:`CrossbarScheme.dynamic_energy_per_cycle`.
    Unvalidated."""
    p = static_probability
    precharged, toggled, contention, clocked, input_wire, grant = terms[
        _TERMS_ENERGY:_TERMS_ENERGY + 6]
    rising = toggle_activity / 2.0
    per_output_bit = (1.0 - p) * precharged + rising * toggled + rising * contention + clocked
    per_input_bit = rising * input_wire
    return (per_output_bit * terms[_TERMS_PATHS] + per_input_bit * terms[_TERMS_WIRES]
            + grant * terms[_TERMS_OUTPUTS])


@dataclass(frozen=True)
class VtPlan:
    """Threshold-voltage flavor of every device role in a scheme.

    The plan is the paper's central design decision: which transistors
    can afford to be high-Vt.  The per-scheme modules document the
    reasoning behind each choice.
    """

    pass_transistor: VtFlavor = VtFlavor.NOMINAL
    near_pass_transistor: VtFlavor = VtFlavor.NOMINAL
    keeper: VtFlavor = VtFlavor.NOMINAL
    sleep: VtFlavor = VtFlavor.NOMINAL
    precharge: VtFlavor = VtFlavor.HIGH
    segment_switch: VtFlavor = VtFlavor.NOMINAL
    driver1_nmos: VtFlavor = VtFlavor.NOMINAL
    driver1_pmos: VtFlavor = VtFlavor.NOMINAL
    driver2_nmos: VtFlavor = VtFlavor.NOMINAL
    driver2_pmos: VtFlavor = VtFlavor.NOMINAL
    input_driver: VtFlavor = VtFlavor.NOMINAL


@dataclass(frozen=True)
class SchemeFeatures:
    """Structural options present in a scheme."""

    has_keeper: bool = True
    has_precharge: bool = False
    has_sleep: bool = True
    segmented: bool = False
    #: Pre-charged-high designs park the merge node at Vdd; the paper's
    #: example uses high, but the machinery supports pre-charge-low too.
    precharge_to_high: bool = True
    #: Segmented schemes can put the far segment into standby while the
    #: crossbar is actively using only the near segment — the paper's
    #: "higher probability that some segments of the wires can be put in
    #: standby mode".
    far_segment_sleeps_when_unused: bool = True

    def __post_init__(self) -> None:
        if self.has_keeper and self.has_precharge:
            raise CrossbarError(
                "a merge node has either a feedback keeper or a pre-charge device, not both"
            )


class SchemeFigures(NamedTuple):
    """One scheme's Table 1 figures at one (p, t) point, in SI units."""

    scheme: "CrossbarScheme"
    delay: DelayReport
    active_power: float
    standby_power: float
    dynamic_power: float
    total_power: float
    transition_energy: float
    power_saved_in_standby: float


class CrossbarScheme:
    """Base class: one crossbar design analysed at one technology point.

    Subclasses provide ``name``, ``features`` and ``vt_plan`` (and their
    design rationale); everything else is computed here.
    """

    #: Short scheme name as used in Table 1 (overridden by subclasses).
    name: str = "base"
    #: One-line description for reports.
    description: str = "abstract crossbar scheme"

    def __init__(
        self,
        library: TechnologyLibrary,
        config: CrossbarConfig | None = None,
        *,
        features: SchemeFeatures,
        vt_plan: VtPlan,
    ) -> None:
        self.library = library
        self.config = config if config is not None else CrossbarConfig()
        self.features = features
        self.vt_plan = vt_plan
        self._build_components()

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #
    def _build_components(self) -> None:
        library, config, plan = self.library, self.config, self.vt_plan
        self.input_driver = Inverter(
            library,
            config.input_driver_nmos_width,
            config.input_driver_pmos_width,
            nmos_flavor=plan.input_driver,
            pmos_flavor=plan.input_driver,
        )
        self.driver1 = Inverter(
            library,
            config.driver1_nmos_width,
            config.driver1_pmos_width,
            nmos_flavor=plan.driver1_nmos,
            pmos_flavor=plan.driver1_pmos,
        )
        self.driver2 = Inverter(
            library,
            config.driver2_nmos_width,
            config.driver2_pmos_width,
            nmos_flavor=plan.driver2_nmos,
            pmos_flavor=plan.driver2_pmos,
        )
        self.pass_switch = PassTransistorSwitch(library, config.pass_width,
                                                flavor=plan.pass_transistor)
        self.near_pass_switch = (
            PassTransistorSwitch(library, config.pass_width, flavor=plan.near_pass_transistor)
            if self.features.segmented
            else None
        )
        self.keeper = (
            Keeper(library, config.keeper_width, flavor=plan.keeper)
            if self.features.has_keeper
            else None
        )
        self.sleep = (
            SleepTransistor(library, config.sleep_width, flavor=plan.sleep)
            if self.features.has_sleep
            else None
        )
        self.precharge = (
            PrechargeTransistor(library, config.precharge_width, flavor=plan.precharge)
            if self.features.has_precharge
            else None
        )
        self.segment_switch = (
            PassTransistorSwitch(library, config.segment_switch_width,
                                 flavor=plan.segment_switch)
            if self.features.segmented
            else None
        )
        # Wires.
        self.input_wire = Wire.on_layer(
            library, config.resolved_input_wire_length(library), config.wire_layer
        )
        row_wire = Wire.on_layer(
            library, config.resolved_row_wire_length(library), config.wire_layer
        )
        self.row_wire = row_wire
        if self.features.segmented:
            self.segmentation_plan = SegmentationPlan(
                segment_count=2,
                near_fraction=0.5,
                inputs_on_near_segment=max(1, config.inputs_per_output // 2),
                total_inputs=config.inputs_per_output,
            )
            self.segmented_row = SegmentedWire.from_wire(row_wire, self.segmentation_plan)
        else:
            self.segmentation_plan = None
            self.segmented_row = None
        self.output_wire = Wire.on_layer(
            library, config.resolved_output_wire_length(library), config.wire_layer
        )
        self.receiver_capacitance = config.resolved_receiver_capacitance(library)

    # ------------------------------------------------------------------ #
    # small shared quantities                                              #
    # ------------------------------------------------------------------ #
    @property
    def supply_voltage(self) -> float:
        """Operating supply voltage (volts)."""
        return self.library.supply_voltage

    @property
    def output_path_count(self) -> int:
        """Number of replicated output paths (output ports x flit bits)."""
        return self.config.output_count * self.config.flit_width

    @property
    def input_wire_count(self) -> int:
        """Number of input column wires (input ports x flit bits)."""
        return self.config.port_count * self.config.flit_width

    @property
    def has_sleep_mode(self) -> bool:
        """True if the scheme provides a standby (sleep) mode."""
        return self.features.has_sleep

    def _near_inputs(self) -> int:
        """Crosspoints attached to the near segment (segmented schemes)."""
        if not self.features.segmented:
            return self.config.inputs_per_output
        return self.segmentation_plan.inputs_on_near_segment

    def _far_inputs(self) -> int:
        """Crosspoints attached to the far segment (segmented schemes)."""
        if not self.features.segmented:
            return 0
        return self.config.inputs_per_output - self.segmentation_plan.inputs_on_near_segment

    # -- merge-node capacitances ------------------------------------------------
    def near_merge_capacitance(self) -> float:
        """Lumped device capacitance on the merge node (near segment).

        For non-segmented schemes this is the whole merge node.  Wire
        capacitance is accounted separately through the pi models.
        """
        return self._near_merge_capacitance

    @cached_property
    def _near_merge_capacitance(self) -> float:
        cap = self.driver1.input_capacitance()
        pass_cap = (
            self.near_pass_switch.terminal_capacitance()
            if self.features.segmented
            else self.pass_switch.terminal_capacitance()
        )
        cap += self._near_inputs() * pass_cap
        if self.keeper is not None:
            cap += self.keeper.node_capacitance()
        if self.sleep is not None:
            cap += self.sleep.node_capacitance()
        if self.precharge is not None:
            cap += self.precharge.node_capacitance()
        if self.segment_switch is not None:
            cap += self.segment_switch.terminal_capacitance()
        return cap

    def far_merge_capacitance(self) -> float:
        """Lumped device capacitance on the far-segment merge wire."""
        if not self.features.segmented:
            return 0.0
        cap = self._far_inputs() * self.pass_switch.terminal_capacitance()
        cap += self.segment_switch.terminal_capacitance()
        if self.sleep is not None:
            cap += self.sleep.node_capacitance()
        if self.precharge is not None:
            cap += self.precharge.node_capacitance()
        return cap

    def merge_capacitance(self) -> float:
        """Total device capacitance hanging on the merge structure."""
        return self.near_merge_capacitance() + self.far_merge_capacitance()

    def internal_node_capacitance(self) -> float:
        """Capacitance of the node between I1 and I2 (plus keeper feedback)."""
        return self._internal_node_capacitance

    @cached_property
    def _internal_node_capacitance(self) -> float:
        cap = self.driver1.output_capacitance() + self.driver2.input_capacitance()
        if self.keeper is not None:
            cap += self.keeper.feedback_capacitance()
        return cap

    def output_node_capacitance(self) -> float:
        """Device capacitance on the output port wire (driver diffusion + receiver)."""
        return self.driver2.output_capacitance() + self.receiver_capacitance

    # ------------------------------------------------------------------ #
    # timing                                                               #
    # ------------------------------------------------------------------ #
    def _row_pi_floats(self, far_path: bool) -> tuple[float, float, float]:
        """Pi model (:meth:`PiModel.floats <repro.interconnect.PiModel.floats>`)
        of the merge (row) wire seen by the worst-case input."""
        if not self.features.segmented:
            return self.row_wire.pi_model().floats()
        near_pi = self.segmented_row.near.pi_model().floats()
        if not far_path:
            return near_pi
        switch_resistance = self.segment_switch.on_resistance()
        if switch_resistance < 0:
            # PiModel(0.0, switch_resistance, 0.0)'s check.
            raise TechnologyError("pi-model resistance cannot be negative")
        cascade = PiModel.cascade_of_floats
        return cascade(cascade(self.segmented_row.far.pi_model().floats(),
                               (0.0, switch_resistance, 0.0)), near_pi)

    def _granted_pass(self, far_path: bool) -> PassTransistorSwitch:
        """The pass switch on the path under analysis."""
        if self.features.segmented and not far_path:
            return self.near_pass_switch
        return self.pass_switch

    def _merge_delay(self, falling: bool, far_path: bool) -> float:
        """Stage 1: the input driver through the input wire, the pass
        device and the row wire onto the merge node, fighting the keeper
        when it falls."""
        vdd = self.supply_voltage
        driver_resistance = (
            self.input_driver.pull_down_resistance()
            if falling
            else self.input_driver.pull_up_resistance()
        )
        granted = self._granted_pass(far_path)
        series = granted.on_resistance()
        if not falling:
            # An NMOS pass device pulls high slowly (threshold-drop regime).
            series *= pass_rise_penalty(vdd, granted.nmos.parameters.threshold_voltage)
        wire = PiModel.cascade_of_floats(self.input_wire.pi_model().floats(),
                                         self._row_pi_floats(far_path))
        contention = 1.0
        if falling and self.keeper is not None:
            drive_current = 0.75 * vdd / (driver_resistance + series)
            contention = contention_factor(drive_current, self.keeper.opposing_current())
        return stage_delay("merge", driver_resistance, self.near_merge_capacitance(),
                           wire, series, contention)

    def _driver_delays(self, output_falling: bool) -> tuple[float, float]:
        """Stages 2 and 3: I1 switches the internal node, I2 drives the port wire."""
        if output_falling:
            driver1_resistance = self.driver1.pull_up_resistance()
            driver2_resistance = self.driver2.pull_down_resistance()
        else:
            driver1_resistance = self.driver1.pull_down_resistance()
            driver2_resistance = self.driver2.pull_up_resistance()
        driver1 = stage_delay("driver1", driver1_resistance, self.internal_node_capacitance())
        driver2 = stage_delay("driver2", driver2_resistance, self.output_node_capacitance(),
                              self.output_wire.pi_model().floats())
        return driver1, driver2

    def delay_report(self) -> DelayReport:
        """Worst-case delays of this scheme (Table 1 delay rows)."""
        return self.record_terms[_TERMS_DELAY]

    # ------------------------------------------------------------------ #
    # leakage                                                              #
    # ------------------------------------------------------------------ #
    def _driver_chain_leakage(self, merge_high: bool) -> LeakageBreakdown:
        """Leakage of I1 + I2 for a given merge-node value."""
        return self.driver1.leakage(merge_high) + self.driver2.leakage(not merge_high)

    def _add_pass_bank_leakage(
        self,
        terms: AffineLeakageAccumulator,
        switch: PassTransistorSwitch,
        count_off: int,
        node_voltage: float,
        weight: float = 1.0,
    ) -> None:
        """Accumulate the leakage of ``count_off`` off pass devices.

        Each device leaks at one of two bias points — its input wire
        parked high or parked low — so the bank lands in the ``high`` and
        ``low`` terms of the path, weighted later by the probability that
        an input is high.  Each bias point is evaluated once and
        multiplied by the population (times ``weight``, the probability
        of the circuit state the bank is in), not re-derived per port.
        """
        if count_off <= 0:
            return
        vdd = self.supply_voltage
        terms.high.add(switch.leakage(False, vdd, node_voltage), count_off * weight)
        terms.low.add(switch.leakage(False, 0.0, node_voltage), count_off * weight)

    def _add_merge_support_leakage(self, acc: LeakageAccumulator,
                                   merge_high: bool, standby: bool) -> None:
        """Keeper / sleep / pre-charge leakage on the near merge node."""
        vdd = self.supply_voltage
        node_voltage = vdd if merge_high else 0.0
        if self.keeper is not None:
            acc.add(self.keeper.leakage(merge_high))
        if self.sleep is not None:
            acc.add(self.sleep.leakage(standby, node_voltage))
        if self.precharge is not None:
            # Pre-charge is disabled (gate high, device off) in standby and,
            # during active evaluation, off for the phase that matters.
            acc.add(self.precharge.leakage(False, node_voltage))

    def _add_far_support_leakage(self, acc: LeakageAccumulator, far_high: bool,
                                 far_standby: bool, weight: float = 1.0) -> None:
        """Sleep / pre-charge devices attached to the far segment."""
        if not self.features.segmented:
            return
        vdd = self.supply_voltage
        node_voltage = vdd if far_high else 0.0
        if self.sleep is not None:
            acc.add(self.sleep.leakage(far_standby, node_voltage), weight)
        if self.precharge is not None:
            acc.add(self.precharge.leakage(False, node_voltage), weight)

    def _add_segment_switch_leakage(self, acc: LeakageAccumulator, connected: bool,
                                    far_voltage: float, near_voltage: float,
                                    weight: float = 1.0) -> None:
        """Leakage of the segment switch for the given connection state."""
        if self.segment_switch is not None:
            acc.add(self.segment_switch.leakage(connected, far_voltage, near_voltage), weight)

    def _awake_node_leakage(self, merge_high: bool) -> LeakageBreakdown:
        """Output driver chain plus the near merge node's keeper / sleep /
        pre-charge devices, awake: common to every active or idle state
        with the given merge-node value."""
        acc = LeakageAccumulator()
        acc.add(self._driver_chain_leakage(merge_high))
        self._add_merge_support_leakage(acc, merge_high, standby=False)
        return acc.freeze()

    def _path_leakage_unsegmented(self, merge_high: bool, granted: bool,
                                  node_leakage: LeakageBreakdown) -> AffineLeakage:
        """One output-bit path, non-segmented schemes."""
        vdd = self.supply_voltage
        node_voltage = vdd if merge_high else 0.0
        terms = AffineLeakageAccumulator()
        fixed = terms.fixed
        fixed.add(node_leakage)
        off_count = self.config.inputs_per_output - (1 if granted else 0)
        self._add_pass_bank_leakage(terms, self.pass_switch, off_count, node_voltage)
        if granted:
            fixed.add(self.pass_switch.leakage(True, node_voltage, node_voltage))
        return terms.freeze()

    def _path_leakage_segmented(self, merge_high: bool, granted: bool,
                                node_leakage: LeakageBreakdown) -> AffineLeakage:
        """One output-bit path, segmented schemes (SDFC / SDPC).

        Conditioned on where the granted input sits: with probability
        ``near_traffic_fraction`` the transfer uses only the near
        segment and — if the feature is enabled — the far segment is put
        into standby (its wire held at ground by its own sleep device);
        otherwise both segments are live and joined by the segment
        switch.  Each case is affine in the input-high probability, so
        the traffic-weighted mix is accumulated in one pass: devices
        whose state differs between the cases enter at their case's
        weight, ``node_leakage`` (the same in both cases) enters once.
        """
        vdd = self.supply_voltage
        node_voltage = vdd if merge_high else 0.0
        near_fraction = self.segmentation_plan.near_traffic_fraction if granted else 1.0
        far_fraction = 1.0 - near_fraction
        terms = AffineLeakageAccumulator()
        fixed = terms.fixed
        fixed.add(node_leakage)

        # Case 1: transfer (or idle value) confined to the near segment.
        far_sleeps = self.features.far_segment_sleeps_when_unused
        far_voltage_case1 = 0.0 if far_sleeps else node_voltage
        self._add_pass_bank_leakage(
            terms, self.near_pass_switch, self._near_inputs() - (1 if granted else 0),
            node_voltage, near_fraction,
        )
        if granted:
            fixed.add(self.near_pass_switch.leakage(True, node_voltage, node_voltage),
                      near_fraction)
        self._add_pass_bank_leakage(
            terms, self.pass_switch, self._far_inputs(), far_voltage_case1, near_fraction
        )
        self._add_far_support_leakage(
            fixed, far_high=far_voltage_case1 > 0, far_standby=far_sleeps,
            weight=near_fraction,
        )
        self._add_segment_switch_leakage(
            fixed, False, far_voltage_case1, node_voltage, weight=near_fraction
        )

        # Case 2: transfer comes from the far segment; both segments live.
        # An idle path (nothing granted) is always in case 1.
        if far_fraction > 0.0:
            self._add_pass_bank_leakage(
                terms, self.near_pass_switch, self._near_inputs(), node_voltage, far_fraction
            )
            far_off = self._far_inputs() - (1 if granted else 0)
            self._add_pass_bank_leakage(
                terms, self.pass_switch, far_off, node_voltage, far_fraction
            )
            if granted:
                fixed.add(self.pass_switch.leakage(True, node_voltage, node_voltage),
                          far_fraction)
            self._add_far_support_leakage(
                fixed, far_high=merge_high, far_standby=False, weight=far_fraction
            )
            self._add_segment_switch_leakage(
                fixed, True, node_voltage, node_voltage, weight=far_fraction
            )
        return terms.freeze()

    def _path_leakage(self, merge_high: bool, granted: bool,
                      node_leakage: LeakageBreakdown) -> AffineLeakage:
        """One output-bit path in active (or idle-awake) mode;
        ``node_leakage`` is :meth:`_awake_node_leakage` for ``merge_high``."""
        if self.features.segmented:
            return self._path_leakage_segmented(merge_high, granted, node_leakage)
        return self._path_leakage_unsegmented(merge_high, granted, node_leakage)

    @cached_property
    def path_leakage(self) -> dict[tuple[bool, bool], AffineLeakage]:
        """One output-bit path's leakage per ``(merge_high, granted)``,
        affine in the probability that an input column wire is parked
        high: the device part's path terms as objects, built once."""
        part = self.device_part
        return {state: AffineLeakage.from_floats(part, 9 * index)
                for index, state in enumerate(_PATH_STATES)}

    def _expected_path_leakage(self, probability: float, granted: bool) -> LeakageBreakdown:
        """Whole-crossbar leakage averaged over the merge-node value
        distribution; the merge node and the parked input wires are high
        with ``probability``."""
        self._check_probability(probability)
        path_leakage = self.path_leakage
        return path_leakage[True, granted].mixed_at(
            path_leakage[False, granted], probability, probability,
            scale=self.output_path_count,
        )

    def active_leakage(self, static_probability: float = 0.5) -> LeakageBreakdown:
        """Total crossbar leakage while transferring flits (Table 1 "active").

        ``static_probability`` is the probability that a data bit (and
        therefore the merge node) sits at logic 1; the paper uses 0.5.
        The crossbar input drivers belong to the router input port (their
        leakage is the subject of reference [1]) and are excluded, which
        matches the paper's crossbar-only scope.
        """
        return self._expected_path_leakage(static_probability, granted=True)

    def idle_leakage(self, static_probability: float = 0.5) -> LeakageBreakdown:
        """Crossbar leakage when idle but *not* in standby.

        No input is granted; the merge node floats at its last evaluated
        value.  This holds for the pre-charged schemes too: the paper
        gates the pre-charge clock off whenever no requests are pending,
        precisely to avoid idle switching, so an idle DPC/SDPC merge node
        also parks at the last data value.
        """
        return self._expected_path_leakage(static_probability, granted=False)

    def standby_leakage(self) -> LeakageBreakdown:
        """Crossbar leakage in standby (sleep asserted, Table 1 "standby").

        The sleep devices hold every merge segment at ground, the input
        wires are parked low by the (idle) input ports, and the
        pre-charge clock is gated off.  Schemes without a sleep mode
        simply report their idle leakage at ``static_probability`` 0.5.
        """
        if not self.features.has_sleep:
            return self.idle_leakage(0.5)
        sleep = LeakageBreakdown(*self.device_part[_SLEEP_OFFSET:_HIGH_VT_OFFSET])
        return sleep.scaled(self.output_path_count)

    def _sleep_path_leakage(self) -> LeakageBreakdown:
        """One output-bit path's standby leakage (sleep mode asserted)."""
        acc = LeakageAccumulator()
        acc.add(self._driver_chain_leakage(merge_high=False))
        self._add_merge_support_leakage(acc, merge_high=False, standby=True)
        # Off pass devices with all terminals at ground contribute nothing.
        if self.features.segmented:
            self._add_far_support_leakage(acc, far_high=False, far_standby=True)
            self._add_segment_switch_leakage(acc, False, 0.0, 0.0)
        return acc.freeze()

    def active_leakage_power(self, static_probability: float = 0.5) -> float:
        """Active leakage expressed as power (watts)."""
        self._check_probability(static_probability)
        return record_leakage(self.record_terms, static_probability)[0]

    def standby_leakage_power(self) -> float:
        """Standby leakage expressed as power (watts)."""
        return self.record_terms[_TERMS_STANDBY_POWER]

    # ------------------------------------------------------------------ #
    # dynamic energy / total power                                         #
    # ------------------------------------------------------------------ #
    def _row_switched_capacitance(self) -> float:
        """Average row-wire capacitance switched per transfer (farads)."""
        if self.features.segmented:
            return self.segmented_row.average_switched_capacitance()
        return self.row_wire.capacitance

    def _switched_merge_device_capacitance(self) -> float:
        """Average merge-structure device capacitance switched per transfer.

        Near-segment transfers leave the far segment (and the device
        capacitance hanging on it) untouched.
        """
        if not self.features.segmented:
            return self.merge_capacitance()
        near_fraction = self.segmentation_plan.near_traffic_fraction
        return self.near_merge_capacitance() + (1.0 - near_fraction) * self.far_merge_capacitance()

    def data_path_capacitance(self) -> float:
        """Capacitance switched by one output-bit data transition (farads).

        Covers the merge structure, the row wire, the driver internal
        node and the output port wire with its receiver.  The input
        column wire is accounted separately (per input port, not per
        output path).
        """
        return (
            self._switched_merge_device_capacitance()
            + self._row_switched_capacitance()
            + self.internal_node_capacitance()
            + self.output_wire.capacitance
            + self.output_node_capacitance()
        )

    def dynamic_energy_per_cycle(self, toggle_activity: float = 0.5,
                                 static_probability: float = 0.5) -> float:
        """Average switching energy per clock cycle for the whole crossbar (joules).

        Assumes every output port transfers one flit per cycle (the
        saturated-crossbar condition the paper's power row uses) with the
        given data ``toggle_activity`` (probability a bit changes value
        between consecutive flits) and ``static_probability`` (probability
        a bit is at logic 1).

        Pre-charged schemes re-charge their evaluated path after every 0
        (probability ``1 - static_probability``, whatever the previous
        value), toggle the driver internal node with the data and clock
        the pre-charge gate every cycle.  Feedback schemes switch the
        whole data path on every rising transition and fight the keeper
        on every falling one.  Grant lines switch on the fraction of
        cycles that establish a new grant (head flits).
        """
        self._check_probability(static_probability)
        self._check_probability(toggle_activity)
        return record_dynamic_energy(self.record_terms, static_probability, toggle_activity)

    def dynamic_power(self, toggle_activity: float = 0.5, static_probability: float = 0.5,
                      frequency: float | None = None) -> float:
        """Average switching power (watts) at the library clock (or ``frequency``)."""
        clock = frequency if frequency is not None else self.library.clock_frequency
        check_frequency(clock)
        return self.dynamic_energy_per_cycle(toggle_activity, static_probability) * clock

    def total_power(self, toggle_activity: float = 0.5, static_probability: float = 0.5,
                    frequency: float | None = None) -> float:
        """Total crossbar power = switching + active leakage (watts)."""
        return self.dynamic_power(toggle_activity, static_probability, frequency) + \
            self.active_leakage_power(static_probability)

    # ------------------------------------------------------------------ #
    # standby (sleep) transitions                                          #
    # ------------------------------------------------------------------ #
    def sleep_transition_energy(self, static_probability: float = 0.5) -> float:
        """Energy cost of one standby entry + exit for the whole crossbar (joules).

        Components: switching the sleep-control gates (entry and exit),
        plus the re-charge of merge wires that were parked high before the
        sleep device discharged them (charge that would not have been
        spent had the crossbar stayed awake), plus the driver-internal
        node flip that accompanies the forced transition.
        """
        if not self.features.has_sleep:
            return 0.0
        self._check_probability(static_probability)
        return record_leakage(self.record_terms, static_probability)[2]

    # ------------------------------------------------------------------ #
    # record terms                                                         #
    # ------------------------------------------------------------------ #
    @cached_property
    def _geometry(self) -> tuple:
        """The nine energies (in joules, per output-bit path unless
        noted) and the :class:`DelayReport`, derived once from the
        capacitances and the stage delays as floats: the tail of the
        record terms.  A term a scheme does not have (a keeper's
        contention in a pre-charged scheme, say) is zero.  In order: the
        pre-charged capacitance, re-charged after every evaluated 0; the
        capacitance switched on every rising data transition; keeper
        contention burned on every falling one; the pre-charge clock
        load, switched every cycle; one input column wire per rising
        transition; grant-line switching per output port per cycle; the
        sleep-control gates of one standby entry + exit; the merge
        structure re-charged after standby when it was parked high; the
        driver internal node flipped by that forced transition.

        The falling far-path merge stage is computed once and serves both
        the high-to-low delay and the keeper-contention energy.
        """
        vdd = self.supply_voltage
        features = self.features
        internal_node_energy = switching_energy(self.internal_node_capacitance(), vdd)
        merge_fall = None
        precharged_energy = contention = clocked_energy = 0.0
        if features.has_precharge:
            precharged_energy = switching_energy(
                self._switched_merge_device_capacitance()
                + self._row_switched_capacitance()
                + self.output_wire.capacitance
                + self.output_node_capacitance(),
                vdd,
            )
            toggled_energy = internal_node_energy
            clocked_energy = switching_energy(self.precharge.control_capacitance(), vdd)
        else:
            toggled_energy = switching_energy(self.data_path_capacitance(), vdd)
            if self.keeper is not None:
                # Traffic-averaged delay of the merge-node fall: a transfer
                # from a near-segment input fights the keeper for much less
                # time than one from the far segment, one of the ways
                # segmentation "mitigates dynamic power" in the paper's words.
                merge_fall = self._merge_delay(falling=True, far_path=True)
                fight = merge_fall
                if features.segmented:
                    near_delay = self._merge_delay(falling=True, far_path=False)
                    near_fraction = self.segmentation_plan.near_traffic_fraction
                    fight = near_fraction * near_delay + (1.0 - near_fraction) * merge_fall
                contention = contention_energy(self.keeper.opposing_current(), fight, vdd)

        # One grant wire per (input, output) pair, loaded by the pass gates
        # of every bit of the flit; a new grant is established on a
        # fraction of cycles (head flits).
        grant_switch_probability = 0.2
        grant_load = self.config.flit_width * self.pass_switch.grant_capacitance()

        sleep_control_energy = parked_merge_energy = 0.0
        if features.has_sleep:
            segments = 2 if features.segmented else 1
            sleep_control_energy = segments * switching_energy(
                self.sleep.control_capacitance(), vdd
            )
            row_capacitance = (self.segmented_row.total_capacitance if features.segmented
                               else self.row_wire.capacitance)
            parked_merge_energy = switching_energy(
                self.merge_capacitance() + row_capacitance, vdd
            )

        # Worst-case paths, each the sum of its stage delays.  Falling
        # output: the data 0 through the far-path pass device.  Rising
        # output: feedback schemes propagate the rise through the pass
        # device (the keeper completes the swing); pre-charged schemes
        # report the pre-charge path instead, matching the Table 1 row
        # label "Low to High / Precharge delay time".
        if merge_fall is None:
            merge_fall = self._merge_delay(falling=True, far_path=True)
        driver1, driver2 = self._driver_delays(output_falling=True)
        high_to_low = merge_fall + driver1 + driver2
        if features.has_precharge:
            merge_rise = stage_delay("precharge", self.precharge.on_resistance(),
                                     self.near_merge_capacitance(),
                                     self._row_pi_floats(far_path=True))
        else:
            merge_rise = self._merge_delay(falling=False, far_path=True)
        driver1, driver2 = self._driver_delays(output_falling=False)
        delay = DelayReport(scheme=self.name, high_to_low=high_to_low,
                            low_to_high=merge_rise + driver1 + driver2)

        return (
            precharged_energy, toggled_energy, contention, clocked_energy,
            switching_energy(self.input_wire.capacitance, vdd),
            grant_switch_probability * switching_energy(grant_load, vdd),
            sleep_control_energy, parked_merge_energy, internal_node_energy,
            delay,
        )

    @cached_property
    def record_terms(self) -> tuple:
        """This scheme's :meth:`derive_record_terms`, derived once: a pure
        function of the immutable scheme."""
        return self.derive_record_terms()

    def derive_record_terms(self) -> tuple:
        """The flat tuple :func:`record_leakage` and
        :func:`record_dynamic_energy` read (layout at ``_TERMS_PATHS``):
        the path leakage straight from :attr:`device_part` (already in
        record-terms order), the power of :meth:`standby_leakage` and the
        tail from :attr:`_geometry`.

        Checks, in order: the path terms are non-negative, then the
        standby breakdown's checks, the geometry's and the supply's.
        """
        vdd = self.supply_voltage
        leakage = self.device_part[:_SLEEP_OFFSET]
        if min(leakage) < 0:
            # AffineLeakage.from_floats' check.
            raise CircuitError("leakage components cannot be negative")
        standby = self.standby_leakage()
        geometry = self._geometry
        return (
            vdd, self.output_path_count, self.input_wire_count, self.config.output_count,
            *leakage, standby.power(vdd), *geometry,
        )

    def figures_from_record_terms(self, terms: tuple, static_probability: float,
                                  toggle_activity: float, frequency: float) -> SchemeFigures:
        """This scheme's figures at one point from ``terms`` (its
        :meth:`derive_record_terms`): the leakage half
        (:func:`record_leakage`) and the dynamic power
        (:func:`record_dynamic_energy` times ``frequency``).

        Unvalidated: :func:`repro.power.savings.scheme_figures` checks
        both probabilities lie in [0, 1], ``frequency`` is positive and
        the scheme has a sleep mode.
        """
        active_power, standby_power, transition_energy, saved = record_leakage(
            terms, static_probability)
        dynamic_power = record_dynamic_energy(terms, static_probability,
                                              toggle_activity) * frequency
        return SchemeFigures(self, terms[_TERMS_DELAY], active_power, standby_power,
                             dynamic_power, dynamic_power + active_power, transition_energy,
                             saved)

    @cached_property
    def device_part(self) -> array:
        """This scheme's device part (see the module docstring): derived
        on first use unless the structural cache assigned a shared one."""
        return self.derive_device_part()

    def derive_device_part(self) -> array:
        """Walk the circuit for the device part: every path state's
        affine leakage, one path's sleep leakage and the single-path
        high-Vt device fraction, as :data:`DEVICE_PART_LENGTH` doubles.

        Reads only the library, :attr:`features`, :attr:`vt_plan` and
        the :data:`DEVICE_PART_FIELDS` of :attr:`config`: the structural
        cache shares parts on exactly that key, so a subclass's leakage
        must not read more.
        """
        values: list[float] = []
        # _PATH_STATES order; both granted states share the node leakage.
        for merge_high in (True, False):
            node_leakage = self._awake_node_leakage(merge_high)
            for granted in (True, False):
                values.extend(self._path_leakage(merge_high, granted, node_leakage).floats())
        sleep = self._sleep_path_leakage() if self.features.has_sleep else LeakageBreakdown()
        values.extend((sleep.subthreshold, sleep.gate, sleep.junction))
        values.append(self.single_bit_statistics.high_vt_fraction)
        return array("d", values)

    @property
    def high_vt_device_fraction(self) -> float:
        """Fraction of one output path's devices that are high-Vt (the
        Table 1 record field), read from :attr:`device_part`."""
        return self.device_part[_HIGH_VT_OFFSET]

    def standby_power_saving(self, static_probability: float = 0.5) -> float:
        """Leakage power saved per second of standby, relative to idling awake (watts)."""
        self._check_probability(static_probability)
        return record_leakage(self.record_terms, static_probability)[3]

    # ------------------------------------------------------------------ #
    # device inventory                                                     #
    # ------------------------------------------------------------------ #
    def output_path_inventory(self) -> list[tuple[Mosfet, DeviceRole, int]]:
        """Every device of one output row, one bit wide (the Fig. 1/2/3
        schematic), as ``(device, role, count)`` entries: the
        ``inputs_per_output`` crosspoints (split near/far when
        segmented, plus the segment switch), the keeper or pre-charge
        device and the sleep device (one per segment each), and the two
        driver inverters."""
        inputs = self.config.inputs_per_output
        segments = 2 if self.features.segmented else 1
        if self.features.segmented:
            near = self._near_inputs()
            inventory = [
                (self.near_pass_switch.nmos, DeviceRole.PASS_TRANSISTOR, near),
                (self.pass_switch.nmos, DeviceRole.PASS_TRANSISTOR, inputs - near),
                (self.segment_switch.nmos, DeviceRole.SEGMENT_SWITCH, 1),
            ]
        else:
            inventory = [(self.pass_switch.nmos, DeviceRole.PASS_TRANSISTOR, inputs)]
        if self.keeper is not None:
            inventory.append((self.keeper.pmos, DeviceRole.KEEPER, 1))
        if self.sleep is not None:
            inventory.append((self.sleep.nmos, DeviceRole.SLEEP, segments))
        if self.precharge is not None:
            inventory.append((self.precharge.pmos, DeviceRole.PRECHARGE, segments))
        for driver in (self.driver1, self.driver2):
            inventory.append((driver.pmos, DeviceRole.DRIVER, 1))
            inventory.append((driver.nmos, DeviceRole.DRIVER, 1))
        return inventory

    @cached_property
    def single_bit_statistics(self) -> DeviceStatistics:
        """Device statistics of a single output path (cached), counted
        from :meth:`output_path_inventory`."""
        return DeviceStatistics.of_inventory(self.output_path_inventory())

    # ------------------------------------------------------------------ #
    # misc                                                                 #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_probability(value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise CrossbarError(f"probabilities must be in [0, 1], got {value}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(ports={self.config.port_count}, "
            f"flit={self.config.flit_width}, node={self.library.node.name})"
        )
