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
leakage, dynamic energy, standby-transition energy, netlist generation)
lives here so that every scheme is analysed with exactly the same
machinery and the Table 1 comparisons are apples-to-apples.

Activity profile
----------------
Every analysis depends on the data activity only through two scalars,
the static probability ``p`` and the toggle activity ``t``; the rest is
structure.  The first analysis of a built scheme therefore derives an
:class:`ActivityProfile` — the delays, the standby leakage, the
capacitance-derived energy terms and each path's leakage split into the
terms of an affine function of ``p`` — and every activity-dependent
method is then a few float multiply-adds on it:

* active and idle leakage are quadratic in ``p`` (the merge-node value
  and the parked input wires both follow it);
* dynamic energy per cycle is affine in ``p`` and ``t``;
* the standby transition energy is affine in ``p``;
* delays and standby leakage do not depend on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..circuit.dynamic import contention_energy, switching_energy
from ..circuit.devices import DeviceRole
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
from ..circuit.netlist import Netlist, NetlistStatistics
from ..errors import CrossbarError
from ..interconnect.pi_model import PiModel
from ..interconnect.segmentation import SegmentationPlan, SegmentedWire
from ..interconnect.wire import Wire
from ..technology.library import TechnologyLibrary
from ..technology.transistor import Mosfet, VtFlavor
from ..timing.delay_analysis import DelayReport, contention_factor, pass_rise_penalty
from ..timing.path import TimingPath, TimingStage
from .ports import CrossbarConfig, PortDirection

__all__ = ["VtPlan", "SchemeFeatures", "ActivityProfile", "CrossbarScheme"]


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


@dataclass(frozen=True)
class ActivityProfile:
    """Everything a built scheme's analyses need that does not depend on
    the data activity (``static_probability`` / ``toggle_activity``).

    Energies are in joules, per output-bit path unless noted; a term a
    scheme does not have (a keeper's contention in a pre-charged scheme,
    say) is zero.
    """

    delay: DelayReport
    standby: LeakageBreakdown
    #: One output-bit path's leakage per ``(merge_high, granted)``, affine
    #: in the probability that an input column wire is parked high.
    path_leakage: dict[tuple[bool, bool], AffineLeakage]
    #: Pre-charged capacitance, re-charged after every evaluated 0.
    precharged_energy: float
    #: Capacitance switched on every rising data transition.
    toggled_energy: float
    #: Keeper contention burned on every falling data transition.
    contention_energy: float
    #: Pre-charge clock load, switched every cycle.
    clocked_energy: float
    #: One input column wire, per rising data transition.
    input_wire_energy: float
    #: Grant-line switching per output port per cycle.
    grant_energy: float
    #: Sleep-control gates switched by one standby entry + exit.
    sleep_control_energy: float
    #: Merge structure re-charged after standby when it was parked high.
    parked_merge_energy: float
    #: Driver internal node flipped by a forced merge-node transition.
    internal_node_energy: float


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
            name="input_driver",
        )
        self.driver1 = Inverter(
            library,
            config.driver1_nmos_width,
            config.driver1_pmos_width,
            nmos_flavor=plan.driver1_nmos,
            pmos_flavor=plan.driver1_pmos,
            name="i1",
        )
        self.driver2 = Inverter(
            library,
            config.driver2_nmos_width,
            config.driver2_pmos_width,
            nmos_flavor=plan.driver2_nmos,
            pmos_flavor=plan.driver2_pmos,
            name="i2",
        )
        self.pass_switch = PassTransistorSwitch(
            library, config.pass_width, flavor=plan.pass_transistor, name="pass"
        )
        self.near_pass_switch = (
            PassTransistorSwitch(
                library, config.pass_width, flavor=plan.near_pass_transistor, name="near_pass"
            )
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
            PassTransistorSwitch(
                library, config.segment_switch_width, flavor=plan.segment_switch, name="segsw"
            )
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
    def _row_pi(self, far_path: bool) -> PiModel:
        """Pi model of the merge (row) wire seen by the worst-case input."""
        if not self.features.segmented:
            return self.row_wire.pi_model()
        near_pi = self.segmented_row.near.pi_model()
        if not far_path:
            return near_pi
        far_pi = self.segmented_row.far.pi_model()
        switch_pi = PiModel(0.0, self.segment_switch.on_resistance(), 0.0)
        return far_pi.cascaded_with(switch_pi).cascaded_with(near_pi)

    def _granted_pass(self, far_path: bool) -> PassTransistorSwitch:
        """The pass switch on the path under analysis."""
        if self.features.segmented and not far_path:
            return self.near_pass_switch
        return self.pass_switch

    def _merge_stage(self, falling: bool, far_path: bool) -> TimingStage:
        """Stage 1: input driver through the pass device onto the merge node."""
        driver_resistance = (
            self.input_driver.pull_down_resistance()
            if falling
            else self.input_driver.pull_up_resistance()
        )
        granted = self._granted_pass(far_path)
        series = granted.on_resistance()
        if not falling:
            # An NMOS pass device pulls high slowly (threshold-drop regime).
            series *= pass_rise_penalty(
                self.supply_voltage, granted.nmos.parameters.threshold_voltage
            )
        wire = self.input_wire.pi_model().cascaded_with(self._row_pi(far_path))
        contention = 1.0
        if falling and self.keeper is not None:
            drive_current = 0.75 * self.supply_voltage / (driver_resistance + series)
            contention = contention_factor(drive_current, self.keeper.opposing_current())
        return TimingStage(
            name="merge",
            driver_resistance=driver_resistance,
            series_resistance=series,
            wire=wire,
            load_capacitance=self.near_merge_capacitance(),
            contention_factor=contention,
        )

    def _driver_stages(self, output_falling: bool) -> list[TimingStage]:
        """Stages 2 and 3: I1 switches the internal node, I2 drives the port wire."""
        if output_falling:
            driver1_resistance = self.driver1.pull_up_resistance()
            driver2_resistance = self.driver2.pull_down_resistance()
        else:
            driver1_resistance = self.driver1.pull_down_resistance()
            driver2_resistance = self.driver2.pull_up_resistance()
        stage2 = TimingStage(
            name="driver1",
            driver_resistance=driver1_resistance,
            load_capacitance=self.internal_node_capacitance(),
        )
        stage3 = TimingStage(
            name="driver2",
            driver_resistance=driver2_resistance,
            wire=self.output_wire.pi_model(),
            load_capacitance=self.output_node_capacitance(),
        )
        return [stage2, stage3]

    def high_to_low_path(self) -> TimingPath:
        """Worst-case path for a falling output (data 0 traversal)."""
        path = TimingPath(name=f"{self.name}:high_to_low")
        path.add_stage(self._merge_stage(falling=True, far_path=True))
        for stage in self._driver_stages(output_falling=True):
            path.add_stage(stage)
        return path

    def low_to_high_path(self) -> TimingPath:
        """Worst-case path for a rising output.

        Feedback schemes propagate the rise through the pass device (with
        the keeper completing the swing); pre-charged schemes report the
        pre-charge path instead, matching the Table 1 row label
        "Low to High / Precharge delay time".
        """
        path = TimingPath(name=f"{self.name}:low_to_high")
        if self.features.has_precharge:
            path.add_stage(
                TimingStage(
                    name="precharge",
                    driver_resistance=self.precharge.on_resistance(),
                    wire=self._row_pi(far_path=True),
                    load_capacitance=self.near_merge_capacitance(),
                )
            )
        else:
            path.add_stage(self._merge_stage(falling=False, far_path=True))
        for stage in self._driver_stages(output_falling=False):
            path.add_stage(stage)
        return path

    def delay_report(self) -> DelayReport:
        """Worst-case delays of this scheme (Table 1 delay rows)."""
        return self.activity_profile.delay

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

    def _expected_path_leakage(self, path_leakage: dict[tuple[bool, bool], AffineLeakage],
                               probability_high: float, probability_input_high: float,
                               granted: bool) -> LeakageBreakdown:
        """Whole-crossbar leakage averaged over the merge-node value distribution."""
        return path_leakage[True, granted].mixed_at(
            path_leakage[False, granted], probability_high, probability_input_high,
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
        self._check_probability(static_probability)
        return self._expected_path_leakage(
            self.activity_profile.path_leakage,
            probability_high=static_probability,
            probability_input_high=static_probability,
            granted=True,
        )

    def idle_leakage(self, static_probability: float = 0.5) -> LeakageBreakdown:
        """Crossbar leakage when idle but *not* in standby.

        No input is granted; the merge node floats at its last evaluated
        value.  This holds for the pre-charged schemes too: the paper
        gates the pre-charge clock off whenever no requests are pending,
        precisely to avoid idle switching, so an idle DPC/SDPC merge node
        also parks at the last data value.
        """
        self._check_probability(static_probability)
        return self._expected_path_leakage(
            self.activity_profile.path_leakage,
            probability_high=static_probability,
            probability_input_high=static_probability,
            granted=False,
        )

    def standby_leakage(self) -> LeakageBreakdown:
        """Crossbar leakage in standby (sleep asserted, Table 1 "standby").

        The sleep devices hold every merge segment at ground, the input
        wires are parked low by the (idle) input ports, and the
        pre-charge clock is gated off.  Schemes without a sleep mode
        simply report their idle leakage.
        """
        return self.activity_profile.standby

    def _sleep_leakage(self) -> LeakageBreakdown:
        """Standby leakage of a scheme with a sleep mode."""
        acc = LeakageAccumulator()
        acc.add(self._driver_chain_leakage(merge_high=False))
        self._add_merge_support_leakage(acc, merge_high=False, standby=True)
        # Off pass devices with all terminals at ground contribute nothing.
        if self.features.segmented:
            self._add_far_support_leakage(acc, far_high=False, far_standby=True)
            self._add_segment_switch_leakage(acc, False, 0.0, 0.0)
        return acc.freeze().scaled(self.output_path_count)

    def active_leakage_power(self, static_probability: float = 0.5) -> float:
        """Active leakage expressed as power (watts)."""
        return self.active_leakage(static_probability).power(self.supply_voltage)

    def standby_leakage_power(self) -> float:
        """Standby leakage expressed as power (watts)."""
        return self.standby_leakage().power(self.supply_voltage)

    # ------------------------------------------------------------------ #
    # dynamic energy / total power                                         #
    # ------------------------------------------------------------------ #
    def _merge_fall_delay(self) -> float:
        """Traffic-averaged delay of the merge-node falling transition.

        Used for the keeper-contention energy: a transfer from a
        near-segment input fights the keeper for much less time than one
        from the far segment, so segmented schemes average the two with
        the traffic split — one of the ways segmentation "mitigates
        dynamic power" in the paper's words.
        """
        far_delay = self._merge_stage(falling=True, far_path=True).delay()
        if not self.features.segmented:
            return far_delay
        near_delay = self._merge_stage(falling=True, far_path=False).delay()
        near_fraction = self.segmentation_plan.near_traffic_fraction
        return near_fraction * near_delay + (1.0 - near_fraction) * far_delay

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
        profile = self.activity_profile
        rising_probability = toggle_activity / 2.0
        per_output_bit = (
            (1.0 - static_probability) * profile.precharged_energy
            + rising_probability * profile.toggled_energy
            + rising_probability * profile.contention_energy
            + profile.clocked_energy
        )
        per_input_bit = rising_probability * profile.input_wire_energy
        return (
            per_output_bit * self.output_path_count
            + per_input_bit * self.input_wire_count
            + profile.grant_energy * self.config.output_count
        )

    def dynamic_power(self, toggle_activity: float = 0.5, static_probability: float = 0.5,
                      frequency: float | None = None) -> float:
        """Average switching power (watts) at the library clock (or ``frequency``)."""
        clock = frequency if frequency is not None else self.library.clock_frequency
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
        profile = self.activity_profile
        parked_high_probability = static_probability
        per_path = (
            profile.sleep_control_energy
            + parked_high_probability * profile.parked_merge_energy
            + parked_high_probability * profile.internal_node_energy
        )
        return per_path * self.output_path_count

    # ------------------------------------------------------------------ #
    # activity profile                                                     #
    # ------------------------------------------------------------------ #
    @cached_property
    def activity_profile(self) -> ActivityProfile:
        """The activity-independent terms of every analysis, derived once.

        Schemes are structurally immutable after construction (and shared
        through the structural cache), so the first analysis pays for the
        circuit walk and every later ``(static_probability,
        toggle_activity)`` point is arithmetic on this profile.
        """
        vdd = self.supply_voltage
        path_leakage = {}
        for merge_high in (True, False):
            node_leakage = self._awake_node_leakage(merge_high)
            for granted in (True, False):
                path_leakage[merge_high, granted] = self._path_leakage(
                    merge_high, granted, node_leakage
                )
        if self.features.has_sleep:
            standby = self._sleep_leakage()
        else:
            standby = self._expected_path_leakage(path_leakage, 0.5, 0.5, granted=False)

        internal_node_energy = switching_energy(self.internal_node_capacitance(), vdd)
        precharged_energy = contention = clocked_energy = 0.0
        if self.features.has_precharge:
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
                contention = contention_energy(
                    self.keeper.opposing_current(), self._merge_fall_delay(), vdd
                )

        # One grant wire per (input, output) pair, loaded by the pass gates
        # of every bit of the flit; a new grant is established on a
        # fraction of cycles (head flits).
        grant_switch_probability = 0.2
        grant_load = self.config.flit_width * self.pass_switch.grant_capacitance()

        sleep_control_energy = parked_merge_energy = 0.0
        if self.features.has_sleep:
            segments = 2 if self.features.segmented else 1
            sleep_control_energy = segments * switching_energy(
                self.sleep.control_capacitance(), vdd
            )
            row_capacitance = (self.segmented_row.total_capacitance if self.features.segmented
                               else self.row_wire.capacitance)
            parked_merge_energy = switching_energy(
                self.merge_capacitance() + row_capacitance, vdd
            )

        return ActivityProfile(
            delay=DelayReport(
                scheme=self.name,
                high_to_low=self.high_to_low_path().delay(),
                low_to_high=self.low_to_high_path().delay(),
            ),
            standby=standby,
            path_leakage=path_leakage,
            precharged_energy=precharged_energy,
            toggled_energy=toggled_energy,
            contention_energy=contention,
            clocked_energy=clocked_energy,
            input_wire_energy=switching_energy(self.input_wire.capacitance, vdd),
            grant_energy=grant_switch_probability * switching_energy(grant_load, vdd),
            sleep_control_energy=sleep_control_energy,
            parked_merge_energy=parked_merge_energy,
            internal_node_energy=internal_node_energy,
        )


    def standby_power_saving(self, static_probability: float = 0.5) -> float:
        """Leakage power saved per second of standby, relative to idling awake (watts)."""
        idle = self.idle_leakage(static_probability).power(self.supply_voltage)
        standby = self.standby_leakage().power(self.supply_voltage)
        return max(idle - standby, 0.0)

    # ------------------------------------------------------------------ #
    # structural netlists                                                  #
    # ------------------------------------------------------------------ #
    def output_path_netlist(self, output: PortDirection | str = PortDirection.PE,
                            bit: int = 0) -> Netlist:
        """Netlist of one output row for one bit — the Fig. 1/2 schematic.

        ``output`` is a :class:`PortDirection` or a name from
        :attr:`CrossbarConfig.port_names` (``"port5"`` and up on radixes
        above five).
        """
        name = output.value if isinstance(output, PortDirection) else output
        netlist = Netlist(f"{self.name}.out_{name}.bit{bit}")
        self._add_output_path(netlist, name, bit)
        return netlist

    def build_netlist(self, bits: int | None = None) -> Netlist:
        """Full structural netlist (all output rows, ``bits`` flit bits).

        ``bits`` defaults to the full flit width; passing a smaller value
        keeps exploratory netlists small.  Input drivers are included so
        the inventory reflects everything the crossbar macro instantiates,
        tagged with the ``INPUT_DRIVER`` role so scope-sensitive analyses
        can filter them out.
        """
        bit_count = self.config.flit_width if bits is None else bits
        if bit_count < 1 or bit_count > self.config.flit_width:
            raise CrossbarError(
                f"bits must be between 1 and the flit width, got {bit_count}"
            )
        netlist = Netlist(f"{self.name}.crossbar")
        ports = self.config.port_names
        for bit in range(bit_count):
            for port in ports:
                self._add_output_path(netlist, port, bit)
            for port in ports:
                prefix = f"in_{port}.bit{bit}"
                input_net = netlist.add_net(f"{prefix}.wire")
                data_net = netlist.add_net(f"{prefix}.data")
                for device in self.input_driver.devices(
                    data_net, input_net, prefix, DeviceRole.INPUT_DRIVER
                ):
                    netlist.add_device(device)
        return netlist

    def _add_output_path(self, netlist: Netlist, output: str, bit: int) -> None:
        """Add one output row (one bit) of port ``output`` to ``netlist``:
        ``inputs_per_output`` crosspoints, one per other port (or every
        port, with self-connection), in port order."""
        config = self.config
        prefix = f"out_{output}.bit{bit}"
        inputs = [port for port in config.port_names
                  if config.allow_self_connection or port != output]
        inputs = inputs[: config.inputs_per_output]
        near_net = netlist.add_net(f"{prefix}.merge_near")
        far_net = netlist.add_net(f"{prefix}.merge_far") if self.features.segmented else near_net
        internal_net = netlist.add_net(f"{prefix}.internal")
        output_net = netlist.add_net(f"{prefix}.port_wire")
        sleep_net = netlist.add_net("sleep")
        precharge_net = netlist.add_net("precharge_n")

        near_count = self._near_inputs()
        for index, port in enumerate(inputs):
            grant_net = netlist.add_net(f"{prefix}.grant_{port}")
            input_net = netlist.add_net(f"in_{port}.bit{bit}.wire")
            on_near_segment = index < near_count or not self.features.segmented
            switch = self.near_pass_switch if (self.features.segmented and on_near_segment) \
                else self.pass_switch
            merge = near_net if on_near_segment else far_net
            for device in switch.devices(grant_net, input_net, merge, f"{prefix}.xp_{port}"):
                netlist.add_device(device)

        if self.features.segmented:
            segment_grant = netlist.add_net(f"{prefix}.segment_connect")
            for device in self.segment_switch.devices(
                segment_grant, far_net, near_net, f"{prefix}.segment",
                role=DeviceRole.SEGMENT_SWITCH,
            ):
                netlist.add_device(device)

        if self.keeper is not None:
            for device in self.keeper.devices(internal_net, near_net, prefix):
                netlist.add_device(device)
        if self.sleep is not None:
            for device in self.sleep.devices(sleep_net, near_net, f"{prefix}.near"):
                netlist.add_device(device)
            if self.features.segmented:
                for device in self.sleep.devices(sleep_net, far_net, f"{prefix}.far"):
                    netlist.add_device(device)
        if self.precharge is not None:
            for device in self.precharge.devices(precharge_net, near_net, f"{prefix}.near"):
                netlist.add_device(device)
            if self.features.segmented:
                for device in self.precharge.devices(precharge_net, far_net, f"{prefix}.far"):
                    netlist.add_device(device)

        for device in self.driver1.devices(near_net, internal_net, f"{prefix}.drv1"):
            netlist.add_device(device)
        for device in self.driver2.devices(internal_net, output_net, f"{prefix}.drv2"):
            netlist.add_device(device)

    def _output_path_inventory(self) -> list[tuple[Mosfet, DeviceRole, int]]:
        """Every device of one output path as ``(device, role, count)``:
        what :meth:`output_path_netlist` instantiates, without the nets."""
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
    def single_bit_statistics(self) -> NetlistStatistics:
        """Device statistics of a single output path (cached), counted
        in closed form: the same counts as
        ``output_path_netlist().statistics()``, without building it."""
        return NetlistStatistics.of_inventory(self._output_path_inventory())

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
