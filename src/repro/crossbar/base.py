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
lives here and in :mod:`repro.crossbar.frame`, so that every scheme is
analysed with exactly the same machinery and the Table 1 comparisons
are apples-to-apples.  Delays are
stage-based static timing on plain floats: each stage's driver and
series resistance, wire pi model, load and keeper contention go through
:func:`~repro.timing.path.stage_delay`, and a path is the sum of its
stages.

The frame
---------
A scheme's analysis reads a :class:`~repro.crossbar.frame.CrossbarFrame`
(:mod:`repro.crossbar.frame`): the wires, segmented row and sized
devices' figures of its (library, crossbar) as floats, through the
scheme's :attr:`~CrossbarScheme.view`.  A scheme built alone reads a
frame of its own; the structural cache hands every scheme of one
structure the same frame.  A scheme's constructor only stores its
library, crossbar, features and Vt plan, so a scheme whose circuit
cannot be built fails at its first analysis rather than at
construction; its gates (:class:`~repro.circuit.gates.Inverter` and its
kin) are built only for the object API, on first use.

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
wire geometry.  :func:`~repro.crossbar.frame.device_part_terms` walks
the circuit state by state as ``evaluate`` calls of the library's
:class:`~repro.circuit.biasing.LeakageKernel` on the frame's devices and
packs the sums into a flat :class:`array.array` of
:data:`DEVICE_PART_LENGTH` doubles (layout below), which the structural
cache shares by value across every crossbar of one library that has the
same :data:`DEVICE_PART_FIELDS`.  :meth:`CrossbarScheme.derive_device_part`
is that walk on the scheme's view.

Record terms: one formula set
-----------------------------
:meth:`CrossbarScheme.derive_record_terms` gathers every term a
point's Table 1 figures read into one flat tuple (layout below): the
path leakage is the device part's first 36 doubles as they stand, the
standby power is :meth:`~CrossbarScheme.standby_leakage`'s power, and
the tail is the scheme's geometry
(:func:`~repro.crossbar.frame.geometry_terms` on its view).
Two functions hold the only copy of the activity formulas:
:func:`record_leakage` (everything that depends on the static
probability alone: active and standby leakage power, the standby
transition energy and the standby saving) and
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

from ..circuit.devices import DeviceRole, DeviceStatistics
from ..circuit.dynamic import check_frequency
from ..circuit.gates import (
    Inverter,
    Keeper,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
)
from ..circuit.leakage import AffineLeakage, LeakageBreakdown
from ..errors import CircuitError, CrossbarError
from ..interconnect.segmentation import SegmentationPlan, SegmentedWire
from ..interconnect.wire import Wire
from ..technology.library import TechnologyLibrary
from ..technology.transistor import Mosfet, VtFlavor
from ..timing.delay_analysis import DelayReport
from .frame import CrossbarFrame, SchemeView, device_part_terms, geometry_terms
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
    design rationale); everything else is computed here, from the
    scheme's :attr:`view` of its :attr:`frame`.
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

    # ------------------------------------------------------------------ #
    # the frame                                                            #
    # ------------------------------------------------------------------ #
    @cached_property
    def frame(self) -> CrossbarFrame:
        """The :class:`CrossbarFrame` this scheme reads: its own, unless
        the structural cache assigned its structure's shared one."""
        return CrossbarFrame(self.library, self.config)

    @cached_property
    def view(self) -> SchemeView:
        """This scheme's devices and capacitances on :attr:`frame`,
        resolved on first use (the checks of building its circuit)."""
        return SchemeView(self.frame, self.features, self.vt_plan)

    # ------------------------------------------------------------------ #
    # the circuit as gate and wire objects (object API, built on use)      #
    # ------------------------------------------------------------------ #
    @cached_property
    def input_driver(self) -> Inverter:
        """The input-port driver (both devices ``vt_plan.input_driver``)."""
        config, plan = self.config, self.vt_plan
        return Inverter(self.library, config.input_driver_nmos_width,
                        config.input_driver_pmos_width, nmos_flavor=plan.input_driver,
                        pmos_flavor=plan.input_driver)

    @cached_property
    def driver1(self) -> Inverter:
        """I1, the first output-driver inverter."""
        config, plan = self.config, self.vt_plan
        return Inverter(self.library, config.driver1_nmos_width, config.driver1_pmos_width,
                        nmos_flavor=plan.driver1_nmos, pmos_flavor=plan.driver1_pmos)

    @cached_property
    def driver2(self) -> Inverter:
        """I2, the inverter driving the output port wire."""
        config, plan = self.config, self.vt_plan
        return Inverter(self.library, config.driver2_nmos_width, config.driver2_pmos_width,
                        nmos_flavor=plan.driver2_nmos, pmos_flavor=plan.driver2_pmos)

    @cached_property
    def pass_switch(self) -> PassTransistorSwitch:
        """A crosspoint (a far-segment one, when segmented)."""
        return PassTransistorSwitch(self.library, self.config.pass_width,
                                    flavor=self.vt_plan.pass_transistor)

    @cached_property
    def near_pass_switch(self) -> PassTransistorSwitch | None:
        """A near-segment crosspoint (segmented schemes)."""
        if not self.features.segmented:
            return None
        return PassTransistorSwitch(self.library, self.config.pass_width,
                                    flavor=self.vt_plan.near_pass_transistor)

    @cached_property
    def keeper(self) -> Keeper | None:
        """The feedback keeper, if the scheme has one."""
        if not self.features.has_keeper:
            return None
        return Keeper(self.library, self.config.keeper_width, flavor=self.vt_plan.keeper)

    @cached_property
    def sleep(self) -> SleepTransistor | None:
        """The sleep device, if the scheme has a standby mode."""
        if not self.features.has_sleep:
            return None
        return SleepTransistor(self.library, self.config.sleep_width, flavor=self.vt_plan.sleep)

    @cached_property
    def precharge(self) -> PrechargeTransistor | None:
        """The pre-charge device, if the scheme pre-charges."""
        if not self.features.has_precharge:
            return None
        return PrechargeTransistor(self.library, self.config.precharge_width,
                                   flavor=self.vt_plan.precharge)

    @cached_property
    def segment_switch(self) -> PassTransistorSwitch | None:
        """The switch joining the near and far segments (segmented schemes)."""
        if not self.features.segmented:
            return None
        return PassTransistorSwitch(self.library, self.config.segment_switch_width,
                                    flavor=self.vt_plan.segment_switch)

    @property
    def input_wire(self) -> Wire:
        """One input column wire (the library's shared wire)."""
        return self.view.frame.input_wire

    @property
    def row_wire(self) -> Wire:
        """One output row (merge) wire, whole."""
        return self.view.frame.row_wire

    @property
    def output_wire(self) -> Wire:
        """One output port wire."""
        return self.view.frame.output_wire

    @property
    def receiver_capacitance(self) -> float:
        """Load at the far end of the output port wire (farads)."""
        return self.view.frame.receiver_capacitance

    @property
    def segmented_row(self) -> SegmentedWire | None:
        """The row wire split into near and far segments (segmented schemes)."""
        return self.view.frame.segments.row if self.features.segmented else None

    @property
    def segmentation_plan(self) -> SegmentationPlan | None:
        """How the row wire is split (segmented schemes)."""
        return self.segmented_row.plan if self.features.segmented else None

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

    # -- capacitances (read from the view) ----------------------------------------
    def near_merge_capacitance(self) -> float:
        """Lumped device capacitance on the merge node (near segment).

        For non-segmented schemes this is the whole merge node.  Wire
        capacitance is accounted separately through the pi models.
        """
        return self.view.near_merge_capacitance

    def far_merge_capacitance(self) -> float:
        """Lumped device capacitance on the far-segment merge wire."""
        return self.view.far_merge_capacitance

    def merge_capacitance(self) -> float:
        """Total device capacitance hanging on the merge structure."""
        return self.view.merge_capacitance

    def internal_node_capacitance(self) -> float:
        """Capacitance of the node between I1 and I2 (plus keeper feedback)."""
        return self.view.internal_node_capacitance

    def output_node_capacitance(self) -> float:
        """Device capacitance on the output port wire (driver diffusion + receiver)."""
        return self.view.output_node_capacitance

    def _row_switched_capacitance(self) -> float:
        """Average row-wire capacitance switched per transfer (farads)."""
        return self.view.row_switched_capacitance

    def _switched_merge_device_capacitance(self) -> float:
        """Average merge-structure device capacitance switched per transfer."""
        return self.view.switched_merge_capacitance

    def data_path_capacitance(self) -> float:
        """Capacitance switched by one output-bit data transition (farads)."""
        return self.view.data_path_capacitance

    # ------------------------------------------------------------------ #
    # timing                                                               #
    # ------------------------------------------------------------------ #
    def delay_report(self) -> DelayReport:
        """Worst-case delays of this scheme (Table 1 delay rows)."""
        return self.record_terms[_TERMS_DELAY]

    # ------------------------------------------------------------------ #
    # leakage                                                              #
    # ------------------------------------------------------------------ #
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
        """The nine energies and the :class:`DelayReport` of this scheme
        (:func:`geometry_terms` on its view), derived once: the tail of
        the record terms."""
        return geometry_terms(self.view, self.name)

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
        """The leakage walk (:func:`device_part_terms`) on this scheme's
        view: every path state's affine leakage, one path's sleep leakage
        and the single-path high-Vt device fraction, as
        :data:`DEVICE_PART_LENGTH` doubles.

        Reads only the library, :attr:`features`, :attr:`vt_plan` and
        the :data:`DEVICE_PART_FIELDS` of :attr:`config`: the structural
        cache shares parts on exactly that key, so a subclass's leakage
        must not read more.
        """
        return device_part_terms(self.view)

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
        schematic), as ``(device, role, count)`` entries; see
        :meth:`SchemeView.inventory`."""
        return self.view.inventory()

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
