"""The frame: one flat pass over every scheme of one (library, crossbar).

The five schemes of :mod:`repro.crossbar` are one circuit: the same
wires and the same sizes, differing only in their
:class:`~repro.crossbar.base.SchemeFeatures` and
:class:`~repro.crossbar.base.VtPlan`.  A :class:`CrossbarFrame` holds
what every scheme of one (library, crossbar) shares, as floats: the
supply, the input, row and output wires' capacitances and pi models, the
segmented row, the receiver load, and each sized device's figures
(:class:`FrameDevice`: gate and diffusion capacitance, effective and
pass resistance, saturation current, threshold), read once per library
from its shared :class:`~repro.technology.transistor.Mosfet` per
(polarity, flavor, width).  A :class:`SchemeView` reads one (features,
Vt plan) against it — the scheme's devices and its merge-structure
capacitances — and two functions derive everything else from a view:

* :func:`geometry_terms`: the nine energies and the delay report, as
  float arithmetic (stage delays through
  :func:`~repro.timing.path.stage_delay`, the merge stage being
  :func:`merge_delay`);
* :func:`device_part_terms`: the leakage walk, state by state, as
  :meth:`LeakageKernel.evaluate
  <repro.circuit.biasing.LeakageKernel.evaluate>` calls on the frame's
  devices, packed in the device-part layout of
  :mod:`repro.crossbar.base`.

A scheme built alone reads a frame of its own; the structural cache
(:mod:`repro.core.scheme_evaluator`) builds one frame per structure and
hands it to all of that structure's schemes.  The frame builds no gate
object, and a view resolves each device and wire in the order a
scheme's circuit is built, so a scheme whose circuit cannot be built
fails with the first error of building that circuit.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, NamedTuple

from ..circuit.biasing import LeakageKernel, kernel_for
from ..circuit.devices import DeviceRole, DeviceStatistics
from ..circuit.dynamic import contention_energy, switching_energy
from ..circuit.leakage import AffineLeakageAccumulator, LeakageAccumulator, LeakageBreakdown
from ..errors import TechnologyError
from ..interconnect.pi_model import PiModel
from ..interconnect.segmentation import SegmentationPlan, SegmentedWire
from ..interconnect.wire import Wire
from ..technology.library import TechnologyLibrary
from ..technology.transistor import Mosfet, Polarity, VtFlavor
from ..timing.delay_analysis import DelayReport, contention_factor, pass_rise_penalty
from ..timing.path import stage_delay
from .ports import CrossbarConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .base import SchemeFeatures, VtPlan

__all__ = ["FrameDevice", "FrameSegments", "CrossbarFrame", "SchemeView",
           "merge_delay", "geometry_terms", "device_part_terms"]


class FrameDevice:
    """One sized device's figures, read once from the library's shared
    :class:`~repro.technology.transistor.Mosfet` (kept for the leakage
    kernel, which keys its memo on it)."""

    __slots__ = ("mosfet", "gate", "diffusion", "saturation", "resistance",
                 "pass_resistance", "threshold")

    def __init__(self, mosfet: Mosfet) -> None:
        self.mosfet = mosfet
        self.gate = mosfet.gate_capacitance()
        self.diffusion = mosfet.diffusion_capacitance()
        self.saturation = mosfet.saturation_current()
        self.threshold = mosfet.parameters.threshold_voltage
        if self.saturation > 0:
            self.resistance = mosfet.effective_resistance()
            self.pass_resistance = mosfet.pass_resistance()

    def __getattr__(self, name: str):
        # Reached only for a resistance left unset: a device without drive
        # current has none, and raises Mosfet.effective_resistance's error
        # where a delay first reads it.
        if name in ("resistance", "pass_resistance"):
            self.mosfet.effective_resistance()
        raise AttributeError(name)


class FrameSegments(NamedTuple):
    """The row wire of a segmented scheme, split per its
    :class:`~repro.interconnect.segmentation.SegmentationPlan`."""

    row: SegmentedWire
    near_inputs: int
    far_inputs: int
    near_traffic_fraction: float
    near_pi: tuple[float, float, float]
    far_pi: tuple[float, float, float]
    total_capacitance: float
    switched_capacitance: float


class CrossbarFrame:
    """What every scheme of one (library, crossbar) shares, as floats.

    The wires (:attr:`input_pi`, :attr:`row_capacitance`, ...), the
    segmented row (:attr:`segments`) and the receiver load are resolved
    once, by the first :class:`SchemeView`; the sized devices' figures
    as views ask for them (:meth:`device`), once per library.  The frame
    refers to its library, never the other way round: the library keeps
    only the figures, which hold their Mosfet and floats.
    """

    __slots__ = ("library", "config", "supply_voltage", "kernel", "_devices",
                 "input_wire", "row_wire", "output_wire", "input_capacitance",
                 "input_pi", "row_capacitance", "row_pi", "output_capacitance",
                 "output_pi", "receiver_capacitance", "segments")

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig) -> None:
        self.library = library
        self.config = config
        self.supply_voltage = library.supply_voltage
        self.kernel: LeakageKernel = kernel_for(library)
        self._devices: dict[tuple[Polarity, VtFlavor, float], FrameDevice] = (
            library.device_figures)
        self.row_wire: Wire | None = None
        self.segments: FrameSegments | None = None

    def device(self, polarity: Polarity, flavor: VtFlavor, width: float) -> FrameDevice:
        """The figures of the library's ``(polarity, flavor, width)``
        device, read once per library (its ``device_figures`` memo)."""
        key = (polarity, flavor, width)
        device = self._devices.get(key)
        if device is None:
            device = self._devices[key] = FrameDevice(
                self.library.make_transistor(polarity, flavor, width))
        return device

    def _resolve_wires(self, segmented: bool) -> None:
        """The wires, on first use in a scheme's build order: input, row,
        the row's split (segmented schemes), output, receiver load.  A
        failure leaves the frame unwired, so the next scheme raises it
        again."""
        if self.row_wire is None:
            library, config = self.library, self.config
            layer = config.wire_layer
            input_wire = Wire.on_layer(library, config.resolved_input_wire_length(library), layer)
            row_wire = Wire.on_layer(library, config.resolved_row_wire_length(library), layer)
            segments = self._segment(row_wire) if segmented else None
            output_wire = Wire.on_layer(library, config.resolved_output_wire_length(library),
                                        layer)
            receiver = config.resolved_receiver_capacitance(library)
            self.input_wire, self.input_capacitance = input_wire, input_wire.capacitance
            self.input_pi = input_wire.pi_model().floats()
            self.row_capacitance = row_wire.capacitance
            self.row_pi = row_wire.pi_model().floats()
            self.output_wire, self.output_capacitance = output_wire, output_wire.capacitance
            self.output_pi = output_wire.pi_model().floats()
            self.receiver_capacitance = receiver
            self.segments = segments
            self.row_wire = row_wire
        elif segmented and self.segments is None:
            self.segments = self._segment(self.row_wire)

    def _segment(self, row_wire: Wire) -> FrameSegments:
        """The row wire split in two, the near half holding half the
        crosspoints (at least one)."""
        inputs = self.config.inputs_per_output
        plan = SegmentationPlan(segment_count=2, near_fraction=0.5,
                                inputs_on_near_segment=max(1, inputs // 2),
                                total_inputs=inputs)
        row = SegmentedWire.from_wire(row_wire, plan)
        near_inputs = plan.inputs_on_near_segment
        return FrameSegments(row, near_inputs, inputs - near_inputs, plan.near_traffic_fraction,
                             row.near.pi_model().floats(), row.far.pi_model().floats(),
                             row.total_capacitance, row.average_switched_capacitance())


class SchemeView:
    """One scheme spec (:class:`~repro.crossbar.base.SchemeFeatures`,
    :class:`~repro.crossbar.base.VtPlan`) read against a
    :class:`CrossbarFrame`: its sized devices (``None`` where
    the scheme has no such device) and the capacitances of its merge
    structure, driver internal node and output node.

    Built in the scheme's circuit order — the input driver, the two
    output drivers, the pass devices, keeper, sleep, pre-charge and
    segment switch, then the wires — so the first device or wire that
    cannot be built raises first.
    """

    __slots__ = ("frame", "features", "input_nmos", "input_pmos", "driver1_nmos",
                 "driver1_pmos", "driver2_nmos", "driver2_pmos", "pass_device",
                 "near_pass_device", "keeper", "sleep", "precharge", "segment_switch",
                 "near_inputs", "far_inputs", "near_merge_capacitance",
                 "far_merge_capacitance", "merge_capacitance", "internal_node_capacitance",
                 "output_node_capacitance", "row_switched_capacitance",
                 "switched_merge_capacitance", "data_path_capacitance")

    def __init__(self, frame: CrossbarFrame, features: SchemeFeatures, plan: VtPlan) -> None:
        config, device = frame.config, frame.device
        nmos, pmos = Polarity.NMOS, Polarity.PMOS
        segmented = features.segmented
        self.frame = frame
        self.features = features
        self.input_nmos = device(nmos, plan.input_driver, config.input_driver_nmos_width)
        self.input_pmos = device(pmos, plan.input_driver, config.input_driver_pmos_width)
        self.driver1_nmos = d1n = device(nmos, plan.driver1_nmos, config.driver1_nmos_width)
        self.driver1_pmos = d1p = device(pmos, plan.driver1_pmos, config.driver1_pmos_width)
        self.driver2_nmos = d2n = device(nmos, plan.driver2_nmos, config.driver2_nmos_width)
        self.driver2_pmos = d2p = device(pmos, plan.driver2_pmos, config.driver2_pmos_width)
        self.pass_device = pass_device = device(nmos, plan.pass_transistor, config.pass_width)
        self.near_pass_device = near_pass = (
            device(nmos, plan.near_pass_transistor, config.pass_width) if segmented else None)
        self.keeper = keeper = (device(pmos, plan.keeper, config.keeper_width)
                                if features.has_keeper else None)
        self.sleep = sleep = (device(nmos, plan.sleep, config.sleep_width)
                              if features.has_sleep else None)
        self.precharge = precharge = (device(pmos, plan.precharge, config.precharge_width)
                                      if features.has_precharge else None)
        self.segment_switch = switch = (
            device(nmos, plan.segment_switch, config.segment_switch_width) if segmented else None)
        frame._resolve_wires(segmented)

        # Device capacitance on the merge node (near segment; the whole
        # node when unsegmented) and on the far segment.  Wire
        # capacitance is accounted separately through the pi models.
        if segmented:
            segments = frame.segments
            self.near_inputs, self.far_inputs = segments.near_inputs, segments.far_inputs
        else:
            self.near_inputs, self.far_inputs = config.inputs_per_output, 0
        near = d1n.gate + d1p.gate
        near += self.near_inputs * (near_pass.diffusion if segmented else pass_device.diffusion)
        for support in (keeper, sleep, precharge, switch):
            if support is not None:
                near += support.diffusion
        far = 0.0
        if segmented:
            far = self.far_inputs * pass_device.diffusion
            far += switch.diffusion
            for support in (sleep, precharge):
                if support is not None:
                    far += support.diffusion
        self.near_merge_capacitance = near
        self.far_merge_capacitance = far
        self.merge_capacitance = merge = near + far
        # The node between I1 and I2 (plus keeper feedback), and the
        # output port wire's device load (driver diffusion + receiver).
        internal = (d1n.diffusion + d1p.diffusion) + (d2n.gate + d2p.gate)
        if keeper is not None:
            internal += keeper.gate
        self.internal_node_capacitance = internal
        self.output_node_capacitance = output_node = (
            (d2n.diffusion + d2p.diffusion) + frame.receiver_capacitance)
        # Average row-wire and merge-device capacitance switched per
        # transfer: near-segment transfers leave the far segment (and the
        # devices on it) untouched.
        if segmented:
            self.row_switched_capacitance = frame.segments.switched_capacitance
            self.switched_merge_capacitance = (
                near + (1.0 - frame.segments.near_traffic_fraction) * far)
        else:
            self.row_switched_capacitance = frame.row_capacitance
            self.switched_merge_capacitance = merge
        # One output-bit data transition: the merge structure, the row
        # wire, the driver internal node and the output port wire with its
        # receiver (the input column wire is counted per input port).
        self.data_path_capacitance = (
            self.switched_merge_capacitance + self.row_switched_capacitance + internal
            + frame.output_capacitance + output_node)

    def inventory(self) -> list[tuple[Mosfet, DeviceRole, int]]:
        """Every device of one output row, one bit wide (the Fig. 1/2/3
        schematic), as ``(device, role, count)`` entries: the
        ``inputs_per_output`` crosspoints (split near/far when segmented,
        plus the segment switch), the keeper or pre-charge device and the
        sleep device (one per segment each), and the two driver
        inverters."""
        segmented = self.features.segmented
        segments = 2 if segmented else 1
        if segmented:
            entries = [
                (self.near_pass_device, DeviceRole.PASS_TRANSISTOR, self.near_inputs),
                (self.pass_device, DeviceRole.PASS_TRANSISTOR, self.far_inputs),
                (self.segment_switch, DeviceRole.SEGMENT_SWITCH, 1),
            ]
        else:
            entries = [(self.pass_device, DeviceRole.PASS_TRANSISTOR, self.near_inputs)]
        if self.keeper is not None:
            entries.append((self.keeper, DeviceRole.KEEPER, 1))
        if self.sleep is not None:
            entries.append((self.sleep, DeviceRole.SLEEP, segments))
        if self.precharge is not None:
            entries.append((self.precharge, DeviceRole.PRECHARGE, segments))
        entries += [(self.driver1_pmos, DeviceRole.DRIVER, 1),
                    (self.driver1_nmos, DeviceRole.DRIVER, 1),
                    (self.driver2_pmos, DeviceRole.DRIVER, 1),
                    (self.driver2_nmos, DeviceRole.DRIVER, 1)]
        return [(device.mosfet, role, count) for device, role, count in entries]


def _row_pi(view: SchemeView, far_path: bool) -> tuple[float, float, float]:
    """Pi model (:meth:`PiModel.floats <repro.interconnect.PiModel.floats>`)
    of the merge (row) wire seen by the worst-case input."""
    frame = view.frame
    if not view.features.segmented:
        return frame.row_pi
    segments = frame.segments
    if not far_path:
        return segments.near_pi
    switch_resistance = view.segment_switch.pass_resistance
    if switch_resistance < 0:
        # PiModel(0.0, switch_resistance, 0.0)'s check.
        raise TechnologyError("pi-model resistance cannot be negative")
    cascade = PiModel.cascade_of_floats
    return cascade(cascade(segments.far_pi, (0.0, switch_resistance, 0.0)), segments.near_pi)


def merge_delay(view: SchemeView, falling: bool, far_path: bool) -> float:
    """Stage 1 of a delay path: the input driver through the input wire,
    the granted pass device (the near segment's when ``far_path`` is
    false in a segmented scheme) and the row wire onto the merge node,
    fighting the keeper when it falls."""
    vdd = view.frame.supply_voltage
    driver_resistance = view.input_nmos.resistance if falling else view.input_pmos.resistance
    granted = (view.near_pass_device if view.features.segmented and not far_path
               else view.pass_device)
    series = granted.pass_resistance
    if not falling:
        # An NMOS pass device pulls high slowly (threshold-drop regime).
        series *= pass_rise_penalty(vdd, granted.threshold)
    wire = PiModel.cascade_of_floats(view.frame.input_pi, _row_pi(view, far_path))
    contention = 1.0
    if falling and view.keeper is not None:
        drive_current = 0.75 * vdd / (driver_resistance + series)
        contention = contention_factor(drive_current, view.keeper.saturation)
    return stage_delay("merge", driver_resistance, view.near_merge_capacitance,
                       wire, series, contention)


def _driver_delays(view: SchemeView, output_falling: bool) -> tuple[float, float]:
    """Stages 2 and 3: I1 switches the internal node, I2 drives the port wire."""
    if output_falling:
        driver1_resistance = view.driver1_pmos.resistance
        driver2_resistance = view.driver2_nmos.resistance
    else:
        driver1_resistance = view.driver1_nmos.resistance
        driver2_resistance = view.driver2_pmos.resistance
    driver1 = stage_delay("driver1", driver1_resistance, view.internal_node_capacitance)
    driver2 = stage_delay("driver2", driver2_resistance, view.output_node_capacitance,
                          view.frame.output_pi)
    return driver1, driver2


def geometry_terms(view: SchemeView, name: str) -> tuple:
    """The nine energies (in joules, per output-bit path unless noted)
    and the :class:`DelayReport` (labelled ``name``) of one scheme view,
    as floats: the tail of the record terms.  A term a scheme does not
    have (a keeper's contention in a pre-charged scheme, say) is zero.
    In order: the pre-charged capacitance, re-charged after every
    evaluated 0; the capacitance switched on every rising data
    transition; keeper contention burned on every falling one; the
    pre-charge clock load, switched every cycle; one input column wire
    per rising transition; grant-line switching per output port per
    cycle; the sleep-control gates of one standby entry + exit; the
    merge structure re-charged after standby when it was parked high;
    the driver internal node flipped by that forced transition.

    The falling far-path merge stage is computed once and serves both
    the high-to-low delay and the keeper-contention energy.
    """
    frame, features = view.frame, view.features
    vdd = frame.supply_voltage
    internal_node_energy = switching_energy(view.internal_node_capacitance, vdd)
    merge_fall = None
    precharged_energy = contention = clocked_energy = 0.0
    if features.has_precharge:
        precharged_energy = switching_energy(
            view.switched_merge_capacitance
            + view.row_switched_capacitance
            + frame.output_capacitance
            + view.output_node_capacitance,
            vdd,
        )
        toggled_energy = internal_node_energy
        clocked_energy = switching_energy(view.precharge.gate, vdd)
    else:
        toggled_energy = switching_energy(view.data_path_capacitance, vdd)
        if view.keeper is not None:
            # Traffic-averaged delay of the merge-node fall: a transfer
            # from a near-segment input fights the keeper for much less
            # time than one from the far segment, one of the ways
            # segmentation "mitigates dynamic power" in the paper's words.
            merge_fall = merge_delay(view, falling=True, far_path=True)
            fight = merge_fall
            if features.segmented:
                near_delay = merge_delay(view, falling=True, far_path=False)
                near_fraction = frame.segments.near_traffic_fraction
                fight = near_fraction * near_delay + (1.0 - near_fraction) * merge_fall
            contention = contention_energy(view.keeper.saturation, fight, vdd)

    # One grant wire per (input, output) pair, loaded by the pass gates
    # of every bit of the flit; a new grant is established on a
    # fraction of cycles (head flits).
    grant_switch_probability = 0.2
    grant_load = frame.config.flit_width * view.pass_device.gate

    sleep_control_energy = parked_merge_energy = 0.0
    if features.has_sleep:
        segments = 2 if features.segmented else 1
        sleep_control_energy = segments * switching_energy(view.sleep.gate, vdd)
        row_capacitance = (frame.segments.total_capacitance if features.segmented
                           else frame.row_capacitance)
        parked_merge_energy = switching_energy(view.merge_capacitance + row_capacitance, vdd)

    # Worst-case paths, each the sum of its stage delays.  Falling
    # output: the data 0 through the far-path pass device.  Rising
    # output: feedback schemes propagate the rise through the pass
    # device (the keeper completes the swing); pre-charged schemes
    # report the pre-charge path instead, matching the Table 1 row
    # label "Low to High / Precharge delay time".
    if merge_fall is None:
        merge_fall = merge_delay(view, falling=True, far_path=True)
    driver1, driver2 = _driver_delays(view, output_falling=True)
    high_to_low = merge_fall + driver1 + driver2
    if features.has_precharge:
        merge_rise = stage_delay("precharge", view.precharge.resistance,
                                 view.near_merge_capacitance, _row_pi(view, far_path=True))
    else:
        merge_rise = merge_delay(view, falling=False, far_path=True)
    driver1, driver2 = _driver_delays(view, output_falling=False)
    delay = DelayReport(scheme=name, high_to_low=high_to_low,
                        low_to_high=merge_rise + driver1 + driver2)

    return (
        precharged_energy, toggled_energy, contention, clocked_energy,
        switching_energy(frame.input_capacitance, vdd),
        grant_switch_probability * switching_energy(grant_load, vdd),
        sleep_control_energy, parked_merge_energy, internal_node_energy,
        delay,
    )


def device_part_terms(view: SchemeView) -> array:
    """The device part of one scheme view (the layout of
    :mod:`repro.crossbar.base`): every path state's affine leakage, one
    path's sleep leakage and the single-path high-Vt device fraction, as
    :data:`~repro.crossbar.base.DEVICE_PART_LENGTH` doubles.

    Each device leaks at the bias its terminals' logic values give it
    (:meth:`LeakageKernel.evaluate <repro.circuit.biasing.LeakageKernel.evaluate>`,
    ``(device, gate, drain, source)`` voltages).  Per output-bit path and
    ``(merge_high, granted)`` state, the ``fixed`` term holds everything
    independent of the input-high probability, ``high`` and ``low`` the
    off pass devices whose input wire is parked high or low.  Reads only
    the library, the features, the Vt plan's devices and the
    :data:`~repro.crossbar.base.DEVICE_PART_FIELDS` of the crossbar.
    """
    frame, features = view.frame, view.features
    evaluate = frame.kernel.evaluate
    vdd = frame.supply_voltage
    segmented = features.segmented
    d1n, d1p = view.driver1_nmos.mosfet, view.driver1_pmos.mosfet
    d2n, d2p = view.driver2_nmos.mosfet, view.driver2_pmos.mosfet
    pass_device = view.pass_device.mosfet
    near_pass = view.near_pass_device.mosfet if segmented else pass_device
    keeper = view.keeper and view.keeper.mosfet
    sleep = view.sleep and view.sleep.mosfet
    precharge = view.precharge and view.precharge.mosfet
    switch = view.segment_switch and view.segment_switch.mosfet
    near_inputs, far_inputs = view.near_inputs, view.far_inputs
    if segmented:
        near_traffic = frame.segments.near_traffic_fraction
        far_sleeps = features.far_segment_sleeps_when_unused

    def driver_chain(merge_high: bool) -> LeakageBreakdown:
        # I1 and I2 with I1's input (the merge node) at the given value.
        merge = vdd if merge_high else 0.0
        internal = 0.0 if merge_high else vdd
        return ((evaluate(d1n, merge, internal, 0.0) + evaluate(d1p, merge, internal, vdd))
                + (evaluate(d2n, internal, merge, 0.0) + evaluate(d2p, internal, merge, vdd)))

    def merge_support(acc: LeakageAccumulator, merge_high: bool, standby: bool) -> None:
        # Keeper (its gate fed back from the inverted node), sleep device
        # (on in standby) and pre-charge device (off: disabled in standby,
        # and off for the evaluation phase that matters when awake).
        node_voltage = vdd if merge_high else 0.0
        if keeper is not None:
            acc.add(evaluate(keeper, 0.0 if merge_high else vdd, node_voltage, vdd))
        if sleep is not None:
            acc.add(evaluate(sleep, vdd if standby else 0.0, node_voltage, 0.0))
        if precharge is not None:
            acc.add(evaluate(precharge, vdd, node_voltage, vdd))

    def far_support(acc: LeakageAccumulator, far_high: bool, far_standby: bool,
                    weight: float) -> None:
        # Sleep / pre-charge devices on the far segment.
        node_voltage = vdd if far_high else 0.0
        if sleep is not None:
            acc.add(evaluate(sleep, vdd if far_standby else 0.0, node_voltage, 0.0), weight)
        if precharge is not None:
            acc.add(evaluate(precharge, vdd, node_voltage, vdd), weight)

    def path(node: LeakageBreakdown, merge_high: bool, granted: bool) -> tuple[float, ...]:
        node_voltage = vdd if merge_high else 0.0
        terms = AffineLeakageAccumulator()
        fixed = terms.fixed
        fixed.add(node)

        def bank(device: Mosfet, count_off: int, bank_voltage: float, weight: float) -> None:
            # Off pass devices, each bias point evaluated once and weighted
            # by the population (times the state's probability).
            if count_off > 0:
                scale = count_off * weight
                terms.high.add(evaluate(device, 0.0, vdd, bank_voltage), scale)
                terms.low.add(evaluate(device, 0.0, 0.0, bank_voltage), scale)

        if not segmented:
            bank(pass_device, near_inputs - granted, node_voltage, 1.0)
            if granted:
                fixed.add(evaluate(pass_device, vdd, node_voltage, node_voltage))
            return terms.floats()
        # Conditioned on where the granted input sits: with the near
        # traffic fraction the transfer (or idle value) stays on the near
        # segment and the far segment may sleep; otherwise both segments
        # are live, joined by the segment switch.
        near_fraction = near_traffic if granted else 1.0
        far_fraction = 1.0 - near_fraction
        far_voltage = 0.0 if far_sleeps else node_voltage
        bank(near_pass, near_inputs - granted, node_voltage, near_fraction)
        if granted:
            fixed.add(evaluate(near_pass, vdd, node_voltage, node_voltage), near_fraction)
        bank(pass_device, far_inputs, far_voltage, near_fraction)
        far_support(fixed, far_voltage > 0, far_sleeps, near_fraction)
        fixed.add(evaluate(switch, 0.0, far_voltage, node_voltage), near_fraction)
        # An idle path (nothing granted) is always near-only.
        if far_fraction > 0.0:
            bank(near_pass, near_inputs, node_voltage, far_fraction)
            bank(pass_device, far_inputs - granted, node_voltage, far_fraction)
            if granted:
                fixed.add(evaluate(pass_device, vdd, node_voltage, node_voltage), far_fraction)
            far_support(fixed, merge_high, False, far_fraction)
            fixed.add(evaluate(switch, vdd, node_voltage, node_voltage), far_fraction)
        return terms.floats()

    values: list[float] = []
    # Path states in device-part order (merge high, then low; granted,
    # then idle); both states of one merge value share the awake node:
    # the driver chain and the merge node's support devices.
    for merge_high in (True, False):
        chain = driver_chain(merge_high)
        node = LeakageAccumulator().add(chain)
        merge_support(node, merge_high, standby=False)
        node = node.freeze()
        values += path(node, merge_high, True)
        values += path(node, merge_high, False)
    if features.has_sleep:
        # Sleep asserted: every merge segment at ground (the driver chain
        # as the merge-low state left it), the input wires parked low
        # (off pass devices with all terminals at ground leak nothing),
        # the segment switch open.
        standby = LeakageAccumulator().add(chain)
        merge_support(standby, False, standby=True)
        if segmented:
            far_support(standby, False, True, 1.0)
            standby.add(evaluate(switch, 0.0, 0.0, 0.0))
        values += (standby.subthreshold, standby.gate, standby.junction)
    else:
        values += (0.0, 0.0, 0.0)
    values.append(DeviceStatistics.of_inventory(view.inventory()).high_vt_fraction)
    return array("d", values)
