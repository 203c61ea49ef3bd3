"""Repeater insertion for long wires.

Crossbar-internal wires are short enough to drive directly, but the
inter-router links of the NoC substrate are not: a 1-2 mm link at 45 nm
wants repeaters.  This module implements the classic closed-form optimal
repeater sizing/spacing (Bakoglu) and the delay/energy of a repeated
wire, which the NoC power model uses for link power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import TechnologyError
from ..technology.library import TechnologyLibrary
from ..technology.transistor import Polarity, VtFlavor
from .wire import Wire

__all__ = ["RepeaterDesign", "optimal_repeaters"]


@dataclass(frozen=True)
class RepeaterDesign:
    """An inserted-repeater solution for one wire."""

    stage_count: int
    repeater_width: float
    stage_delay: float
    total_delay: float
    total_repeater_capacitance: float

    def __post_init__(self) -> None:
        if self.stage_count < 1:
            raise TechnologyError("a repeated wire has at least one stage")


def _unit_driver_figures(library: TechnologyLibrary, flavor: VtFlavor) -> tuple[float, float]:
    """(resistance*width, capacitance/width) figures of a unit inverter.

    A CMOS repeater of width ``W`` (NMOS width ``W``, PMOS ``2W``) has
    output resistance ``r_unit / W`` and input capacitance ``c_unit * W``.
    """
    reference_width = 1e-6
    nmos = library.make_transistor(Polarity.NMOS, flavor, reference_width)
    pmos = library.make_transistor(Polarity.PMOS, flavor, 2.0 * reference_width)
    resistance = 0.5 * (nmos.effective_resistance() + pmos.effective_resistance())
    capacitance = nmos.gate_capacitance() + pmos.gate_capacitance()
    return resistance * reference_width, capacitance / reference_width


def optimal_repeaters(library: TechnologyLibrary, wire: Wire,
                      flavor: VtFlavor = VtFlavor.NOMINAL) -> RepeaterDesign:
    """Classic optimal repeater count and size for ``wire``.

    ``k_opt = sqrt(0.4 R_w C_w / (0.7 r_unit c_unit))`` stages of size
    ``h_opt = sqrt(r_unit C_w / (R_w c_unit))`` (in units of the minimum
    inverter), clamped to at least one stage.
    """
    r_unit_w, c_unit_per_w = _unit_driver_figures(library, flavor)
    r_wire = wire.resistance
    c_wire = wire.capacitance
    if r_wire <= 0 or c_wire <= 0:
        raise TechnologyError("repeater insertion needs a wire with positive R and C")
    minimum_width = library.minimum_width
    r_unit = r_unit_w / minimum_width
    c_unit = c_unit_per_w * minimum_width
    stages = max(1, round(math.sqrt(0.4 * r_wire * c_wire / (0.7 * r_unit * c_unit))))
    size = math.sqrt(r_unit * c_wire / (r_wire * c_unit))
    width = max(minimum_width, size * minimum_width)
    stage_wire = Wire(length=wire.length / stages, model=wire.model, neighbours=wire.neighbours)
    driver_resistance = r_unit_w / width
    driver_capacitance = c_unit_per_w * width
    stage_delay = 0.69 * (
        driver_resistance * (stage_wire.capacitance + driver_capacitance)
        + stage_wire.resistance * (0.5 * stage_wire.capacitance + driver_capacitance)
    )
    return RepeaterDesign(
        stage_count=stages,
        repeater_width=width,
        stage_delay=stage_delay,
        total_delay=stages * stage_delay,
        total_repeater_capacitance=stages * driver_capacitance,
    )
