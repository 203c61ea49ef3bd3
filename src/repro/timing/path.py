"""Stage delays: one driver stage with its wire, load and contention.

A crossbar delay path (Figures 1-3) is a chain of stages:

1. the input-port driver pushing the input wire and the pass transistor
   onto the merge node (node A), possibly fighting a keeper;
2. the first driver inverter (I1) switching the internal node;
3. the output inverter (I2) pushing the output wire into the next
   router's input capacitance;
4. for segmented schemes, an extra stage through the segment switch.

Each stage is characterised by an effective driver resistance, an
optional wire (as a pi model's :meth:`~repro.interconnect.PiModel.floats`),
a lumped load capacitance and a contention factor that inflates the
delay when the stage must overpower a keeper.  The path delay is the
sum of the stage delays — standard stage-based static timing — which
the crossbar schemes add up as plain floats.
"""

from __future__ import annotations

from ..errors import TimingError
from ..interconnect.pi_model import PiModel
from ..units import LN2

__all__ = ["stage_delay"]


def stage_delay(name: str, driver_resistance: float, load_capacitance: float,
                wire: tuple[float, float, float] | None = None,
                series_resistance: float = 0.0, contention_factor: float = 1.0) -> float:
    """50 % delay of one driver stage in seconds.

    The driver resistance and any series (pass-transistor) resistance
    push through the optional ``wire`` (a pi model's ``(near
    capacitance, resistance, far capacitance)``) into the lumped load;
    contention multiplies the result.  ``name`` labels the stage in
    errors.
    """
    if driver_resistance < 0:
        raise TimingError(f"stage {name!r}: driver resistance cannot be negative")
    if load_capacitance < 0:
        raise TimingError(f"stage {name!r}: load capacitance cannot be negative")
    if series_resistance < 0:
        raise TimingError(f"stage {name!r}: series resistance cannot be negative")
    if contention_factor < 1.0:
        raise TimingError(
            f"stage {name!r}: contention factor is a delay inflation and must be >= 1"
        )
    total_driver = driver_resistance + series_resistance
    if wire is None:
        base = LN2 * total_driver * load_capacitance
    else:
        base = PiModel.driver_stage_delay_of_floats(wire, total_driver, load_capacitance)
    return base * contention_factor
