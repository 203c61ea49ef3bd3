"""Dynamic (switching) power models.

Three dynamic components matter for the paper's Table 1:

* **Switching energy** of the capacitances toggled by data transitions
  (input wires, the crossbar merge node, driver internal nodes, output
  wires): :func:`switching_energy`'s ``C * Vdd^2`` per charge, which
  :func:`~repro.crossbar.base.record_dynamic_energy` weights by the
  activity (times the clock, the familiar ``alpha * C * Vdd^2 * f``).
* **Contention (crowbar) energy** burned when a transition must fight a
  keeper or another weak opposing device: the keeper sources current for
  the duration of the transition, and that charge is drawn from the
  supply.  The dual-Vt schemes weaken the keeper (high-Vt), which is one
  of the reasons their *total* power drops by more than the leakage
  savings alone would suggest.
* **Pre-charge energy** of the DPC/SDPC schemes: every cycle in which
  the output was left low, the pre-charge device must pull the wire back
  to Vdd (a :func:`switching_energy` weighted by the probability of the
  "0" state in the scheme's record terms), which is why the paper
  quotes 50 % static probability as the worst case.
"""

from __future__ import annotations

from ..errors import PowerError

__all__ = [
    "check_frequency",
    "switching_energy",
    "contention_energy",
]


def check_frequency(frequency: float) -> None:
    """Refuse a clock that is not a positive number (NaN included): the
    one frequency check of every power analysis."""
    if not frequency > 0:
        raise PowerError("frequency must be positive")


def switching_energy(capacitance: float, supply_voltage: float) -> float:
    """Energy (joules) drawn from the supply to charge ``capacitance`` to Vdd.

    The canonical ``C * Vdd^2`` figure; half is stored on the capacitor
    and half is dissipated in the charging device.  Discharging
    dissipates the stored half, so over a full charge/discharge cycle the
    supply delivers exactly this energy.
    """
    if capacitance < 0:
        raise PowerError(f"capacitance cannot be negative, got {capacitance}")
    if supply_voltage <= 0:
        raise PowerError("supply voltage must be positive")
    return capacitance * supply_voltage**2


def contention_energy(opposing_current: float, transition_time: float, supply_voltage: float) -> float:
    """Energy (joules) burned fighting an opposing device during one transition.

    While a transition is in flight for ``transition_time`` seconds, the
    opposing device (keeper, level restorer) sources ``opposing_current``
    from the supply straight into the driving device.  The integral is
    approximated as the rectangle ``I * t * Vdd``; the factor-of-two-ish
    shape error is far below the modelling error of the current itself
    and is absorbed by calibration.
    """
    if opposing_current < 0:
        raise PowerError("opposing current cannot be negative")
    if transition_time < 0:
        raise PowerError("transition time cannot be negative")
    if supply_voltage <= 0:
        raise PowerError("supply voltage must be positive")
    return opposing_current * transition_time * supply_voltage
