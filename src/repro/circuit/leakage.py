"""State-dependent leakage accounting.

The paper's leakage numbers are state dependent: which transistors leak,
and through which mechanism, depends on the logic values parked on the
circuit nodes (active mode with a given static probability) or forced by
the sleep/pre-charge control (standby mode).  This module provides the
bookkeeping:

* :class:`LeakageBreakdown` — immutable record of sub-threshold, gate and
  junction leakage currents (amperes) that supports addition and scaling,
  plus conversion to power at a supply voltage.
* :class:`LeakageAccumulator` — the mutable companion for hot loops: a
  running component-wise sum that collapses long ``__add__``/``scaled``
  chains into plain float adds, frozen into a validated
  :class:`LeakageBreakdown` once at the end.
* :class:`AffineLeakage` / :class:`AffineLeakageAccumulator` — leakage
  that is affine in one probability ``p`` (``fixed + p * high +
  (1 - p) * low``), held as its three terms so a fresh ``p`` costs three
  multiply-adds per mechanism instead of a re-walk of the circuit.

Allocation discipline
---------------------
:class:`LeakageBreakdown` is the single hottest allocation of a design
point evaluation (tens of thousands of instances per point before the
fast path existed), so it is a ``slots`` dataclass and its arithmetic
goes through an unvalidated constructor: components are validated
non-negative once at a construction boundary (``__init__`` or
:meth:`LeakageAccumulator.freeze`), and sums/products of non-negative
floats cannot go negative, so re-validating every intermediate would
only burn the inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CircuitError

__all__ = ["LeakageBreakdown", "LeakageAccumulator", "AffineLeakage",
           "AffineLeakageAccumulator"]


@dataclass(frozen=True, slots=True)
class LeakageBreakdown:
    """Leakage currents in amperes, split by mechanism."""

    subthreshold: float = 0.0
    gate: float = 0.0
    junction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("subthreshold", "gate", "junction"):
            if getattr(self, name) < 0:
                raise CircuitError(f"leakage component {name} cannot be negative")

    @property
    def total(self) -> float:
        """Total leakage current in amperes."""
        return self.subthreshold + self.gate + self.junction

    def __add__(self, other: "LeakageBreakdown") -> "LeakageBreakdown":
        return _unchecked(
            self.subthreshold + other.subthreshold,
            self.gate + other.gate,
            self.junction + other.junction,
        )

    def scaled(self, factor: float) -> "LeakageBreakdown":
        """Return this breakdown multiplied by ``factor`` (e.g. a device count)."""
        if factor < 0:
            raise CircuitError("scaling factor cannot be negative")
        return _unchecked(
            self.subthreshold * factor,
            self.gate * factor,
            self.junction * factor,
        )

    def power(self, supply_voltage: float) -> float:
        """Leakage power in watts at the given supply voltage."""
        if supply_voltage <= 0:
            raise CircuitError("supply voltage must be positive")
        return self.total * supply_voltage

    @staticmethod
    def zero() -> "LeakageBreakdown":
        """The additive identity."""
        return LeakageBreakdown()


def _unchecked(subthreshold: float, gate: float, junction: float) -> LeakageBreakdown:
    """Build a breakdown without re-validating (arithmetic fast path).

    Only for results derived from already-validated breakdowns: sums and
    non-negative scalings of non-negative components stay non-negative.
    """
    out = object.__new__(LeakageBreakdown)
    object.__setattr__(out, "subthreshold", subthreshold)
    object.__setattr__(out, "gate", gate)
    object.__setattr__(out, "junction", junction)
    return out


class LeakageAccumulator:
    """Mutable component-wise sum of breakdowns for hot loops.

    ``total = total + breakdown.scaled(n)`` allocates two breakdowns per
    contribution; the accumulator performs the same arithmetic (same
    float operation order, so results are bit-identical) as three float
    multiply-adds on mutable slots, and allocates exactly once — at
    :meth:`freeze`, the validated construction boundary.
    """

    __slots__ = ("subthreshold", "gate", "junction")

    def __init__(self) -> None:
        self.subthreshold = 0.0
        self.gate = 0.0
        self.junction = 0.0

    def add(self, breakdown: LeakageBreakdown, scale: float = 1.0) -> "LeakageAccumulator":
        """Add ``breakdown`` times ``scale`` (e.g. a device count); returns self."""
        if scale < 0:
            raise CircuitError("scaling factor cannot be negative")
        if scale == 1.0:
            self.subthreshold += breakdown.subthreshold
            self.gate += breakdown.gate
            self.junction += breakdown.junction
        else:
            self.subthreshold += breakdown.subthreshold * scale
            self.gate += breakdown.gate * scale
            self.junction += breakdown.junction * scale
        return self

    def freeze(self) -> LeakageBreakdown:
        """The accumulated sum as a validated immutable breakdown."""
        return LeakageBreakdown(
            subthreshold=self.subthreshold,
            gate=self.gate,
            junction=self.junction,
        )


@dataclass(frozen=True, slots=True)
class AffineLeakage:
    """Leakage affine in one probability ``p``: ``fixed + p * high + (1 - p) * low``.

    A crossbar path's leakage has this shape in the probability that an
    input column wire is parked high: every off pass device leaks one of
    two bias-point currents (input high or input low) weighted by that
    probability, and everything else is independent of it.
    """

    fixed: LeakageBreakdown
    high: LeakageBreakdown
    low: LeakageBreakdown

    def floats(self) -> tuple[float, ...]:
        """The nine components: ``fixed``, ``high`` and ``low``, each as
        (subthreshold, gate, junction)."""
        fixed, high, low = self.fixed, self.high, self.low
        return (fixed.subthreshold, fixed.gate, fixed.junction,
                high.subthreshold, high.gate, high.junction,
                low.subthreshold, low.gate, low.junction)

    @classmethod
    def from_floats(cls, values, offset: int = 0) -> "AffineLeakage":
        """The inverse of :meth:`floats`, reading the nine components
        from ``values[offset:offset + 9]`` (one validation for all nine)."""
        v, o = values, offset
        if min(v[o:o + 9]) < 0:
            raise CircuitError("leakage components cannot be negative")
        return cls(_unchecked(v[o], v[o + 1], v[o + 2]),
                   _unchecked(v[o + 3], v[o + 4], v[o + 5]),
                   _unchecked(v[o + 6], v[o + 7], v[o + 8]))

    def mixed_at(self, other: "AffineLeakage", weight: float, probability: float,
                 scale: float = 1.0) -> LeakageBreakdown:
        """``scale * (weight * self(p) + (1 - weight) * other(p))``, where
        ``x(p) = x.fixed + p * x.high + (1 - p) * x.low``.

        The expected leakage of a state that holds with probability
        ``weight`` (``self``) and otherwise does not (``other``), in one
        allocation.  Unvalidated: callers check ``probability`` and
        ``weight`` lie in [0, 1] and ``scale`` is non-negative.
        """
        p, q = probability, 1.0 - probability
        rest = 1.0 - weight
        a_fixed, a_high, a_low = self.fixed, self.high, self.low
        b_fixed, b_high, b_low = other.fixed, other.high, other.low
        return _unchecked(
            (weight * (a_fixed.subthreshold + p * a_high.subthreshold + q * a_low.subthreshold)
             + rest * (b_fixed.subthreshold + p * b_high.subthreshold + q * b_low.subthreshold))
            * scale,
            (weight * (a_fixed.gate + p * a_high.gate + q * a_low.gate)
             + rest * (b_fixed.gate + p * b_high.gate + q * b_low.gate)) * scale,
            (weight * (a_fixed.junction + p * a_high.junction + q * a_low.junction)
             + rest * (b_fixed.junction + p * b_high.junction + q * b_low.junction)) * scale,
        )

    @staticmethod
    def mixed_power_of_floats(a: tuple[float, ...], b: tuple[float, ...], weight: float,
                              probability: float, scale: float, supply_voltage: float) -> float:
        """``x.mixed_at(y, weight, probability, scale).power(supply_voltage)``
        on ``a = x.floats()`` and ``b = y.floats()``, with the same float
        operations in the same order (so bit-identical) and without
        allocating.  Unvalidated, like :meth:`mixed_at`, and the caller
        also checks ``supply_voltage`` is positive."""
        a_fs, a_fg, a_fj, a_hs, a_hg, a_hj, a_ls, a_lg, a_lj = a
        b_fs, b_fg, b_fj, b_hs, b_hg, b_hj, b_ls, b_lg, b_lj = b
        p, q = probability, 1.0 - probability
        rest = 1.0 - weight
        subthreshold = (weight * (a_fs + p * a_hs + q * a_ls)
                        + rest * (b_fs + p * b_hs + q * b_ls)) * scale
        gate = (weight * (a_fg + p * a_hg + q * a_lg) + rest * (b_fg + p * b_hg + q * b_lg)) * scale
        junction = (weight * (a_fj + p * a_hj + q * a_lj)
                    + rest * (b_fj + p * b_hj + q * b_lj)) * scale
        return (subthreshold + gate + junction) * supply_voltage


class AffineLeakageAccumulator:
    """Three :class:`LeakageAccumulator` s building one :class:`AffineLeakage`.

    Contributions independent of ``p`` go to :attr:`fixed`; those present
    with probability ``p`` (``1 - p``) go to :attr:`high` (:attr:`low`).
    """

    __slots__ = ("fixed", "high", "low")

    def __init__(self) -> None:
        self.fixed = LeakageAccumulator()
        self.high = LeakageAccumulator()
        self.low = LeakageAccumulator()

    def freeze(self) -> AffineLeakage:
        """The accumulated terms as an immutable :class:`AffineLeakage`."""
        return AffineLeakage(self.fixed.freeze(), self.high.freeze(), self.low.freeze())

    def floats(self) -> tuple[float, ...]:
        """The accumulated terms as :meth:`AffineLeakage.floats` gives
        them after :meth:`freeze`, without the allocation: sums of
        validated breakdowns at non-negative scales need no check."""
        fixed, high, low = self.fixed, self.high, self.low
        return (fixed.subthreshold, fixed.gate, fixed.junction,
                high.subthreshold, high.gate, high.junction,
                low.subthreshold, low.gate, low.junction)
