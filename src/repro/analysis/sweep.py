"""Generic sweep utilities for examples and ablation benchmarks."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["SweepSeries", "run_sweep", "crossover_points"]


@dataclass(frozen=True)
class SweepSeries:
    """One named series of (x, y) points."""

    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ReproError("a sweep series needs as many y values as x values")
        if not self.xs:
            raise ReproError("a sweep series cannot be empty")
        for label, values in (("x", self.xs), ("y", self.ys)):
            if any(math.isnan(value) for value in values):
                raise ReproError(
                    f"series {self.name!r} contains NaN {label} values"
                )


def run_sweep(name: str, xs: Sequence[float], function: Callable[[float], float]) -> SweepSeries:
    """Evaluate ``function`` at every ``x`` and wrap the result as a series."""
    xs_tuple = tuple(float(x) for x in xs)
    ys = tuple(float(function(x)) for x in xs_tuple)
    return SweepSeries(name=name, xs=xs_tuple, ys=ys)


def crossover_points(series_a: SweepSeries, series_b: SweepSeries) -> tuple[float, ...]:
    """Every x where ``series_a`` and ``series_b`` cross, in ascending grid order.

    Both series must share the same x grid.  Grid points where the two
    series touch exactly count as crossings; sign changes between grid
    points are located by linear interpolation.
    """
    if series_a.xs != series_b.xs:
        raise ReproError("crossover detection requires both series to share the same x grid")
    differences = [a - b for a, b in zip(series_a.ys, series_b.ys)]
    crossings: list[float] = []
    for index, difference in enumerate(differences):
        if difference == 0.0:
            crossings.append(series_a.xs[index])
    for index in range(1, len(differences)):
        previous, current = differences[index - 1], differences[index]
        if previous * current < 0:
            x0, x1 = series_a.xs[index - 1], series_a.xs[index]
            fraction = abs(previous) / (abs(previous) + abs(current))
            crossings.append(x0 + fraction * (x1 - x0))
    return tuple(sorted(crossings))
