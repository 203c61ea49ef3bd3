"""Result container for design-space evaluations.

A :class:`ResultSet` holds one evaluated point per grid point, in grid
order, and answers the questions the analysis layer asks: slice the
space (:meth:`ResultSet.filter`), pull one scheme/metric series along an
axis (:meth:`ResultSet.series`), or find the Pareto-optimal points over
several metrics (:meth:`ResultSet.pareto_front`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..core.config import ExperimentConfig
from ..core.paths import normalize_path
from ..errors import ConfigurationError

__all__ = ["PointResult", "ResultSet"]


@dataclass(frozen=True)
class PointResult:
    """One evaluated design point."""

    index: int
    items: tuple[tuple[str, object], ...]
    config: ExperimentConfig
    records: tuple[dict, ...]
    from_cache: bool

    @property
    def overrides(self) -> dict[str, object]:
        """This point's parameter assignment as a plain dict."""
        return dict(self.items)

    def record(self, scheme: str) -> dict:
        """The flat comparison record of one scheme at this point."""
        for record in self.records:
            if record["scheme"] == scheme:
                return record
        raise ConfigurationError(f"scheme {scheme!r} missing from design point")

    def value(self, scheme: str, metric: str) -> float:
        """One scheme metric at this point."""
        record = self.record(scheme)
        if metric not in record:
            raise ConfigurationError(f"unknown metric {metric!r}")
        return float(record[metric])


class ResultSet:
    """All evaluated points of one design space, in grid order."""

    def __init__(self, parameters: tuple[str, ...],
                 points: Sequence[PointResult]) -> None:
        self.parameters = tuple(parameters)
        self.points = list(points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.points)

    @property
    def cache_hit_count(self) -> int:
        """How many of these points were served from cache."""
        return sum(1 for point in self.points if point.from_cache)

    def axis_values(self, parameter: str) -> list[object]:
        """Distinct values of one parameter, in first-appearance order."""
        parameter = self.resolve_parameter(parameter)
        seen: list[object] = []
        for point in self.points:
            value = point.overrides[parameter]
            if value not in seen:
                seen.append(value)
        return seen

    def resolve_parameter(self, parameter: str) -> str:
        """Canonical name of one of this set's parameters.

        Accepts the canonical config path and any spelling
        :func:`~repro.core.paths.normalize_path` resolves to it (e.g.
        ``"port_count"`` for a set varying ``"crossbar.port_count"``).
        """
        if parameter in self.parameters:
            return parameter
        try:
            canonical = normalize_path(parameter)
        except ConfigurationError:
            canonical = None
        if canonical is not None and canonical in self.parameters:
            return canonical
        raise ConfigurationError(
            f"unknown parameter {parameter!r}; this result set varies "
            f"{self.parameters}"
        )

    def filter(self, **fixed: object) -> "ResultSet":
        """Sub-space where every given parameter equals the given value.

        Dotted parameters are passed by unpacking:
        ``results.filter(**{"crossbar.port_count": 5})``.
        """
        resolved: dict[str, object] = {}
        for name, value in fixed.items():
            canonical = self.resolve_parameter(name)
            if canonical in resolved:
                raise ConfigurationError(
                    f"filter() got parameter {name!r} twice (as {canonical!r})"
                )
            resolved[canonical] = value
        kept = [
            point for point in self.points
            if all(point.overrides[name] == value for name, value in resolved.items())
        ]
        return ResultSet(parameters=self.parameters, points=kept)

    def series(self, scheme: str, metric: str,
               axis: str | None = None) -> list[tuple[object, float]]:
        """(axis value, metric) pairs for one scheme, in grid order.

        ``axis`` may be omitted when the result set varies a single
        parameter.  For multi-parameter sets, fix the other parameters
        with :meth:`filter` first (or accept one pair per point).
        """
        if axis is None:
            if len(self.parameters) != 1:
                raise ConfigurationError(
                    f"series() needs an explicit axis when the result set "
                    f"varies {self.parameters}"
                )
            axis = self.parameters[0]
        axis = self.resolve_parameter(axis)
        return [
            (point.overrides[axis], point.value(scheme, metric))
            for point in self.points
        ]

    def pareto_front(self, scheme: str, metrics: Sequence[str],
                     minimize: bool | Sequence[bool] = True) -> list[PointResult]:
        """Non-dominated points of one scheme over several metrics.

        ``minimize`` applies to all metrics when a single bool, or per
        metric when a sequence (``False`` means bigger is better, e.g.
        a savings percentage).
        """
        if not metrics:
            raise ConfigurationError("pareto_front needs at least one metric")
        if isinstance(minimize, bool):
            senses = [minimize] * len(metrics)
        else:
            senses = list(minimize)
            if len(senses) != len(metrics):
                raise ConfigurationError(
                    "minimize must be a bool or match the metric count"
                )
        # Normalise to minimisation by flipping maximised metrics.
        scored = [
            (point, [point.value(scheme, metric) * (1.0 if sense else -1.0)
                     for metric, sense in zip(metrics, senses)])
            for point in self.points
        ]

        def dominates(a: list[float], b: list[float]) -> bool:
            return all(x <= y for x, y in zip(a, b)) and any(
                x < y for x, y in zip(a, b)
            )

        front = [
            point for point, score in scored
            if not any(dominates(other, score)
                       for _, other in scored if other is not score)
        ]
        return front

    def to_records(self) -> list[dict]:
        """Flat rows: parameter assignment merged into each scheme record."""
        rows = []
        for point in self.points:
            for record in point.records:
                row = dict(point.overrides)
                row.update(record)
                rows.append(row)
        return rows
