"""Experiment configuration: the paper's evaluation point in one object.

The paper's experiments are fully described by a handful of numbers —
45 nm technology, a 5x5 crossbar, 128-bit flits, 3 GHz, 50 % static
probability, worst-case random data — plus the modelling temperature and
corner.  :class:`ExperimentConfig` bundles them so every benchmark,
example and test refers to a single source of truth, and alternative
points (other nodes, corners, crossbar radixes) are one ``replace`` away.

The configuration is a tree: the crossbar's structural/sizing knobs live
in the nested :class:`~repro.crossbar.ports.CrossbarConfig`.  Any leaf
of the tree can be addressed with a dotted path — ``with_overrides``
accepts ``**{"crossbar.port_count": 8}`` alongside the flat top-level
fields, via :mod:`repro.core.paths`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from math import inf

from ..crossbar.ports import CrossbarConfig, config_number
from ..errors import ConfigurationError
from ..technology.library import TechnologyLibrary, default_library_for_node
from ..units import ZERO_CELSIUS_IN_KELVIN
from .paths import normalize_path, set_path

__all__ = ["ExperimentConfig", "paper_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one evaluation point."""

    technology_node: str = "45nm"
    temperature_celsius: float = 110.0
    corner: str = "TT"
    clock_frequency: float = 3.0e9
    static_probability: float = 0.5
    toggle_activity: float = 0.5
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)

    def __post_init__(self) -> None:
        # A name of another type would build and then fail mid-evaluation.
        for name in ("technology_node", "corner"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigurationError(f"{name} must be a name (str), got {value!r}")
        # A number of another type would fail a comparison below with a
        # bare TypeError, or (a bool) pass as 0 or 1.
        for name in ("temperature_celsius", "clock_frequency",
                     "static_probability", "toggle_activity"):
            config_number(name, getattr(self, name))
        # Every check passes only a valid value, so NaN (which fails every
        # comparison) and the infinities are refused with the rest;
        # CrossbarConfig refuses them at the crossbar's leaves.
        if not -ZERO_CELSIUS_IN_KELVIN < self.temperature_celsius < inf:
            raise ConfigurationError(
                f"temperature_celsius must be a finite number above absolute zero "
                f"({-ZERO_CELSIUS_IN_KELVIN} °C), got {self.temperature_celsius}")
        if not 0 < self.clock_frequency < inf:
            raise ConfigurationError(
                f"clock_frequency must be positive and finite, got {self.clock_frequency}")
        for name in ("static_probability", "toggle_activity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    def build_library(self) -> TechnologyLibrary:
        """Instantiate the technology library for this experiment."""
        return default_library_for_node(
            self.technology_node,
            temperature_celsius=self.temperature_celsius,
            corner=self.corner,
            clock_frequency=self.clock_frequency,
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced.

        Keys may be direct fields (``temperature_celsius=25.0``,
        ``crossbar=CrossbarConfig(...)``), dotted paths into the nested
        configs (``**{"crossbar.port_count": 8}``), or any alias
        :func:`~repro.core.paths.normalize_path` accepts.  Direct field
        replacements apply first, then dotted paths in the order given,
        so ``crossbar=...`` composes with ``crossbar.port_count=...``.

        Override names resolve once per distinct name tuple.
        """
        direct, nested = _override_plan(tuple(overrides))
        if not nested:
            return replace(self, **overrides) if overrides else self
        config = replace(self, **{name: overrides[name] for name in direct}) if direct else self
        for name, path in nested:
            config = set_path(config, path, overrides[name])
        return config


_FIELD_NAMES = frozenset(f.name for f in fields(ExperimentConfig))


@functools.lru_cache(maxsize=256)
def _override_plan(names: tuple[str, ...]
                   ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Split ``with_overrides`` names into the direct fields and the
    ``(name, canonical dotted path)`` pairs, once per name tuple."""
    direct: list[str] = []
    nested: dict[str, str] = {}
    for name in names:
        if name in _FIELD_NAMES:
            direct.append(name)
            continue
        try:
            path = normalize_path(name)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"unknown override {name!r}: not an ExperimentConfig "
                f"field, and {exc}"
            ) from exc
        if path in nested:
            raise ConfigurationError(
                f"override {name!r} duplicates config path {path!r}"
            )
        nested[path] = name
    return tuple(direct), tuple((name, path) for path, name in nested.items())


def paper_experiment() -> ExperimentConfig:
    """The configuration of the paper's Table 1.

    45 nm ITRS/BPTM technology, a 5-by-5 crossbar with 128-bit flits,
    3 GHz operation, worst-case 50 % static probability and random data.
    """
    return ExperimentConfig()
