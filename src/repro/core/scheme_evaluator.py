"""Single-scheme evaluation driver.

Combines an :class:`~repro.core.config.ExperimentConfig` with a scheme
name and produces either of two per-scheme results the comparison
engine, benchmarks and examples consume:

* :meth:`SchemeEvaluator.evaluate` — the full
  :class:`~repro.power.savings.SchemeEvaluation` plus the structural
  inventory (the object API behind
  :func:`~repro.core.comparison.compare_schemes`);
* :func:`evaluate_scheme` — a built scheme's :class:`SchemeFigures`,
  every Table 1 figure read once off its activity profile (the record
  path behind :func:`~repro.core.comparison.point_records`).

Structural memoisation
----------------------
Building a :class:`~repro.crossbar.base.CrossbarScheme` resolves wire
geometry, device sizing and the technology library — none of which
depend on the activity scalars (``static_probability``,
``toggle_activity``).  A process-wide bounded cache therefore shares
libraries keyed by their technology point and built schemes keyed by
(library, crossbar config, scheme name), so a design-space sweep that
varies only non-structural scalars builds each scheme's geometry once
instead of once per point.  Schemes are analytically pure (every
activity-dependent method takes the scalars as arguments), which is what
makes the sharing sound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from ..circuit.netlist import NetlistStatistics
from ..crossbar.base import CrossbarScheme
from ..crossbar.factory import create_scheme
from ..crossbar.ports import CrossbarConfig
from ..errors import PowerError
from ..power import savings
from ..power.savings import SchemeEvaluation
from ..technology.library import TechnologyLibrary
from ..timing.delay_analysis import DelayReport
from .config import ExperimentConfig

__all__ = ["SchemeResult", "SchemeEvaluator", "StructuralCacheStats",
           "structural_cache_stats", "clear_structural_cache"]


@dataclass(frozen=True)
class _LibraryKey:
    """The experiment scalars a technology library depends on."""

    technology_node: str
    temperature_celsius: float
    corner: str
    clock_frequency: float

    @classmethod
    def of(cls, config: ExperimentConfig) -> "_LibraryKey":
        return cls(
            technology_node=config.technology_node,
            temperature_celsius=config.temperature_celsius,
            corner=config.corner,
            clock_frequency=config.clock_frequency,
        )


@dataclass
class StructuralCacheStats:
    """Hit/miss accounting for the process-wide structural cache.

    ``kernel_hits`` / ``kernel_misses`` aggregate the leakage-kernel
    memo (:class:`repro.circuit.biasing.LeakageKernel`) across every
    library, so one stats object describes the whole fast path: shared
    structure (libraries, schemes) and shared bias-point evaluations.
    """

    library_hits: int = 0
    library_misses: int = 0
    scheme_hits: int = 0
    scheme_misses: int = 0

    @property
    def kernel_hits(self) -> int:
        """Leakage-kernel memo hits, aggregated across all libraries."""
        from ..circuit.biasing import kernel_totals

        return kernel_totals().hits

    @property
    def kernel_misses(self) -> int:
        """Leakage-kernel memo misses (unique bias points evaluated)."""
        from ..circuit.biasing import kernel_totals

        return kernel_totals().misses

    @property
    def kernel_hit_rate(self) -> float:
        """Fraction of bias-point evaluations served from the memo."""
        from ..circuit.biasing import kernel_totals

        return kernel_totals().hit_rate

    def as_payload(self) -> dict:
        """JSON-safe snapshot of every counter (``GET /stats`` block)."""
        return {
            "library_hits": self.library_hits,
            "library_misses": self.library_misses,
            "scheme_hits": self.scheme_hits,
            "scheme_misses": self.scheme_misses,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
            "kernel_hit_rate": self.kernel_hit_rate,
        }


class _StructuralCache:
    """Bounded LRU store of built libraries and schemes."""

    def __init__(self, max_libraries: int = 32, max_schemes: int = 256) -> None:
        self.max_libraries = max_libraries
        self.max_schemes = max_schemes
        self.stats = StructuralCacheStats()
        self._libraries: OrderedDict[_LibraryKey, TechnologyLibrary] = OrderedDict()
        self._schemes: OrderedDict[tuple[_LibraryKey, CrossbarConfig, str],
                                   CrossbarScheme] = OrderedDict()

    def library_for(self, config: ExperimentConfig) -> TechnologyLibrary:
        key = _LibraryKey.of(config)
        library = self._libraries.get(key)
        if library is not None:
            self._libraries.move_to_end(key)
            self.stats.library_hits += 1
            return library
        self.stats.library_misses += 1
        library = config.build_library()
        self._libraries[key] = library
        while len(self._libraries) > self.max_libraries:
            self._libraries.popitem(last=False)
        return library

    def scheme_for(self, library_key: _LibraryKey, library: TechnologyLibrary,
                   crossbar: CrossbarConfig, name: str) -> CrossbarScheme:
        key = (library_key, crossbar, name)
        scheme = self._schemes.get(key)
        if scheme is not None and scheme.library is library:
            self._schemes.move_to_end(key)
            self.stats.scheme_hits += 1
            return scheme
        self.stats.scheme_misses += 1
        scheme = create_scheme(name, library, crossbar)
        self._schemes[key] = scheme
        while len(self._schemes) > self.max_schemes:
            self._schemes.popitem(last=False)
        return scheme

    def clear(self) -> None:
        self._libraries.clear()
        self._schemes.clear()
        self.stats = StructuralCacheStats()


_STRUCTURAL_CACHE = _StructuralCache()


def structural_cache_stats() -> StructuralCacheStats:
    """Counters of the process-wide library/scheme structural cache."""
    return _STRUCTURAL_CACHE.stats


def clear_structural_cache() -> None:
    """Drop all memoised libraries and schemes (mainly for tests).

    Also zeroes the leakage-kernel counters — the process-wide totals
    *and* the per-kernel stats of any kernel still alive on a library a
    caller holds — so per-library stats remain a consistent share of
    the aggregate after the clear.  (Kernels on dropped libraries are
    garbage-collected with them.)
    """
    from ..circuit.biasing import reset_kernel_totals

    _STRUCTURAL_CACHE.clear()
    reset_kernel_totals()




@dataclass(frozen=True)
class SchemeResult:
    """Evaluation plus structural inventory for one scheme."""

    scheme_name: str
    evaluation: SchemeEvaluation
    single_bit_inventory: NetlistStatistics

    @property
    def high_vt_device_fraction(self) -> float:
        """Fraction of devices in one output path that are high-Vt."""
        return self.single_bit_inventory.high_vt_fraction


class SchemeEvaluator:
    """Evaluates schemes under one experiment configuration.

    The technology library and built schemes come from the process-wide
    structural cache (the library object is shared by every scheme, so
    identity matters for comparisons); activity-dependent analysis runs
    per call.  Pass ``library`` explicitly to bypass the cache, e.g. for
    a hand-modified library.
    """

    def __init__(self, config: ExperimentConfig | None = None,
                 library: TechnologyLibrary | None = None) -> None:
        self.config = config if config is not None else ExperimentConfig()
        if library is not None:
            self.library = library
            self._library_key = None
        else:
            self.library = _STRUCTURAL_CACHE.library_for(self.config)
            self._library_key = _LibraryKey.of(self.config)

    def build_scheme(self, name: str) -> CrossbarScheme:
        """Instantiate (or reuse) a crossbar scheme under this experiment's
        configuration."""
        if self._library_key is None:
            return create_scheme(name, self.library, self.config.crossbar)
        return _STRUCTURAL_CACHE.scheme_for(
            self._library_key, self.library, self.config.crossbar, name
        )

    def kernel_stats(self):
        """Leakage-kernel hit/miss stats of this evaluator's library.

        The per-library share of the process-wide
        :attr:`StructuralCacheStats.kernel_hits` aggregate — a
        :class:`~repro.circuit.biasing.KernelStats` with ``hits``,
        ``misses``, ``hit_rate`` and ``as_payload()``.
        """
        from ..circuit.biasing import kernel_for

        return kernel_for(self.library).stats

    def evaluate(self, name: str) -> SchemeResult:
        """Fully evaluate one scheme."""
        scheme = self.build_scheme(name)
        evaluation = savings.evaluate_scheme(
            scheme,
            static_probability=self.config.static_probability,
            toggle_activity=self.config.toggle_activity,
            frequency=self.config.clock_frequency,
        )
        return SchemeResult(
            scheme_name=scheme.name,
            evaluation=evaluation,
            single_bit_inventory=scheme.single_bit_statistics,
        )


class SchemeFigures(NamedTuple):
    """One scheme's Table 1 figures at one (p, t) point, in SI units."""

    scheme: CrossbarScheme
    delay: DelayReport
    active_power: float
    standby_power: float
    total_power: float
    transition_energy: float
    power_saved_in_standby: float


def evaluate_scheme(scheme: CrossbarScheme, config: ExperimentConfig) -> SchemeFigures:
    """Every figure a record needs, each computed once from the scheme's
    profile methods with the float operations of
    :func:`~repro.power.savings.evaluate_scheme` (which builds the
    analysis objects instead), validated in its order."""
    probability, toggle = config.static_probability, config.toggle_activity
    clock = config.clock_frequency
    if not 0.0 <= probability <= 1.0:
        raise PowerError(f"static probability must be in [0, 1], got {probability}")
    vdd = scheme.supply_voltage
    active_power = scheme.active_leakage(probability).power(vdd)
    idle_power = scheme.idle_leakage(probability).power(vdd)
    standby_power = scheme.standby_leakage().power(vdd)
    if not 0.0 <= toggle <= 1.0:
        raise PowerError(f"toggle_activity must be in [0, 1], got {toggle}")
    if clock <= 0:
        raise PowerError("frequency must be positive")
    dynamic_power = scheme.dynamic_energy_per_cycle(toggle, probability) * clock
    if not scheme.has_sleep_mode:
        raise PowerError(f"scheme {scheme.name!r} has no standby mode")
    return SchemeFigures(
        scheme=scheme,
        delay=scheme.delay_report(),
        active_power=active_power,
        standby_power=standby_power,
        total_power=dynamic_power + active_power,
        transition_energy=scheme.sleep_transition_energy(probability),
        power_saved_in_standby=max(idle_power - standby_power, 0.0),
    )
