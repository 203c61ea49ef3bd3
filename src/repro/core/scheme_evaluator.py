"""Single-scheme evaluation driver.

Combines an :class:`~repro.core.config.ExperimentConfig` with a scheme
name and produces either of two per-scheme results the comparison
engine, benchmarks and examples consume:

* :meth:`SchemeEvaluator.evaluate` — the full
  :class:`~repro.power.savings.SchemeEvaluation` plus the structural
  inventory (the object API behind
  :func:`~repro.core.comparison.compare_schemes`);
* :func:`evaluate_scheme` — a built scheme's :class:`SchemeFigures`
  alone (the record path behind
  :func:`~repro.core.comparison.point_records`).

Both compute a scheme's figures with one function,
:func:`~repro.power.savings.scheme_figures`, from the scheme's record
terms: one formula set and one validation order.

Structural memoisation
----------------------
Analysing a :class:`~repro.crossbar.base.CrossbarScheme` resolves wire
geometry, device sizing and the technology library — none of which
depend on the activity scalars (``static_probability``,
``toggle_activity``).  A process-wide bounded cache therefore has three
keyspaces:

* libraries, keyed by their technology point;
* built schemes, keyed by (library, crossbar config, scheme name), so a
  design-space sweep that varies only non-structural scalars derives
  each scheme's geometry once instead of once per point;
* device parts (:meth:`CrossbarScheme.derive_device_part
  <repro.crossbar.base.CrossbarScheme.derive_device_part>`: the
  state-dependent leakage terms and the high-Vt device fraction), keyed
  by value — technology point, scheme class, features, Vt plan and the
  :data:`~repro.crossbar.base.DEVICE_PART_FIELDS` of the crossbar — so a
  new crossbar that differs from a seen one only in flit width or wire
  geometry skips the leakage walk.  Entries are flat arrays of 40
  doubles, about 0.9 KB each with their key and LRU slot.

Schemes are analytically pure (every activity-dependent method takes the
scalars as arguments), which is what makes the sharing sound.  Only
schemes obtained through the cache share device parts; a scheme built on
a caller-supplied library derives its own.

A structure the memo misses gets one
:class:`~repro.crossbar.frame.CrossbarFrame` — the crossbar's wires and
segmented row and its sized devices' figures, as floats — and every
scheme the scheme LRU misses for it reads that frame.  Constructing a
scheme only stores its spec; its view of the frame resolves its devices
and wires (the checks of building its circuit) before its device part
is looked up; its geometry (:func:`~repro.crossbar.frame.geometry_terms`)
and, on a device-part miss, its leakage walk
(:func:`~repro.crossbar.frame.device_part_terms`) are float passes over
that view.  No gate object is built on the record path.

The record path asks for a whole point's schemes at once
(:func:`schemes_for`).  A one-structure memo keeps the (library key,
crossbar config, scheme names) of the last point served with its built
schemes, checked first by identity (an evaluator's grid reuses one
crossbar object), then by value (fleet and service items carry fresh,
equal ones), so a warm point makes one check instead of one library and
five scheme lookups.  A memo hit counts as the library and scheme hits
it replaces, and its LRU entries get the recency those lookups would
have given them before any other lookup.  Any eviction from the library
or scheme LRU empties the memo, so it never serves a scheme whose
library was replaced and never keeps a scheme alive past the LRU.

Record terms
------------
:func:`evaluate_scheme` computes each scheme's figures from its
**record terms**, a flat tuple derived once per scheme
(:meth:`CrossbarScheme.derive_record_terms
<repro.crossbar.base.CrossbarScheme.derive_record_terms>`, which owns
the layout and the arithmetic) and cached on the scheme as
:attr:`~repro.crossbar.base.CrossbarScheme.record_terms`.

The memo entry also carries the structure's :class:`RecordPlan`: what
the records of its points share (the structure constants, and the
leakage of the last static probability served), so
:func:`~repro.core.comparison.point_records` computes only the dynamic
power of a point whose static probability the plan already holds.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from ..circuit.devices import DeviceStatistics
from ..crossbar.base import DEVICE_PART_FIELDS, CrossbarScheme, SchemeFigures
from ..crossbar.factory import available_schemes, create_scheme
from ..crossbar.frame import CrossbarFrame
from ..crossbar.ports import CrossbarConfig
from ..errors import ConfigurationError
from ..power import savings
from ..power.savings import SchemeEvaluation
from ..technology.library import TechnologyLibrary
from .config import ExperimentConfig

__all__ = ["SchemeResult", "SchemeEvaluator", "StructuralCacheStats", "RecordPlan",
           "structural_cache_stats", "clear_structural_cache", "schemes_for",
           "structure_for"]


class _LibraryKey(NamedTuple):
    """The experiment scalars a technology library depends on."""

    technology_node: str
    temperature_celsius: float
    corner: str
    clock_frequency: float

    @classmethod
    def of(cls, config: ExperimentConfig) -> "_LibraryKey":
        return cls(config.technology_node, config.temperature_celsius,
                   config.corner, config.clock_frequency)


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
    device_part_hits: int = 0
    device_part_misses: int = 0

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
            "device_part_hits": self.device_part_hits,
            "device_part_misses": self.device_part_misses,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
            "kernel_hit_rate": self.kernel_hit_rate,
        }


_device_fields = attrgetter(*DEVICE_PART_FIELDS)


class RecordPlan:
    """What the records of one structure's points share, kept on its
    memo entry and filled and read by
    :func:`~repro.core.comparison.point_records`.

    * ``constants``: ``(baseline name, baseline index, rows)``, with one
      row per evaluated scheme in record order — its name, record terms,
      the two delays in picoseconds, the delay penalty in percent
      against that baseline and the high-Vt device fraction: everything
      of a record that depends on the structure alone;
    * ``slot``: ``(static probability, baseline name, baseline index,
      rows)`` of the last point served in full, each row the constants
      row followed by the scheme's active leakage power in watts, its
      active and standby leakage in milliwatts, its two savings in
      percent and its minimum idle cycles: everything that depends on
      the structure and the static probability, not on the toggle
      activity.  One entry, so no bound.

    Each is replaced whole, never updated in place, so a reader sees a
    consistent tuple.  The plan holds no scheme and lives and dies with
    its memo entry: an eviction, a cache clear or a re-registered scheme
    drops it.
    """

    __slots__ = ("constants", "slot")

    def __init__(self) -> None:
        self.constants: tuple = (None, 0, ())
        self.slot: tuple = (None, None, 0, ())


class _Structure(NamedTuple):
    """The last point structure served: the built schemes of (library
    key, crossbar config, scheme names) and their record plan."""

    library_key: _LibraryKey
    crossbar: CrossbarConfig
    names: tuple[str, ...]
    pairs: tuple[tuple[str, CrossbarScheme], ...]
    plan: RecordPlan


class _StructuralCache:
    """Bounded LRU store of built libraries, schemes and device parts,
    plus a one-structure memo in front of the first two."""

    def __init__(self, max_libraries: int = 32, max_schemes: int = 256,
                 max_device_parts: int = 2048) -> None:
        self.max_libraries = max_libraries
        self.max_schemes = max_schemes
        self.max_device_parts = max_device_parts
        self.stats = StructuralCacheStats()
        self._libraries: OrderedDict[_LibraryKey, TechnologyLibrary] = OrderedDict()
        self._schemes: OrderedDict[tuple[_LibraryKey, CrossbarConfig, str],
                                   CrossbarScheme] = OrderedDict()
        self._device_parts: OrderedDict[tuple, array] = OrderedDict()
        self._last: _Structure | None = None
        # Whether _last was served since the LRUs last saw its entries.
        self._touched = False

    def _sync(self) -> None:
        """Give the last structure's LRU entries the recency that the
        lookups its memo hits stand for would have given them.  Called
        before every other library or scheme lookup, so the LRUs see the
        lookups in the order they were made (repeating the same lookups
        leaves the same order)."""
        if self._touched:
            self._touched = False
            library_key, crossbar, _, pairs, _ = self._last
            self._libraries.move_to_end(library_key)
            for name, _ in pairs:
                self._schemes.move_to_end((library_key, crossbar, name))

    def library_for(self, config: ExperimentConfig,
                    key: _LibraryKey | None = None) -> TechnologyLibrary:
        self._sync()
        key = _LibraryKey.of(config) if key is None else key
        library = self._libraries.get(key)
        if library is not None:
            self._libraries.move_to_end(key)
            self.stats.library_hits += 1
            return library
        self.stats.library_misses += 1
        library = config.build_library()
        self._insert(self._libraries, key, library, self.max_libraries)
        return library

    def scheme_for(self, library_key: _LibraryKey, library: TechnologyLibrary,
                   crossbar: CrossbarConfig, name: str,
                   frame: CrossbarFrame | None = None) -> CrossbarScheme:
        """The scheme ``name`` on ``crossbar``, built on a miss to read
        ``frame`` (its structure's shared frame; by default its own)."""
        self._sync()
        key = (library_key, crossbar, name)
        scheme = self._schemes.get(key)
        if scheme is not None and scheme.library is library:
            self._schemes.move_to_end(key)
            self.stats.scheme_hits += 1
            return scheme
        self.stats.scheme_misses += 1
        scheme = create_scheme(name, library, crossbar)
        if frame is not None:
            scheme.frame = frame
        # The view resolves the scheme's devices and wires: the checks of
        # building its circuit come before its device part, hit or miss.
        scheme.view
        scheme.device_part = self.device_part_for(library_key, scheme)
        self._insert(self._schemes, key, scheme, self.max_schemes)
        return scheme

    def _insert(self, lru: OrderedDict, key, value, bound: int) -> None:
        """Insert into the library or scheme LRU.  An eviction or a
        replaced entry also empties the memo, so it never serves, or
        keeps alive, an entry the LRU dropped."""
        if key in lru or len(lru) >= bound:
            self._last = None
        lru[key] = value
        while len(lru) > bound:
            lru.popitem(last=False)

    def structure_for(self, config: ExperimentConfig, scheme_names: list[str] | None,
                      baseline_name: str
                      ) -> tuple[Iterable[tuple[str, CrossbarScheme]], RecordPlan]:
        """The ``(name, scheme)`` pairs of one point, in ``scheme_names``
        order (default: all registered schemes), which must include
        ``baseline_name``, and the structure's record plan.

        Served from the memo when the last structure served has this
        technology point, crossbar (checked by identity, then by value)
        and names, counting one library hit and one scheme hit per name.
        Otherwise the library is looked up and the names checked now, and
        each scheme is looked up as the pairs are iterated, so a caller
        that evaluates each scheme as it gets it sees the errors in
        :func:`~repro.core.comparison.compare_schemes` order; the
        structure is memoised, with a new empty plan, once every scheme
        is built.
        """
        names = _scheme_names(scheme_names)
        library_key = _LibraryKey.of(config)
        crossbar = config.crossbar
        key_names = tuple(names)
        last = self._last
        if (last is None or (last.crossbar is not crossbar and last.crossbar != crossbar)
                or last.names != key_names or last.library_key != library_key):
            library = self.library_for(config, library_key)
            _check_baseline(names, baseline_name)
            plan = RecordPlan()
            return self._build(library_key, library, crossbar, key_names, plan), plan
        self.stats.library_hits += 1
        _check_baseline(names, baseline_name)
        self.stats.scheme_hits += len(key_names)
        self._touched = True
        return last.pairs, last.plan

    def _build(self, library_key: _LibraryKey, library: TechnologyLibrary,
               crossbar: CrossbarConfig, names: tuple[str, ...], plan: RecordPlan
               ) -> Iterator[tuple[str, CrossbarScheme]]:
        frame = CrossbarFrame(library, crossbar)
        pairs = []
        for name in names:
            pair = (name, self.scheme_for(library_key, library, crossbar, name, frame))
            pairs.append(pair)
            yield pair
        # With more names than the scheme LRU holds, the build evicted its
        # own first schemes: the memo holds only what the LRUs hold.
        if len(names) > self.max_schemes:
            return
        self._sync()
        self._last = _Structure(library_key, crossbar, names, tuple(pairs), plan)

    def device_part_for(self, library_key: _LibraryKey, scheme: CrossbarScheme) -> array:
        """The shared device part of ``scheme``, built on ``library_key``'s
        library, derived from ``scheme`` on a miss.  The key holds the
        scheme's class, features and Vt plan rather than its name, so a
        re-registered name cannot alias another scheme's entry."""
        key = (library_key, type(scheme), scheme.features, scheme.vt_plan,
               *_device_fields(scheme.config))
        part = self._device_parts.get(key)
        if part is not None:
            self._device_parts.move_to_end(key)
            self.stats.device_part_hits += 1
            return part
        self.stats.device_part_misses += 1
        part = scheme.derive_device_part()
        self._device_parts[key] = part
        while len(self._device_parts) > self.max_device_parts:
            self._device_parts.popitem(last=False)
        return part

    def clear(self) -> None:
        self._libraries.clear()
        self._schemes.clear()
        self._device_parts.clear()
        self._last = None
        self._touched = False
        self.stats = StructuralCacheStats()


_STRUCTURAL_CACHE = _StructuralCache()


def structural_cache_stats() -> StructuralCacheStats:
    """Counters of the process-wide structural cache (libraries, schemes,
    device parts and the leakage kernels)."""
    return _STRUCTURAL_CACHE.stats


def clear_structural_cache() -> None:
    """Drop all memoised libraries, schemes, device parts and structures
    (mainly for tests).

    Also zeroes the leakage-kernel counters — the process-wide totals
    *and* the per-kernel stats of any kernel still alive on a library a
    caller holds — so per-library stats remain a consistent share of
    the aggregate after the clear.  (Kernels on dropped libraries are
    garbage-collected with them.)
    """
    from ..circuit.biasing import reset_kernel_totals

    _STRUCTURAL_CACHE.clear()
    reset_kernel_totals()


def _scheme_names(scheme_names: list[str] | None) -> list[str]:
    """The evaluated scheme names: ``scheme_names``, or every registered
    scheme."""
    return scheme_names if scheme_names is not None else available_schemes()


def _check_baseline(names: list[str], baseline_name: str) -> None:
    if baseline_name not in names:
        raise ConfigurationError(
            f"baseline {baseline_name!r} must be among the evaluated schemes {names}"
        )


def checked_names(scheme_names: list[str] | None, baseline_name: str) -> list[str]:
    """The evaluated scheme names (default: all), which must include the
    baseline."""
    names = _scheme_names(scheme_names)
    _check_baseline(names, baseline_name)
    return names


def schemes_for(config: ExperimentConfig, scheme_names: list[str] | None = None,
                baseline_name: str = "SC") -> Iterable[tuple[str, CrossbarScheme]]:
    """The ``(name, scheme)`` pairs of one point from the structural
    cache: the library of ``config``'s technology point, then each scheme
    of ``scheme_names`` (default: all) on ``config.crossbar``, which must
    include ``baseline_name``.

    Iterate the result once.  On a memo miss, each scheme is looked up
    (or built) as the iteration reaches it, so evaluating each scheme as
    it arrives raises in :func:`~repro.core.comparison.compare_schemes`
    order; the counters are those of the per-scheme lookups either way.
    """
    return _STRUCTURAL_CACHE.structure_for(config, scheme_names, baseline_name)[0]


def structure_for(config: ExperimentConfig, scheme_names: list[str] | None = None,
                  baseline_name: str = "SC"
                  ) -> tuple[Iterable[tuple[str, CrossbarScheme]], RecordPlan]:
    """:func:`schemes_for`'s pairs and the :class:`RecordPlan` of their
    structure: the memoised one on a memo hit, a new empty one on a miss
    (memoised with the structure once the pairs are exhausted)."""
    return _STRUCTURAL_CACHE.structure_for(config, scheme_names, baseline_name)


@dataclass(frozen=True)
class SchemeResult:
    """Evaluation plus structural inventory for one scheme."""

    scheme_name: str
    evaluation: SchemeEvaluation
    single_bit_inventory: DeviceStatistics

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


def evaluate_scheme(scheme: CrossbarScheme, config: ExperimentConfig) -> SchemeFigures:
    """Every figure a record needs at ``config``'s operating point:
    :func:`~repro.power.savings.scheme_figures`, the figures of
    :func:`~repro.power.savings.evaluate_scheme` without its analysis
    objects."""
    return savings.scheme_figures(scheme, config.static_probability,
                                  config.toggle_activity, config.clock_frequency)
