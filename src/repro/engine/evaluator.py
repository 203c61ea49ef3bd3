"""The design-space evaluation engine.

:class:`Evaluator` ties the layers together: it expands a
:class:`~repro.engine.grid.DesignSpace` into configs, serves every point
it can from the content-addressed cache, fans the misses out through the
chosen executor, stores the fresh results, and reassembles everything —
in grid order — into a :class:`~repro.engine.resultset.ResultSet`.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.config import ExperimentConfig
from ..crossbar.factory import available_schemes
from ..errors import ConfigurationError
from .cache import CachedEntry, EvaluationCache, point_key
from .grid import DesignSpace
from .executor import WorkItem, auto_executor_name, resolve_executor
from .resultset import PointResult, ResultSet

__all__ = ["Evaluator"]


class Evaluator:
    """Evaluates design spaces with caching and pluggable execution.

    Parameters
    ----------
    base_config:
        The configuration every grid point overrides (default: the
        paper's point).
    scheme_names / baseline_name:
        Which schemes each point evaluates and which is the savings
        baseline — the same contract as
        :func:`~repro.core.comparison.compare_schemes`.
    executor:
        ``"serial"``, ``"process"``, ``"auto"``, ``"distributed"``, or
        any object with a ``run(items) -> results`` method.  String
        specs are resolved once and the instances reused across
        :meth:`evaluate` calls, so process pools and distributed worker
        fleets persist for the evaluator's lifetime; :meth:`close` (or
        using the evaluator as a context manager) shuts owned executors
        down.  Executor *objects* are borrowed: whoever built one closes
        it.
    cache / cache_dir:
        An existing :class:`EvaluationCache` to share, or a directory
        for a new disk-backed one.  By default the evaluator keeps a
        private in-memory cache, so repeated points within and across
        :meth:`evaluate` calls on the same evaluator are free.
    """

    def __init__(self, base_config: ExperimentConfig | None = None,
                 scheme_names: Sequence[str] | None = None,
                 baseline_name: str = "SC",
                 executor: object = "serial",
                 cache: EvaluationCache | None = None,
                 cache_dir: object = None,
                 max_workers: int | None = None) -> None:
        self.base_config = base_config if base_config is not None else ExperimentConfig()
        names = list(scheme_names) if scheme_names is not None else available_schemes()
        if baseline_name not in names:
            raise ConfigurationError(
                f"baseline {baseline_name!r} must be among the evaluated schemes {names}"
            )
        self.scheme_names = tuple(names)
        self.baseline_name = baseline_name
        self.executor = executor
        self.max_workers = max_workers
        #: Executors this evaluator built from string specs, by name —
        #: reused across evaluate() calls and closed by close().
        self._owned_executors: dict[str, object] = {}
        #: Cache writes that failed across evaluate() calls.
        self.cache_write_failures = 0
        if cache is not None and cache_dir is not None:
            raise ConfigurationError("pass either cache or cache_dir, not both")
        self.cache = cache if cache is not None else EvaluationCache(directory=cache_dir)

    def _resolve_executor(self, point_count: int):
        """The executor for one batch: borrowed objects pass through;
        string specs resolve to owned, session-persistent instances
        (``"auto"`` still picks serial vs process per batch, but reuses
        one process pool across every batch that goes parallel)."""
        spec = self.executor
        if hasattr(spec, "run"):
            return spec
        if spec == "auto":
            spec = auto_executor_name(point_count)
        if not isinstance(spec, str):
            return resolve_executor(spec)  # raises the canonical error
        owned = self._owned_executors.get(spec)
        if owned is None:
            owned = resolve_executor(spec, point_count=point_count,
                                     max_workers=self.max_workers)
            self._owned_executors[spec] = owned
        return owned

    def close(self) -> None:
        """Shut down executors this evaluator owns (process pools,
        distributed fleets); borrowed executor objects are untouched."""
        owned, self._owned_executors = self._owned_executors, {}
        for executor in owned.values():
            close = getattr(executor, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "Evaluator":
        """Context-managed use: owned executors die with the block."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close owned executors on exit."""
        self.close()

    def executors(self) -> list:
        """The live executors: the borrowed object, or the instances
        built so far from a string spec."""
        if hasattr(self.executor, "run"):
            return [self.executor]
        return list(self._owned_executors.values())

    def evaluate_misses(self, misses: Sequence[tuple[str, ExperimentConfig]]
                        ) -> tuple[list[CachedEntry], int]:
        """Evaluate unique ``(key, config)`` cache misses and persist them.

        The executor is resolved per batch (``"auto"`` sizes itself to
        ``len(misses)``); a result count that breaks the ``run(items)``
        contract raises :class:`RuntimeError` before anything is cached.
        Writes are best effort — a failed ``put`` only leaves that point
        unmemoised — and disk-hit recency is flushed once per batch.  Returns
        the entries, in ``misses`` order, and the failed-write count.
        """
        entries: list[CachedEntry] = []
        if misses:
            executor = self._resolve_executor(point_count=len(misses))
            items = [WorkItem(config=config, scheme_names=self.scheme_names,
                              baseline_name=self.baseline_name)
                     for _key, config in misses]
            outcomes = list(executor.run(items))
            if len(outcomes) != len(items):
                # A pluggable executor violating the run(items) contract
                # must fail the whole batch: a silent short zip would
                # leave the tail unanswered.
                raise RuntimeError(
                    f"executor {getattr(executor, 'name', executor)!r} "
                    f"returned {len(outcomes)} results for {len(items)} items"
                )
            entries = [CachedEntry(records=outcome.records) for outcome in outcomes]
        write_failures = 0
        for (key, _config), entry in zip(misses, entries):
            try:
                self.cache.put(key, entry)
            except Exception:
                write_failures += 1
        try:
            self.cache.flush_index()
        except OSError:
            write_failures += 1
        return entries, write_failures

    def evaluate(self, space: DesignSpace) -> ResultSet:
        """Evaluate every point of ``space``, cheapest way possible.

        Each grid point's overrides (flat or dotted) are resolved into a
        fully nested :class:`ExperimentConfig` *before* anything is
        cached or fanned out, so work items are self-contained and the
        cache key always covers the complete nested structure.  Failed
        cache writes are counted in :attr:`cache_write_failures`; the
        results are returned regardless.
        """
        grid_points = space.points()
        configs = [point.config(self.base_config) for point in grid_points]
        keys = [point_key(config, self.scheme_names, self.baseline_name)
                for config in configs]

        entries: list[CachedEntry | None] = [self.cache.get(key) for key in keys]
        from_cache = [entry is not None for entry in entries]

        # Deduplicate misses by key so a point repeated within one batch
        # (overlapping sweeps, duplicated grid values) is evaluated once.
        # Recency is flushed on the all-hit path too, so LRU recency
        # from disk hits survives the session.
        misses: dict[str, ExperimentConfig] = {}
        for key, config, entry in zip(keys, configs, entries):
            if entry is None:
                misses.setdefault(key, config)
        fresh, write_failures = self.evaluate_misses(list(misses.items()))
        self.cache_write_failures += write_failures
        fresh_by_key = dict(zip(misses, fresh))

        results = []
        for grid_point, config, key, entry, cached in zip(
                grid_points, configs, keys, entries, from_cache):
            if entry is None:
                entry = fresh_by_key[key]
            results.append(PointResult(
                index=grid_point.index,
                items=grid_point.items,
                config=config,
                records=tuple(entry.records),
                from_cache=cached,
            ))
        return ResultSet(parameters=space.parameters, points=results)

    def evaluate_grid(self, axes: dict) -> ResultSet:
        """Convenience: build the Cartesian grid and evaluate it.

        Axes may be flat fields or dotted config paths::

            Evaluator().evaluate_grid({
                "crossbar.port_count": [3, 5, 8],
                "technology_node": ["65nm", "45nm"],
            })
        """
        return self.evaluate(DesignSpace.grid(axes))
