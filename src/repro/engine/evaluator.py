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
from .executor import EXECUTOR_NAMES, WorkItem, check_max_workers, resolve_executor
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
        ``"serial"``, ``"distributed"``, or any object with a
        ``run(items) -> results`` method.  A string spec is resolved
        once, on the first batch, and the instance reused across
        :meth:`evaluate` calls, so a ``"distributed"`` worker fleet
        (``max_workers`` spawned local workers) persists for the
        evaluator's lifetime; :meth:`close` (or using the evaluator as a
        context manager) shuts it down.  Executor *objects* are
        borrowed: whoever built one closes it.
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
        if not (hasattr(executor, "run") or executor in EXECUTOR_NAMES):
            resolve_executor(executor)  # raises the canonical error
        check_max_workers(max_workers)
        self.scheme_names = tuple(names)
        self.baseline_name = baseline_name
        self.executor = executor
        self.max_workers = max_workers
        #: The executor this evaluator built from its string spec, once
        #: a batch needed it: reused across evaluate() calls and closed
        #: by close().
        self._owned_executor: object | None = None
        #: Cache writes that failed across evaluate() calls.
        self.cache_write_failures = 0
        if cache is not None and cache_dir is not None:
            raise ConfigurationError("pass either cache or cache_dir, not both")
        self.cache = cache if cache is not None else EvaluationCache(directory=cache_dir)

    def _resolve_executor(self):
        """The executor for one batch: a borrowed object passes through;
        a string spec resolves to the owned, session-persistent instance."""
        spec = self.executor
        if hasattr(spec, "run"):
            return spec
        if self._owned_executor is None:
            self._owned_executor = resolve_executor(spec, max_workers=self.max_workers)
        return self._owned_executor

    def close(self) -> None:
        """Shut down the executor this evaluator owns (a distributed
        fleet); a borrowed executor object is untouched."""
        owned, self._owned_executor = self._owned_executor, None
        close = getattr(owned, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "Evaluator":
        """Context-managed use: the owned executor dies with the block."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the owned executor on exit."""
        self.close()

    def executors(self) -> list:
        """The live executors: the borrowed object, or the instance
        built from a string spec once a batch needed it."""
        if hasattr(self.executor, "run"):
            return [self.executor]
        return [] if self._owned_executor is None else [self._owned_executor]

    def evaluate_misses(self, misses: Sequence[tuple[str, ExperimentConfig]]
                        ) -> tuple[list[CachedEntry], int]:
        """Evaluate unique ``(key, config)`` cache misses and persist them.

        A result count that breaks the ``run(items)`` contract raises
        :class:`RuntimeError` before anything is cached.  Writes are best
        effort — a failed ``put`` only leaves that point unmemoised — and
        disk-hit recency is flushed once per batch.  Returns the entries,
        in ``misses`` order, and the failed-write count.
        """
        entries: list[CachedEntry] = []
        if misses:
            executor = self._resolve_executor()
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
