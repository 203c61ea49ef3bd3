"""Executor layer: how design points are fanned out.

Four strategies share one interface:

* ``serial`` — evaluate in-process, in order.  Keeps the live
  :class:`~repro.core.comparison.SchemeComparison` objects, which the
  legacy ``sweep_parameter`` wrapper needs.
* ``process`` — fan out across cores with
  :class:`concurrent.futures.ProcessPoolExecutor`.  Work items travel as
  pickled frozen configs; results come back as the JSON-safe comparison
  records, reassembled in submission order.  The pool is *persistent*:
  it spins up on the first ``run`` and is reused by every subsequent
  one until :meth:`ProcessExecutor.close` (or the context manager)
  shuts it down — a service flushing batch after batch pays pool
  start-up once, not per flush.
* ``auto`` — ``process`` when the machine has more than one core and
  the batch is large enough to amortise pool start-up, else ``serial``.
* ``distributed`` — fan out across *hosts* through
  :class:`~repro.engine.distributed.DistributedExecutor` and its TCP
  worker fleet (``python -m repro.engine.worker``).

Work items carry fully-resolved nested configs, so they need no shared
state to evaluate.  Within each process (the calling one for ``serial``,
every pool worker for ``process``, every fleet worker for
``distributed``) scheme construction goes through the structural cache
in :mod:`repro.core.scheme_evaluator`: consecutive items that differ
only in non-structural scalars (static probability, toggle activity)
reuse the built crossbar geometry and library.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass

from ..core.comparison import SchemeComparison, compare_schemes
from ..core.config import ExperimentConfig
from ..errors import ConfigurationError

__all__ = ["WorkItem", "EvaluatedPoint", "SerialExecutor", "ProcessExecutor",
           "auto_executor_name", "chunk_size", "resolve_executor"]

#: Below this many misses, ``auto`` stays serial: pool start-up costs more
#: than the evaluation itself.
AUTO_PROCESS_THRESHOLD = 8

#: Contiguous chunks a batch is cut into per worker: enough that a slow
#: worker's last chunk holds up little, few enough that per-chunk
#: overhead (a pickle round trip, a wire frame) stays small.
CHUNKS_PER_WORKER = 4


def chunk_size(item_count: int, workers: int) -> int:
    """Items per chunk when ``item_count`` items are shared out over
    ``workers`` workers: about :data:`CHUNKS_PER_WORKER` chunks each
    (a 64-item batch on 2 workers is 8 chunks of 8; a batch smaller
    than ``4 * workers`` goes one item per chunk)."""
    return max(1, math.ceil(item_count / (max(1, workers) * CHUNKS_PER_WORKER)))


@dataclass(frozen=True)
class WorkItem:
    """One evaluation to perform — fully picklable."""

    config: ExperimentConfig
    scheme_names: tuple[str, ...]
    baseline_name: str


@dataclass
class EvaluatedPoint:
    """The outcome of one work item.

    ``comparison`` is only populated by the serial executor; results
    crossing a process boundary carry records alone.
    """

    records: list[dict]
    comparison: SchemeComparison | None = None


def _evaluate_work_item(item: WorkItem) -> list[dict]:
    """Process-pool worker: evaluate one point and return its records."""
    comparison = compare_schemes(
        item.config,
        scheme_names=list(item.scheme_names),
        baseline_name=item.baseline_name,
    )
    return comparison.as_records()


class SerialExecutor:
    """Evaluate work items one after another in the calling process."""

    name = "serial"

    def run(self, items: list[WorkItem]) -> list[EvaluatedPoint]:
        """Evaluate ``items`` in order; every outcome keeps its live
        :class:`~repro.core.comparison.SchemeComparison`."""
        results = []
        for item in items:
            comparison = compare_schemes(
                item.config,
                scheme_names=list(item.scheme_names),
                baseline_name=item.baseline_name,
            )
            results.append(EvaluatedPoint(records=comparison.as_records(),
                                          comparison=comparison))
        return results


class ProcessExecutor:
    """Fan work items out across a persistent process pool, in order.

    The pool is created lazily on the first :meth:`run` and *reused* by
    every subsequent one — successive batches (an evaluator called in a
    loop, the evaluation service's flushes) amortise worker start-up
    and the per-worker structural cache across the whole session
    instead of per batch.  :meth:`close` (or using the executor as a
    context manager) shuts the pool down; a pool broken by a killed
    worker process is discarded and rebuilt once per run.

    A pool created on the main thread uses the platform's default start
    method; one created from any other thread — the evaluation
    service's batch flushes — uses ``"spawn"``, because forking a
    multithreaded process can deadlock the children on locks held at
    fork time.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None,
                 chunksize: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self._pool: ProcessPoolExecutor | None = None

    def _resolved_workers(self, item_count: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, item_count))

    def _resolved_chunksize(self, item_count: int, workers: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return chunk_size(item_count, workers)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, created on first use at full worker strength
        (idle workers are cheap; resizing per batch is not)."""
        if self._pool is None:
            context = (None if threading.current_thread() is threading.main_thread()
                       else multiprocessing.get_context("spawn"))
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers or os.cpu_count() or 1,
                mp_context=context)
        return self._pool

    def run(self, items: list[WorkItem]) -> list[EvaluatedPoint]:
        """Evaluate ``items`` across the pool; results return in
        submission order, carrying records only (no live comparison)."""
        if not items:
            return []
        workers = self._resolved_workers(len(items))
        chunksize = self._resolved_chunksize(len(items), workers)
        try:
            all_records = list(self._ensure_pool().map(
                _evaluate_work_item, items, chunksize=chunksize))
        except BrokenExecutor:
            # A killed worker poisons the whole pool: rebuild it and give
            # the batch one more chance before surfacing the failure.
            self.close()
            all_records = list(self._ensure_pool().map(
                _evaluate_work_item, items, chunksize=chunksize))
        return [EvaluatedPoint(records=records) for records in all_records]

    def close(self) -> None:
        """Shut the pool down (a later :meth:`run` builds a fresh one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        """Context-managed use: the pool dies with the ``with`` block."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the pool on exit."""
        self.close()


def auto_executor_name(point_count: int) -> str:
    """The ``"auto"`` policy in one place: ``"process"`` when the
    machine is multicore and the batch is large enough to amortise the
    pool, else ``"serial"``."""
    cores = os.cpu_count() or 1
    if cores > 1 and point_count >= AUTO_PROCESS_THRESHOLD:
        return "process"
    return "serial"


def resolve_executor(spec: object, point_count: int = 0,
                     max_workers: int | None = None):
    """Turn an executor spec into an executor instance.

    ``spec`` may be an executor object (anything with a ``run`` method)
    or one of the strings ``"serial"``, ``"process"``, ``"auto"``,
    ``"distributed"``.  The ``"distributed"`` shorthand builds a
    loopback fleet that spawns ``max_workers`` (default: the core
    count) local worker processes; multi-host topologies construct
    :class:`~repro.engine.distributed.DistributedExecutor` directly.
    """
    if hasattr(spec, "run"):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec == "process":
        return ProcessExecutor(max_workers=max_workers)
    if spec == "distributed":
        from .distributed import DistributedExecutor

        return DistributedExecutor(
            spawn_workers=max_workers or os.cpu_count() or 1)
    if spec == "auto":
        return resolve_executor(auto_executor_name(point_count),
                                max_workers=max_workers)
    raise ConfigurationError(
        f"unknown executor {spec!r}; expected 'serial', 'process', 'auto', "
        "'distributed' or an object with a run() method"
    )
