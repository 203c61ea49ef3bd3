"""Executor layer: how design points are fanned out.

Two strategies share one interface, and one record path: every
executor turns a work item into its JSON-safe comparison records with
:func:`~repro.core.comparison.point_records`, which computes them from
each scheme's cached record terms through the per-structure record plan
(no live comparison objects).

* ``serial`` — evaluate in-process, in order.
* ``distributed`` — fan out across processes and hosts through
  :class:`~repro.engine.distributed.DistributedExecutor` and its TCP
  worker fleet (``python -m repro.engine.worker``).  The fleet is
  persistent: it starts on the first ``run`` and serves every later
  one until it is closed, so a service flushing batch after batch pays
  worker start-up once, not per flush.

Work items carry fully-resolved nested configs, so they need no shared
state to evaluate.  Within each process (the calling one for ``serial``,
every fleet worker for ``distributed``) scheme construction goes
through the structural cache in :mod:`repro.core.scheme_evaluator`:
consecutive items that differ only in non-structural scalars (static
probability, toggle activity) reuse the built crossbar geometry and
library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.comparison import point_records
from ..core.config import ExperimentConfig
from ..errors import ConfigurationError

__all__ = ["WorkItem", "EvaluatedPoint", "SerialExecutor", "EXECUTOR_NAMES",
           "compare_schemes", "resolve_executor"]

#: The executor specs :func:`resolve_executor` builds from a string.
EXECUTOR_NAMES = ("serial", "distributed")


@dataclass(frozen=True)
class WorkItem:
    """One evaluation to perform: a resolved config and the schemes to
    compare on it."""

    config: ExperimentConfig
    scheme_names: tuple[str, ...]
    baseline_name: str


@dataclass
class EvaluatedPoint:
    """The outcome of one work item: its comparison records."""

    records: list[dict]


def compare_schemes(item: WorkItem) -> list[dict]:
    """Compare the schemes of one work item: its records, from
    :func:`~repro.core.comparison.point_records`.

    The serial executor's per-point step, looked up on this module at
    call time (perfbench's tracer times it as ``compare.point``).
    Unlike the object API
    :func:`repro.core.comparison.compare_schemes`, it returns the
    JSON-safe records alone.
    """
    return point_records(item.config, list(item.scheme_names), item.baseline_name)


class SerialExecutor:
    """Evaluate work items one after another in the calling process."""

    name = "serial"

    def run(self, items: list[WorkItem]) -> list[EvaluatedPoint]:
        """Evaluate ``items`` in order."""
        return [EvaluatedPoint(records=compare_schemes(item)) for item in items]


def check_max_workers(max_workers: int | None) -> None:
    """Refuse a worker count below one (``None`` means the core count)."""
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be at least 1 (or None for the core count), "
            f"got {max_workers}"
        )


def resolve_executor(spec: object, max_workers: int | None = None):
    """Turn an executor spec into an executor instance.

    ``spec`` may be an executor object (anything with a ``run`` method)
    or one of the :data:`EXECUTOR_NAMES`.  The ``"distributed"``
    shorthand builds a loopback fleet that spawns ``max_workers``
    (default: the core count) local worker processes; fleets that take
    workers from other hosts construct
    :class:`~repro.engine.distributed.DistributedExecutor` directly.
    """
    check_max_workers(max_workers)
    if hasattr(spec, "run"):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec == "distributed":
        from .distributed import DistributedExecutor

        return DistributedExecutor(
            spawn_workers=max_workers if max_workers is not None else (os.cpu_count() or 1))
    names = ", ".join(repr(name) for name in EXECUTOR_NAMES)
    raise ConfigurationError(
        f"unknown executor {spec!r}; expected {names} "
        "or an object with a run() method"
    )
