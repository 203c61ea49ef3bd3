"""Parallel, cached design-space evaluation engine (docs/architecture.md).

The engine generalises the single-parameter sweep to arbitrary grids
and explicit point lists (:class:`DesignSpace`), memoises every
evaluated point behind a content-addressed cache
(:class:`EvaluationCache`), evaluates misses serially or across a TCP
worker fleet (:mod:`repro.engine.executor` /
:mod:`repro.engine.distributed` with ``python -m repro.engine.worker``
workers), and returns a queryable
:class:`ResultSet` (filtering, series extraction, Pareto fronts).
For online use, :mod:`repro.engine.service` wraps the same cache and
executor in a long-running asyncio service (HTTP front +
:class:`ServiceClient`; run it with ``python -m repro.engine.service``),
and ``python -m repro.engine.cache`` maintains long-lived disk caches —
shareable across processes and hosts with no per-writer setup, since
the sharded entry files are the cache's only on-disk state.

Axes are config paths: the flat ``ExperimentConfig`` scalars, dotted
paths into the nested structure (``"crossbar.port_count"``,
``"crossbar.flit_width"``), or unambiguous leaf aliases
(``"port_count"``) — see :mod:`repro.core.paths`.

Quickstart::

    from repro.engine import DesignSpace, Evaluator

    space = DesignSpace.grid({
        "crossbar.port_count": [3, 5, 8],
        "static_probability": [0.1, 0.5, 0.9],
    })
    results = Evaluator(executor="serial").evaluate(space)
    for value, power in results.filter(static_probability=0.5).series(
            "SDPC", "total_power_mw", axis="crossbar.port_count"):
        print(value, power)
"""

from ..core.paths import describe_path, get_path, normalize_path, set_path, sweepable_paths
from .cache import CacheStats, CachedEntry, EvaluationCache, point_key
from .evaluator import Evaluator
from .executor import SerialExecutor, resolve_executor
from .grid import DesignSpace, GridPoint
from .resultset import PointResult, ResultSet

#: Service and distributed-layer symbols resolved lazily (PEP 562):
#: ``python -m repro.engine.service`` / ``python -m repro.engine.worker``
#: must be able to execute those modules as ``__main__`` without this
#: package having imported them first (runpy warns about exactly that),
#: and ``import repro`` stays light.
_LAZY_EXPORTS = {
    "EvaluationServer": "service",
    "EvaluationService": "service",
    "InvalidRequestError": "service",
    "ServiceOverloadedError": "service",
    "DeadlineExceededError": "service",
    "ServiceClient": "service",
    "ServiceResult": "service",
    "ServiceStats": "service",
    "DistributedExecutor": "distributed",
    "DistributedStats": "distributed",
}


def __getattr__(name: str):
    """Resolve the service- and distributed-layer exports on first access."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CacheStats",
    "CachedEntry",
    "DeadlineExceededError",
    "DesignSpace",
    "DistributedExecutor",
    "DistributedStats",
    "EvaluationCache",
    "EvaluationServer",
    "EvaluationService",
    "Evaluator",
    "GridPoint",
    "InvalidRequestError",
    "PointResult",
    "ResultSet",
    "SerialExecutor",
    "ServiceClient",
    "ServiceOverloadedError",
    "ServiceResult",
    "ServiceStats",
    "describe_path",
    "get_path",
    "normalize_path",
    "point_key",
    "resolve_executor",
    "set_path",
    "sweepable_paths",
]
