"""Async evaluation service: one warm cache, many clients.

A long-running :class:`EvaluationService` accepts *design-point queries*
— dotted-path override dicts, the same vocabulary as
:meth:`~repro.core.config.ExperimentConfig.with_overrides` — and answers
them from a single shared :class:`~repro.engine.cache.EvaluationCache`.
Misses are not evaluated one by one: they accumulate in a pending batch
that is flushed through the service's
:class:`~repro.engine.evaluator.Evaluator` (the miss pipeline sweeps
use) when either ``max_batch_size`` points are waiting or
``flush_interval`` seconds have passed since the batch opened — so
concurrent clients share both the cache *and* the worker fleet's
fan-out.
Identical in-flight points coalesce onto one evaluation: the second
client awaits the first client's future instead of re-submitting the
work.

The service is exposed three ways:

* **In-process async API** — ``await service.evaluate(overrides)``;
* **HTTP** — :class:`EvaluationServer` speaks minimal HTTP/1.1 over
  asyncio streams (no third-party dependency): ``POST /evaluate``,
  ``GET /stats``, ``GET /paths``, ``GET /healthz``, with
  :class:`ServiceClient` as the matching asyncio client;
* **CLI** — ``python -m repro.engine.service --host H --port P
  --cache-dir DIR --executor serial`` runs a standalone server.

Request validation reuses :func:`~repro.core.paths.normalize_path`, so
a malformed dotted path fails fast with a structured error naming the
offending path (:class:`InvalidRequestError`), before anything is
cached or fanned out.  Two guard rails keep a loaded service honest:
``timeout_s`` on a query bounds how long the client waits (a structured
``deadline-exceeded`` answer, HTTP 504, while the evaluation itself
continues and still lands in the cache), and ``max_pending`` bounds the
miss batch (overflow earns a structured ``overloaded`` answer, HTTP
503, instead of an unbounded queue).  See ``docs/serving.md`` for the
protocol and ``docs/distributed.md`` for running the service over a
multi-host worker fleet (``--executor distributed``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..core.config import ExperimentConfig
from ..core.paths import normalize_path, path_registry_records, set_path
from ..errors import ConfigurationError, DistributedError, ReproError
from .cache import CachedEntry, EvaluationCache, point_key
from .evaluator import Evaluator
from .executor import EXECUTOR_NAMES

__all__ = [
    "DEFAULT_PORT",
    "InvalidRequestError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ServiceResult",
    "ServiceStats",
    "EvaluationService",
    "EvaluationServer",
    "ServiceClient",
    "main",
]

#: Default TCP port of the HTTP front (an arbitrary unprivileged port).
DEFAULT_PORT = 8351

#: Largest request body the HTTP front will read, as a denial-of-service
#: guard; a design-point query is a small JSON object.
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted per message, same rationale (each line is
#: already length-bounded by the stream reader's 64 KiB limit).
MAX_HEADER_LINES = 100

#: Entries a service's query memo holds before it is cleared.
_QUERY_MEMO_MAX = 4096

#: Override value types, besides float, that a query memo key holds as
#: they are: hashable, and equal only when they encode the same.
_MEMO_SCALARS = frozenset({str, int, bool, type(None)})


def _query_memo_key(canonical: Mapping[str, object]) -> tuple | None:
    """The query memo's key for canonical overrides, or ``None`` when a
    value cannot be memoised (NaN, or anything but a plain scalar).

    Each item is ``(path, type, value, sign)``: the type keeps ``1``,
    ``1.0`` and ``True`` apart, and the sign of a float keeps ``0.0``
    and ``-0.0`` apart, although each pair compares equal.
    """
    parts = []
    for path, value in canonical.items():
        kind = type(value)
        if kind is float:
            if value != value:
                return None
            parts.append((path, kind, value, math.copysign(1.0, value)))
        elif kind in _MEMO_SCALARS:
            parts.append((path, kind, value, 0.0))
        else:
            return None
    return tuple(parts)


class InvalidRequestError(ConfigurationError):
    """A malformed design-point query, carrying a JSON-safe payload.

    ``payload`` always holds an ``"error"`` code and a ``"message"``;
    path problems add the offending ``"path"`` — so HTTP clients can
    route on structure instead of parsing prose.
    """

    def __init__(self, message: str, payload: Mapping[str, object]) -> None:
        super().__init__(message)
        self.payload = dict(payload)
        self.payload.setdefault("message", message)


class ServiceOverloadedError(ReproError):
    """The pending miss batch is full (``max_pending`` backpressure).

    Not the client's fault and not a server bug: the service is shedding
    load.  ``payload`` is the JSON-safe body the HTTP front answers with
    (status :attr:`status`); clients should back off and retry.
    """

    #: HTTP status the front maps this error to.
    status = 503

    def __init__(self, message: str, payload: Mapping[str, object]) -> None:
        super().__init__(message)
        self.payload = dict(payload)
        self.payload.setdefault("message", message)


class DeadlineExceededError(ReproError):
    """A query's ``timeout_s`` elapsed before its batch was answered.

    The evaluation itself is *not* cancelled — it completes in its
    batch and lands in the cache, so a retry is usually a cheap hit.
    ``payload`` is the JSON-safe body the HTTP front answers with
    (status :attr:`status`).
    """

    #: HTTP status the front maps this error to.
    status = 504

    def __init__(self, message: str, payload: Mapping[str, object]) -> None:
        super().__init__(message)
        self.payload = dict(payload)
        self.payload.setdefault("message", message)


@dataclass(frozen=True)
class ServiceResult:
    """One answered design-point query.

    ``from_cache`` is true for points served from the warm cache;
    ``coalesced`` is true when the query attached to an identical
    in-flight evaluation instead of submitting its own.
    ``records_json`` is the cache entry's one encoding of ``records``
    (:attr:`~repro.engine.cache.CachedEntry.records_json`), which the
    HTTP front splices into the body; ``None`` on a result built by
    hand, whose body then encodes ``records``.
    """

    key: str
    overrides: tuple[tuple[str, object], ...]
    records: tuple[dict, ...]
    from_cache: bool
    coalesced: bool
    records_json: str | None = field(default=None, repr=False, compare=False)

    def as_payload(self) -> dict:
        """The JSON-safe response body the HTTP front sends."""
        return {
            "key": self.key,
            "overrides": dict(self.overrides),
            "records": [dict(record) for record in self.records],
            "from_cache": self.from_cache,
            "coalesced": self.coalesced,
        }


@dataclass
class ServiceStats:
    """Request accounting for one :class:`EvaluationService`."""

    requests: int = 0
    invalid_requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    evaluated: int = 0
    batches: int = 0
    largest_batch: int = 0
    cache_write_failures: int = 0
    deadline_exceeded: int = 0
    rejected_overload: int = 0

    def as_payload(self) -> dict:
        """The JSON-safe stats body (service counters only).

        Every counter field, by construction — a counter added to the
        dataclass is automatically part of ``GET /stats``.
        """
        return dataclasses.asdict(self)


@dataclass
class _PendingPoint:
    """One cache miss waiting in the current batch."""

    key: str
    config: ExperimentConfig
    future: asyncio.Future


class EvaluationService:
    """Asyncio service answering design-point queries over one cache.

    Parameters
    ----------
    base_config / scheme_names / baseline_name / executor / cache /
    cache_dir / max_workers:
        Build the service's :attr:`evaluator`, which owns the scheme set
        and savings baseline (part of the cache key, so service-level,
        not per-request), the shared cache (by default an in-memory one
        that lives as long as the service) and the executor: a string
        spec (``"serial"``, or ``"distributed"`` with ``max_workers``
        spawned local workers) is resolved once, reused by every flush
        and closed by :meth:`stop`; executor objects are borrowed, and
        whoever built one closes it.
    max_batch_size / flush_interval:
        Misses flush through the executor when ``max_batch_size`` points
        are pending, or ``flush_interval`` seconds after the first miss
        joined the batch, whichever comes first.
    max_pending:
        Backpressure bound: a fresh miss arriving while this many points
        already wait in the pending batch is rejected with
        :class:`ServiceOverloadedError` (HTTP 503) instead of growing
        the queue without limit.  ``None`` (default) = unbounded.
    default_timeout_s:
        Deadline applied to queries that do not carry their own
        ``timeout_s``; ``None`` (default) = wait indefinitely.

    A repeated query skips building its config and key: the service
    memoises each valid query's canonical overrides to its config and
    key (at most ``_QUERY_MEMO_MAX`` entries, then cleared), so the
    evaluator's base config, schemes and baseline are fixed for the
    service's life.
    """

    def __init__(self, base_config: ExperimentConfig | None = None,
                 scheme_names: Sequence[str] | None = None,
                 baseline_name: str = "SC",
                 executor: object = "serial",
                 cache: EvaluationCache | None = None,
                 cache_dir: object = None,
                 max_batch_size: int = 16,
                 flush_interval: float = 0.02,
                 max_workers: int | None = None,
                 max_pending: int | None = None,
                 default_timeout_s: float | None = None) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        if flush_interval < 0:
            raise ConfigurationError("flush_interval must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError("max_pending must be at least 1")
        if default_timeout_s is not None and default_timeout_s <= 0:
            raise ConfigurationError("default_timeout_s must be positive")
        self.evaluator = Evaluator(base_config=base_config,
                                   scheme_names=scheme_names,
                                   baseline_name=baseline_name,
                                   executor=executor, cache=cache,
                                   cache_dir=cache_dir, max_workers=max_workers)
        #: The evaluator's cache: the one warm cache every query reads.
        self.cache = self.evaluator.cache
        self.max_batch_size = max_batch_size
        self.flush_interval = flush_interval
        self.max_pending = max_pending
        self.default_timeout_s = default_timeout_s
        self.stats = ServiceStats()
        self._closed = False
        self._pending: list[_PendingPoint] = []
        self._in_flight: dict[str, asyncio.Future] = {}
        self._flush_handle: asyncio.TimerHandle | None = None
        self._flush_lock: asyncio.Lock | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        #: Query memo key -> (canonical items, point key, config).
        self._query_memo: dict[tuple, tuple] = {}

    # -- request validation ------------------------------------------------------
    def canonical_overrides(self, overrides: object) -> dict[str, object]:
        """Validate a query's overrides and canonicalise its paths.

        Every key must resolve through
        :func:`~repro.core.paths.normalize_path`; failures raise
        :class:`InvalidRequestError` whose payload names the offending
        path.  Returns ``{canonical path: value}``.
        """
        if not isinstance(overrides, Mapping):
            raise InvalidRequestError(
                f"overrides must be an object of config-path: value pairs, "
                f"got {type(overrides).__name__}",
                {"error": "invalid-overrides"},
            )
        canonical: dict[str, object] = {}
        for name, value in overrides.items():
            if not isinstance(name, str):
                raise InvalidRequestError(
                    f"config paths must be strings, got {name!r}",
                    {"error": "invalid-path", "path": repr(name)},
                )
            try:
                path = normalize_path(name)
            except ConfigurationError as exc:
                raise InvalidRequestError(
                    f"unknown config path {name!r}",
                    {"error": "unknown-path", "path": name, "message": str(exc)},
                ) from exc
            if path in canonical:
                raise InvalidRequestError(
                    f"override {name!r} duplicates config path {path!r}",
                    {"error": "duplicate-path", "path": path},
                )
            canonical[path] = value
        return canonical

    def _config_for(self, canonical: Mapping[str, object]) -> ExperimentConfig:
        """Apply canonical overrides one path at a time, so a rejected
        value (e.g. a probability outside ``[0, 1]``) is attributed to
        the path that carried it."""
        config = self.evaluator.base_config
        for path, value in canonical.items():
            try:
                config = set_path(config, path, value)
            except ReproError as exc:
                raise InvalidRequestError(
                    f"invalid value for {path!r}: {exc}",
                    {"error": "invalid-value", "path": path, "message": str(exc)},
                ) from exc
        return config

    def _point_for(self, canonical: Mapping[str, object]) -> tuple:
        """``(items, key, config)`` of canonical overrides, from the query
        memo when this query was answered before.

        A query is memoised only once its config and key are built, so a
        rejected one is rejected afresh each time."""
        memo_key = _query_memo_key(canonical)
        known = self._query_memo.get(memo_key) if memo_key is not None else None
        if known is not None:
            return known
        config = self._config_for(canonical)
        known = (tuple(canonical.items()),
                 point_key(config, self.evaluator.scheme_names, self.evaluator.baseline_name),
                 config)
        if memo_key is not None:
            if len(self._query_memo) >= _QUERY_MEMO_MAX:
                self._query_memo.clear()
            self._query_memo[memo_key] = known
        return known

    def _resolve_timeout(self, timeout_s: object) -> float | None:
        """Validate a query's deadline; fall back to the service default."""
        if timeout_s is None:
            return self.default_timeout_s
        if (isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float))
                or not math.isfinite(timeout_s) or timeout_s <= 0):
            raise InvalidRequestError(
                f"timeout_s must be a positive finite number, got {timeout_s!r}",
                {"error": "invalid-timeout"},
            )
        return float(timeout_s)

    async def _await_entry(self, future: "asyncio.Future[CachedEntry]",
                           timeout_s: float | None, key: str) -> CachedEntry:
        """Await a batch future, bounded by the query's deadline.

        The future is shielded: a deadline abandons *this query's wait*,
        never the shared evaluation — coalesced twins keep waiting and
        the result still lands in the cache.
        """
        if timeout_s is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout_s)
        except asyncio.TimeoutError:
            self.stats.deadline_exceeded += 1
            # The abandoned future may have no other awaiter; retrieve its
            # eventual exception so the loop never logs it as unconsumed.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
            raise DeadlineExceededError(
                f"evaluation exceeded the {timeout_s}s deadline",
                {"error": "deadline-exceeded", "timeout_s": timeout_s,
                 "key": key},
            ) from None

    # -- the query path ----------------------------------------------------------
    async def evaluate(self, overrides: Mapping[str, object],
                       timeout_s: float | None = None) -> ServiceResult:
        """Answer one design-point query, cheapest way possible.

        Cache hits return immediately; a miss joins the pending batch
        (flushed by size or by the flush window) and a miss identical to
        an in-flight point awaits that point's future instead of
        re-evaluating.  ``timeout_s`` bounds the wait
        (:class:`DeadlineExceededError`; the evaluation itself continues
        and is cached).  Raises :class:`InvalidRequestError` for
        malformed overrides and after :meth:`stop`, and
        :class:`ServiceOverloadedError` when the pending batch is full.
        """
        self.stats.requests += 1
        if self._closed:
            self.stats.invalid_requests += 1
            raise InvalidRequestError("service is stopped",
                                      {"error": "service-stopped"})
        try:
            timeout_s = self._resolve_timeout(timeout_s)
            items, key, config = self._point_for(self.canonical_overrides(overrides))
        except InvalidRequestError:
            self.stats.invalid_requests += 1
            raise

        entry = self.cache.get(key)
        if entry is not None:
            self.stats.cache_hits += 1
            return ServiceResult(key=key, overrides=items,
                                 records=tuple(entry.records),
                                 from_cache=True, coalesced=False,
                                 records_json=entry.records_json)

        existing = self._in_flight.get(key)
        if existing is not None:
            self.stats.coalesced += 1
            entry = await self._await_entry(existing, timeout_s, key)
            return ServiceResult(key=key, overrides=items,
                                 records=tuple(entry.records),
                                 from_cache=False, coalesced=True,
                                 records_json=entry.records_json)

        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            # Backpressure: shedding the query here keeps the pending
            # batch — and therefore worst-case flush latency — bounded.
            self.stats.rejected_overload += 1
            raise ServiceOverloadedError(
                f"pending batch is full ({len(self._pending)} of "
                f"{self.max_pending} points waiting)",
                {"error": "overloaded", "max_pending": self.max_pending,
                 "pending": len(self._pending)},
            )

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._in_flight[key] = future
        self._pending.append(_PendingPoint(key=key, config=config, future=future))
        if len(self._pending) == self.max_batch_size:
            # Exactly the crossing point spawns the flush; arrivals beyond
            # it are covered by that flush (it takes the whole pending
            # list when it acquires the lock), so they spawn nothing.
            self._cancel_flush_timer()
            self._spawn_flush()
        elif len(self._pending) < self.max_batch_size and self._flush_handle is None:
            self._flush_handle = loop.call_later(self.flush_interval,
                                                 self._on_flush_timer)
        entry = await self._await_entry(future, timeout_s, key)
        return ServiceResult(key=key, overrides=items,
                             records=tuple(entry.records),
                             from_cache=False, coalesced=False,
                             records_json=entry.records_json)

    # -- batching ----------------------------------------------------------------
    def _cancel_flush_timer(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _on_flush_timer(self) -> None:
        self._flush_handle = None
        self._spawn_flush()

    def _spawn_flush(self) -> None:
        task = asyncio.get_running_loop().create_task(self._flush())
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    def _evaluate_and_persist(
            self, batch: list[_PendingPoint]
    ) -> tuple[list[CachedEntry | ReproError], int]:
        """Worker-thread half of a flush: evaluate the batch and write it
        to the cache (:meth:`Evaluator.evaluate_misses`), returning each
        point's entry (or its own model error) and the write-failure
        count.

        A point the model rejects (a :class:`ReproError` other than
        :class:`DistributedError`) must not fail the valid points that
        happened to share its flush: when the batch raises one, every
        point is re-run alone, so each gets its own entry or its own
        error, and the valid ones are cached.  A one-point batch
        re-raises instead.

        Runs off the event loop so neither the evaluation nor the disk
        persistence (per-entry writes plus the recency flush — possibly on
        slow storage) stalls connections.  Cache mutation from this
        thread is safe against concurrent loop-side lookups: dict
        operations are GIL-atomic, so a racing ``get`` can at worst miss
        an entry mid-insert (costing a duplicate evaluation), never see
        a corrupt structure.  A failed write does not fail the query;
        an executor breaking the ``run(items)`` contract raises
        :class:`RuntimeError` — a server fault, an HTTP 500 — and a
        :class:`DistributedError` is a fleet fault, an HTTP 503: both
        still fail the whole batch, in the batch run and the re-runs alike.
        """
        misses = [(point.key, point.config) for point in batch]
        try:
            return self.evaluator.evaluate_misses(misses)
        except DistributedError:
            raise
        except ReproError:
            if len(misses) == 1:
                raise
        outcomes: list[CachedEntry | ReproError] = []
        write_failures = 0
        for miss in misses:
            try:
                (entry,), failures = self.evaluator.evaluate_misses([miss])
            except DistributedError:
                raise
            except ReproError as exc:
                outcomes.append(exc)
                continue
            outcomes.append(entry)
            write_failures += failures
        return outcomes, write_failures

    async def _flush(self) -> None:
        """Run the pending batch through the executor and settle futures.

        Batches are serialised by a lock: misses arriving while one
        batch evaluates accumulate into the next, which is exactly the
        batching the executor wants.  Evaluation and cache persistence
        happen in a worker thread (:meth:`_evaluate_and_persist`);
        futures are settled and in-flight keys released back on the
        loop, on success and failure alike: each point's future gets its
        own entry or its own model error, and a batch-level fault fails
        every future of the batch.
        """
        if self._flush_lock is None:
            self._flush_lock = asyncio.Lock()
        async with self._flush_lock:
            batch, self._pending = self._pending, []
            if not batch:
                return
            self._cancel_flush_timer()
            loop = asyncio.get_running_loop()
            try:
                entries, write_failures = await loop.run_in_executor(
                    None, self._evaluate_and_persist, batch)
            except Exception as exc:
                for point in batch:
                    self._in_flight.pop(point.key, None)
                    if not point.future.done():
                        point.future.set_exception(exc)
                return
            self.stats.cache_write_failures += write_failures
            evaluated = 0
            for point, entry in zip(batch, entries):
                self._in_flight.pop(point.key, None)
                if isinstance(entry, ReproError):
                    if not point.future.done():
                        point.future.set_exception(entry)
                    continue
                evaluated += 1
                if not point.future.done():
                    point.future.set_result(entry)
            self.stats.batches += 1
            self.stats.evaluated += evaluated
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))

    async def stop(self) -> None:
        """Stop accepting queries, flush pending batches, persist disk-hit
        recency, and shut down the executor the evaluator built from a
        string spec (a ``"distributed"`` fleet and its spawned workers).

        Every query already awaiting a batch is answered before this
        returns — shutdown never drops accepted work.
        """
        self._closed = True
        self._cancel_flush_timer()
        while self._pending or self._flush_tasks:
            await self._flush()
            if self._flush_tasks:
                await asyncio.gather(*self._flush_tasks, return_exceptions=True)
        try:
            self.cache.flush_index()
        except OSError:
            self.stats.cache_write_failures += 1
        # Fleet teardown joins worker processes and threads; keep it off
        # the event loop.
        await asyncio.get_running_loop().run_in_executor(None, self.evaluator.close)

    def stats_payload(self) -> dict:
        """Service, cache, kernel and batching counters as JSON.

        Always carries ``service``, ``cache``, ``kernel`` (the
        process-wide leakage-kernel memo aggregate — *this* process
        only, so under a distributed executor it reflects the
        coordinator, not the workers), ``structural`` (the library,
        scheme and device-part hit/miss counters of the structural
        cache, same scope) and ``config``
        blocks; when the executor is a distributed fleet (anything with
        a ``stats_payload()`` of its own, e.g.
        :class:`~repro.engine.distributed.DistributedExecutor`), its
        counters ride along as a ``distributed`` block so coordinator
        observability needs no second endpoint.
        """
        from ..circuit.biasing import kernel_totals
        from ..core.scheme_evaluator import structural_cache_stats

        evaluator = self.evaluator
        spec = evaluator.executor
        payload = {
            "service": self.stats.as_payload(),
            "cache": {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "disk_hits": self.cache.stats.disk_hits,
                "puts": self.cache.stats.puts,
                "evictions": self.cache.stats.evictions,
                "memory_evictions": self.cache.stats.memory_evictions,
                "hit_rate": self.cache.stats.hit_rate,
                "memory_entries": len(self.cache),
            },
            "kernel": kernel_totals().as_payload(),
            "structural": structural_cache_stats().as_payload(),
            "config": {
                "schemes": list(evaluator.scheme_names),
                "baseline": evaluator.baseline_name,
                "executor": (spec if isinstance(spec, str)
                             else getattr(spec, "name", type(spec).__name__)),
                "max_batch_size": self.max_batch_size,
                "flush_interval": self.flush_interval,
                "max_pending": self.max_pending,
                "default_timeout_s": self.default_timeout_s,
                "pending": len(self._pending),
                "in_flight": len(self._in_flight),
            },
        }
        for executor in evaluator.executors():
            fleet_stats = getattr(executor, "stats_payload", None)
            if callable(fleet_stats):
                payload["distributed"] = fleet_stats()
        return payload


# ---------------------------------------------------------------------------
# HTTP front: minimal HTTP/1.1 over asyncio streams
# ---------------------------------------------------------------------------

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                500: "Internal Server Error", 503: "Service Unavailable",
                504: "Gateway Timeout"}


#: ``json.dumps(..., sort_keys=True)`` with the encoder built once.
_SORTED_ENCODER = json.JSONEncoder(sort_keys=True)


def _result_body(result: ServiceResult) -> bytes:
    """``json.dumps(result.as_payload(), sort_keys=True)``, byte for byte:
    the small fields are encoded, and the records text, whose key sorts
    last, is spliced in."""
    records = result.records_json
    if records is None:
        records = _SORTED_ENCODER.encode([dict(record) for record in result.records])
    head = _SORTED_ENCODER.encode({"coalesced": result.coalesced,
                                   "from_cache": result.from_cache,
                                   "key": result.key,
                                   "overrides": dict(result.overrides)})
    return (head[:-1] + ', "records": ' + records + "}").encode("utf-8")


def _encode_response(status: int, payload: dict | ServiceResult, *, close: bool) -> bytes:
    """One HTTP response: a :class:`ServiceResult` body is spliced
    (:func:`_result_body`), any other payload is sorted-key JSON."""
    if isinstance(payload, ServiceResult):
        body = _result_body(payload)
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


async def _read_http_message(reader: asyncio.StreamReader):
    """Parse one HTTP request or response off ``reader``.

    Returns ``(start_line, headers, body)`` with lower-cased header
    names, or ``None`` at a clean end of stream.  Raises
    :class:`ValueError` on a malformed message or an oversized body.
    """
    start_line = await reader.readline()
    if not start_line:
        return None
    start = start_line.decode("latin-1").strip()
    if not start:
        raise ValueError("empty start line")
    headers: dict[str, str] = {}
    header_lines = 0
    while True:
        # Count lines read, not dict entries: repeated same-name headers
        # overwrite one key and would otherwise bypass the bound.
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise ValueError("too many header lines")
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ValueError("truncated headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise ValueError(f"bad Content-Length {raw_length!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return start, headers, body


class EvaluationServer:
    """Thin HTTP front over an :class:`EvaluationService`.

    Speaks just enough HTTP/1.1 (keep-alive, ``Content-Length`` bodies,
    JSON in and out) for the bundled :class:`ServiceClient`, ``curl``
    and standard HTTP libraries, with no dependency beyond asyncio
    streams.  Port ``0`` binds an ephemeral port, readable from
    :attr:`port` after :meth:`start`.
    """

    def __init__(self, service: EvaluationService, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "EvaluationServer":
        """Bind and start serving; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(self._handle_connection,
                                                  host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``__main__`` entry point's loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listening socket (the service itself keeps running)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await _read_http_message(reader)
                except (ValueError, asyncio.IncompleteReadError):
                    writer.write(_encode_response(
                        400, {"error": "malformed-request"}, close=True))
                    await writer.drain()
                    return
                if message is None:
                    return
                start, headers, body = message
                parts = start.split()
                if len(parts) != 3:
                    writer.write(_encode_response(
                        400, {"error": "malformed-request"}, close=True))
                    await writer.drain()
                    return
                method, target, version = parts
                close = (headers.get("connection", "").lower() == "close"
                         or version == "HTTP/1.0")
                status, payload = await self._dispatch(method.upper(), target, body)
                writer.write(_encode_response(status, payload, close=close))
                await writer.drain()
                if close:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, target: str, body: bytes):
        """Route one request; returns ``(status, JSON payload)``, the
        payload of a ``/evaluate`` answer being its :class:`ServiceResult`."""
        target = target.split("?", 1)[0]
        if target == "/evaluate":
            if method != "POST":
                return 405, {"error": "method-not-allowed", "target": target}
            try:
                request = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                return 400, {"error": "invalid-json"}
            if not isinstance(request, dict):
                return 400, {"error": "invalid-json",
                             "message": "request body must be a JSON object"}
            overrides = request.get("overrides", {})
            try:
                result = await self.service.evaluate(
                    overrides, timeout_s=request.get("timeout_s"))
            except InvalidRequestError as exc:
                return 400, {"error": exc.payload.get("error", "invalid-request"),
                             **exc.payload}
            except (ServiceOverloadedError, DeadlineExceededError) as exc:
                return exc.status, dict(exc.payload)
            except DistributedError as exc:
                # Fleet infrastructure failure (workers lost, registration
                # timeout): the query was fine and a retry may succeed
                # once workers return — a 503, never a client error.
                return 503, {"error": "executor-unavailable",
                             "message": str(exc)}
            except ReproError as exc:
                # Model-level rejection of the point (e.g. an unknown
                # technology node only detected at evaluation time):
                # still the client's value, still a 400.
                return 400, {"error": "evaluation-failed", "message": str(exc)}
            except Exception as exc:
                # Server faults (executor contract violations, bugs)
                # must not masquerade as client errors.
                return 500, {"error": "internal-error", "message": str(exc)}
            return 200, result
        if method != "GET":
            return 405, {"error": "method-not-allowed", "target": target}
        if target == "/healthz":
            return 200, {"status": "ok"}
        if target == "/stats":
            return 200, self.service.stats_payload()
        if target == "/paths":
            return 200, {"paths": path_registry_records()}
        return 404, {"error": "unknown-endpoint", "target": target}


class ServiceClient:
    """Asyncio HTTP client for a running :class:`EvaluationServer`.

    Opens one connection per call — simple and stateless; the batching
    win comes from the server coalescing concurrent requests, not from
    connection reuse.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        self.host = host
        self.port = port

    async def _request(self, method: str, target: str,
                       payload: dict | None = None) -> tuple[int, dict]:
        """One HTTP round-trip; returns ``(status, decoded JSON body)``."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            body = b"" if payload is None else json.dumps(payload).encode("utf-8")
            head = (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n"
                f"\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            message = await _read_http_message(reader)
            if message is None:
                raise ConnectionError("server closed the connection mid-response")
            start, _headers, raw = message
            status = int(start.split()[1])
            return status, json.loads(raw.decode("utf-8")) if raw else {}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def evaluate(self, overrides: Mapping[str, object],
                       timeout_s: float | None = None) -> dict:
        """Evaluate one design point; returns the response payload.

        ``timeout_s`` rides along as the query's server-side deadline.
        Raises :class:`InvalidRequestError` (with the server's
        structured payload) when the server rejects the query — route on
        ``payload["error"]`` to distinguish overload (``overloaded``)
        and deadline (``deadline-exceeded``) answers from malformed
        queries.
        """
        body: dict[str, object] = {"overrides": dict(overrides)}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        status, payload = await self._request("POST", "/evaluate", body)
        if status != 200:
            raise InvalidRequestError(
                str(payload.get("message", payload.get("error", "request failed"))),
                payload,
            )
        return payload

    async def stats(self) -> dict:
        """The server's ``GET /stats`` payload."""
        status, payload = await self._request("GET", "/stats")
        if status != 200:
            raise ConnectionError(f"GET /stats failed with status {status}")
        return payload

    async def paths(self) -> list[dict]:
        """The sweepable-path registry served at ``GET /paths``."""
        status, payload = await self._request("GET", "/paths")
        if status != 200:
            raise ConnectionError(f"GET /paths failed with status {status}")
        return payload["paths"]

    async def health(self) -> bool:
        """True when ``GET /healthz`` answers ok."""
        status, payload = await self._request("GET", "/healthz")
        return status == 200 and payload.get("status") == "ok"


# ---------------------------------------------------------------------------
# CLI entry point: python -m repro.engine.service
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.service",
        description="Serve design-point evaluations over HTTP, sharing one "
                    "warm cache and batching misses through the executor.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (0 = ephemeral; default {DEFAULT_PORT})")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the shared disk cache "
                             "(default: in-memory only)")
    parser.add_argument("--executor", default="serial",
                        choices=EXECUTOR_NAMES,
                        help="how batched misses are evaluated")
    parser.add_argument("--workers", type=int, default=None,
                        help="spawn this many local worker processes "
                             "(distributed executor only)")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="where the distributed coordinator accepts "
                             "external worker registrations "
                             "(default 127.0.0.1:0; distributed only)")
    parser.add_argument("--schemes", default=None,
                        help="comma-separated scheme list (default: all)")
    parser.add_argument("--baseline", default="SC", help="savings baseline scheme")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="flush the miss batch at this many points")
    parser.add_argument("--flush-interval", type=float, default=0.02,
                        help="flush the miss batch after this many seconds")
    parser.add_argument("--max-disk-entries", type=int, default=None,
                        help="LRU bound on the disk cache entry count "
                             "(requires --cache-dir)")
    parser.add_argument("--max-disk-bytes", type=int, default=None,
                        help="LRU byte budget on the disk cache payload "
                             "total (requires --cache-dir)")
    parser.add_argument("--max-memory-entries", type=int, default=None,
                        help="LRU bound on the in-memory cache layer "
                             "(default: unbounded; set it for long-lived "
                             "servers fed unbounded point streams)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="reject fresh misses (HTTP 503) while this many "
                             "points wait in the pending batch")
    parser.add_argument("--default-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline applied to queries without their own "
                             "timeout_s (HTTP 504 on expiry)")
    return parser


def _executor_from_args(args: argparse.Namespace) -> object:
    """The executor spec (string or instance) an argv namespace asks for."""
    if args.executor != "distributed":
        if args.workers is not None or args.listen is not None:
            raise ConfigurationError(
                "--workers/--listen configure the worker fleet and need "
                "--executor distributed"
            )
        return args.executor
    from .distributed import DistributedExecutor, parse_address

    listen_host, listen_port = ("127.0.0.1", 0)
    if args.listen is not None:
        listen_host, listen_port = parse_address(args.listen)
    spawn = args.workers if args.workers is not None else 0
    if spawn == 0 and args.listen is None:
        raise ConfigurationError(
            "--executor distributed needs --workers N (spawn a local fleet) "
            "and/or --listen HOST:PORT (accept external workers)"
        )
    return DistributedExecutor(host=listen_host, port=listen_port,
                               spawn_workers=spawn,
                               min_workers=max(1, spawn))


def service_from_args(args: argparse.Namespace) -> EvaluationService:
    """Build the :class:`EvaluationService` an argv namespace describes."""
    cache = None
    if args.cache_dir is not None:
        cache = EvaluationCache(directory=args.cache_dir,
                                max_disk_entries=args.max_disk_entries,
                                max_disk_bytes=getattr(args, "max_disk_bytes", None),
                                max_memory_entries=args.max_memory_entries)
    elif args.max_disk_entries is not None or getattr(args, "max_disk_bytes", None) is not None:
        raise ConfigurationError(
            "--max-disk-entries/--max-disk-bytes bound the disk store and "
            "need --cache-dir; use --max-memory-entries to bound the "
            "in-memory cache"
        )
    elif args.max_memory_entries is not None:
        cache = EvaluationCache(max_memory_entries=args.max_memory_entries)
    schemes = None
    if args.schemes:
        schemes = [name.strip() for name in args.schemes.split(",") if name.strip()]
    return EvaluationService(
        scheme_names=schemes,
        baseline_name=args.baseline,
        executor=_executor_from_args(args),
        cache=cache,
        max_batch_size=args.batch_size,
        flush_interval=args.flush_interval,
        max_pending=getattr(args, "max_pending", None),
        default_timeout_s=getattr(args, "default_timeout", None),
    )


async def _serve(args: argparse.Namespace) -> None:
    service = service_from_args(args)
    server = EvaluationServer(service, host=args.host, port=args.port)
    try:
        await server.start()
        config = service.stats_payload()["config"]
        print(f"evaluation service on http://{args.host}:{server.port} "
              f"(schemes {config['schemes']}, executor {config['executor']}, "
              f"batch<= {config['max_batch_size']}, "
              f"window {config['flush_interval']}s)", flush=True)
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - signal-driven exit
        pass
    finally:
        await server.stop()
        await service.stop()
        fleet = service.evaluator.executor
        if not isinstance(fleet, str):
            # The service borrows executor objects: the fleet that
            # _executor_from_args built is closed here, by its builder.
            await asyncio.get_running_loop().run_in_executor(None, fleet.close)


def main(argv: Sequence[str] | None = None) -> int:
    """Run a standalone evaluation server until interrupted."""
    import sys

    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
