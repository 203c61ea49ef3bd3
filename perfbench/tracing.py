"""Span tracing from outside the program.

:meth:`Tracer.install` replaces the public entry points of each layer
with timing wrappers, patching every name where its *caller* looks it up
(``repro.core.scheme_evaluator.evaluate_scheme``, not
``repro.power.savings.evaluate_scheme``), so the library itself carries
no tracing code.  Spans stay in memory — name, start, end, parent span,
request id and a few attributes — until :meth:`Tracer.dump` writes them
out; :func:`self_times` derives each layer's self time from them.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC``), so spans
recorded in the service process line up with the load generator's
clock.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

#: Span id of the innermost open span in this thread / task.
_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent", default=None)
#: ``X-Request-Id`` of the HTTP request this task is serving.
_REQUEST: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request", default=None)

#: HTTP header the load generator tags each request with.
REQUEST_ID_HEADER = "x-request-id"


def _service_result_attrs(result) -> dict:
    return {"key": result.key, "from_cache": result.from_cache,
            "coalesced": result.coalesced}


def _batch_attrs(args) -> dict:
    return {"keys": [point.key for point in args[1]]}


def _items_attrs(args) -> dict:
    return {"items": len(args[1])}


def _points_attrs(args) -> dict:
    return {"points": len(args[1])}


#: (module, owner attribute or None, function name, span name, attrs from
#: the call's positional arguments) for every traced entry point.
TARGETS = (
    ("repro.engine.service", "EvaluationService", "evaluate",
     "service.evaluate", None),
    ("repro.engine.service", "EvaluationService", "_evaluate_and_persist",
     "service.batch", _batch_attrs),
    ("repro.engine.evaluator", "Evaluator", "evaluate",
     "evaluator.evaluate", _points_attrs),
    ("repro.engine.executor", "SerialExecutor", "run",
     "executor.run", _items_attrs),
    ("repro.engine.distributed", "DistributedExecutor", "run",
     "executor.run", _items_attrs),
    ("repro.engine.cache", "EvaluationCache", "get", "cache.get", None),
    ("repro.engine.cache", "EvaluationCache", "put", "cache.put", None),
    ("repro.engine.cache", "EvaluationCache", "flush_index",
     "cache.flush_index", None),
    ("repro.engine.evaluator", None, "point_key", "cache.point_key", None),
    ("repro.engine.service", None, "point_key", "cache.point_key", None),
    ("repro.engine.executor", None, "compare_schemes", "compare.point", None),
    ("repro.core.scheme_evaluator", None, "evaluate_scheme", "scheme", None),
    ("repro.core.scheme_evaluator", None, "create_scheme",
     "structural.scheme_build", None),
    ("repro.core.config", "ExperimentConfig", "build_library",
     "structural.library_build", None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        # next() on a count is atomic under the GIL, unlike len() followed
        # by append(); the service records spans from two threads.
        self._ids = itertools.count()

    # -- recording ---------------------------------------------------------------
    def _open(self, name: str):
        span_id = next(self._ids)
        span = {"id": span_id, "name": name, "start": time.monotonic(),
                "end": None, "parent": _PARENT.get(), "request": _REQUEST.get()}
        self.spans.append(span)
        return span, _PARENT.set(span_id)

    @staticmethod
    def _close(span: dict, token) -> None:
        span["end"] = time.monotonic()
        _PARENT.reset(token)

    def _wrap(self, function, name: str, attrs):
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span, token = tracer._open(name)
                try:
                    result = await function(*args, **kwargs)
                    if name == "service.evaluate":
                        span.update(_service_result_attrs(result))
                    return result
                finally:
                    tracer._close(span, token)
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_name = name
            if name == "scheme":
                span_name = f"scheme.{args[0].name}"
            span, token = tracer._open(span_name)
            if attrs is not None:
                span.update(attrs(args))
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(span, token)
        return traced

    def _wrap_request_reader(self, reader_function):
        """Wrap the service's HTTP message reader so the request id of
        each request becomes the task's current request id."""
        @functools.wraps(reader_function)
        async def reading(*args, **kwargs):
            message = await reader_function(*args, **kwargs)
            if message is not None:
                _REQUEST.set(message[1].get(REQUEST_ID_HEADER))
            return message
        return reading

    # -- installation ------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Patch every entry point in :data:`TARGETS`; idempotence is the
        caller's job (install once, :meth:`uninstall` once)."""
        for module_name, owner_name, function_name, span_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            function = owner.__dict__[function_name]
            self._patch(owner, function_name,
                        self._wrap(function, span_name, attrs))
        service = importlib.import_module("repro.engine.service")
        self._patch(service, "_read_http_message",
                    self._wrap_request_reader(service._read_http_message))
        return self

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path) -> list[dict]:
    """Spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def within(spans, start: float, end: float) -> list[dict]:
    """Closed spans that started inside ``[start, end]``."""
    return [span for span in spans
            if span["end"] is not None and start <= span["start"] <= end]


def durations(spans, name: str) -> list[float]:
    """Durations (seconds) of every span called ``name``."""
    return [span["end"] - span["start"] for span in spans if span["name"] == name]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    time its direct children cover (children of one span never overlap,
    since a span's children run in its own thread or task)."""
    by_id = {span["id"]: span for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["end"] is None:
            continue
        totals[span["name"]] += span["end"] - span["start"]
        parent = by_id.get(span["parent"])
        if parent is not None and parent["end"] is not None:
            totals[parent["name"]] -= span["end"] - span["start"]
    return dict(totals)
