"""HTTP load generator for the ``serve_mixed`` workload.

Requests travel over a fixed number of keep-alive connections (at most
one request in flight per connection, as HTTP/1.1 without pipelining
allows).  Two drivers share the connection workers:

* :func:`open_loop` — requests fall due on a fixed-rate schedule whether
  or not earlier ones have completed (independent users); each is timed
  from its due time, and the generator's own lateness in releasing it is
  recorded apart.
* :func:`closed_loop` — every connection sends its next request as soon
  as the previous one answers (callers that wait); it measures how many
  requests per second those callers get answered.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from inputs import PAIR
from tracing import REQUEST_ID_HEADER


@dataclass
class Outcome:
    """One answered (or failed) request."""

    index: int
    kind: str
    point: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    from_cache: bool = False
    coalesced: bool = False
    records: list | None = None


@dataclass
class LoadResult:
    """Every outcome of one driver run plus its timing frame; ``speed``
    is the host speed over reference the caller measured after the run
    (``accounting.host_speed``), 1.0 when it did not."""

    outcomes: list[Outcome] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    speed: float = 1.0


class Connection:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(self, method: str, target: str, payload: dict | None = None,
                      request_id: str | None = None) -> tuple[int, dict]:
        """One round trip; returns ``(status, decoded JSON body)``."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if request_id is not None:
            head += f"{REQUEST_ID_HEADER}: {request_id}\r\n"
        self._writer.write((head + "\r\n").encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("service closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self._reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else {}


async def _connection_worker(connection: Connection, queue: asyncio.Queue,
                             result: LoadResult, keep_records) -> None:
    while True:
        outcome = await queue.get()
        if outcome is None:
            return
        outcome.sent = time.monotonic()
        try:
            status, payload = await connection.request(
                "POST", "/evaluate", {"overrides": outcome.point},
                request_id=str(outcome.index))
        except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
            status, payload = 0, {}
        outcome.done = time.monotonic()
        outcome.status = status
        outcome.from_cache = bool(payload.get("from_cache"))
        outcome.coalesced = bool(payload.get("coalesced"))
        if status != 200 or keep_records(outcome.index):
            outcome.records = payload.get("records")
        result.outcomes.append(outcome)


async def _drive(host: str, port: int, connections: int, producer,
                 keep_records) -> LoadResult:
    result = LoadResult()
    queue: asyncio.Queue = asyncio.Queue(maxsize=0 if producer.open_loop else connections)
    opened = [await Connection(host, port).open() for _ in range(connections)]
    try:
        workers = [asyncio.ensure_future(_connection_worker(c, queue, result, keep_records))
                   for c in opened]
        result.start = time.monotonic()
        await producer.fill(queue, result)
        for _ in opened:
            await queue.put(None)
        await asyncio.gather(*workers)
        result.end = time.monotonic()
    finally:
        for connection in opened:
            await connection.close()
    return result


class _Schedule:
    """Producer: requests fall due at ``rate`` per second; a duplicate
    pair takes one slot and both copies share its due time."""

    open_loop = True

    def __init__(self, next_request, rate: float, seconds: float, first_index: int) -> None:
        self.next_request, self.rate, self.seconds = next_request, rate, seconds
        self.index = first_index

    async def fill(self, queue: asyncio.Queue, result: LoadResult) -> None:
        slot = 0
        while slot / self.rate < self.seconds:
            due = result.start + slot / self.rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late = time.monotonic() - due
            kind, point = self.next_request()
            for _ in range(2 if kind == PAIR else 1):
                queue.put_nowait(Outcome(self.index, kind, point, due))
                result.lateness.append(late)
                self.index += 1
            slot += 1


class _Saturate:
    """Producer: keeps every connection busy until ``seconds`` pass."""

    open_loop = False

    def __init__(self, next_request, seconds: float, first_index: int) -> None:
        self.next_request, self.seconds = next_request, seconds
        self.index = first_index

    async def fill(self, queue: asyncio.Queue, result: LoadResult) -> None:
        while time.monotonic() - result.start < self.seconds:
            kind, point = self.next_request()
            for _ in range(2 if kind == PAIR else 1):
                await queue.put(Outcome(self.index, kind, point, time.monotonic()))
                self.index += 1


def open_loop(host: str, port: int, next_request, *, rate: float, seconds: float,
              connections: int, first_index: int, keep_records) -> LoadResult:
    """Send the requests ``next_request()`` returns as ``(kind, point)``
    at a fixed ``rate`` for ``seconds``."""
    producer = _Schedule(next_request, rate, seconds, first_index)
    return asyncio.run(_drive(host, port, connections, producer, keep_records))


def closed_loop(host: str, port: int, next_request, *, seconds: float,
                connections: int, first_index: int, keep_records) -> LoadResult:
    """Keep ``connections`` requests from ``next_request()`` in flight
    for ``seconds``."""
    producer = _Saturate(next_request, seconds, first_index)
    return asyncio.run(_drive(host, port, connections, producer, keep_records))


def request_once(host: str, port: int, method: str, target: str,
                 payload: dict | None = None) -> tuple[int, dict]:
    """One request on a fresh connection (set-up, warm-up and ``/stats``)."""
    async def once():
        connection = await Connection(host, port).open()
        try:
            return await connection.request(method, target, payload)
        finally:
            await connection.close()
    return asyncio.run(once())


def warm(host: str, port: int, points) -> int:
    """Request every point once over one connection; returns how many
    answered 200."""
    async def run():
        connection = await Connection(host, port).open()
        try:
            answered = 0
            for point in points:
                status, _ = await connection.request("POST", "/evaluate",
                                                     {"overrides": point})
                answered += status == 200
            return answered
        finally:
            await connection.close()
    return asyncio.run(run())
