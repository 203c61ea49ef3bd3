"""Distributed executor: the ``run(items)`` contract over TCP workers.

The executor layer was built pluggable so the same
``run(items: list[WorkItem]) -> list[EvaluatedPoint]`` contract could
span processes and hosts; this module is that span, and the engine's
only parallel executor.  A :class:`DistributedExecutor` is the
*coordinator* of a fleet of persistent worker processes
(``python -m repro.engine.worker --connect HOST:PORT``): it listens on a
TCP socket, accepts the registrations of workers that dial in, cuts each
batch into contiguous chunks — about four per live worker
(:func:`chunk_size`, capped at :data:`MAX_CHUNK_ITEMS`) — hands them out
from a shared queue (natural load balancing: a slow host simply takes
fewer chunks), and reassembles the results in submission order.
Everything is standard library: sockets, threads, JSON and packed
doubles.

Wire protocol (version 3)
-------------------------
Messages are JSON objects framed by a 4-byte big-endian length prefix
(:func:`send_frame` / :func:`recv_frame`).  Every message carries a
``"type"``:

========== =========== ====================================================
type       direction   meaning
========== =========== ====================================================
register   w -> c      first frame on every connection: worker id,
                       protocol and model version
registered c -> w      registration accepted (carries the final worker id)
rejected   c -> w      registration refused (version/protocol mismatch)
evaluate   c -> w      one chunk: ``task`` (the batch index of its first
                       item), ``schemes`` and ``baseline`` (shared by every
                       item of the chunk) and ``items``, one dotted-path
                       overrides object per item
result     w -> c      ``task``, ``floats`` and ``ints``: the chunk's
                       records in :data:`~repro.core.comparison.RECORD_LAYOUT`
                       (see below)
error      w -> c      deterministic failure of chunk ``task`` at offset
                       ``item`` (fails the run — re-dispatching it
                       elsewhere would fail the same way); ``error`` is
                       ``evaluation-failed`` when the model rejected the
                       point, ``malformed-item`` or ``internal-error``
                       otherwise
ping/pong  both        idle-connection heartbeat
shutdown   c -> w      drain and exit
========== =========== ====================================================

A ``result`` frame carries numbers, not decimal text.  Each item has one
record per distinct scheme name of ``schemes``, in order, and the name
is implied by that position.  ``floats`` is the base64 text of one
packed little-endian double block: every ``float`` field of every
record, item by item, record by record, in layout order.  ``ints`` holds
one JSON int list per item: every ``int`` field of its records in the
same order, so an int of any size stays exact.  The worker packs only
values whose type is exactly the layout's (:func:`pack_item`) and
answers an ``error`` frame naming the item otherwise; the coordinator
rebuilds records equal to serial
:func:`~repro.core.comparison.point_records` down to key order, value
types and float bits (:func:`unpack_result`).

Configs travel as *dotted-path overrides* against a default
:class:`~repro.core.config.ExperimentConfig`
(:func:`config_to_wire` / :func:`config_from_wire`) — the same
vocabulary as the service's queries — so the wire format is JSON-safe,
compact (defaults are omitted) and automatically covers every field of
the config tree.  The encoder reads each leaf against its default from
the path layer's cached :func:`~repro.core.paths.leaf_layout`.

Failure semantics
-----------------
A chunk is the unit of re-dispatch.  Worker *death* (socket error, EOF,
heartbeat failure, no answer to a chunk within ``item_timeout`` per
item, or a
``result`` that does not fit the chunk: a float block of the wrong
length, an int list of the wrong shape) re-queues the
whole chunk the worker held and drops the worker; a chunk that has been
dispatched ``max_attempts`` times without an answer fails the run, as
does losing every worker while items are outstanding.  A worker *error
frame* (the model rejected a point) fails the run immediately — it is
deterministic, so retrying elsewhere cannot help.  A batch holding a
config that cannot be encoded fails before anything is queued.  ``run``
raises only after every in-flight chunk has settled, so the executor
survives a failed run and the persistent fleet remains usable for the
next one.  A model rejection (``evaluation-failed``) raises a plain
:class:`~repro.errors.ReproError` carrying the worker's message, as the
serial executor would have raised the model's own error; every other
failure is a :class:`~repro.errors.DistributedError`.

See ``docs/distributed.md`` for topology and deployment notes.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import operator
import os
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..core.comparison import RECORD_LAYOUT
from ..core.config import ExperimentConfig
from ..core.paths import leaf_layout
from ..errors import ConfigurationError, DistributedError, ReproError
from .executor import EvaluatedPoint, WorkItem

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_CHUNK_ITEMS",
    "CHUNKS_PER_WORKER",
    "chunk_size",
    "send_frame",
    "recv_frame",
    "config_to_wire",
    "config_from_wire",
    "result_names",
    "pack_item",
    "result_frame",
    "unpack_result",
    "DistributedStats",
    "DistributedExecutor",
    "parse_address",
]

#: Bumped when the frame vocabulary changes incompatibly; registration
#: carries it so a version-skewed worker is rejected instead of fed.
PROTOCOL_VERSION = 3

#: Largest accepted frame.  Comparison records for one point are about
#: half a KiB; this bound exists so a corrupt length prefix cannot make
#: either side try to allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Most items one ``evaluate`` frame carries.  A ``result`` frame costs
#: about 0.5 KiB per item with all five schemes, so a full chunk answers
#: in about 250 KiB, far inside :data:`MAX_FRAME_BYTES` for any batch size.
MAX_CHUNK_ITEMS = 512

#: Contiguous chunks a batch is cut into per worker: enough that a slow
#: worker's last chunk holds up little, few enough that per-chunk
#: overhead (a wire frame each way) stays small.
CHUNKS_PER_WORKER = 4

_LENGTH_BYTES = 4

#: JSON-safe scalar types a config leaf may hold on the wire.
_WIRE_SCALARS = (bool, int, float, str, type(None))


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` at a clean end of stream
    (no bytes at all), :class:`DistributedError` on a mid-read EOF."""
    chunks: list[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received == 0:
                return None
            raise DistributedError("connection closed mid-frame")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: Mapping[str, object]) -> None:
    """Send one length-prefixed JSON message over ``sock``."""
    data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise DistributedError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    sock.sendall(len(data).to_bytes(_LENGTH_BYTES, "big") + data)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one framed message; ``None`` at a clean end of stream.

    Raises :class:`~repro.errors.DistributedError` for truncated frames,
    oversized or zero length prefixes, and payloads that are not a JSON
    object with a string ``"type"``.
    """
    header = _recv_exact(sock, _LENGTH_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if not 0 < length <= MAX_FRAME_BYTES:
        raise DistributedError(f"unacceptable frame length {length}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise DistributedError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DistributedError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise DistributedError("frame payload must be an object with a 'type'")
    return message


# ---------------------------------------------------------------------------
# config serialisation: dotted-path overrides against the default config
# ---------------------------------------------------------------------------

#: The config every wire message is decoded against.  It is frozen, so
#: one instance serves every item, and scalar-only items share its
#: crossbar object (the worker's structure memo then hits by identity).
_WIRE_BASE = ExperimentConfig()


@functools.cache
def _wire_readers() -> tuple:
    """:func:`~repro.core.paths.leaf_layout` with a compiled reader for
    each leaf: ``(path, read, default)``."""
    return tuple((path, operator.attrgetter(path), default)
                 for path, default in leaf_layout())


def config_to_wire(config: ExperimentConfig) -> dict[str, object]:
    """JSON-safe dotted-path overrides that rebuild ``config``.

    Leaves holding their default value are omitted.  Keys follow the
    path registry's order: the leaves and their defaults come from
    :func:`~repro.core.paths.leaf_layout`, so a field added to any
    nested config ships without touching this module.
    """
    overrides: dict[str, object] = {}
    for path, read, default in _wire_readers():
        try:
            value = read(config)
        except AttributeError as exc:
            raise ConfigurationError(
                f"config path {path!r} does not resolve: {exc}") from exc
        if value != default:
            if not isinstance(value, _WIRE_SCALARS):
                raise DistributedError(
                    f"config leaf {path!r} holds non-JSON-safe {value!r}"
                )
            overrides[path] = value
    return overrides


def config_from_wire(overrides: object) -> ExperimentConfig:
    """Rebuild the :class:`ExperimentConfig` a wire message describes.

    The overrides re-validate through the same path layer as service
    queries, so a malformed path or rejected value raises (and the
    worker answers with an ``error`` frame instead of evaluating).
    """
    if not isinstance(overrides, Mapping):
        raise DistributedError(
            f"wire overrides must be an object, got {type(overrides).__name__}"
        )
    try:
        return _WIRE_BASE.with_overrides(
            **{str(path): value for path, value in overrides.items()})
    except ReproError:
        raise
    except TypeError as exc:
        raise DistributedError(f"malformed wire overrides: {exc}") from exc


# ---------------------------------------------------------------------------
# result records: packed doubles beside JSON ints
# ---------------------------------------------------------------------------

_RECORD_KEYS = tuple(key for key, _ in RECORD_LAYOUT)
_WIDTH = len(RECORD_LAYOUT)
#: Positions of the packed and of the JSON fields in a record; position
#: 0 is the scheme name, which the wire implies.
_FLOAT_AT = tuple(at for at, (_, kind) in enumerate(RECORD_LAYOUT) if kind is float)
_INT_AT = tuple(at for at, (_, kind) in enumerate(RECORD_LAYOUT) if kind is int)
_FLOAT_TYPES = {float}
_INT_TYPES = {int}


@functools.lru_cache(maxsize=16)
def _wire_positions(record_count: int) -> tuple:
    """For an item of ``record_count`` records, its values laid end to end
    in layout order: a getter of the ``float`` values (in wire order) and
    the positions of the ``int`` values."""
    def positions(fields: tuple[int, ...]) -> list[int]:
        return [index * _WIDTH + at for index in range(record_count) for at in fields]
    # Nine float fields a record: the getter always answers a tuple.
    return operator.itemgetter(*positions(_FLOAT_AT)), positions(_INT_AT)


def result_names(scheme_names: Sequence[str]) -> tuple[str, ...]:
    """The scheme of each record an item's ``scheme_names`` yields: its
    distinct names in first-appearance order (a repeated name evaluates
    once, as in :func:`~repro.core.comparison.point_records`)."""
    return tuple(dict.fromkeys(scheme_names))


def pack_item(records: Sequence[Mapping], names: Sequence[str],
              floats: list[float]) -> list[int]:
    """Append one item's ``float`` fields to ``floats`` and return its
    ``int`` fields, both in wire order.

    Raises :class:`~repro.errors.DistributedError` unless the records are
    one per name of ``names``, in order, each with exactly the keys of
    :data:`~repro.core.comparison.RECORD_LAYOUT` in that order and every
    value of exactly its field's type: nothing is converted.
    """
    values = [value for record in records for value in record.values()]
    if len(records) == len(names) and all(tuple(record) == _RECORD_KEYS for record in records):
        floats_of, int_positions = _wire_positions(len(records))
        item_floats = floats_of(values)
        ints = [values[at] for at in int_positions]
        if (values[0::_WIDTH] == list(names) and set(map(type, item_floats)) <= _FLOAT_TYPES
                and set(map(type, ints)) <= _INT_TYPES):
            floats += item_floats
            return ints
    raise DistributedError(_misfit(records, names))


def _misfit(records: Sequence[Mapping], names: Sequence[str]) -> str:
    """Why :func:`pack_item` refused ``records``."""
    if len(records) != len(names):
        return f"{len(records)} records for the {len(names)} schemes {list(names)}"
    kinds = dict(RECORD_LAYOUT)
    for index, (name, record) in enumerate(zip(names, records)):
        if tuple(record) != _RECORD_KEYS or record["scheme"] != name:
            return (f"record {index} does not fit the wire layout of scheme "
                    f"{name!r}: keys {list(record)}")
        for key, value in record.items():
            if type(value) is not kinds[key]:
                return (f"record field {key!r} holds {type(value).__name__} "
                        f"{value!r}; its layout type is {kinds[key].__name__}")
    raise AssertionError("the records fit the layout")


def result_frame(task: object, floats: list[float], ints: list[list[int]]) -> dict:
    """The ``result`` frame of a chunk packed by :func:`pack_item`."""
    block = struct.pack(f"<{len(floats)}d", *floats)
    return {"type": "result", "task": task,
            "floats": base64.b64encode(block).decode("ascii"), "ints": ints}


def unpack_result(message: Mapping, names: Sequence[str], size: int) -> list[list[dict]]:
    """The records of a ``result`` frame for a chunk of ``size`` items
    whose records are the schemes ``names``: one list per item, each
    record equal to serial
    :func:`~repro.core.comparison.point_records` in key order, value
    types and float bits.

    Raises :class:`~repro.errors.DistributedError` when the frame does not
    fit the chunk: a float block of another length, or ``ints`` not one
    list of ints per item with one entry per ``int`` field of each record.
    """
    block, ints = message.get("floats"), message.get("ints")
    record_count = size * len(names)
    if not isinstance(block, str) or type(ints) is not list or len(ints) != size:
        raise DistributedError("result frame does not fit its chunk")
    try:
        raw = base64.b64decode(block, validate=True)
    except binascii.Error as exc:
        raise DistributedError(f"result float block is not base64: {exc}") from exc
    count = record_count * len(_FLOAT_AT)
    if len(raw) != 8 * count:
        raise DistributedError(
            f"result float block holds {len(raw)} bytes, not {count} doubles")
    per_item = len(names) * len(_INT_AT)
    if not all(type(item) is list and len(item) == per_item for item in ints):
        raise DistributedError("result int lists do not fit their chunk")
    int_values = [value for item in ints for value in item]
    if not set(map(type, int_values)) <= _INT_TYPES:
        raise DistributedError("result int lists hold a value that is not an int")
    floats = struct.unpack(f"<{count}d", raw)
    # Every record's values end to end in layout order, one field at a
    # time, then cut into records of the layout's width.
    values: list[object] = [None] * (record_count * _WIDTH)
    values[0::_WIDTH] = names * size
    for field, at in enumerate(_FLOAT_AT):
        values[at::_WIDTH] = floats[field::len(_FLOAT_AT)]
    for field, at in enumerate(_INT_AT):
        values[at::_WIDTH] = int_values[field::len(_INT_AT)]
    stream = iter(values)
    # zip stops at the end of the keys without drawing on the stream.
    return [[dict(zip(_RECORD_KEYS, stream)) for _ in names] for _ in range(size)]


def parse_address(spec: str) -> tuple[str, int]:
    """Parse ``"host:port"`` (or bare ``"host"``, port 0: any free port)
    into ``(host, port)``."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return spec, 0
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(f"bad port in address {spec!r}") from exc
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port out of range in address {spec!r}")
    return host or "127.0.0.1", port


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

def chunk_size(item_count: int, workers: int) -> int:
    """Items per chunk when ``item_count`` items are shared out over
    ``workers`` workers: about :data:`CHUNKS_PER_WORKER` chunks each
    (a 64-item batch on 2 workers is 8 chunks of 8; a batch smaller
    than ``4 * workers`` goes one item per chunk)."""
    return max(1, math.ceil(item_count / (max(1, workers) * CHUNKS_PER_WORKER)))


@dataclass
class DistributedStats:
    """Fleet accounting for one :class:`DistributedExecutor`.

    ``dispatched``, ``completed`` and ``redispatched`` count work items,
    not frames: a chunk of eight items sent once adds eight to
    ``dispatched``.
    """

    workers_registered: int = 0
    workers_rejected: int = 0
    workers_lost: int = 0
    dispatched: int = 0
    completed: int = 0
    redispatched: int = 0
    heartbeats: int = 0

    def as_payload(self) -> dict:
        """JSON-safe counter dict (every field, by construction)."""
        import dataclasses

        return dataclasses.asdict(self)


class _Shutdown:
    """Queue sentinel: the consuming worker thread drains and exits."""


@dataclass
class _RunState:
    """Completion bookkeeping for one ``run(items)`` call: ``outstanding``
    counts items; ``results`` holds each item's records by position."""

    outstanding: int
    results: list
    failure: ReproError | None = None


@dataclass
class _Chunk:
    """A contiguous slice ``[start, start + size)`` of a run's items: the
    unit of dispatch, of re-dispatch and of ``max_attempts``."""

    start: int
    size: int
    frame: dict
    names: tuple[str, ...]
    state: _RunState
    attempts: int = 0

    def describe(self) -> str:
        if self.size == 1:
            return f"item {self.start}"
        return f"items {self.start}-{self.start + self.size - 1}"


def _chunk_bounds(items: Sequence[WorkItem], size: int) -> list[tuple[int, int]]:
    """``[start, stop)`` of each chunk: ``size`` items, or fewer where
    the next item names other schemes or another baseline (a chunk's
    items share the ``evaluate`` frame's ``schemes`` and ``baseline``)."""
    bounds = []
    start = 0
    while start < len(items):
        group = (items[start].scheme_names, items[start].baseline_name)
        stop = start + 1
        end = min(start + size, len(items))
        while stop < end and (items[stop].scheme_names, items[stop].baseline_name) == group:
            stop += 1
        bounds.append((start, stop))
        start = stop
    return bounds


class _WorkerHandle:
    """Coordinator-side state of one registered worker connection."""

    def __init__(self, worker_id: str, sock: socket.socket, address: str) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.address = address
        self.completed = 0
        self.alive = True
        self.thread: threading.Thread | None = None


class DistributedExecutor:
    """Coordinate a fleet of TCP workers behind the ``run(items)`` contract.

    Parameters
    ----------
    host / port:
        Where the coordinator listens for worker registrations.  Port
        ``0`` binds an ephemeral port, readable from :attr:`address`
        after :meth:`start`.
    spawn_workers:
        Convenience: launch this many local worker subprocesses
        (``python -m repro.engine.worker --connect``) pointed at the
        listening socket.  ``0`` (the default) expects workers to be
        started externally.
    min_workers:
        ``run`` waits until this many workers are registered before
        dispatching (default: the spawned count, at least one).
    max_attempts:
        Dispatch attempts per chunk before the run fails (re-dispatch
        happens only on worker death, never on a deterministic
        evaluation error).
    heartbeat_interval:
        Idle workers are pinged this often (seconds); a worker that
        fails its heartbeat is dropped from the fleet.
    register_timeout:
        How long to wait for ``min_workers`` registrations and for the
        registration frame of a new connection.
    item_timeout:
        Per-item socket timeout (seconds): a worker may take this long
        per item of the chunk it holds; ``None`` waits as long as the
        worker keeps the connection alive.  A timeout counts as worker
        death: the chunk is re-dispatched elsewhere.

    The fleet is persistent: workers stay registered across ``run``
    calls (the evaluation service's successive batch flushes reuse the
    same fleet), idle connections are kept healthy by heartbeats, and
    :meth:`close` — also reachable as a context manager — shuts the
    fleet down.
    """

    name = "distributed"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 spawn_workers: int = 0,
                 min_workers: int | None = None,
                 max_attempts: int = 3,
                 heartbeat_interval: float = 5.0,
                 register_timeout: float = 20.0,
                 item_timeout: float | None = None) -> None:
        if spawn_workers < 0:
            raise ConfigurationError("spawn_workers cannot be negative")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if heartbeat_interval <= 0 or register_timeout <= 0:
            raise ConfigurationError("intervals and timeouts must be positive")
        if item_timeout is not None and item_timeout <= 0:
            raise ConfigurationError("item_timeout must be positive (or None)")
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        if min_workers is not None and min_workers < 1:
            raise ConfigurationError("min_workers must be at least 1")
        self.min_workers = min_workers if min_workers is not None else max(1, spawn_workers)
        self.max_attempts = max_attempts
        self.heartbeat_interval = heartbeat_interval
        self.register_timeout = register_timeout
        self.item_timeout = item_timeout
        self.stats = DistributedStats()
        self._cond = threading.Condition()
        self._chunks: queue.Queue = queue.Queue()
        self._workers: dict[str, _WorkerHandle] = {}
        self._spawned: list[subprocess.Popen] = []
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._run_lock = threading.Lock()
        self._state: _RunState | None = None
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The coordinator's listening ``(host, port)`` (after start)."""
        return self.host, self.port

    def start(self) -> "DistributedExecutor":
        """Bind the listener and spawn local workers; idempotent."""
        with self._cond:
            if self._closed:
                raise DistributedError("executor is closed")
            if self._started:
                return self
            self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True)
        self._accept_thread.start()
        for index in range(self.spawn_workers):
            self._spawned.append(self._spawn_local_worker(index))
        return self

    def _connect_host(self) -> str:
        """The address spawned local workers dial (wildcards -> loopback)."""
        if self.host in ("", "0.0.0.0", "::"):
            return "127.0.0.1"
        return self.host

    def _spawn_local_worker(self, index: int) -> subprocess.Popen:
        """Launch one local worker subprocess pointed at the listener."""
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not existing
                             else package_root + os.pathsep + existing)
        command = [sys.executable, "-m", "repro.engine.worker",
                   "--connect", f"{self._connect_host()}:{self.port}",
                   "--worker-id", f"local-{index}-{os.getpid()}"]
        return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)

    def close(self) -> None:
        """Shut the fleet down: signal every worker, close the listener,
        reap spawned subprocesses.  Idempotent; the fleet cannot be
        restarted afterwards."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers.values())
            # A run blocked on the condition must not wait forever for
            # workers that are about to exit: fail it and wake it now.
            state = self._state
            if state is not None and state.failure is None:
                state.failure = DistributedError(
                    f"executor closed with {state.outstanding} items "
                    f"outstanding"
                )
            self._cond.notify_all()
        for _ in handles:
            self._chunks.put(_Shutdown())
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for handle in handles:
            if handle.thread is not None:
                handle.thread.join(timeout=5.0)
        for process in self._spawned:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
        with self._cond:
            self._workers.clear()

    def __enter__(self) -> "DistributedExecutor":
        """Start the fleet on entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Close the fleet on exit."""
        self.close()

    # -- registration ------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._register_connection,
                args=(sock, f"{peer[0]}:{peer[1]}"),
                name="repro-dist-register", daemon=True).start()

    def _register_connection(self, sock: socket.socket, address: str) -> None:
        """Run the registration handshake on a fresh connection and, on
        success, hand the socket to a dedicated dispatch thread."""
        from .. import __version__

        try:
            sock.settimeout(self.register_timeout)
            message = recv_frame(sock)
            if message is None or message["type"] != "register":
                raise DistributedError("expected a register frame")
            problem = None
            if message.get("protocol") != PROTOCOL_VERSION:
                problem = (f"protocol {message.get('protocol')!r} != "
                           f"{PROTOCOL_VERSION}")
            elif message.get("model_version") != __version__:
                # A version-skewed worker would silently poison the cache:
                # results are stored under the coordinator's version key.
                problem = (f"model version {message.get('model_version')!r} "
                           f"!= {__version__!r}")
            if problem is not None:
                # Count before answering: a peer that reads the rejection
                # must already see it in the stats.
                with self._cond:
                    self.stats.workers_rejected += 1
                send_frame(sock, {"type": "rejected", "reason": problem})
                sock.close()
                return
        except (OSError, DistributedError, ValueError, KeyError):
            try:
                sock.close()
            except OSError:
                pass
            return
        # Uniquify and insert under ONE lock acquisition: two concurrent
        # same-id registrations must end up as two tracked handles, not
        # one silently overwriting the other.  The dispatch thread starts
        # before the handle becomes visible, so close() never finds a
        # handle whose thread it cannot join; the thread itself sends the
        # ack, as the socket's sole owner from here on.
        worker_id = str(message.get("worker") or address)
        with self._cond:
            if self._closed:
                sock.close()
                return
            while worker_id in self._workers:
                worker_id += "+"
            handle = _WorkerHandle(worker_id, sock, address)
            handle.thread = threading.Thread(
                target=self._serve_worker, args=(handle,),
                name=f"repro-dist-{worker_id}", daemon=True)
            handle.thread.start()
            self._workers[worker_id] = handle
            self.stats.workers_registered += 1
            self._cond.notify_all()

    def _serve_worker(self, handle: _WorkerHandle) -> None:
        """Acknowledge a registration, then run the worker's dispatch loop."""
        try:
            send_frame(handle.sock, {"type": "registered", "worker": handle.worker_id})
            handle.sock.settimeout(None)
        except (OSError, DistributedError):
            self._forget_worker(handle)
            return
        self._worker_loop(handle)

    def _alive_count(self) -> int:
        return sum(1 for handle in self._workers.values() if handle.alive)

    def _wait_for_workers(self, needed: int) -> None:
        deadline = time.monotonic() + self.register_timeout
        with self._cond:
            while self._alive_count() < needed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DistributedError(
                        f"only {self._alive_count()} of {needed} workers "
                        f"registered within {self.register_timeout}s"
                    )
                self._cond.wait(remaining)

    # -- dispatch ----------------------------------------------------------------
    def _worker_loop(self, handle: _WorkerHandle) -> None:
        """Sole owner of one worker's socket: pulls chunks off the shared
        queue, heartbeats when idle, exits (re-queueing its chunk) when
        the worker dies."""
        try:
            while True:
                with self._cond:
                    if self._closed or not handle.alive:
                        return
                try:
                    chunk = self._chunks.get(timeout=self.heartbeat_interval)
                except queue.Empty:
                    if not self._heartbeat(handle):
                        return
                    continue
                if isinstance(chunk, _Shutdown):
                    try:
                        send_frame(handle.sock, {"type": "shutdown"})
                    except OSError:
                        pass
                    return
                if chunk.state.failure is not None:
                    # The run already failed: settle the chunk without
                    # evaluating so run() can finish draining.
                    self._settle(chunk)
                    continue
                if not self._dispatch(handle, chunk):
                    # Count the loss before the chunk can be re-run: once
                    # re-queued, a survivor may finish it and end run().
                    self._forget_worker(handle)
                    self._requeue(chunk)
                    return
        finally:
            self._forget_worker(handle)

    def _dispatch(self, handle: _WorkerHandle, chunk: _Chunk) -> bool:
        """Send one chunk and read its answer.  True when the chunk
        settled (result or deterministic error); False when the worker
        must be dropped and the chunk re-queued.  A model rejection
        fails the run with the worker's own message, as serial
        evaluation would have failed it."""
        with self._cond:
            self.stats.dispatched += chunk.size
        try:
            handle.sock.settimeout(None if self.item_timeout is None
                                   else self.item_timeout * chunk.size)
            send_frame(handle.sock, chunk.frame)
            while True:
                message = recv_frame(handle.sock)
                if message is None:
                    return False
                mtype = message["type"]
                if mtype == "pong":
                    continue  # stale heartbeat answer
                if mtype == "result" and message.get("task") == chunk.start:
                    # A result that does not fit the chunk raises: a
                    # protocol violation, so the worker is dropped.
                    self._complete(handle, chunk,
                                   unpack_result(message, chunk.names, chunk.size))
                    return True
                if mtype == "error" and message.get("task") == chunk.start:
                    if message.get("error") == "evaluation-failed":
                        self._settle(chunk, ReproError(message.get("message")))
                        return True
                    offset = message.get("item")
                    where = (f"item {chunk.start + offset}"
                             if isinstance(offset, int) and 0 <= offset < chunk.size
                             else chunk.describe())
                    self._settle(chunk, DistributedError(
                        f"worker {handle.worker_id!r} failed {where}: "
                        f"{message.get('message')}"
                    ))
                    return True
                return False  # unexpected frame: drop the worker
        except (OSError, DistributedError, ValueError):
            return False

    def _heartbeat(self, handle: _WorkerHandle) -> bool:
        """Ping an idle worker; False means the worker is gone."""
        try:
            handle.sock.settimeout(self.heartbeat_interval)
            send_frame(handle.sock, {"type": "ping"})
            while True:
                message = recv_frame(handle.sock)
                if message is None:
                    return False
                if message["type"] == "pong":
                    with self._cond:
                        self.stats.heartbeats += 1
                    return True
        except (OSError, DistributedError, ValueError):
            return False

    def _complete(self, handle: _WorkerHandle, chunk: _Chunk,
                  records: list) -> None:
        with self._cond:
            handle.completed += chunk.size
            self.stats.completed += chunk.size
            chunk.state.results[chunk.start:chunk.start + chunk.size] = records
            chunk.state.outstanding -= chunk.size
            self._cond.notify_all()

    def _settle(self, chunk: _Chunk, failure: ReproError | None = None) -> None:
        """Take a chunk off the run's outstanding count without results,
        failing the run with ``failure`` unless it already failed."""
        with self._cond:
            if failure is not None and chunk.state.failure is None:
                chunk.state.failure = failure
            chunk.state.outstanding -= chunk.size
            self._cond.notify_all()

    def _requeue(self, chunk: _Chunk) -> None:
        """Give a died-worker's chunk another dispatch, or fail the run
        once its attempt budget is spent."""
        chunk.attempts += 1
        if chunk.attempts >= self.max_attempts:
            self._settle(chunk, DistributedError(
                f"{chunk.describe()} failed after {chunk.attempts} dispatch "
                f"attempts (workers kept dying under it)"
            ))
            return
        with self._cond:
            self.stats.redispatched += chunk.size
        self._chunks.put(chunk)

    def _forget_worker(self, handle: _WorkerHandle) -> None:
        with self._cond:
            was_alive = handle.alive
            handle.alive = False
            self._workers.pop(handle.worker_id, None)
            if was_alive and not self._closed:
                self.stats.workers_lost += 1
                state = self._state
                if (state is not None and state.failure is None
                        and state.outstanding > 0 and self._alive_count() == 0):
                    state.failure = DistributedError(
                        f"all workers lost with {state.outstanding} items "
                        f"outstanding"
                    )
                self._cond.notify_all()
        try:
            handle.sock.close()
        except OSError:
            pass

    # -- the run(items) contract -------------------------------------------------
    def run(self, items: list[WorkItem]) -> list[EvaluatedPoint]:
        """Evaluate ``items`` across the fleet; results return in
        submission order.

        Raises :class:`~repro.errors.DistributedError` when the fleet
        cannot finish the batch, and a :class:`~repro.errors.ReproError`
        carrying the worker's message when the model rejects an item;
        the fleet survives a failed run.
        """
        if not items:
            return []
        # Encode the whole batch before touching the queue: a config
        # that cannot go on the wire fails the run with nothing sent.
        wire = [config_to_wire(item.config) for item in items]
        with self._run_lock:
            self.start()
            self._wait_for_workers(self.min_workers)
            with self._cond:
                size = min(chunk_size(len(items), self._alive_count()),
                           MAX_CHUNK_ITEMS)
                state = _RunState(outstanding=len(items), results=[None] * len(items))
                self._state = state
            for start, stop in _chunk_bounds(items, size):
                first = items[start]
                self._chunks.put(_Chunk(
                    start=start, size=stop - start, state=state,
                    names=result_names(first.scheme_names),
                    frame={"type": "evaluate", "task": start,
                           "schemes": list(first.scheme_names),
                           "baseline": first.baseline_name,
                           "items": wire[start:stop]}))
            with self._cond:
                # A failure ends the wait immediately: with every worker
                # gone nobody is left to settle the queued remainder.
                while state.outstanding > 0 and state.failure is None:
                    self._cond.wait()
                self._state = None
                failure = state.failure
            self._drain_tasks()
            if failure is not None:
                raise failure
            return [EvaluatedPoint(records=records) for records in state.results]

    def _drain_tasks(self) -> None:
        """Drop any chunks a failed run left queued (shutdown sentinels
        are preserved for the worker threads they target)."""
        leftovers = []
        while True:
            try:
                entry = self._chunks.get_nowait()
            except queue.Empty:
                break
            if isinstance(entry, _Shutdown):
                leftovers.append(entry)
        for sentinel in leftovers:
            self._chunks.put(sentinel)

    # -- introspection -----------------------------------------------------------
    def workers_payload(self) -> dict[str, dict]:
        """JSON-safe per-worker snapshot (id -> address, completed count)."""
        with self._cond:
            return {
                worker_id: {"address": handle.address,
                            "completed": handle.completed,
                            "alive": handle.alive}
                for worker_id, handle in self._workers.items()
            }

    def stats_payload(self) -> dict:
        """Fleet counters plus the live per-worker snapshot."""
        payload = self.stats.as_payload()
        payload["workers"] = self.workers_payload()
        payload["address"] = f"{self.host}:{self.port}"
        return payload
