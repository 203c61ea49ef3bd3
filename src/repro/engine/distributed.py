"""Distributed executor: the ``run(items)`` contract over TCP workers.

The executor layer was built pluggable so the same
``run(items: list[WorkItem]) -> list[EvaluatedPoint]`` contract could
span multiple hosts; this module is that span.  A
:class:`DistributedExecutor` is the *coordinator* of a fleet of
persistent worker processes (``python -m repro.engine.worker``): it
listens on a TCP socket, accepts worker registrations, cuts each batch
into contiguous chunks — about four per live worker
(:func:`~repro.engine.executor.chunk_size`, the process pool's rule,
capped at :data:`MAX_CHUNK_ITEMS`) —
hands them out from a shared queue (natural load balancing: a slow host
simply takes fewer chunks), and reassembles the results in submission
order.  Everything is standard library: sockets, threads and JSON.

Wire protocol (version 2)
-------------------------
Messages are JSON objects framed by a 4-byte big-endian length prefix
(:func:`send_frame` / :func:`recv_frame`).  Every message carries a
``"type"``:

========== =========== ====================================================
type       direction   meaning
========== =========== ====================================================
register   w -> c      first frame on any connection: worker id, protocol
                       and model version
registered c -> w      registration accepted (carries the final worker id)
rejected   c -> w      registration refused (version/protocol mismatch)
evaluate   c -> w      one chunk: ``task`` (the batch index of its first
                       item) and ``items``, a list of ``{overrides,
                       schemes, baseline}``
result     w -> c      ``task`` and ``records``: one comparison-records
                       list per item, in order
error      w -> c      deterministic evaluation failure of chunk ``task``
                       at offset ``item`` (fails the run — re-dispatching
                       a model-level rejection elsewhere would fail the
                       same way)
ping/pong  both        idle-connection heartbeat
shutdown   c -> w      drain and exit
========== =========== ====================================================

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
``result`` whose record count does not match the chunk) re-queues the
whole chunk the worker held and drops the worker; a chunk that has been
dispatched ``max_attempts`` times without an answer fails the run, as
does losing every worker while items are outstanding.  A worker *error
frame* (the model rejected a point) fails the run immediately — it is
deterministic, so retrying elsewhere cannot help.  A batch holding a
config that cannot be encoded fails before anything is queued.  Either
way ``run`` raises :class:`~repro.errors.DistributedError` only after
every in-flight chunk has settled, so the executor survives a failed run
and the persistent pool remains usable for the next one.

See ``docs/distributed.md`` for topology and deployment notes.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..core.config import ExperimentConfig
from ..core.paths import leaf_layout
from ..errors import ConfigurationError, DistributedError, ReproError
from .executor import EvaluatedPoint, WorkItem, chunk_size

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_CHUNK_ITEMS",
    "send_frame",
    "recv_frame",
    "config_to_wire",
    "config_from_wire",
    "DistributedStats",
    "DistributedExecutor",
    "parse_address",
]

#: Bumped when the frame vocabulary changes incompatibly; registration
#: carries it so a version-skewed worker is rejected instead of fed.
PROTOCOL_VERSION = 2

#: Largest accepted frame.  Comparison records for one point are a few
#: KiB; this bound exists so a corrupt length prefix cannot make either
#: side try to allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Most items one ``evaluate`` frame carries.  A ``result`` frame costs
#: about 2 KiB per item with all five schemes, so a full chunk answers
#: in about 1 MiB, far inside :data:`MAX_FRAME_BYTES` for any batch size.
MAX_CHUNK_ITEMS = 512

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

@functools.cache
def _wire_readers() -> tuple:
    """:func:`~repro.core.paths.leaf_layout` with a compiled reader for
    each leaf and for its optional branch: ``(path, read, default,
    read_branch)``."""
    return tuple(
        (path, operator.attrgetter(path), default,
         None if branch is None else operator.attrgetter(branch))
        for path, default, branch in leaf_layout()
    )


def config_to_wire(config: ExperimentConfig) -> dict[str, object]:
    """JSON-safe dotted-path overrides that rebuild ``config``.

    Leaves holding their default value are omitted — except under a
    materialised optional branch (``noc``), whose every leaf is sent so
    the worker materialises the branch too (an all-default branch would
    otherwise vanish in transit).  Keys follow the path registry's order:
    the leaves and their defaults come from
    :func:`~repro.core.paths.leaf_layout`, so a field added to any
    nested config ships without touching this module.
    """
    overrides: dict[str, object] = {}
    for path, read, default, read_branch in _wire_readers():
        try:
            if read_branch is not None and read_branch(config) is None:
                continue
            value = read(config)
        except AttributeError as exc:
            raise ConfigurationError(
                f"config path {path!r} does not resolve: {exc}") from exc
        if read_branch is not None or value != default:
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
        return ExperimentConfig().with_overrides(
            **{str(path): value for path, value in overrides.items()})
    except ReproError:
        raise
    except TypeError as exc:
        raise DistributedError(f"malformed wire overrides: {exc}") from exc


def parse_address(spec: str, default_port: int = 0) -> tuple[str, int]:
    """Parse ``"host:port"`` (or bare ``"host"``) into ``(host, port)``."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return spec, default_port
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
    failure: DistributedError | None = None


@dataclass
class _Chunk:
    """A contiguous slice ``[start, start + size)`` of a run's items: the
    unit of dispatch, of re-dispatch and of ``max_attempts``."""

    start: int
    size: int
    frame: dict
    state: _RunState
    attempts: int = 0

    def describe(self) -> str:
        if self.size == 1:
            return f"item {self.start}"
        return f"items {self.start}-{self.start + self.size - 1}"


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
    connect:
        Addresses (``"host:port"`` strings or ``(host, port)`` tuples)
        of workers running in ``--listen`` mode; the coordinator dials
        out to them instead of waiting for them to dial in.
    min_workers:
        ``run`` waits until this many workers are registered before
        dispatching (default: the spawned plus dialled count, at least
        one).
    max_attempts:
        Dispatch attempts per chunk before the run fails (re-dispatch
        happens only on worker death, never on a deterministic
        evaluation error).
    heartbeat_interval:
        Idle workers are pinged this often (seconds); a worker that
        fails its heartbeat is dropped from the pool.
    register_timeout:
        How long to wait for ``min_workers`` registrations, for the
        registration frame of a new connection, and for a dial-out to
        succeed.
    item_timeout:
        Per-item socket timeout (seconds): a worker may take this long
        per item of the chunk it holds; ``None`` waits as long as the
        worker keeps the connection alive.  A timeout counts as worker
        death: the chunk is re-dispatched elsewhere.

    The pool is persistent: workers stay registered across ``run``
    calls (the evaluation service's successive batch flushes reuse the
    same fleet), idle connections are kept healthy by heartbeats, and
    :meth:`close` — also reachable as a context manager — shuts the
    fleet down.
    """

    name = "distributed"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 spawn_workers: int = 0,
                 connect: Sequence[object] = (),
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
        self.connect = [addr if isinstance(addr, tuple) else parse_address(str(addr))
                        for addr in connect]
        expected = spawn_workers + len(self.connect)
        if min_workers is not None and min_workers < 1:
            raise ConfigurationError("min_workers must be at least 1")
        self.min_workers = min_workers if min_workers is not None else max(1, expected)
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
        """Bind the listener, spawn/dial workers; idempotent."""
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
        for address in self.connect:
            threading.Thread(target=self._dial_worker, args=(address,),
                             name=f"repro-dist-dial-{address[0]}:{address[1]}",
                             daemon=True).start()
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

    def _dial_worker(self, address: tuple[str, int]) -> None:
        """Dial out to a ``--listen`` worker, retrying until the
        registration window closes; the accepted socket registers through
        the same handshake as an inbound connection."""
        deadline = time.monotonic() + self.register_timeout
        while not self._closed:
            try:
                sock = socket.create_connection(address, timeout=self.register_timeout)
            except OSError:
                if time.monotonic() >= deadline:
                    return
                time.sleep(0.1)
                continue
            self._register_connection(sock, f"{address[0]}:{address[1]}")
            return

    def close(self) -> None:
        """Shut the fleet down: signal every worker, close the listener,
        reap spawned subprocesses.  Idempotent; the pool cannot be
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
        must be dropped and the chunk re-queued."""
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
                    records = message.get("records")
                    if not (isinstance(records, list) and len(records) == chunk.size
                            and all(isinstance(entry, list) for entry in records)):
                        return False  # protocol violation: drop the worker
                    self._complete(handle, chunk, records)
                    return True
                if mtype == "error" and message.get("task") == chunk.start:
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

    def _settle(self, chunk: _Chunk,
                failure: DistributedError | None = None) -> None:
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
        cannot finish the batch; the pool survives a failed run.
        """
        if not items:
            return []
        # Encode the whole batch before touching the queue: a config
        # that cannot go on the wire fails the run with nothing sent.
        wire = [{"overrides": config_to_wire(item.config),
                 "schemes": list(item.scheme_names),
                 "baseline": item.baseline_name} for item in items]
        with self._run_lock:
            self.start()
            self._wait_for_workers(self.min_workers)
            with self._cond:
                size = min(chunk_size(len(items), self._alive_count()),
                           MAX_CHUNK_ITEMS)
                state = _RunState(outstanding=len(items), results=[None] * len(items))
                self._state = state
            for start in range(0, len(items), size):
                batch = wire[start:start + size]
                self._chunks.put(_Chunk(
                    start=start, size=len(batch), state=state,
                    frame={"type": "evaluate", "task": start, "items": batch}))
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
