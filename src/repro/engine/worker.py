"""Evaluation worker: one process of a distributed executor fleet.

``python -m repro.engine.worker --connect HOST:PORT`` dials a
:class:`~repro.engine.distributed.DistributedExecutor` coordinator,
registers, and then evaluates ``evaluate`` frames until told to shut
down.  A frame carries a chunk of work items; each item's dotted-path
overrides are rebuilt into an :class:`~repro.core.config.ExperimentConfig`
(:func:`~repro.engine.distributed.config_from_wire`) and run through
:func:`~repro.core.comparison.point_records`, exactly what the serial
executor would have done in-process, and the ``result`` frame answers
with one records list per item, in order.  Because the process is
persistent, the structural memoisation in
:mod:`repro.core.scheme_evaluator` warms up once and then serves every
subsequent item, the same amortisation a process-pool worker only gets
within a single batch.  Importing this module loads no numerical
library (numpy, scipy, networkx): evaluation needs none, so spawning a
worker does not pay for them.

``--listen [HOST:]PORT`` inverts the transport: the worker listens and
the coordinator dials out (for workers behind ingress-only firewalls).
Either way the worker speaks first — the ``register`` frame opens every
connection, whoever initiated it.

Evaluation failures are answered with structured ``error`` frames
naming the chunk and the offset of the failing item (a model-level
rejection is deterministic; the coordinator fails the run rather than
retrying it elsewhere); malformed frames and lost coordinators end the
process with a non-zero exit code so supervisors notice.
``--max-items N`` exits cleanly once the frames answered carried N items
or more (a chunk is always answered whole) — rolling restarts for
long-lived fleets, and the test suite's way of simulating worker death
mid-run.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from collections.abc import Mapping, Sequence

from ..core.comparison import point_records
from ..errors import DistributedError, ReproError
from .distributed import (
    PROTOCOL_VERSION,
    config_from_wire,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["default_worker_id", "serve_connection", "main"]


def default_worker_id() -> str:
    """``hostname-pid``: unique enough across a fleet of real hosts."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _evaluate_item(item: object) -> list[dict]:
    """Evaluate one wire item (``overrides``, ``schemes``, ``baseline``)."""
    if not isinstance(item, Mapping):
        raise TypeError(f"work item must be an object, got {type(item).__name__}")
    return point_records(
        config_from_wire(item.get("overrides", {})),
        scheme_names=[str(name) for name in item["schemes"]],
        baseline_name=str(item["baseline"]),
    )


def _evaluate_frame(sock: socket.socket, message: dict) -> int:
    """Answer one ``evaluate`` frame with a ``result`` (one records list
    per item, in order) or an ``error`` naming the first item that
    failed; returns how many items the frame carried."""
    task = message.get("task")
    items = message.get("items")
    if not isinstance(items, list) or not items:
        send_frame(sock, {"type": "error", "task": task, "error": "malformed-item",
                          "message": "an evaluate frame needs a non-empty 'items' list"})
        return 0
    records = []
    for offset, item in enumerate(items):
        try:
            records.append(_evaluate_item(item))
        except ReproError as exc:
            send_frame(sock, {"type": "error", "task": task, "item": offset,
                              "error": "evaluation-failed", "message": str(exc)})
            return len(items)
        except (KeyError, TypeError, ValueError) as exc:
            send_frame(sock, {"type": "error", "task": task, "item": offset,
                              "error": "malformed-item", "message": repr(exc)})
            return len(items)
    send_frame(sock, {"type": "result", "task": task, "records": records})
    return len(items)


def serve_connection(sock: socket.socket, worker_id: str,
                     max_items: int | None = None) -> str:
    """Speak the worker side of one coordinator connection.

    Registers, then serves ``evaluate``/``ping`` frames until the
    coordinator says ``shutdown`` (returns ``"shutdown"``), the
    connection ends (``"disconnect"``), or the frames answered so far
    carried ``max_items`` items or more (``"exhausted"``; a chunk is
    always answered whole, so the count may overshoot).  Raises
    :class:`~repro.errors.DistributedError` when registration is
    rejected.
    """
    from .. import __version__

    send_frame(sock, {
        "type": "register",
        "protocol": PROTOCOL_VERSION,
        "worker": worker_id,
        "model_version": __version__,
        "pid": os.getpid(),
    })
    answer = recv_frame(sock)
    if answer is None or answer["type"] != "registered":
        reason = answer.get("reason") if answer else "connection closed"
        raise DistributedError(f"registration rejected: {reason}")
    served = 0
    while True:
        message = recv_frame(sock)
        if message is None:
            return "disconnect"
        mtype = message["type"]
        if mtype == "ping":
            send_frame(sock, {"type": "pong"})
        elif mtype == "shutdown":
            return "shutdown"
        elif mtype == "evaluate":
            served += _evaluate_frame(sock, message)
            if max_items is not None and served >= max_items:
                return "exhausted"
        # Unknown frame types are ignored (forward compatibility).


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.worker",
        description="Evaluate design points for a distributed executor "
                    "coordinator over TCP.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="dial a listening coordinator")
    mode.add_argument("--listen", metavar="[HOST:]PORT",
                      help="listen and let the coordinator dial in")
    parser.add_argument("--worker-id", default=None,
                        help="fleet-visible name (default: hostname-pid)")
    parser.add_argument("--max-items", type=int, default=None,
                        help="exit cleanly once the answered frames carried "
                             "this many items (rolling restarts; death "
                             "injection in tests)")
    parser.add_argument("--connect-attempts", type=int, default=20,
                        help="initial-connection retries before giving up")
    parser.add_argument("--retry-interval", type=float, default=0.25,
                        help="seconds between connection retries")
    return parser


def _run_connect(args: argparse.Namespace, worker_id: str) -> int:
    host, port = parse_address(args.connect)
    sock = None
    for attempt in range(max(1, args.connect_attempts)):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except OSError:
            if attempt + 1 >= max(1, args.connect_attempts):
                print(f"worker: cannot reach coordinator at {host}:{port}",
                      file=sys.stderr)
                return 1
            time.sleep(args.retry_interval)
    assert sock is not None
    sock.settimeout(None)
    try:
        outcome = serve_connection(sock, worker_id, max_items=args.max_items)
    except DistributedError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    finally:
        sock.close()
    return 0 if outcome in ("shutdown", "exhausted", "disconnect") else 1


def _run_listen(args: argparse.Namespace, worker_id: str) -> int:
    host, port = parse_address(args.listen, default_port=0)
    if args.listen.isdigit():
        host, port = "127.0.0.1", int(args.listen)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(1)
    bound = listener.getsockname()
    print(f"worker {worker_id} listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        while True:
            sock, _peer = listener.accept()
            sock.settimeout(None)
            try:
                outcome = serve_connection(sock, worker_id,
                                           max_items=args.max_items)
            except DistributedError as exc:
                print(f"worker: {exc}", file=sys.stderr)
                return 2
            finally:
                sock.close()
            if outcome in ("shutdown", "exhausted"):
                return 0
            # disconnect: a coordinator went away; await the next one.
    finally:
        listener.close()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one worker until its coordinator shuts it down."""
    args = _build_parser().parse_args(argv)
    if args.max_items is not None and args.max_items < 1:
        print("worker: --max-items must be at least 1", file=sys.stderr)
        return 2
    worker_id = args.worker_id or default_worker_id()
    try:
        if args.connect:
            return _run_connect(args, worker_id)
        return _run_listen(args, worker_id)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
