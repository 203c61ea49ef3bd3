"""Evaluation worker: one process of a distributed executor fleet.

``python -m repro.engine.worker --connect HOST:PORT`` dials a
:class:`~repro.engine.distributed.DistributedExecutor` coordinator,
registers, and then evaluates ``evaluate`` frames until told to shut
down.  A frame carries a chunk of work items; each item's dotted-path
overrides are rebuilt into an :class:`~repro.core.config.ExperimentConfig`
(:func:`~repro.engine.distributed.config_from_wire`) and run through
:func:`~repro.core.comparison.point_records`, exactly what the serial
executor would have done in-process, and the ``result`` frame answers
with every item's records, in order, as packed doubles beside JSON ints
(:func:`~repro.engine.distributed.pack_item`).  Because the process is
persistent, the structural memoisation in
:mod:`repro.core.scheme_evaluator` warms up once and then serves every
subsequent item across every batch.  The package needs only the
standard library, and importing this module starts no process pool, so
spawning a worker pays for neither.

Evaluation failures — whatever exception an item raises, and records
that do not fit the wire layout — are answered with structured
``error`` frames naming the chunk and the offset of the failing item:
``evaluation-failed`` when the model rejected the point (a
:class:`~repro.errors.ReproError`), ``malformed-item`` for an item that
is not a valid overrides object, ``internal-error`` for anything else.
Each is deterministic, so the coordinator fails the run rather than
retrying it elsewhere, and the worker stays registered.  Malformed
frames and lost coordinators end the process with a non-zero exit code
so supervisors notice.
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
    pack_item,
    parse_address,
    recv_frame,
    result_frame,
    result_names,
    send_frame,
)

__all__ = ["default_worker_id", "serve_connection", "main"]


def default_worker_id() -> str:
    """``hostname-pid``: unique enough across a fleet of real hosts."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _error(sock: socket.socket, task: object, code: str, message: str,
           offset: int | None = None) -> None:
    frame = {"type": "error", "task": task, "error": code, "message": message}
    if offset is not None:
        frame["item"] = offset
    send_frame(sock, frame)


def _evaluate_frame(sock: socket.socket, message: dict) -> int:
    """Answer one ``evaluate`` frame with a ``result`` (every item's
    records, packed) or an ``error`` naming the first item that failed;
    returns how many items the frame carried."""
    task = message.get("task")
    items = message.get("items")
    schemes = message.get("schemes")
    baseline = message.get("baseline")
    if not isinstance(items, list) or not items:
        _error(sock, task, "malformed-item", "an evaluate frame needs a non-empty 'items' list")
        return 0
    if not (isinstance(schemes, list) and all(isinstance(name, str) for name in schemes)
            and isinstance(baseline, str)):
        _error(sock, task, "malformed-item",
               "an evaluate frame needs a 'schemes' list of names and a 'baseline' name")
        return len(items)
    names = result_names(schemes)
    floats: list[float] = []
    ints = []
    for offset, overrides in enumerate(items):
        # Whatever an item raises is answered: a worker that died here
        # would die again on every worker the chunk is re-dispatched to.
        try:
            if not isinstance(overrides, Mapping):
                raise TypeError(f"work item must be an overrides object, "
                                f"got {type(overrides).__name__}")
            records = point_records(config_from_wire(overrides),
                                    scheme_names=schemes, baseline_name=baseline)
            ints.append(pack_item(records, names, floats))
        except DistributedError as exc:
            # A wire fault (overrides that do not decode, records off the
            # layout) is not the model rejecting the point.
            _error(sock, task, "internal-error", str(exc), offset)
            return len(items)
        except ReproError as exc:
            _error(sock, task, "evaluation-failed", str(exc), offset)
            return len(items)
        except (KeyError, TypeError, ValueError) as exc:
            _error(sock, task, "malformed-item", repr(exc), offset)
            return len(items)
        except Exception as exc:
            _error(sock, task, "internal-error", repr(exc), offset)
            return len(items)
    send_frame(sock, result_frame(task, floats, ints))
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
    parser.add_argument("--connect", metavar="HOST:PORT", required=True,
                        help="the listening coordinator to dial")
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


def main(argv: Sequence[str] | None = None) -> int:
    """Run one worker until its coordinator shuts it down."""
    args = _build_parser().parse_args(argv)
    if args.max_items is not None and args.max_items < 1:
        print("worker: --max-items must be at least 1", file=sys.stderr)
        return 2
    worker_id = args.worker_id or default_worker_id()
    try:
        return _run_connect(args, worker_id)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
