"""The distributed executor subsystem (ISSUE 4).

Covers the wire protocol (framing, config round-trip), the
registration handshake (including version-skew rejection), end-to-end
runs against spawned worker subprocesses with result ordering identical
to the serial executor, worker death with per-item re-dispatch, the
all-workers-lost failure mode, and the engine/service integration
points (``executor="distributed"``, CLI flags).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.config import ExperimentConfig
from repro.engine import DistributedExecutor, Evaluator
from repro.engine.distributed import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    config_from_wire,
    config_to_wire,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.engine.executor import SerialExecutor, WorkItem, resolve_executor
from repro.errors import ConfigurationError, DistributedError

SCHEMES = ("SC", "SDPC")

#: Spawned-subprocess tests are slow-ish (each worker is a fresh Python
#: importing the model); keep the fleets and batches small.
WORKER_ENV = dict(os.environ)
WORKER_ENV["PYTHONPATH"] = (
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    + os.pathsep + WORKER_ENV.get("PYTHONPATH", ""))


def items_for(probabilities) -> list[WorkItem]:
    return [WorkItem(config=ExperimentConfig(static_probability=p),
                     scheme_names=SCHEMES, baseline_name="SC")
            for p in probabilities]


def spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro.engine.worker",
               "--connect", f"127.0.0.1:{port}", *extra]
    return subprocess.Popen(command, env=WORKER_ENV,
                            stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------

class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "ping", "n": 7})
            assert recv_frame(b) == {"type": "ping", "n": 7}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "big") + b"short")
            a.close()
            with pytest.raises(DistributedError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(DistributedError, match="length"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b'["a", "list"]'
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(DistributedError, match="type"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestConfigWire:
    def test_default_config_is_empty_on_the_wire(self):
        assert config_to_wire(ExperimentConfig()) == {}

    def test_nested_config_round_trips(self):
        config = ExperimentConfig().with_overrides(**{
            "crossbar.port_count": 7,
            "static_probability": 0.3,
            "noc.injection_rate": 0.25,
            "noc.gating_policy.wakeup_cycles": 2,
        })
        wire = config_to_wire(config)
        assert wire["crossbar.port_count"] == 7
        # A materialised noc branch ships whole so the worker
        # materialises it too.
        assert wire["noc.mesh_columns"] == 4
        assert config_from_wire(wire) == config

    def test_flat_config_round_trips_without_noc(self):
        config = ExperimentConfig(temperature_celsius=55.0)
        wire = config_to_wire(config)
        assert not any(path.startswith("noc.") for path in wire)
        rebuilt = config_from_wire(wire)
        assert rebuilt == config and rebuilt.noc is None

    def test_malformed_wire_overrides_raise(self):
        with pytest.raises(DistributedError):
            config_from_wire(["not", "a", "mapping"])

    def test_parse_address(self):
        assert parse_address("10.0.0.2:9000") == ("10.0.0.2", 9000)
        assert parse_address("somehost", default_port=17) == ("somehost", 17)
        with pytest.raises(ConfigurationError):
            parse_address("host:notaport")


# ---------------------------------------------------------------------------
# registration handshake (raw-socket fake workers)
# ---------------------------------------------------------------------------

class TestRegistration:
    def handshake(self, executor: DistributedExecutor, register: dict) -> dict | None:
        sock = socket.create_connection(executor.address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            send_frame(sock, register)
            return recv_frame(sock)
        finally:
            sock.close()

    def test_valid_registration_is_acked(self):
        with DistributedExecutor() as executor:
            answer = self.handshake(executor, {
                "type": "register", "protocol": PROTOCOL_VERSION,
                "worker": "w1", "model_version": repro.__version__})
            assert answer == {"type": "registered", "worker": "w1"}

    def test_protocol_mismatch_is_rejected(self):
        with DistributedExecutor() as executor:
            answer = self.handshake(executor, {
                "type": "register", "protocol": PROTOCOL_VERSION + 1,
                "worker": "w1", "model_version": repro.__version__})
            assert answer["type"] == "rejected"
            assert "protocol" in answer["reason"]

    def test_model_version_skew_is_rejected(self):
        with DistributedExecutor() as executor:
            answer = self.handshake(executor, {
                "type": "register", "protocol": PROTOCOL_VERSION,
                "worker": "w1", "model_version": "0.0.0-elsewhere"})
            assert answer["type"] == "rejected"
            assert "version" in answer["reason"]
            assert executor.stats.workers_rejected == 1

    def test_duplicate_worker_ids_are_uniquified(self):
        with DistributedExecutor() as executor:
            first = self.handshake(executor, {
                "type": "register", "protocol": PROTOCOL_VERSION,
                "worker": "twin", "model_version": repro.__version__})
            # The first connection stays open server-side long enough for
            # a twin to collide; ids must still end up distinct.
            second = self.handshake(executor, {
                "type": "register", "protocol": PROTOCOL_VERSION,
                "worker": "twin", "model_version": repro.__version__})
            assert first["worker"] == "twin"
            assert second["worker"].startswith("twin")

    def test_close_racing_a_registration_never_fails(self):
        """close() may land anywhere in a registration — before the ack,
        right after it — and must neither raise nor hang."""
        register = {"type": "register", "protocol": PROTOCOL_VERSION,
                    "worker": "w1", "model_version": repro.__version__}
        for attempt in range(100):
            executor = DistributedExecutor().start()
            sock = socket.create_connection(executor.address, timeout=5.0)
            try:
                sock.settimeout(5.0)
                send_frame(sock, register)
                if attempt % 2:
                    # Close the moment the worker learns it is registered.
                    assert recv_frame(sock) == {"type": "registered", "worker": "w1"}
                    executor.close()
                else:
                    # Close while the handshake is still in flight.  A
                    # connection the listener never accepted is reset.
                    executor.close()
                    try:
                        answer = recv_frame(sock)
                    except ConnectionResetError:
                        answer = None
                    assert answer in (None, {"type": "registered", "worker": "w1"},
                                      {"type": "shutdown"})
            finally:
                sock.close()
                executor.close()


# ---------------------------------------------------------------------------
# end-to-end runs against real worker subprocesses
# ---------------------------------------------------------------------------

class TestDistributedRuns:
    def test_results_match_serial_in_submission_order(self):
        items = items_for((0.1, 0.3, 0.5, 0.7, 0.9))
        serial = SerialExecutor().run(items)
        with DistributedExecutor(spawn_workers=2) as executor:
            distributed = executor.run(items)
            # Persistent pool: a second run reuses the same fleet.
            again = executor.run(items_for((0.2,)))
            assert executor.stats.workers_registered == 2
        assert [point.records for point in distributed] \
            == [point.records for point in serial]
        assert all(point.comparison is None for point in distributed)
        assert len(again) == 1

    def test_worker_death_redispatches_items(self):
        """A worker that dies holding an item has it re-dispatched, and
        both counters are already up to date when run() returns."""
        executor = DistributedExecutor(min_workers=1).start()
        # A fake mortal worker: registers alone, so the run's first item
        # is dispatched to it, then dies holding that item once the
        # survivor has registered.
        mortal = socket.create_connection(executor.address, timeout=5.0)
        mortal.settimeout(60.0)
        send_frame(mortal, {"type": "register", "protocol": PROTOCOL_VERSION,
                            "worker": "mortal", "model_version": repro.__version__})
        assert recv_frame(mortal)["type"] == "registered"
        items = items_for((0.1, 0.3, 0.5, 0.7, 0.9, 0.2))
        outcome: dict[str, object] = {}

        def run() -> None:
            outcome["results"] = executor.run(items)
            outcome["redispatched"] = executor.stats.redispatched
            outcome["workers_lost"] = executor.stats.workers_lost

        runner = threading.Thread(target=run)
        survivor = None
        try:
            runner.start()
            while recv_frame(mortal)["type"] != "evaluate":
                send_frame(mortal, {"type": "pong"})  # answer a heartbeat
            survivor = spawn_worker(executor.port, "--worker-id", "survivor")
            deadline = time.monotonic() + 60.0
            while executor.stats.workers_registered < 2:
                assert time.monotonic() < deadline, "survivor never registered"
                time.sleep(0.01)
            mortal.close()
            runner.join(timeout=120)
            assert not runner.is_alive()
            serial = SerialExecutor().run(items)
            assert [p.records for p in outcome["results"]] \
                == [p.records for p in serial]
            assert outcome["redispatched"] >= 1
            assert outcome["workers_lost"] >= 1
        finally:
            mortal.close()
            executor.close()
            runner.join(timeout=10)
            if survivor is not None:
                survivor.wait(timeout=10)

    def test_all_workers_lost_fails_the_run(self):
        executor = DistributedExecutor(min_workers=1,
                                       heartbeat_interval=0.5).start()
        only = spawn_worker(executor.port, "--worker-id", "only",
                            "--max-items", "1")
        try:
            with pytest.raises(DistributedError):
                executor.run(items_for((0.1, 0.3, 0.5)))
        finally:
            executor.close()
            only.wait(timeout=10)

    def test_deterministic_evaluation_error_fails_the_run(self):
        bad = ExperimentConfig(technology_node="13nm-imaginary")
        items = [WorkItem(config=bad, scheme_names=SCHEMES, baseline_name="SC")]
        with DistributedExecutor(spawn_workers=1) as executor:
            with pytest.raises(DistributedError, match="failed item"):
                executor.run(items)
            # The fleet survives a failed run.
            ok = executor.run(items_for((0.4,)))
            assert len(ok) == 1

    def test_registration_timeout_raises(self):
        executor = DistributedExecutor(register_timeout=0.3).start()
        try:
            with pytest.raises(DistributedError, match="registered"):
                executor.run(items_for((0.5,)))
        finally:
            executor.close()

    def test_empty_run_is_free(self):
        executor = DistributedExecutor()
        assert executor.run([]) == []
        executor.close()

    def test_close_is_idempotent_and_final(self):
        executor = DistributedExecutor().start()
        executor.close()
        executor.close()
        with pytest.raises(DistributedError, match="closed"):
            executor.start()


# ---------------------------------------------------------------------------
# worker --listen mode: the coordinator dials out
# ---------------------------------------------------------------------------

class TestDialOut:
    def test_coordinator_connects_to_listening_worker(self):
        listener = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.worker",
             "--listen", "127.0.0.1:0", "--worker-id", "remote"],
            env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
        try:
            line = listener.stdout.readline()
            address = line.strip().rsplit(" ", 1)[-1]
            with DistributedExecutor(connect=[address]) as executor:
                results = executor.run(items_for((0.25, 0.75)))
                assert len(results) == 2
                assert "remote" in executor.workers_payload()
        finally:
            listener.stdout.close()
            try:
                listener.wait(timeout=10)
            except subprocess.TimeoutExpired:
                listener.kill()


# ---------------------------------------------------------------------------
# engine / service integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_resolve_executor_knows_distributed(self):
        executor = resolve_executor("distributed", max_workers=1)
        assert executor.name == "distributed"
        assert executor.spawn_workers == 1
        executor.close()

    def test_evaluator_runs_a_distributed_grid(self):
        # The evaluator borrows the fleet; the with block that built it
        # closes it.
        with DistributedExecutor(spawn_workers=2) as fleet:
            with Evaluator(scheme_names=list(SCHEMES), executor=fleet) as evaluator:
                results = evaluator.evaluate_grid(
                    {"static_probability": [0.2, 0.4, 0.6, 0.8]})
        serial = Evaluator(scheme_names=list(SCHEMES)).evaluate_grid(
            {"static_probability": [0.2, 0.4, 0.6, 0.8]})
        assert [p.records for p in results] == [p.records for p in serial]

    def test_service_cli_flags_build_a_distributed_service(self):
        from repro.engine.service import _build_parser, service_from_args

        args = _build_parser().parse_args(
            ["--executor", "distributed", "--workers", "1",
             "--batch-size", "4"])
        service = service_from_args(args)
        fleet = service.evaluator.executor
        try:
            assert fleet.name == "distributed"
            assert fleet.spawn_workers == 1
            assert service.stats_payload()["config"]["executor"] == "distributed"
        finally:
            fleet.close()

    def test_serve_closes_the_fleet_it_built(self, monkeypatch):
        """The service borrows executor objects, so the CLI closes the
        fleet built from argv itself, after the service stops."""
        import asyncio

        from repro.engine import service as service_module

        built = []
        build = service_module._executor_from_args

        def recording_build(args):
            built.append(build(args))
            return built[-1]

        monkeypatch.setattr(service_module, "_executor_from_args", recording_build)
        args = service_module._build_parser().parse_args(
            ["--executor", "distributed", "--listen", "127.0.0.1:0",
             "--port", "0"])

        async def scenario():
            serving = asyncio.ensure_future(service_module._serve(args))
            await asyncio.sleep(0.2)
            serving.cancel()
            await asyncio.gather(serving, return_exceptions=True)

        asyncio.run(scenario())
        assert len(built) == 1
        with pytest.raises(DistributedError, match="closed"):
            built[0].start()

    def test_service_cli_rejects_workers_without_distributed(self):
        from repro.engine.service import _build_parser, service_from_args

        args = _build_parser().parse_args(["--executor", "serial",
                                           "--workers", "2"])
        with pytest.raises(ConfigurationError, match="distributed"):
            service_from_args(args)

    def test_service_cli_distributed_needs_a_worker_source(self):
        from repro.engine.service import _build_parser, service_from_args

        args = _build_parser().parse_args(["--executor", "distributed"])
        with pytest.raises(ConfigurationError, match="--workers"):
            service_from_args(args)


# ---------------------------------------------------------------------------
# concurrency: run() is serialised
# ---------------------------------------------------------------------------

def test_concurrent_runs_are_serialised_not_interleaved():
    """Two threads calling run() share the fleet safely (the service's
    flush serialisation makes this rare, but the lock must hold)."""
    with DistributedExecutor(spawn_workers=1) as executor:
        outcomes: dict[str, list] = {}

        def work(tag: str, probabilities) -> None:
            outcomes[tag] = executor.run(items_for(probabilities))

        threads = [threading.Thread(target=work, args=("a", (0.15, 0.35))),
                   threading.Thread(target=work, args=("b", (0.55, 0.85)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes["a"]) == 2 and len(outcomes["b"]) == 2
        expected_a = SerialExecutor().run(items_for((0.15, 0.35)))
        assert [p.records for p in outcomes["a"]] \
            == [p.records for p in expected_a]


# ---------------------------------------------------------------------------
# review regressions: close() vs in-flight runs; HTTP status of fleet faults
# ---------------------------------------------------------------------------

def test_close_during_run_fails_the_run_instead_of_hanging():
    """close() while items are outstanding wakes the blocked run() with
    a DistributedError rather than leaving it waiting forever."""
    executor = DistributedExecutor().start()
    # A silent fake worker: registers, then never answers its item.
    sock = socket.create_connection(executor.address, timeout=5.0)
    send_frame(sock, {"type": "register", "protocol": PROTOCOL_VERSION,
                      "worker": "silent", "model_version": repro.__version__})
    assert recv_frame(sock)["type"] == "registered"

    outcome: dict[str, object] = {}

    def run():
        try:
            executor.run(items_for((0.5,)))
            outcome["result"] = "finished"
        except DistributedError as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run)
    runner.start()
    time.sleep(0.3)  # let the item reach the silent worker
    closer = threading.Thread(target=executor.close)
    closer.start()
    time.sleep(0.1)
    sock.close()  # unblock the coordinator's dispatch thread
    runner.join(timeout=15)
    closer.join(timeout=15)
    assert not runner.is_alive() and not closer.is_alive()
    assert "error" in outcome
    assert "closed" in str(outcome["error"]) or "lost" in str(outcome["error"])


def test_fleet_failure_is_a_503_over_http_not_a_client_error():
    """A DistributedError reaching the HTTP front (workers unavailable)
    answers 503 executor-unavailable, never a 400."""
    import asyncio
    import json as json_module

    from repro.engine import EvaluationServer, EvaluationService

    async def scenario():
        executor = DistributedExecutor(register_timeout=0.2)
        service = EvaluationService(scheme_names=list(SCHEMES),
                                    executor=executor, max_batch_size=1)
        server = await EvaluationServer(service, port=0).start()
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        body = json_module.dumps(
            {"overrides": {"static_probability": 0.5}}).encode()
        writer.write((f"POST /evaluate HTTP/1.1\r\nHost: x\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        raw = await reader.read()
        writer.close()
        await server.stop()
        await service.stop()
        executor.close()  # borrowed by the service: its builder closes it
        payload = json_module.loads(raw.split(b"\r\n\r\n", 1)[-1])
        return int(status_line.split()[1]), payload

    status, payload = asyncio.run(scenario())
    assert status == 503
    assert payload["error"] == "executor-unavailable"
