"""The distributed executor subsystem.

Covers the wire protocol (framing, config encoding against the old
registry-walk definition, config round-trip), the registration
handshake (including version-skew rejection), end-to-end runs against
spawned worker subprocesses with result ordering identical to the serial
executor for chunked batches of every shape, worker death with
whole-chunk re-dispatch, malformed answers, the all-workers-lost failure
mode, and the engine/service integration points
(``executor="distributed"``, CLI flags).
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.config import ExperimentConfig
from repro.core.paths import PATH_SEPARATOR, get_path, sweepable_paths
from repro.engine import DistributedExecutor, Evaluator
from repro.engine.distributed import (
    MAX_CHUNK_ITEMS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    config_from_wire,
    config_to_wire,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    WorkItem,
    chunk_size,
    resolve_executor,
)
from repro.engine.worker import serve_connection
from repro.errors import ConfigurationError, DistributedError
from repro.noc.noc_power import NocPowerConfig

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


def register_fake(executor: DistributedExecutor, worker_id: str) -> socket.socket:
    """A raw-socket fake worker, registered with ``executor``."""
    sock = socket.create_connection(executor.address, timeout=5.0)
    send_frame(sock, {"type": "register", "protocol": PROTOCOL_VERSION,
                      "worker": worker_id, "model_version": repro.__version__})
    assert recv_frame(sock)["type"] == "registered"
    return sock


def next_evaluate(sock: socket.socket) -> dict:
    """The fake worker's next ``evaluate`` frame (heartbeats answered)."""
    while True:
        message = recv_frame(sock)
        if message["type"] == "evaluate":
            return message
        send_frame(sock, {"type": "pong"})


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


_WIRE_SCALARS = (bool, int, float, str, type(None))


def registry_walk_to_wire(config: ExperimentConfig) -> dict[str, object]:
    """The reference encoder: one ``get_path`` pair per registry path."""
    base = ExperimentConfig()
    noc_prefix = "noc" + PATH_SEPARATOR
    overrides: dict[str, object] = {}
    for path in sweepable_paths():
        if path.startswith(noc_prefix) and config.noc is None:
            continue
        value = get_path(config, path)
        if path.startswith(noc_prefix) or value != get_path(base, path):
            if not isinstance(value, _WIRE_SCALARS):
                raise DistributedError(
                    f"config leaf {path!r} holds non-JSON-safe {value!r}"
                )
            overrides[path] = value
    return overrides


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

    def test_encoder_matches_the_registry_walk_definition(self):
        rng = random.Random(20051)
        configs = [ExperimentConfig(),
                   ExperimentConfig(noc=NocPowerConfig()),
                   ExperimentConfig().with_overrides(**{"noc.injection_rate": 0.1})]
        for _ in range(40):
            overrides = {
                "crossbar.port_count": rng.choice((2, 3, 5, 8)),
                "crossbar.flit_width": rng.choice((32, 64, 128)),
                "crossbar.layout_overhead": rng.choice((1.0, 1.25)),
                "crossbar.wire_layer": rng.choice(("local", "intermediate", "global")),
                "static_probability": rng.choice((0.5, rng.random())),
                "temperature_celsius": rng.choice((110.0, 25.0)),
            }
            if rng.random() < 0.3:
                overrides["noc.gating_policy.wakeup_cycles"] = rng.choice((1, 2))
            keep = rng.sample(sorted(overrides), rng.randint(1, len(overrides)))
            configs.append(ExperimentConfig().with_overrides(
                **{path: overrides[path] for path in keep}))
        for config in configs:
            wire = config_to_wire(config)
            assert list(wire.items()) == list(registry_walk_to_wire(config).items())
        assert config_to_wire(ExperimentConfig()) == {}
        all_default_noc = config_to_wire(ExperimentConfig(noc=NocPowerConfig()))
        assert all_default_noc and all(path.startswith("noc.") for path in all_default_noc)
        assert config_from_wire(all_default_noc).noc == NocPowerConfig()

    def test_non_json_safe_leaf_is_refused_like_the_registry_walk(self):
        from fractions import Fraction

        bad = ExperimentConfig(temperature_celsius=Fraction(25))
        with pytest.raises(DistributedError) as oracle:
            registry_walk_to_wire(bad)
        with pytest.raises(DistributedError) as encoded:
            config_to_wire(bad)
        assert str(encoded.value) == str(oracle.value)
        # A default-equal leaf is omitted before its type is looked at.
        assert config_to_wire(ExperimentConfig(temperature_celsius=Fraction(110))) \
            == registry_walk_to_wire(ExperimentConfig(temperature_celsius=Fraction(110))) == {}

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

    def test_protocol_1_worker_is_rejected(self):
        with DistributedExecutor() as executor:
            answer = self.handshake(executor, {
                "type": "register", "protocol": 1,
                "worker": "old", "model_version": repro.__version__})
            assert answer["type"] == "rejected"
            assert "protocol 1" in answer["reason"]
            assert executor.stats.workers_rejected == 1

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
        assert len(again) == 1

    def test_worker_death_redispatches_items(self):
        """A worker that dies holding a multi-item chunk has the whole
        chunk re-dispatched, and both counters are already up to date
        when run() returns."""
        executor = DistributedExecutor(min_workers=1).start()
        # A fake mortal worker: registers alone, so the run is cut for one
        # worker (12 items -> 4 chunks of 3) and the first chunk goes to
        # it; it dies holding that chunk once the survivor has registered.
        mortal = register_fake(executor, "mortal")
        mortal.settimeout(60.0)
        items = items_for([0.05 + 0.075 * index for index in range(12)])
        outcome: dict[str, object] = {}

        def run() -> None:
            outcome["results"] = executor.run(items)
            outcome["redispatched"] = executor.stats.redispatched
            outcome["workers_lost"] = executor.stats.workers_lost
            outcome["completed"] = executor.stats.completed

        runner = threading.Thread(target=run)
        survivor = None
        try:
            runner.start()
            held = next_evaluate(mortal)
            assert held["task"] == 0 and len(held["items"]) == 3
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
            assert outcome["redispatched"] == 3
            assert outcome["workers_lost"] == 1
            assert outcome["completed"] == len(items)
            assert executor.workers_payload()["survivor"]["completed"] == len(items)
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
# chunked dispatch
# ---------------------------------------------------------------------------

def test_chunk_size_rule_is_shared_by_both_executors():
    assert chunk_size(64, 2) == 8    # a sweep block on 2 workers: 8 frames
    assert chunk_size(6, 2) == 1     # a small service flush: one item a frame
    assert chunk_size(65, 2) == 9
    assert chunk_size(1, 3) == 1
    assert chunk_size(5, 0) == 2     # no live worker counted: as if one
    assert ProcessExecutor(max_workers=2)._resolved_chunksize(64, 2) == 8
    assert ProcessExecutor(chunksize=5)._resolved_chunksize(64, 2) == 5


#: Distinct items, so a misplaced chunk shows as a record mismatch.
CHUNK_ITEMS = [WorkItem(config=ExperimentConfig(static_probability=0.01 + 0.015 * index,
                                                toggle_activity=0.2 + 0.01 * (index % 7)),
                        scheme_names=SCHEMES, baseline_name="SC")
               for index in range(65)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunked_batches_match_serial_in_submission_order(workers):
    serial = [point.records for point in SerialExecutor().run(CHUNK_ITEMS)]
    # A short switch interval interleaves the coordinator's per-worker
    # threads as they store results and counts under the shared lock.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        check_chunked_batches(workers, serial)
    finally:
        sys.setswitchinterval(interval)


def check_chunked_batches(workers: int, serial: list) -> None:
    with DistributedExecutor(spawn_workers=workers) as executor:
        for count in (1, 7, 8, 9, 65):
            before = executor.workers_payload()
            stats_before = executor.stats.as_payload()
            results = executor.run(CHUNK_ITEMS[:count])
            assert [point.records for point in results] == serial[:count]
            after = executor.workers_payload()
            assert sum(worker["completed"] - before.get(wid, {}).get("completed", 0)
                       for wid, worker in after.items()) == count
            stats = executor.stats.as_payload()
            assert stats["completed"] - stats_before["completed"] == count
            assert stats["dispatched"] - stats_before["dispatched"] == count
        assert executor.stats.redispatched == 0
        assert executor.stats.workers_lost == 0


def test_result_with_the_wrong_record_count_drops_the_worker():
    executor = DistributedExecutor(min_workers=1).start()
    liar = register_fake(executor, "liar")
    liar.settimeout(30.0)
    outcome: dict[str, object] = {}

    def run() -> None:
        try:
            executor.run(items_for([0.1 * index for index in range(1, 9)]))
        except DistributedError as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run)
    try:
        runner.start()
        frame = next_evaluate(liar)
        assert len(frame["items"]) == 2  # 8 items on one worker: chunks of 2
        send_frame(liar, {"type": "result", "task": frame["task"],
                          "records": [[]]})
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert "lost" in str(outcome["error"])
        assert executor.stats.workers_lost == 1
        assert executor.stats.completed == 0
        assert recv_frame(liar) is None  # the coordinator hung up
    finally:
        liar.close()
        executor.close()
        runner.join(timeout=10)


def answer_chunks(sock: socket.socket, item_count: int, delay: float = 0.0) -> list[int]:
    """Answer ``evaluate`` frames with empty records until ``item_count``
    items are settled; returns each frame's item count."""
    sizes: list[int] = []
    while sum(sizes) < item_count:
        frame = next_evaluate(sock)
        sizes.append(len(frame["items"]))
        time.sleep(delay)
        send_frame(sock, {"type": "result", "task": frame["task"],
                          "records": [[] for _ in frame["items"]]})
    return sizes


def test_chunks_never_exceed_the_item_cap():
    """A batch large enough that a quarter of it exceeds the cap still goes
    out in frames of at most MAX_CHUNK_ITEMS items, so no ``result`` frame
    can outgrow the frame bound."""
    count = 4 * MAX_CHUNK_ITEMS + 4
    assert chunk_size(count, 1) > MAX_CHUNK_ITEMS
    executor = DistributedExecutor(min_workers=1).start()
    fake = register_fake(executor, "bulk")
    fake.settimeout(30.0)
    outcome: dict[str, object] = {}
    runner = threading.Thread(
        target=lambda: outcome.setdefault("results", executor.run(items_for([0.5] * count))))
    try:
        runner.start()
        sizes = answer_chunks(fake, count)
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert max(sizes) == MAX_CHUNK_ITEMS and sum(sizes) == count
        assert len(outcome["results"]) == count
        assert executor.stats.workers_lost == 0
    finally:
        fake.close()
        executor.close()
        runner.join(timeout=10)


def test_item_timeout_bounds_each_item_of_a_chunk():
    """A worker answering a two-item chunk slower than one ``item_timeout``
    but inside two is healthy, not dropped."""
    executor = DistributedExecutor(min_workers=1, item_timeout=1.0).start()
    fake = register_fake(executor, "steady")
    fake.settimeout(30.0)
    outcome: dict[str, object] = {}
    runner = threading.Thread(
        target=lambda: outcome.setdefault("results", executor.run(items_for([0.5] * 8))))
    try:
        runner.start()
        sizes = answer_chunks(fake, 1, delay=1.4)  # the first chunk only
        assert sizes == [2]
        answer_chunks(fake, 6)
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert len(outcome["results"]) == 8
        assert executor.stats.workers_lost == 0
    finally:
        fake.close()
        executor.close()
        runner.join(timeout=10)


def test_a_batch_that_cannot_be_encoded_dispatches_nothing():
    """A non-JSON-safe leaf anywhere in the batch fails the run before any
    item is queued: nothing reaches the worker and the fleet stays idle."""
    from fractions import Fraction

    executor = DistributedExecutor(min_workers=1).start()
    fake = register_fake(executor, "watcher")
    try:
        items = items_for((0.1, 0.3)) + [WorkItem(
            config=ExperimentConfig(temperature_celsius=Fraction(25)),
            scheme_names=SCHEMES, baseline_name="SC")]
        with pytest.raises(DistributedError, match="non-JSON-safe"):
            executor.run(items)
        fake.settimeout(0.5)
        with pytest.raises(socket.timeout):
            recv_frame(fake)
        assert executor.stats.dispatched == 0
        assert executor._state is None
    finally:
        fake.close()
        executor.close()


def wire_item(probability: float, node: str = "45nm") -> dict:
    return {"overrides": config_to_wire(ExperimentConfig(
                static_probability=probability, technology_node=node)),
            "schemes": list(SCHEMES), "baseline": "SC"}


def drive_worker(max_items, frames: list[dict]) -> tuple[list, str]:
    """Serve ``frames`` to an in-process worker over a socketpair, one
    answer at a time; returns the answers and how the worker ended."""
    coordinator, worker = socket.socketpair()
    outcome: dict[str, str] = {}

    def serve() -> None:
        try:
            outcome["end"] = serve_connection(worker, "w", max_items=max_items)
        finally:
            worker.close()  # what the worker CLI does on return

    thread = threading.Thread(target=serve)
    answers = []
    try:
        coordinator.settimeout(30.0)
        thread.start()
        assert recv_frame(coordinator)["type"] == "register"
        send_frame(coordinator, {"type": "registered", "worker": "w"})
        for frame in frames:
            try:
                send_frame(coordinator, frame)
                answer = recv_frame(coordinator)
            except OSError:
                break
            if answer is None:
                break
            answers.append(answer)
        try:
            send_frame(coordinator, {"type": "shutdown"})
        except OSError:
            pass
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        coordinator.close()
    return answers, outcome["end"]


def test_worker_answers_a_chunk_with_one_records_list_per_item():
    frame = {"type": "evaluate", "task": 8,
             "items": [wire_item(0.2), wire_item(0.6), wire_item(0.9)]}
    answers, end = drive_worker(None, [frame])
    assert end == "shutdown"
    assert answers[0]["type"] == "result" and answers[0]["task"] == 8
    expected = SerialExecutor().run(items_for((0.2, 0.6, 0.9)))
    assert answers[0]["records"] == [point.records for point in expected]


def test_worker_error_names_the_failing_item_of_the_chunk():
    frame = {"type": "evaluate", "task": 4,
             "items": [wire_item(0.2), wire_item(0.4, node="13nm-imaginary")]}
    answers, _ = drive_worker(None, [frame, {"type": "evaluate", "task": 6,
                                             "items": "not-a-list"}])
    assert answers[0]["type"] == "error" and answers[0]["item"] == 1
    assert answers[0]["error"] == "evaluation-failed"
    assert answers[1]["type"] == "error" and answers[1]["error"] == "malformed-item"


def test_max_items_counts_items_not_frames():
    frames = [{"type": "evaluate", "task": index * 2,
               "items": [wire_item(0.1 + index * 0.2), wire_item(0.2 + index * 0.2)]}
              for index in range(3)]
    # 2 items per frame: a budget of 3 is spent by the second frame.
    answers, end = drive_worker(3, frames)
    assert end == "exhausted"
    assert [answer["type"] for answer in answers] == ["result", "result"]
    answers, end = drive_worker(2, frames)
    assert end == "exhausted" and len(answers) == 1
    answers, end = drive_worker(6, frames)
    assert end == "exhausted" and len(answers) == 3


def test_worker_import_loads_no_numerical_library():
    """Spawned workers (and the CLI and service) import the engine without
    numpy, scipy or networkx: no design-point evaluation uses them."""
    probe = ("import sys, repro.engine.worker; "
             "print(sorted(m for m in ('numpy', 'scipy', 'networkx') if m in sys.modules))")
    output = subprocess.run([sys.executable, "-c", probe], env=WORKER_ENV,
                            capture_output=True, text=True, timeout=60, check=True)
    assert output.stdout.strip() == "[]"


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
