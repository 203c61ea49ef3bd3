"""Tests for the async evaluation service (engine/service.py).

Covers the ISSUE-3 edge cases — duplicate in-flight queries coalescing
onto one evaluation, malformed dotted paths earning structured errors
that name the path, shutdown flushing pending batches — plus the HTTP
front, the client, cache sharing across service instances and the CLI
argument plumbing.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine import EvaluationCache, SerialExecutor
from repro.engine.service import (
    EvaluationServer,
    EvaluationService,
    InvalidRequestError,
    ServiceClient,
    ServiceResult,
    _build_parser,
    _encode_response,
    _query_memo_key,
    _read_http_message,
    _result_body,
    service_from_args,
)
from repro.engine.service import main as service_main

SCHEMES = ["SC", "SDPC"]


class RecordingExecutor:
    """Serial executor that records every batch it is handed."""

    name = "recording"

    def __init__(self):
        self.batches: list[list] = []
        self._inner = SerialExecutor()

    def run(self, items):
        self.batches.append(list(items))
        return self._inner.run(items)


def make_service(**kwargs) -> EvaluationService:
    kwargs.setdefault("scheme_names", SCHEMES)
    kwargs.setdefault("executor", "serial")
    return EvaluationService(**kwargs)


# ---------------------------------------------------------------------------
# coalescing and batching
# ---------------------------------------------------------------------------

def test_duplicate_in_flight_queries_coalesce():
    """Two identical concurrent queries trigger exactly one evaluation."""
    executor = RecordingExecutor()

    async def scenario():
        service = make_service(executor=executor, max_batch_size=2,
                               flush_interval=30.0)
        point_a = {"static_probability": 0.3}
        point_b = {"static_probability": 0.7}
        # A, duplicate-A, B: the duplicate coalesces, so the pending
        # batch holds two *distinct* points and flushes at size 2.
        results = await asyncio.gather(
            service.evaluate(point_a),
            service.evaluate(point_a),
            service.evaluate(point_b),
        )
        await service.stop()
        return service, results

    service, results = asyncio.run(scenario())
    assert len(executor.batches) == 1
    assert len(executor.batches[0]) == 2  # A evaluated once, not twice
    assert service.stats.coalesced == 1
    assert service.stats.evaluated == 2
    first, twin, other = results
    assert twin.coalesced and not twin.from_cache
    assert not first.coalesced and not first.from_cache
    assert twin.key == first.key
    assert twin.records == first.records
    assert other.key != first.key


def test_repeat_after_completion_is_a_cache_hit():
    warm = {"static_probability": 0.4}
    # Warm repeats, fresh misses and concurrent duplicates in one burst.
    burst = ([warm] * 4 + [{"static_probability": 0.15}, {"static_probability": 0.85}]
             + [{"temperature_celsius": 40.0}, {"temperature_celsius": 70.0}] * 3)

    async def scenario():
        service = make_service(max_batch_size=1)
        miss = await service.evaluate(warm)
        hit = await service.evaluate(warm)
        hits = service.stats.cache_hits
        answers = await asyncio.gather(*[service.evaluate(query) for query in burst])
        await service.stop()
        return service, miss, hit, hits, answers

    service, miss, hit, hits, answers = asyncio.run(scenario())
    assert not miss.from_cache and hit.from_cache
    assert hit.records == miss.records
    assert hits == 1
    # Every warm repeat is a hit; the rest split between evaluations,
    # coalesced duplicates and (a duplicate arriving after its twin
    # finished) hits by arrival timing, but every query is exactly one.
    assert all(answer.from_cache for answer in answers[:4])
    assert (sum(answer.from_cache for answer in answers)
            + sum(answer.coalesced for answer in answers)
            + service.stats.evaluated - 1) == len(burst)


def test_alias_and_dotted_spellings_share_one_cache_entry():
    async def scenario():
        service = make_service(max_batch_size=1)
        dotted = await service.evaluate({"crossbar.port_count": 3})
        alias = await service.evaluate({"port_count": 3})
        await service.stop()
        return dotted, alias

    dotted, alias = asyncio.run(scenario())
    assert alias.key == dotted.key
    assert alias.from_cache
    assert dict(alias.overrides) == {"crossbar.port_count": 3}


def test_flush_window_flushes_partial_batches():
    """A batch smaller than max_batch_size flushes after the window."""
    executor = RecordingExecutor()

    async def scenario():
        service = make_service(executor=executor, max_batch_size=64,
                               flush_interval=0.01)
        result = await service.evaluate({"toggle_activity": 0.2})
        await service.stop()
        return result

    result = asyncio.run(scenario())
    assert not result.from_cache
    assert len(executor.batches) == 1
    assert len(executor.batches[0]) == 1


# ---------------------------------------------------------------------------
# structured validation errors
# ---------------------------------------------------------------------------

def test_malformed_dotted_path_names_the_path():
    async def scenario():
        service = make_service()
        with pytest.raises(InvalidRequestError) as excinfo:
            await service.evaluate({"crossbar.portcount": 5})
        await service.stop()
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.payload["error"] == "unknown-path"
    assert error.payload["path"] == "crossbar.portcount"
    assert "message" in error.payload


def test_invalid_value_names_the_path():
    async def scenario():
        service = make_service()
        with pytest.raises(InvalidRequestError) as excinfo:
            await service.evaluate({"static_probability": 1.5})
        await service.stop()
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.payload["error"] == "invalid-value"
    assert error.payload["path"] == "static_probability"


def test_first_invalid_value_in_query_order_is_named():
    """A rejected query is attributed to its first invalid path, in the
    order given, even when two paths land in one sub-config."""
    async def scenario():
        service = make_service()
        payloads = []
        for overrides in ({"crossbar.flit_width": 0, "crossbar.port_count": 1},
                          {"crossbar.port_count": 1, "crossbar.flit_width": 0},
                          {"crossbar.port_count": 4, "static_probability": 1.5}):
            with pytest.raises(InvalidRequestError) as excinfo:
                await service.evaluate(overrides)
            payloads.append(excinfo.value.payload)
        await service.stop()
        return payloads

    payloads = asyncio.run(scenario())
    assert [payload["path"] for payload in payloads] == [
        "crossbar.flit_width", "crossbar.port_count", "static_probability"]
    assert all(payload["error"] == "invalid-value" for payload in payloads)
    assert "flit_width" in payloads[0]["message"]


def test_duplicate_paths_and_bad_shapes_are_rejected():
    async def scenario():
        service = make_service()
        payloads = []
        for overrides in ({"port_count": 3, "crossbar.port_count": 5},
                          ["static_probability", 0.5],
                          {3: 0.5}):
            with pytest.raises(InvalidRequestError) as excinfo:
                await service.evaluate(overrides)
            payloads.append(excinfo.value.payload)
        await service.stop()
        return payloads

    duplicate, non_mapping, non_string = asyncio.run(scenario())
    assert duplicate["error"] == "duplicate-path"
    assert duplicate["path"] == "crossbar.port_count"
    assert non_mapping["error"] == "invalid-overrides"
    assert non_string["error"] == "invalid-path"


def test_invalid_requests_do_not_reach_the_cache():
    async def scenario():
        service = make_service()
        with pytest.raises(InvalidRequestError):
            await service.evaluate({"no.such.path": 1})
        await service.stop()
        return service

    service = asyncio.run(scenario())
    assert service.stats.invalid_requests == 1
    assert service.cache.stats.lookups == 0


# ---------------------------------------------------------------------------
# shutdown semantics
# ---------------------------------------------------------------------------

def test_shutdown_flushes_pending_batches():
    """Queries accepted before stop() are answered, never dropped."""
    executor = RecordingExecutor()

    async def scenario():
        service = make_service(executor=executor, max_batch_size=64,
                               flush_interval=30.0)
        tasks = [asyncio.create_task(
                     service.evaluate({"static_probability": p}))
                 for p in (0.2, 0.8)]
        await asyncio.sleep(0)  # let both misses join the pending batch
        assert len(service._pending) == 2
        await service.stop()
        results = await asyncio.gather(*tasks)
        return service, results

    service, results = asyncio.run(scenario())
    assert [len(batch) for batch in executor.batches] == [2]
    assert all(len(result.records) == len(SCHEMES) for result in results)
    assert service.stats.evaluated == 2


def test_queries_after_stop_are_rejected():
    async def scenario():
        service = make_service()
        await service.stop()
        with pytest.raises(InvalidRequestError) as excinfo:
            await service.evaluate({"static_probability": 0.5})
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.payload["error"] == "service-stopped"


# ---------------------------------------------------------------------------
# HTTP front and client
# ---------------------------------------------------------------------------

def test_http_round_trip_and_structured_http_errors():
    async def scenario():
        service = make_service(max_batch_size=4, flush_interval=0.01)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)

        assert await client.health()
        answer = await client.evaluate({"crossbar.port_count": 3})
        repeat = await client.evaluate({"port_count": 3})

        with pytest.raises(InvalidRequestError) as excinfo:
            await client.evaluate({"crossbar.portcount": 5})
        error_payload = excinfo.value.payload

        stats = await client.stats()
        paths = await client.paths()

        status_404, not_found = await client._request("GET", "/nope")
        status_405, wrong_method = await client._request("GET", "/evaluate")

        await server.stop()
        await service.stop()
        return (answer, repeat, error_payload, stats, paths,
                status_404, not_found, status_405, wrong_method)

    (answer, repeat, error_payload, stats, paths,
     status_404, not_found, status_405, wrong_method) = asyncio.run(scenario())
    assert answer["from_cache"] is False
    assert {record["scheme"] for record in answer["records"]} == set(SCHEMES)
    assert repeat["from_cache"] is True and repeat["key"] == answer["key"]
    assert error_payload["error"] == "unknown-path"
    assert error_payload["path"] == "crossbar.portcount"
    assert stats["service"]["requests"] == 3
    assert stats["config"]["schemes"] == SCHEMES
    assert any(record["path"] == "crossbar.port_count" for record in paths)
    assert status_404 == 404 and not_found["error"] == "unknown-endpoint"
    assert status_405 == 405 and wrong_method["error"] == "method-not-allowed"


def test_http_paths_that_change_no_record_are_unknown():
    """A query naming the network model's knobs or the router buffer
    depth is refused: they change no record, so an answer would be the
    default point's records under a key of its own."""
    async def scenario():
        service = make_service(flush_interval=0.01)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        answers = [await client._request("POST", "/evaluate", {"overrides": overrides})
                   for overrides in ({"noc.link_length": 2.0e-3},
                                     {"crossbar.input_buffer_depth": 8})]
        paths = await client.paths()
        await server.stop()
        await service.stop()
        return answers, paths, service.stats

    answers, paths, stats = asyncio.run(scenario())
    for (status, payload), path in zip(answers, ("noc.link_length",
                                                 "crossbar.input_buffer_depth")):
        assert status == 400
        assert payload["error"] == "unknown-path" and payload["path"] == path
    assert stats.invalid_requests == 2 and stats.evaluated == 0
    assert len(paths) == 27
    assert all(set(record) == {"path", "note", "aliases", "default"} for record in paths)


def test_http_front_rejects_malformed_json_and_requests():
    async def scenario():
        service = make_service()
        server = await EvaluationServer(service, port=0).start()

        async def raw(data: bytes) -> bytes:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(data)
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            return response

        bad_json = await raw(
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 9\r\n"
            b"Connection: close\r\n\r\nnot json!")
        bad_request = await raw(b"garbage\r\n\r\n")

        await server.stop()
        await service.stop()
        return bad_json, bad_request

    bad_json, bad_request = asyncio.run(scenario())
    assert b"400" in bad_json.split(b"\r\n", 1)[0]
    assert b"invalid-json" in bad_json
    assert b"400" in bad_request.split(b"\r\n", 1)[0]


# ---------------------------------------------------------------------------
# cache sharing and CLI plumbing
# ---------------------------------------------------------------------------

def test_service_instances_share_a_disk_cache(tmp_path):
    cache_dir = tmp_path / "service-cache"

    async def first():
        service = make_service(cache_dir=cache_dir, max_batch_size=1)
        result = await service.evaluate({"static_probability": 0.35})
        await service.stop()
        return result

    async def second():
        service = make_service(cache_dir=cache_dir, max_batch_size=1)
        result = await service.evaluate({"static_probability": 0.35})
        await service.stop()
        return service, result

    cold = asyncio.run(first())
    service, warm = asyncio.run(second())
    assert not cold.from_cache and warm.from_cache
    assert warm.records == cold.records
    assert service.cache.stats.disk_hits == 1


def test_cache_write_failure_still_answers_the_query(tmp_path):
    """A failing cache.put must not hang the batch's futures (the
    evaluation succeeded; the point simply is not memoised)."""

    class FailingPutCache(EvaluationCache):
        """Cache whose writes always fail."""

        def put(self, key, entry):
            raise OSError(28, "No space left on device")

    async def scenario():
        service = make_service(cache=FailingPutCache(), max_batch_size=1)
        first = await asyncio.wait_for(
            service.evaluate({"static_probability": 0.55}), timeout=10)
        # The key must not be stranded in-flight: an identical follow-up
        # query re-evaluates instead of awaiting a dead future.
        second = await asyncio.wait_for(
            service.evaluate({"static_probability": 0.55}), timeout=10)
        await service.stop()
        return service, first, second

    service, first, second = asyncio.run(scenario())
    assert first.records == second.records
    assert service.stats.cache_write_failures == 2  # one per evaluated point
    assert not service._in_flight


def test_contract_violating_executor_fails_the_batch_loudly():
    """An executor returning the wrong result count must error every
    waiter instead of silently stranding the tail's futures."""

    class ShortExecutor:
        """Returns one result too few — a broken pluggable executor."""

        name = "short"

        def run(self, items):
            return SerialExecutor().run(items)[:-1]

    async def scenario():
        service = make_service(executor=ShortExecutor(), max_batch_size=2,
                               flush_interval=30.0)
        results = await asyncio.gather(
            asyncio.wait_for(
                service.evaluate({"static_probability": 0.15}), timeout=10),
            asyncio.wait_for(
                service.evaluate({"static_probability": 0.85}), timeout=10),
            return_exceptions=True,
        )
        await service.stop()
        return service, results

    service, results = asyncio.run(scenario())
    assert all(isinstance(result, RuntimeError) for result in results)
    assert all("returned 1 results for 2 items" in str(result)
               for result in results)
    assert len(service.cache) == 0  # nothing from the broken batch is cached
    assert not service._in_flight  # keys released: later queries re-evaluate


def test_executor_fault_is_a_500_over_http():
    """Server faults must not masquerade as client errors."""

    class BrokenExecutor:
        """Always violates the run(items) contract."""

        name = "broken"

        def run(self, items):
            return []

    async def scenario():
        service = make_service(executor=BrokenExecutor(), max_batch_size=1)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        status, payload = await client._request(
            "POST", "/evaluate", {"overrides": {"static_probability": 0.5}})
        await server.stop()
        await service.stop()
        return status, payload

    status, payload = asyncio.run(scenario())
    assert status == 500
    assert payload["error"] == "internal-error"


def test_memory_bound_keeps_the_service_cache_finite():
    async def scenario():
        cache = EvaluationCache(max_memory_entries=2)
        service = make_service(cache=cache, max_batch_size=1)
        for probability in (0.1, 0.2, 0.3, 0.4):
            await service.evaluate({"static_probability": probability})
        await service.stop()
        return service

    service = asyncio.run(scenario())
    assert len(service.cache) == 2
    assert service.cache.stats.memory_evictions == 2


def test_http_front_bounds_header_count():
    async def scenario():
        service = make_service()
        server = await EvaluationServer(service, port=0).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\n")
        for i in range(200):  # far beyond MAX_HEADER_LINES
            writer.write(b"x%d: y\r\n" % i)
        writer.write(b"\r\n")
        await writer.drain()
        response = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        await writer.wait_closed()
        await server.stop()
        await service.stop()
        return response

    response = asyncio.run(scenario())
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert b"malformed-request" in response


def test_max_disk_entries_without_cache_dir_is_rejected():
    args = _build_parser().parse_args(["--max-disk-entries", "10"])
    with pytest.raises(Exception, match="cache-dir"):
        service_from_args(args)
    assert service_main(["--max-disk-entries", "10"]) == 2
    assert service_main(["--max-disk-bytes", "4096"]) == 2


def test_cli_executor_defaults_to_serial_and_rejects_auto(capsys):
    assert _build_parser().parse_args([]).executor == "serial"
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["--executor", "auto"])
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_cli_args_build_the_described_service(tmp_path):
    args = _build_parser().parse_args([
        "--schemes", "SC,SDPC", "--baseline", "SC", "--executor", "serial",
        "--cache-dir", str(tmp_path / "cli-cache"), "--max-disk-entries", "9",
        "--max-disk-bytes", "65536",
        "--batch-size", "5", "--flush-interval", "0.5",
    ])
    service = service_from_args(args)
    assert service.evaluator.scheme_names == ("SC", "SDPC")
    assert service.max_batch_size == 5
    assert service.flush_interval == 0.5
    assert service.evaluator.executor == "serial"
    assert isinstance(service.cache, EvaluationCache)
    assert service.cache.max_disk_entries == 9
    assert service.cache.max_disk_bytes == 65536
    assert (tmp_path / "cli-cache").is_dir()


def test_stats_payload_is_json_safe():
    async def scenario():
        service = make_service(max_batch_size=1)
        await service.evaluate({"static_probability": 0.6})
        payload = service.stats_payload()
        await service.stop()
        return payload

    payload = asyncio.run(scenario())
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["service"]["evaluated"] == 1
    assert round_tripped["config"]["executor"] == "serial"
    # The leakage-kernel block rides along for hot-path observability.
    kernel = round_tripped["kernel"]
    assert set(kernel) == {"hits", "misses", "hit_rate"}
    assert kernel["misses"] > 0  # the evaluation above touched the kernel
    # Plain executors contribute no fleet block.
    assert "distributed" not in round_tripped


def test_stats_payload_exposes_distributed_fleet():
    """An executor with stats_payload() (the distributed fleet contract)
    surfaces as a ``distributed`` block in GET /stats."""

    class FleetExecutor(RecordingExecutor):
        name = "fleet"

        def stats_payload(self):
            return {"workers_registered": 2,
                    "workers": {"w0": {"completed": 3}}}

    async def scenario():
        service = make_service(executor=FleetExecutor(), max_batch_size=1)
        await service.evaluate({"static_probability": 0.4})
        payload = service.stats_payload()
        await service.stop()
        return payload

    payload = asyncio.run(scenario())
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["distributed"]["workers_registered"] == 2
    assert round_tripped["distributed"]["workers"]["w0"]["completed"] == 3
    assert round_tripped["config"]["executor"] == "fleet"


# ---------------------------------------------------------------------------
# hardening: per-request deadlines and pending-batch backpressure (ISSUE 4)
# ---------------------------------------------------------------------------

def test_deadline_exceeded_is_structured_and_does_not_drop_the_work():
    from repro.engine.service import DeadlineExceededError

    async def scenario():
        # A huge flush window parks the miss; the deadline fires first.
        service = make_service(max_batch_size=8, flush_interval=30.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            await service.evaluate({"static_probability": 0.3}, timeout_s=0.05)
        payload = dict(excinfo.value.payload)
        # The evaluation itself was not cancelled: stopping flushes it
        # and the point lands in the cache for the retry.
        await service.stop()
        retry_entry_count = len(service.cache)
        return service, payload, retry_entry_count

    service, payload, cached = asyncio.run(scenario())
    assert payload["error"] == "deadline-exceeded"
    assert payload["timeout_s"] == 0.05
    assert service.stats.deadline_exceeded == 1
    assert cached == 1  # the timed-out point was still evaluated + cached


def test_coalesced_queries_honour_their_own_deadline():
    from repro.engine.service import DeadlineExceededError

    async def scenario():
        service = make_service(max_batch_size=8, flush_interval=30.0)
        point = {"static_probability": 0.3}
        patient = asyncio.create_task(service.evaluate(point))
        await asyncio.sleep(0)  # let the miss join the batch
        with pytest.raises(DeadlineExceededError):
            await service.evaluate(point, timeout_s=0.05)
        assert service.stats.coalesced == 1
        await service.stop()  # flushes; the patient twin is answered
        result = await patient
        return service, result

    service, result = asyncio.run(scenario())
    assert result.records  # the patient query was answered normally
    assert service.stats.deadline_exceeded == 1


def test_invalid_timeout_is_a_structured_400():
    async def scenario():
        service = make_service()
        for bad in (0, -1.0, float("nan"), float("inf"), "soon", True):
            with pytest.raises(InvalidRequestError) as excinfo:
                await service.evaluate({"static_probability": 0.5},
                                       timeout_s=bad)
            assert excinfo.value.payload["error"] == "invalid-timeout"
        await service.stop()
        return service

    service = asyncio.run(scenario())
    assert service.stats.invalid_requests == 6
    assert len(service.cache) == 0  # nothing reached the batch


def test_max_pending_backpressure_sheds_load_with_a_structured_503():
    from repro.engine.service import ServiceOverloadedError

    async def scenario():
        service = make_service(max_batch_size=8, flush_interval=30.0,
                               max_pending=1)
        first = asyncio.create_task(
            service.evaluate({"static_probability": 0.1}))
        await asyncio.sleep(0)  # the first miss occupies the batch
        with pytest.raises(ServiceOverloadedError) as excinfo:
            await service.evaluate({"static_probability": 0.2})
        payload = dict(excinfo.value.payload)
        # An identical in-flight point still coalesces (no new slot).
        duplicate = asyncio.create_task(
            service.evaluate({"static_probability": 0.1}))
        await asyncio.sleep(0)
        await service.stop()
        results = await asyncio.gather(first, duplicate)
        return service, payload, results

    service, payload, results = asyncio.run(scenario())
    assert payload["error"] == "overloaded"
    assert payload["max_pending"] == 1
    assert service.stats.rejected_overload == 1
    assert all(result.records for result in results)


def test_http_front_maps_deadline_and_overload_statuses():
    async def scenario():
        service = make_service(max_batch_size=8, flush_interval=30.0,
                               max_pending=1)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient(port=server.port)
        statuses = {}

        async def raw(body):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            payload = json.dumps(body).encode()
            writer.write((f"POST /evaluate HTTP/1.1\r\nHost: x\r\n"
                          f"Content-Length: {len(payload)}\r\n"
                          f"Connection: close\r\n\r\n").encode() + payload)
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return int(line.split()[1])

        statuses["deadline"] = await raw(
            {"overrides": {"static_probability": 0.3}, "timeout_s": 0.05})
        statuses["overload"] = await raw(
            {"overrides": {"static_probability": 0.4}})
        statuses["timeout_shape"] = await raw(
            {"overrides": {"static_probability": 0.5}, "timeout_s": "soon"})
        await server.stop()
        await service.stop()
        return statuses

    statuses = asyncio.run(scenario())
    assert statuses["deadline"] == 504
    assert statuses["overload"] == 503
    assert statuses["timeout_shape"] == 400


def test_cli_hardening_flags_are_plumbed(tmp_path):
    args = _build_parser().parse_args([
        "--executor", "serial", "--max-pending", "7",
        "--default-timeout", "1.5",
        "--cache-dir", str(tmp_path / "c"),
    ])
    service = service_from_args(args)
    assert service.max_pending == 7
    assert service.default_timeout_s == 1.5
    assert service.cache.directory == tmp_path / "c"


def recording(monkeypatch, name: str) -> list:
    """Every :class:`DistributedExecutor` on which ``name`` is called,
    in call order (the method still runs)."""
    from repro.engine import DistributedExecutor

    calls = []
    method = getattr(DistributedExecutor, name)

    def record(executor, *args, **kwargs):
        calls.append(executor)
        return method(executor, *args, **kwargs)

    monkeypatch.setattr(DistributedExecutor, name, record)
    return calls


def test_service_closes_string_spec_executors_and_borrows_objects(monkeypatch):
    """stop() closes the fleet the service built from ``"distributed"``,
    and its spawned worker with it; an executor object is borrowed and
    left to whoever built it."""
    from repro.engine import DistributedExecutor

    closed = recording(monkeypatch, "close")

    async def scenario(executor):
        service = make_service(executor=executor, max_batch_size=1,
                               max_workers=1)
        await service.evaluate({"static_probability": 0.45})
        await service.stop()

    asyncio.run(scenario("distributed"))
    (owned,) = closed
    assert [process.poll() for process in owned._spawned] == [0]
    with DistributedExecutor(spawn_workers=1) as borrowed:
        asyncio.run(scenario(borrowed))
        assert closed == [owned]  # stop() left the borrowed fleet open
        assert [process.poll() for process in borrowed._spawned] == [None]
    assert closed == [owned, borrowed]  # its builder closed it
    assert [process.poll() for process in borrowed._spawned] == [0]


def test_persistent_fleet_is_reused_across_flushes(monkeypatch):
    started = recording(monkeypatch, "start")

    async def scenario():
        service = make_service(executor="distributed", max_batch_size=1,
                               max_workers=1)
        await service.evaluate({"static_probability": 0.21})
        await service.evaluate({"static_probability": 0.22})
        fleet = service.evaluator.executors()
        await service.stop()
        return service, fleet

    service, (fleet,) = asyncio.run(scenario())
    assert service.stats.batches == 2
    assert set(started) == {fleet}  # one fleet serves every flush
    assert fleet.stats.workers_registered == 1 and fleet.stats.completed == 2
    assert [process.poll() for process in fleet._spawned] == [0]


def test_stats_payload_carries_structural_cache_counters():
    """GET /stats shows the structural cache's hits and misses, device
    parts included."""
    from repro.core.scheme_evaluator import clear_structural_cache

    async def scenario():
        clear_structural_cache()
        service = make_service(max_batch_size=1)
        await service.evaluate({"crossbar.flit_width": 32})
        await service.evaluate({"crossbar.flit_width": 16})
        payload = service.stats_payload()
        await service.stop()
        return payload

    structural = json.loads(json.dumps(asyncio.run(scenario())))["structural"]
    schemes = len(SCHEMES)
    assert structural["scheme_misses"] == 2 * schemes
    assert structural["device_part_misses"] == schemes
    assert structural["device_part_hits"] == schemes
    assert structural["kernel_misses"] > 0


# ---------------------------------------------------------------------------
# per-point error isolation within a batch
# ---------------------------------------------------------------------------

#: A valid point and one the model rejects (at p = 0.001 DFC's standby
#: saves nothing), sent concurrently so they share one flush.
VALID_POINT = {"static_probability": 0.4321, "toggle_activity": 0.3}
REJECTED_POINT = {"static_probability": 0.001}
REJECTED_MESSAGE = "scheme 'DFC' saves no power in standby; minimum idle time undefined"


def test_a_rejected_point_does_not_fail_its_batch_mates():
    async def scenario():
        service = make_service(scheme_names=None, max_batch_size=2, flush_interval=30.0)
        results = await asyncio.gather(service.evaluate(VALID_POINT),
                                       service.evaluate(REJECTED_POINT),
                                       return_exceptions=True)
        repeat = await service.evaluate(VALID_POINT)
        await service.stop()
        return service, results, repeat

    service, (valid, rejected), repeat = asyncio.run(scenario())
    assert not isinstance(valid, BaseException)
    assert len(valid.records) == 5 and not valid.from_cache
    assert repeat.from_cache and repeat.records == valid.records
    assert type(rejected).__name__ == "PowerError"
    assert str(rejected) == REJECTED_MESSAGE
    assert len(service.cache) == 1  # the valid point only
    assert service.stats.evaluated == 1
    assert not service._in_flight


def test_a_rejected_point_is_its_own_400_over_http():
    async def scenario():
        service = make_service(scheme_names=None, max_batch_size=2, flush_interval=30.0)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        (valid_status, valid), (rejected_status, rejected) = await asyncio.gather(
            client._request("POST", "/evaluate", {"overrides": VALID_POINT}),
            client._request("POST", "/evaluate", {"overrides": REJECTED_POINT}))
        repeat_status, repeat = await client._request(
            "POST", "/evaluate", {"overrides": VALID_POINT})
        cached = len(service.cache)
        await server.stop()
        await service.stop()
        return (valid_status, valid, rejected_status, rejected, repeat_status, repeat,
                cached)

    (valid_status, valid, rejected_status, rejected, repeat_status, repeat,
     cached) = asyncio.run(scenario())
    assert valid_status == 200 and len(valid["records"]) == 5
    assert valid["from_cache"] is False
    assert rejected_status == 400
    assert rejected == {"error": "evaluation-failed", "message": REJECTED_MESSAGE}
    assert repeat_status == 200 and repeat["from_cache"] is True
    assert repeat["records"] == valid["records"]
    assert cached == 1  # the valid point only


def test_zero_static_probability_is_rejected_by_every_layer():
    """At p = 0 every bundled scheme's standby saves nothing, so no point
    there can be answered: each layer raises the same PowerError, and the
    service answers a 400 ``evaluation-failed`` (docs/serving.md)."""
    from repro import paper_experiment
    from repro.core.comparison import compare_schemes, point_records
    from repro.engine import DesignSpace, Evaluator
    from repro.errors import PowerError

    message = "scheme 'DFC' saves no power in standby; minimum idle time undefined"
    config = paper_experiment().with_overrides(static_probability=0.0)
    for call in (lambda: compare_schemes(config),
                 lambda: point_records(config),
                 lambda: Evaluator().evaluate(
                     DesignSpace.from_points([{"static_probability": 0.0}]))):
        with pytest.raises(PowerError) as excinfo:
            call()
        assert type(excinfo.value) is PowerError and str(excinfo.value) == message

    async def scenario():
        service = make_service(scheme_names=None, max_batch_size=1)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        answers = [await client._request("POST", "/evaluate",
                                         {"overrides": {"static_probability": p}})
                   for p in (0.0, -0.0, 0.0)]
        await server.stop()
        await service.stop()
        return answers

    for status, payload in asyncio.run(scenario()):
        assert status == 400
        assert payload == {"error": "evaluation-failed", "message": message}


def test_a_model_error_through_a_fleet_answers_like_serial():
    """p = 0 (a PowerError) batched with a valid point: through a
    one-worker fleet, as serially, the rejected point is its own 400 and
    the valid one answers 200, byte for byte the same bodies."""
    async def scenario(executor):
        service = make_service(scheme_names=None, executor=executor, max_workers=1,
                               max_batch_size=2, flush_interval=30.0)
        server = await EvaluationServer(service, port=0).start()
        answers = await asyncio.gather(
            _raw_post(server.port, b'{"overrides": {"static_probability": 0.0}}'),
            _raw_post(server.port, b'{"overrides": {"static_probability": 0.37}}'))
        await server.stop()
        await service.stop()
        return service.stats.batches, answers

    serial = asyncio.run(scenario("serial"))
    fleet = asyncio.run(scenario("distributed"))
    assert fleet == serial
    batches, ((rejected_status, rejected), (valid_status, valid)) = fleet
    assert batches == 1
    assert (rejected_status, rejected) == (400, {
        "error": "evaluation-failed",
        "message": "scheme 'DFC' saves no power in standby; minimum idle time undefined"})
    assert valid_status == 200 and len(valid["records"]) == 5


# ---------------------------------------------------------------------------
# warm answers: one encoding per cache entry, and the query memo
# ---------------------------------------------------------------------------

def _sorted_json(result) -> bytes:
    """The body every 200 ``/evaluate`` answer had before splicing."""
    return json.dumps(result.as_payload(), sort_keys=True).encode("utf-8")


async def _raw_evaluate(port: int, overrides: dict) -> tuple[int, bytes]:
    """One ``POST /evaluate``; returns the status and the raw body bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps({"overrides": overrides}).encode("utf-8")
    writer.write(b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n"
                 b"Connection: close\r\n\r\n" % len(body) + body)
    await writer.drain()
    start, _headers, raw = await _read_http_message(reader)
    writer.close()
    await writer.wait_closed()
    return int(start.split()[1]), raw


#: Queries whose overrides hold a bool, an int, a float, -0.0, a flag as
#: an int, and alias spellings next to dotted ones.
SPELLED_QUERIES = [
    {"allow_self_connection": True},
    {"toggle_activity": 1},
    {"toggle_activity": 1.0},
    {"toggle_activity": -0.0, "static_probability": 0.25},
    {"port_count": 3, "crossbar.flit_width": 64},
    {"allow_self_connection": 1},
]


def test_result_bodies_are_the_sorted_json_of_the_result(tmp_path):
    """Misses, coalesced twins, memory hits and (on a second service)
    disk hits all encode to ``json.dumps(as_payload(), sort_keys=True)``."""
    cache_dir = tmp_path / "cache"

    async def first():
        service = make_service(cache_dir=cache_dir, max_batch_size=64, flush_interval=0.01)
        cold = await asyncio.gather(*[service.evaluate(query)
                                      for query in SPELLED_QUERIES for _ in range(2)])
        warm = [await service.evaluate(query) for query in SPELLED_QUERIES]
        await service.stop()
        return cold, warm

    async def second():
        service = make_service(cache_dir=cache_dir)
        results = [await service.evaluate(query) for query in SPELLED_QUERIES]
        await service.stop()
        return service, results

    cold, warm = asyncio.run(first())
    service, disk = asyncio.run(second())
    assert [result.coalesced for result in cold] == [False, True] * len(SPELLED_QUERIES)
    assert all(result.from_cache for result in warm + disk)
    assert service.cache.stats.disk_hits == len(SPELLED_QUERIES)
    for result in cold + warm + disk:
        body = _sorted_json(result)
        assert _result_body(result) == body
        assert _encode_response(200, result, close=True).endswith(b"\r\n\r\n" + body)
    # A result built by hand, without the entry's text, encodes its records.
    by_hand = ServiceResult(key="kéy", overrides=(("technology_node", "45nmé"),),
                            records=({"scheme": "✓", "x": -0.0},),
                            from_cache=False, coalesced=True)
    assert _result_body(by_hand) == _sorted_json(by_hand)


def test_http_bodies_are_byte_identical_sorted_json():
    async def scenario():
        service = make_service(max_batch_size=64, flush_interval=0.01)
        server = await EvaluationServer(service, port=0).start()
        answers = []
        for query in SPELLED_QUERIES:
            answers += await asyncio.gather(_raw_evaluate(server.port, query),
                                            _raw_evaluate(server.port, query))
            answers.append(await _raw_evaluate(server.port, query))
        await server.stop()
        await service.stop()
        return answers

    answers = asyncio.run(scenario())
    assert all(status == 200 for status, _ in answers)
    bodies = [json.loads(body) for _, body in answers]
    for (_, raw), body in zip(answers, bodies):
        assert raw == json.dumps(body, sort_keys=True).encode("utf-8")
    for index, query in enumerate(SPELLED_QUERIES):
        miss, twin, hit = bodies[3 * index:3 * index + 3]
        assert [miss["coalesced"], twin["coalesced"], hit["from_cache"]] == [False, True, True]
        assert miss["records"] == twin["records"] == hit["records"]
        assert miss["key"] == twin["key"] == hit["key"]
    raw_overrides = [raw.split(b'"overrides": ', 1)[1].split(b', "records"', 1)[0]
                     for _, raw in answers[::3]]
    assert raw_overrides == [b'{"crossbar.allow_self_connection": true}',
                             b'{"toggle_activity": 1}',
                             b'{"toggle_activity": 1.0}',
                             b'{"static_probability": 0.25, "toggle_activity": -0.0}',
                             b'{"crossbar.flit_width": 64, "crossbar.port_count": 3}',
                             b'{"crossbar.allow_self_connection": 1}']
    assert len({body["key"] for body in bodies}) == len(SPELLED_QUERIES)


def test_query_memo_keeps_types_and_zero_signs_apart():
    """``1``/``1.0`` and ``0.0``/``-0.0`` are equal in Python but spell
    different configs: each keeps its own memo entry and key (``True`` is
    no number, and the flag path's ``True``/``1`` are two spellings too)."""
    from repro.core.paths import set_path
    from repro.engine.cache import point_key

    values = [1, 1.0, 0.0, -0.0]

    async def scenario():
        service = make_service(max_batch_size=1)
        rounds = [[await service.evaluate({"toggle_activity": value}) for value in values]
                  for _ in range(2)]
        await service.stop()
        return service, rounds

    service, (first, second) = asyncio.run(scenario())
    base = service.evaluator.base_config
    expected = [point_key(set_path(base, "toggle_activity", value), SCHEMES, "SC")
                for value in values]
    assert [result.key for result in first] == expected
    assert [result.key for result in second] == expected
    assert len(set(expected)) == len(values)
    assert all(result.from_cache for result in second)
    for value, result in zip(values, second):
        echoed = dict(result.overrides)["toggle_activity"]
        assert type(echoed) is type(value) and repr(echoed) == repr(value)
    assert len(service._query_memo) == len(values)


def test_query_memo_never_stores_a_rejected_query():
    rejected = [{"static_probability": 1.5}, {"crossbar.port_count": 1},
                {"crossbar.port_count": 1000000}, {"crossbar.flit_width": 1025},
                {"toggle_activity": float("nan")}, {"no.such.path": 1}]

    async def scenario():
        service = make_service()
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        answers = [await client._request("POST", "/evaluate", {"overrides": query})
                   for _ in range(2) for query in rejected]
        memo = dict(service._query_memo)
        await server.stop()
        await service.stop()
        return service, answers, memo

    service, answers, memo = asyncio.run(scenario())
    assert memo == {}
    assert answers[:len(rejected)] == answers[len(rejected):]
    assert all(status == 400 for status, _ in answers)
    assert [payload["error"] for _, payload in answers[:len(rejected)]] == [
        "invalid-value", "invalid-value", "invalid-value", "invalid-value", "invalid-value",
        "unknown-path"]
    assert service.stats.invalid_requests == 2 * len(rejected)


def test_query_memo_is_per_service():
    from repro import ExperimentConfig

    query = {"toggle_activity": 0.3}

    async def scenario():
        hot = make_service(base_config=ExperimentConfig())
        cool = make_service(base_config=ExperimentConfig(temperature_celsius=25.0))
        answers = [await hot.evaluate(query), await cool.evaluate(query),
                   await hot.evaluate(query), await cool.evaluate(query)]
        await hot.stop()
        await cool.stop()
        return hot, cool, answers

    hot, cool, (hot1, cool1, hot2, cool2) = asyncio.run(scenario())
    assert hot1.key != cool1.key
    assert (hot2.key, cool2.key) == (hot1.key, cool1.key)
    assert hot2.records == hot1.records and cool2.records == cool1.records
    assert hot2.records != cool2.records
    assert len(hot._query_memo) == len(cool._query_memo) == 1


def test_query_memo_stays_within_its_bound(monkeypatch):
    from repro.engine import service as service_module

    monkeypatch.setattr(service_module, "_QUERY_MEMO_MAX", 3)
    queries = [{"toggle_activity": 0.1 * step} for step in range(1, 8)]

    async def scenario():
        service = make_service(max_batch_size=1)
        sizes, results = [], []
        for query in queries + queries:
            results.append(await service.evaluate(query))
            sizes.append(len(service._query_memo))
        await service.stop()
        return sizes, results

    sizes, results = asyncio.run(scenario())
    assert max(sizes) == 3 and min(sizes) == 1
    first, second = results[:len(queries)], results[len(queries):]
    assert [result.key for result in second] == [result.key for result in first]
    assert all(result.from_cache for result in second)


def test_non_finite_values_are_refused_before_evaluation_at_every_numeric_path():
    from repro.core.paths import leaf_layout

    paths = [path for path, default in leaf_layout()
             if default is None or type(default) in (int, float)]

    async def scenario():
        service = make_service()
        payloads = []
        for path in paths:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(InvalidRequestError) as excinfo:
                    await service.evaluate({path: value})
                payloads.append((path, excinfo.value.payload))
        await service.stop()
        return service, payloads

    service, payloads = asyncio.run(scenario())
    assert len(payloads) == 3 * len(paths) == 69
    for path, payload in payloads:
        assert payload["error"] == "invalid-value" and payload["path"] == path
    assert service.stats.evaluated == 0 and len(service.cache) == 0


async def _raw_post(port: int, body: bytes) -> tuple[int, dict]:
    """One ``POST /evaluate`` of raw ``body`` bytes; returns the status
    and the decoded answer."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n"
                 b"Connection: close\r\n\r\n" % len(body) + body)
    await writer.drain()
    start, _headers, raw = await _read_http_message(reader)
    writer.close()
    await writer.wait_closed()
    return int(start.split()[1]), json.loads(raw)


def test_a_bare_nan_body_is_a_400_and_spares_its_batch_mate():
    """JSON parsing accepts a bare ``NaN``; the config refuses it before
    the point joins a batch, so the query batched with it still answers."""
    async def scenario():
        service = make_service(max_batch_size=2, flush_interval=0.05)
        server = await EvaluationServer(service, port=0).start()
        answers = await asyncio.gather(
            _raw_post(server.port, b'{"overrides": {"clock_frequency": NaN}}'),
            _raw_post(server.port, b'{"overrides": {"static_probability": 0.3}}'))
        await server.stop()
        await service.stop()
        return answers

    (nan_status, nan_answer), (valid_status, valid_answer) = asyncio.run(scenario())
    assert nan_status == 400
    assert nan_answer["error"] == "invalid-value"
    assert nan_answer["path"] == "clock_frequency"
    assert valid_status == 200 and len(valid_answer["records"]) == len(SCHEMES)


def test_query_memo_key_skips_nan_and_non_scalars():
    assert _query_memo_key({"toggle_activity": float("nan")}) is None
    assert _query_memo_key({"a": [1]}) is None
    assert _query_memo_key({"a": (0.0,)}) is None
    assert _query_memo_key({"a": 0.0}) != _query_memo_key({"a": -0.0})
    assert len({_query_memo_key({"a": value}) for value in (1, 1.0, True)}) == 3
    assert _query_memo_key({}) == ()


def test_wrong_typed_numbers_are_refused_before_evaluation():
    """A string, a bool or None where a number belongs, an int no float
    can hold, and a fraction on an int path, are a 400 ``invalid-value``
    naming the path, never a 500 or an answer; an integral float on an
    int path is that int."""
    queries = [("static_probability", "0.5"), ("crossbar.receiver_capacitance", "1"),
               ("crossbar.port_count", 5.5), ("crossbar.flit_width", 64.5),
               ("crossbar.flit_width", True), ("temperature_celsius", True),
               ("toggle_activity", False), ("clock_frequency", None),
               ("crossbar.pass_width", [1e-6]), ("temperature_celsius", 10**400)]

    async def scenario():
        service = make_service()
        server = await EvaluationServer(service, port=0).start()
        answers = [await _raw_post(server.port,
                                   json.dumps({"overrides": {path: value}}).encode())
                   for path, value in queries]
        as_float = await service.evaluate({"crossbar.port_count": 5.0})
        as_int = await service.evaluate({"crossbar.port_count": 5})
        await server.stop()
        await service.stop()
        return answers, as_float, as_int

    answers, as_float, as_int = asyncio.run(scenario())
    assert [(status, answer["error"], answer["path"]) for status, answer in answers] \
        == [(400, "invalid-value", path) for path, _ in queries]
    assert as_int.key == as_float.key and as_int.from_cache
    assert as_int.records == as_float.records


def test_wrong_typed_name_and_flag_values_are_refused_before_evaluation():
    """A number on a string path or a non-flag on the flag path is a 400
    ``invalid-value`` naming the path, never a 500 from mid-evaluation."""
    queries = [("corner", 1.0), ("technology_node", 45), ("crossbar.wire_layer", 3),
               ("crossbar.allow_self_connection", 0.5), ("allow_self_connection", "yes")]

    async def scenario():
        service = make_service()
        payloads = []
        for path, value in queries:
            with pytest.raises(InvalidRequestError) as excinfo:
                await service.evaluate({path: value})
            payloads.append(excinfo.value.payload)
        await service.stop()
        return service, payloads

    service, payloads = asyncio.run(scenario())
    assert [(payload["error"], payload["path"]) for payload in payloads] == [
        ("invalid-value", "corner"), ("invalid-value", "technology_node"),
        ("invalid-value", "crossbar.wire_layer"),
        ("invalid-value", "crossbar.allow_self_connection"),
        ("invalid-value", "crossbar.allow_self_connection")]
    assert service.stats.evaluated == 0 and len(service.cache) == 0
