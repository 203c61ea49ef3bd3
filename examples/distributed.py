"""Distributed serving demo: two workers, one shared cache directory.

The end-to-end story of the distributed subsystem on localhost:

1. start an :class:`~repro.engine.service.EvaluationService` whose
   executor is a :class:`~repro.engine.distributed.DistributedExecutor`
   spawning **two** worker processes (``python -m repro.engine.worker``),
   backed by a cache directory;
2. fire a burst of queries through the HTTP front and show the misses
   fanned out across *both* workers;
3. verify the records are identical to a
   :class:`~repro.engine.executor.SerialExecutor` evaluating the same
   points in-process;
4. have a *second* cache instance add points to the same directory —
   no writer ids, no coordination — then show a fresh reader seeing
   both writers' entries, and the maintenance CLI
   (``python -m repro.engine.cache compact|stats DIR``) reporting their
   union.

Run with ``python examples/distributed.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import ExperimentConfig  # noqa: E402
from repro.engine import (  # noqa: E402
    DistributedExecutor,
    CachedEntry,
    EvaluationCache,
    EvaluationServer,
    EvaluationService,
    ServiceClient,
)
from repro.engine.cache import main as cache_main  # noqa: E402
from repro.engine.cache import point_key  # noqa: E402
from repro.engine.executor import SerialExecutor, WorkItem  # noqa: E402

SCHEMES = ["SC", "SDPC"]

#: The burst: every point is a fresh miss, so all of them fan out
#: through the distributed executor's two workers.
BURST = ([{"static_probability": p} for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
         + [{"crossbar.port_count": n} for n in (3, 4, 6, 8)]
         + [{"temperature_celsius": t} for t in (25.0, 70.0)])


async def serve_burst(cache_dir: Path) -> tuple[list[dict], dict]:
    """Run the burst through a service whose misses go to two workers."""
    cache = EvaluationCache(directory=cache_dir)
    # The service borrows the fleet; the with block that built it closes it.
    with DistributedExecutor(spawn_workers=2, min_workers=2) as executor:
        service = EvaluationService(scheme_names=SCHEMES, executor=executor,
                                    cache=cache, max_batch_size=len(BURST),
                                    flush_interval=0.05)
        server = await EvaluationServer(service, host="127.0.0.1", port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        print(f"service up on http://127.0.0.1:{server.port} "
              f"(distributed executor, 2 spawned workers, "
              f"cache {cache_dir})")
        try:
            answers = await asyncio.gather(*[client.evaluate(q) for q in BURST])
            fleet = executor.stats_payload()
        finally:
            await server.stop()
            await service.stop()
    return answers, fleet


def main() -> None:
    """Run the demo and assert each stage's promise."""
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-distributed-demo-"))
    try:
        answers, fleet = asyncio.run(serve_burst(cache_dir))

        per_worker = {worker_id: info["completed"]
                      for worker_id, info in fleet["workers"].items()}
        print(f"\n{len(BURST)} misses fanned out across "
              f"{len(per_worker)} workers: {per_worker}")
        assert len(per_worker) == 2, "expected a 2-worker fleet"
        assert all(count > 0 for count in per_worker.values()), \
            "both workers should have evaluated items"
        assert sum(per_worker.values()) == len(BURST)

        # Parity: the distributed records match the serial executor's.
        base = ExperimentConfig()
        items = [WorkItem(config=base.with_overrides(**query),
                          scheme_names=tuple(SCHEMES), baseline_name="SC")
                 for query in BURST]
        serial = SerialExecutor().run(items)
        assert [list(answer["records"]) for answer in answers] \
            == [point.records for point in serial], \
            "distributed records must be bit-identical to serial"
        print("parity: distributed records == serial records "
              f"for all {len(BURST)} points")

        # A second cache instance writes the same directory, no ids needed.
        writer_b = EvaluationCache(directory=cache_dir)
        extra_items = [WorkItem(config=base.with_overrides(static_probability=p),
                                scheme_names=tuple(SCHEMES), baseline_name="SC")
                       for p in (0.15, 0.85)]
        for item, point in zip(extra_items, SerialExecutor().run(extra_items)):
            writer_b.put(point_key(item.config, SCHEMES),
                         CachedEntry(records=point.records))
        union = len(BURST) + len(extra_items)

        reader = EvaluationCache(directory=cache_dir)
        entries = reader.disk_stats()["entries"]
        print(f"\nfresh reader sees both writers' entries: {entries}")
        assert entries == union
        for answer in answers:
            assert reader.get(answer["key"]) is not None, \
                "every served point must be readable from the shared directory"

        reports = {}
        for command in ("compact", "stats"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cache_main([command, str(cache_dir)]) == 0
            reports[command] = json.loads(out.getvalue())
        print(f"cache CLI: compact kept "
              f"{reports['compact']['entries_after_compact']} entries, "
              f"stats reports {reports['stats']['entries']} entries / "
              f"{reports['stats']['bytes']} bytes")
        assert reports["compact"]["entries_after_compact"] == union
        assert reports["stats"]["entries"] == union
        print("\ndistributed demo OK")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
