"""Many caches sharing one disk directory.

The sharded entry files are the disk cache's only on-disk state, so any
number of caches — in one process or many — may write one directory
without per-writer setup.  These tests pin that down: concurrent
writers of overlapping keys, leftover and misplaced files, and the
canonical ``<2 hex>/<stem>.json`` layout every operation must preserve.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import re

import pytest

from repro.engine import EvaluationCache
from repro.engine.cache import CachedEntry, _shard_and_name
from repro.engine.cache import main as cache_main

#: Every file under a cache directory must look like this.
CANONICAL = re.compile(r"(?P<shard>[0-9a-f]{2})/(?P<stem>[0-9a-f]+)\.json")


def key_of(tag: str) -> str:
    """A distinct, shard-friendly 64-hex key per tag."""
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


def records_of(key: str) -> list[dict]:
    return [{"scheme": "SC", "key": key}]


def assert_canonical_layout(directory) -> None:
    """Every file is an entry at the path its own stored key maps to."""
    for path in directory.rglob("*"):
        if path.is_dir():
            assert path.parent == directory and re.fullmatch(r"[0-9a-f]{2}", path.name)
            continue
        relative = path.relative_to(directory).as_posix()
        match = CANONICAL.fullmatch(relative)
        assert match is not None, relative
        stored_key = json.loads(path.read_text(encoding="utf-8"))["key"]
        assert _shard_and_name(stored_key) == (match["shard"], match["stem"]), relative


def _write_overlapping_keys(directory: str, keys: list[str], seed: int,
                            rounds: int, start) -> None:
    """Spawned writer: put ``keys`` in a shuffled order ``rounds`` times;
    exit non-zero if any put raised."""
    start.wait(timeout=60)
    cache = EvaluationCache(directory=directory)
    rng = random.Random(seed)
    failures = 0
    for _ in range(rounds):
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            try:
                cache.put(key, CachedEntry(records=records_of(key)))
            except OSError:
                failures += 1
    raise SystemExit(1 if failures else 0)


def test_concurrent_writers_of_overlapping_keys(tmp_path):
    directory = tmp_path / "cache"
    keys = [key_of(f"point-{i}") for i in range(12)]
    context = multiprocessing.get_context("spawn")
    start = context.Event()
    writers = [context.Process(target=_write_overlapping_keys,
                               args=(str(directory), keys, seed, 60, start))
               for seed in range(3)]
    for writer in writers:
        writer.start()
    start.set()
    for writer in writers:
        writer.join(timeout=120)
    assert [writer.is_alive() for writer in writers] == [False] * 3
    assert [writer.exitcode for writer in writers] == [0] * 3

    reader = EvaluationCache(directory=directory)
    for key in keys:
        assert reader.get(key).records == records_of(key)
    assert reader.disk_stats()["entries"] == len(keys)
    assert not list(directory.rglob("*.tmp"))
    assert_canonical_layout(directory)


def test_compact_deletes_misplaced_entry_files(tmp_path):
    directory = tmp_path / "cache"
    (directory / "de").mkdir(parents=True)
    misplaced = directory / "de" / "stray.json"
    misplaced.write_text(json.dumps({"schema": 1, "key": "cafe0000",
                                     "records": records_of("cafe0000")}),
                         encoding="utf-8")
    cache = EvaluationCache(directory=directory, max_disk_entries=1)
    assert cache.get("cafe0000") is None  # only the canonical path is read
    cache.compact()
    cache.put("deadbeef", CachedEntry(records=records_of("deadbeef")))
    assert not misplaced.exists()
    assert_canonical_layout(directory)


def test_truncated_entries_and_stray_temp_files_are_misses(tmp_path):
    directory = tmp_path / "cache"
    writer = EvaluationCache(directory=directory)
    good, truncated = key_of("good"), key_of("truncated")
    for key in (good, truncated):
        writer.put(key, CachedEntry(records=records_of(key)))
    path = writer._disk_path(truncated)
    path.write_bytes(path.read_bytes()[:20])  # a crash mid-write, pre-rename
    stray = writer._disk_path(good).with_name("leftover.1234.tmp")
    stray.write_text("{", encoding="utf-8")

    reader = EvaluationCache(directory=directory)
    assert reader.get(truncated) is None
    assert reader.get(good).records == records_of(good)
    assert reader.compact() == 1
    assert not path.exists() and not stray.exists()
    assert_canonical_layout(directory)


def test_every_operation_keeps_the_canonical_layout(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    (directory / "index.json").write_text('{"entries": {"x": {"file": "../x"}}}',
                                          encoding="utf-8")
    (directory / "index.a.journal").write_text('{"op": "put"', encoding="utf-8")
    rng = random.Random(7)
    keys = [key_of(f"k{i}") for i in range(6)] + ["../../escape", "Mixed/Case"]
    caches = [EvaluationCache(directory=directory, max_disk_entries=4),
              EvaluationCache(directory=directory, max_disk_bytes=600)]
    for step in range(80):
        cache = rng.choice(caches)
        key = rng.choice(keys)
        op = rng.choice(["put", "put", "get", "flush"] + (["compact"] if step % 10 == 0 else []))
        if op == "put":
            cache.put(key, CachedEntry(records=records_of(key)))
        elif op == "get":
            entry = cache.get(key)
            assert entry is None or entry.records == records_of(key)
        elif op == "flush":
            cache.flush_index()
        else:
            cache.compact()
    caches[0].compact()
    assert_canonical_layout(directory)


def test_cli_reports_the_union_of_two_writers(tmp_path, capsys):
    directory = tmp_path / "cache"
    a = EvaluationCache(directory=directory)
    b = EvaluationCache(directory=directory)
    for tag in ("a1", "a2"):
        a.put(key_of(tag), CachedEntry(records=records_of(key_of(tag))))
    b.put(key_of("b1"), CachedEntry(records=records_of(key_of("b1"))))

    assert cache_main(["compact", str(directory)]) == 0
    assert json.loads(capsys.readouterr().out)["entries_after_compact"] == 3
    assert cache_main(["stats", str(directory)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entries"] == 3
    assert set(report) == {"command", "directory", "entries", "bytes",
                           "max_disk_entries", "max_disk_bytes"}


def test_evictions_by_one_writer_are_seen_by_another(tmp_path):
    directory = tmp_path / "cache"
    writer = EvaluationCache(directory=directory, max_disk_entries=1)
    first, second = key_of("first"), key_of("second")
    writer.put(first, CachedEntry(records=records_of(first)))
    reader = EvaluationCache(directory=directory)
    assert reader.disk_stats()["entries"] == 1
    assert reader.get(first).records == records_of(first)  # a queued disk hit

    writer.put(second, CachedEntry(records=records_of(second)))
    assert writer.stats.evictions == 1
    reader.flush_index()  # the hit's file is gone: it leaves the view
    assert reader.disk_stats()["entries"] == 0
    reader.clear_memory()
    assert reader.get(first) is None
    assert reader.get(second).records == records_of(second)
    assert EvaluationCache(directory=directory).disk_stats()["entries"] == 1


def test_a_restarted_writer_keeps_its_entries(tmp_path):
    directory = tmp_path / "cache"
    one, two = key_of("one"), key_of("two")
    EvaluationCache(directory=directory).put(one, CachedEntry(records=records_of(one)))

    second_session = EvaluationCache(directory=directory)
    assert second_session.disk_stats()["entries"] == 1
    assert second_session.get(one).records == records_of(one)
    second_session.put(two, CachedEntry(records=records_of(two)))
    second_session.flush_index()

    reader = EvaluationCache(directory=directory)
    stats = reader.disk_stats()
    assert stats["entries"] == 2
    assert stats["bytes"] == sum(p.stat().st_size for p in directory.rglob("*.json"))
    assert reader.get(one).records == records_of(one)
    assert reader.get(two).records == records_of(two)


def test_open_scan_orders_entries_by_mtime(tmp_path):
    """A new session's LRU order is the entry files' mtime order, not
    the order they were written in or their names."""
    directory = tmp_path / "cache"
    writer = EvaluationCache(directory=directory)
    keys = [key_of(tag) for tag in ("x", "y", "z")]
    for key in keys:
        writer.put(key, CachedEntry(records=records_of(key)))
    # Oldest first: y, z, x — neither the write order nor the name order.
    for age, key in enumerate((keys[1], keys[2], keys[0])):
        stamp = (1_600_000_000 + age) * 10 ** 9
        os.utime(writer._disk_path(key), ns=(stamp, stamp))

    bounded = EvaluationCache(directory=directory, max_disk_entries=2)
    newest = key_of("w")
    bounded.put(newest, CachedEntry(records=records_of(newest)))
    assert bounded.stats.evictions == 2
    reader = EvaluationCache(directory=directory)
    assert [reader.get(key) is not None for key in keys + [newest]] == [
        True, False, False, True]


def test_a_failed_put_leaves_no_temp_file_and_no_entry(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    cache = EvaluationCache(directory=directory)
    key = key_of("doomed")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cache.put(key, CachedEntry(records=records_of(key)))
    monkeypatch.undo()
    assert not list(directory.rglob("*.tmp"))
    assert cache.disk_stats()["entries"] == 0
    assert EvaluationCache(directory=directory).get(key) is None


def test_a_leftover_fixed_name_temp_does_not_block_put(tmp_path):
    """Earlier versions staged every write of a key in ``<stem>.json.tmp``;
    whatever is left at that name — even a directory — must not fail a
    put of the key."""
    directory = tmp_path / "cache"
    key = key_of("blocked")
    shard, stem = _shard_and_name(key)
    (directory / shard / f"{stem}.json.tmp").mkdir(parents=True)
    EvaluationCache(directory=directory).put(key, CachedEntry(records=records_of(key)))
    assert EvaluationCache(directory=directory).get(key).records == records_of(key)


def test_cli_compact_deletes_leftover_index_files_and_nothing_else(tmp_path, capsys):
    directory = tmp_path / "cache"
    good = key_of("good")
    EvaluationCache(directory=directory).put(good, CachedEntry(records=records_of(good)))
    index = directory / "index.json"
    index.write_text(json.dumps({"entries": {good: {"file": "../outside.json"}}}),
                     encoding="utf-8")
    journal = directory / "index.evil.journal"
    journal.write_text("\n".join([
        "not json at all",
        json.dumps({"op": "del", "key": good}),
        json.dumps({"op": "put", "key": "esc", "file": "../outside.json"}),
        json.dumps({"op": "put", "key": "abs", "file": "/etc/passwd"}),
    ]) + "\n", encoding="utf-8")
    notes = directory / "NOTES.txt"
    notes.write_text("kept", encoding="utf-8")

    reader = EvaluationCache(directory=directory)
    assert reader.disk_stats()["entries"] == 1
    assert reader.get(good).records == records_of(good)
    assert cache_main(["compact", str(directory)]) == 0
    assert json.loads(capsys.readouterr().out)["entries_after_compact"] == 1
    assert not index.exists() and not journal.exists()
    assert notes.read_text(encoding="utf-8") == "kept"
    assert EvaluationCache(directory=directory).get(good).records == records_of(good)


def test_disk_stats_match_the_files_on_disk(tmp_path):
    """After any mix of writers, bounds and evictions, a fresh cache's
    entry and byte totals are exactly those of the files on disk."""
    directory = tmp_path / "cache"
    rng = random.Random(11)
    caches = [EvaluationCache(directory=directory, max_disk_entries=5),
              EvaluationCache(directory=directory, max_disk_bytes=900),
              EvaluationCache(directory=directory)]
    for _ in range(60):
        key = key_of(f"k{rng.randrange(10)}")
        rng.choice(caches).put(key, CachedEntry(records=records_of(key) * rng.randint(1, 3)))
    files = list(directory.rglob("*.json"))
    stats = EvaluationCache(directory=directory).disk_stats()
    assert stats["entries"] == len(files)
    assert stats["bytes"] == sum(p.stat().st_size for p in files)
