"""Unit tests for the design-space engine: grid, cache, executors, results."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro import ExperimentConfig, paper_experiment
from repro.analysis import sweep_table
from repro.analysis.sweep import SweepSeries, crossover_point, crossover_points
from repro.engine import (
    DesignSpace,
    EvaluationCache,
    Evaluator,
    ProcessExecutor,
    SerialExecutor,
    point_key,
    resolve_executor,
)
from repro.engine.cache import CACHE_SCHEMA_VERSION, CachedEntry, config_payload
from repro.errors import ConfigurationError, ReproError

SCHEMES = ["SC", "SDPC"]


@pytest.fixture(scope="module")
def small_results():
    """A 2x2 grid evaluated once, shared by the read-only query tests."""
    space = DesignSpace.grid({
        "temperature_celsius": [25.0, 110.0],
        "static_probability": [0.1, 0.9],
    })
    return Evaluator(scheme_names=SCHEMES).evaluate(space)


class TestDesignSpace:
    def test_grid_is_row_major_last_axis_fastest(self):
        space = DesignSpace.grid({"corner": ["SS", "FF"],
                                  "static_probability": [0.1, 0.9]})
        assert space.parameters == ("corner", "static_probability")
        assert [point.overrides for point in space.points()] == [
            {"corner": "SS", "static_probability": 0.1},
            {"corner": "SS", "static_probability": 0.9},
            {"corner": "FF", "static_probability": 0.1},
            {"corner": "FF", "static_probability": 0.9},
        ]
        assert len(space) == 4

    def test_explicit_point_list_preserves_order(self):
        space = DesignSpace.from_points([
            {"temperature_celsius": 110.0, "corner": "SS"},
            {"temperature_celsius": 25.0, "corner": "FF"},
        ])
        assert [point.overrides["corner"] for point in space.points()] == ["SS", "FF"]

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="sweepable"):
            DesignSpace.grid({"oxide_thickness": [1.0]})

    def test_rejects_empty_axis_and_empty_grid(self):
        with pytest.raises(ConfigurationError):
            DesignSpace.grid({"corner": []})
        with pytest.raises(ConfigurationError):
            DesignSpace.grid({})
        with pytest.raises(ConfigurationError):
            DesignSpace.from_points([])

    def test_rejects_ragged_point_list(self):
        with pytest.raises(ConfigurationError, match="same parameters"):
            DesignSpace.from_points([{"corner": "TT"},
                                     {"corner": "TT", "static_probability": 0.5}])

    def test_rejects_duplicate_spellings_of_one_path(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            DesignSpace.grid({"port_count": [3], "crossbar.port_count": [5]})
        with pytest.raises(ConfigurationError, match="duplicate"):
            DesignSpace.from_points([{"port_count": 3, "crossbar.port_count": 5}])

    def test_grid_accepts_one_shot_iterables(self):
        space = DesignSpace.grid({"corner": (c for c in ["TT", "SS"])})
        assert len(space) == 2
        assert [p.overrides["corner"] for p in space.points()] == ["TT", "SS"]

    def test_configs_surface_invalid_values_before_evaluation(self):
        space = DesignSpace.grid({"static_probability": [0.5, 1.5]})
        with pytest.raises(ConfigurationError):
            space.configs()


class TestCache:
    def test_key_is_stable_and_content_addressed(self):
        a = point_key(ExperimentConfig(), SCHEMES)
        b = point_key(ExperimentConfig(), list(SCHEMES))
        assert a == b and len(a) == 64
        assert point_key(ExperimentConfig(temperature_celsius=25.0), SCHEMES) != a
        assert point_key(ExperimentConfig(), ["SC"]) != a
        assert point_key(ExperimentConfig(), SCHEMES, baseline_name="SDPC") != a

    def test_hit_and_miss_accounting(self):
        cache = EvaluationCache()
        assert cache.get("k") is None
        cache.put("k", CachedEntry(records=[{"scheme": "SC"}]))
        assert cache.get("k").records == [{"scheme": "SC"}]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_disk_round_trip(self, tmp_path):
        directory = tmp_path / "cache"
        writer = EvaluationCache(directory=directory)
        writer.put("deadbeef", CachedEntry(records=[{"scheme": "SC", "x": 1.25}]))
        # Hex keys shard under their own two-char prefix.
        assert (directory / "de" / "deadbeef.json").is_file()
        assert sorted(p.name for p in directory.rglob("*")) == ["de", "deadbeef.json"]

        reader = EvaluationCache(directory=directory)
        entry = reader.get("deadbeef")
        assert entry is not None
        assert entry.records == [{"scheme": "SC", "x": 1.25}]
        assert reader.stats.disk_hits == 1

    def test_unsafe_keys_are_hashed_not_traversed(self, tmp_path):
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        hostile = "../../escape"
        cache.put(hostile, CachedEntry(records=[{"scheme": "SC"}]))
        # Nothing may be written outside the cache directory...
        assert not (tmp_path / "escape.json").exists()
        assert not (tmp_path.parent / "escape.json").exists()
        written = list(directory.rglob("*.json"))
        assert len(written) == 1
        assert directory in written[0].parents
        # ...and the entry still round-trips through a fresh instance.
        fresh = EvaluationCache(directory=directory)
        assert fresh.get(hostile).records == [{"scheme": "SC"}]

    def test_flat_pr1_layout_is_migrated_into_shards(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        key = "ab12cd34ef56ab12"
        payload = {"schema": 1, "key": key, "records": [{"scheme": "SC", "x": 2.5}]}
        (directory / f"{key}.json").write_text(json.dumps(payload), encoding="utf-8")

        cache = EvaluationCache(directory=directory)
        assert not (directory / f"{key}.json").exists()
        assert (directory / "ab" / f"{key}.json").is_file()
        assert cache.get(key).records == [{"scheme": "SC", "x": 2.5}]
        assert cache.stats.disk_hits == 1

    def test_eviction_keeps_most_recently_used(self, tmp_path):
        cache = EvaluationCache(directory=tmp_path / "cache", max_disk_entries=2)
        for key in ("aaaa1111", "bbbb2222", "cccc3333"):
            cache.put(key, CachedEntry(records=[{"scheme": key}]))
        assert cache.stats.evictions == 1
        fresh = EvaluationCache(directory=tmp_path / "cache", max_disk_entries=2)
        assert fresh.get("aaaa1111") is None  # oldest entry evicted
        assert fresh.get("bbbb2222") is not None
        assert fresh.get("cccc3333") is not None

    def test_byte_budget_evicts_least_recently_used(self, tmp_path):
        probe = EvaluationCache(directory=tmp_path / "probe")
        probe.put("aaaa1111", CachedEntry(records=[{"scheme": "SC"}]))
        per_entry = probe.disk_stats()["bytes"]
        assert per_entry > 0

        budget = per_entry * 2 + per_entry // 2  # fits exactly two entries
        cache = EvaluationCache(directory=tmp_path / "cache",
                                max_disk_bytes=budget)
        for key in ("aaaa1111", "bbbb2222", "cccc3333"):
            cache.put(key, CachedEntry(records=[{"scheme": "SC"}]))
        assert cache.stats.evictions == 1
        stats = cache.disk_stats()
        assert stats["bytes"] <= budget
        assert stats["max_disk_bytes"] == budget

        fresh = EvaluationCache(directory=tmp_path / "cache")
        assert fresh.get("aaaa1111") is None  # oldest paid for the budget
        assert fresh.get("bbbb2222") is not None
        assert fresh.get("cccc3333") is not None
        # The byte total survives a reopen (rebuilt from the index).
        assert fresh.disk_stats()["bytes"] <= budget

    def test_byte_budget_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EvaluationCache(directory=tmp_path, max_disk_bytes=0)

    def test_compact_drops_corrupt_entries_and_rebuilds_index(self, tmp_path):
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        cache.put("deadbeef", CachedEntry(records=[{"scheme": "SC"}]))
        (directory / "de" / "corrupt.json").write_text("{not json", encoding="utf-8")
        (directory / "de" / "stray.json.tmp").write_text("x", encoding="utf-8")
        (directory / "de" / "junkdir").mkdir()  # must be left alone, not crash
        assert cache.compact() == 1
        assert not (directory / "de" / "corrupt.json").exists()
        assert not (directory / "de" / "stray.json.tmp").exists()
        assert (directory / "de" / "junkdir").is_dir()
        fresh = EvaluationCache(directory=directory)
        assert fresh.get("deadbeef") is not None

    def test_leftover_index_files_never_steer_lookups_or_eviction(self, tmp_path):
        """index.json and journals from earlier versions are never read:
        hostile paths in them can neither alias keys, escape the
        directory, nor aim eviction; compact deletes them."""
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        cache.put("deadbeef", CachedEntry(records=[{"scheme": "A"}]))
        cache.put("cafecafe", CachedEntry(records=[{"scheme": "B"}]))
        outside = tmp_path / "outside.json"
        outside.write_text(json.dumps({"key": "aaaa1111",
                                       "records": [{"scheme": "EVIL"}]}),
                           encoding="utf-8")
        (directory / "index.json").write_text(json.dumps({"entries": {
            "deadbeef": {"file": "ca/cafecafe.json", "size": 1, "seq": 99},
            "cafecafe": {"file": "index.json", "size": 1, "seq": 0},
            "aaaa1111": {"file": str(outside), "seq": "oops"},
        }}), encoding="utf-8")
        (directory / "index.w.journal").write_text(
            json.dumps({"op": "del", "key": "deadbeef"}) + "\n{not json",
            encoding="utf-8")

        fresh = EvaluationCache(directory=directory, max_disk_entries=2)
        assert fresh.disk_stats()["entries"] == 2
        assert fresh.get("deadbeef").records == [{"scheme": "A"}]
        assert fresh.get("aaaa1111") is None
        fresh.flush_index()  # deadbeef is now the most recent
        fresh.put("bbbb2222", CachedEntry(records=[{"scheme": "C"}]))
        # Eviction removed the true LRU's canonical file, nothing else.
        assert not (directory / "ca" / "cafecafe.json").exists()
        assert (directory / "de" / "deadbeef.json").is_file()
        assert (directory / "index.json").is_file()
        assert outside.is_file()

        assert fresh.compact() == 2
        assert not (directory / "index.json").exists()
        assert not (directory / "index.w.journal").exists()

    def test_two_caches_on_one_directory_see_each_others_entries(self, tmp_path):
        """A cache opened before another writes still finds the entry on
        lookup, and from the next flush its bounds count it."""
        directory = tmp_path / "cache"
        reader = EvaluationCache(directory=directory, max_disk_entries=2)
        writer = EvaluationCache(directory=directory)
        writer.put("deadbeef", CachedEntry(records=[{"scheme": "SC"}]))
        assert reader.disk_stats()["entries"] == 0
        assert reader.get("deadbeef").records == [{"scheme": "SC"}]
        reader.flush_index()
        assert reader.disk_stats()["entries"] == 1
        reader.put("aaaa1111", CachedEntry(records=[{"scheme": "SC"}]))
        reader.put("bbbb2222", CachedEntry(records=[{"scheme": "SC"}]))
        assert not (directory / "de" / "deadbeef.json").exists()
        assert writer.get("aaaa1111") is not None

    def test_hostile_or_corrupt_index_is_distrusted(self, tmp_path):
        """Unparseable leftover index files neither break open nor pass
        for flat entries to migrate; the view is exactly the shard files."""
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        cache.put("deadbeef", CachedEntry(records=[{"scheme": "SC"}]))
        (directory / "index.json").write_text("{not json", encoding="utf-8")
        (directory / "index.a.journal").write_bytes(b"\xff\xfe\x00garbage")
        (directory / "index.b.journal").write_text(json.dumps(["a", "list"]),
                                                   encoding="utf-8")

        fresh = EvaluationCache(directory=directory)
        assert sorted(p.relative_to(directory).as_posix()
                      for p in directory.rglob("*.json")) == ["de/deadbeef.json",
                                                              "index.json"]
        stats = fresh.disk_stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == (directory / "de" / "deadbeef.json").stat().st_size
        assert fresh.get("deadbeef").records == [{"scheme": "SC"}]

    def test_eviction_cannot_be_misdirected_by_hostile_index(self, tmp_path):
        """Sizes and recency come from the entry files, never from a
        leftover index claiming other sizes, sequence numbers or paths."""
        directory = tmp_path / "cache"
        writer = EvaluationCache(directory=directory)
        writer.put("aaaa1111", CachedEntry(records=[{"scheme": "SC"}]))
        per_entry = writer.disk_stats()["bytes"]
        (directory / "index.json").write_text(json.dumps({"entries": {
            "aaaa1111": {"file": "index.json", "size": 10 ** 12, "seq": 10 ** 9},
        }}), encoding="utf-8")

        bounded = EvaluationCache(directory=directory, max_disk_bytes=per_entry * 2)
        assert bounded.disk_stats()["bytes"] == per_entry
        bounded.put("bbbb2222", CachedEntry(records=[{"scheme": "SC"}]))
        assert bounded.stats.evictions == 0
        bounded.put("cccc3333", CachedEntry(records=[{"scheme": "SC"}]))
        assert bounded.stats.evictions == 1
        # The true LRU's canonical file went, and nothing else.
        assert sorted(p.name for p in directory.rglob("*.json")) == [
            "bbbb2222.json", "cccc3333.json", "index.json"]

    def test_misdirected_index_entry_cannot_alias_keys(self, tmp_path):
        """A file at one key's path that holds another key's records is a
        miss for that key, whatever a leftover index says; the next put
        heals it."""
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        cache.put("deadbeef", CachedEntry(records=[{"scheme": "A"}]))
        cache.put("cafecafe", CachedEntry(records=[{"scheme": "B"}]))
        (directory / "de" / "deadbeef.json").write_bytes(
            (directory / "ca" / "cafecafe.json").read_bytes())
        (directory / "index.json").write_text(json.dumps({"entries": {
            "deadbeef": {"file": "ca/cafecafe.json"}}}), encoding="utf-8")

        fresh = EvaluationCache(directory=directory)
        assert fresh.get("deadbeef") is None
        assert fresh.get("cafecafe").records == [{"scheme": "B"}]
        fresh.put("deadbeef", CachedEntry(records=[{"scheme": "A"}]))
        healed = EvaluationCache(directory=directory)
        assert healed.get("deadbeef").records == [{"scheme": "A"}]

    def test_unindexed_entries_are_adopted_on_lookup(self, tmp_path):
        """Entries another session wrote after this cache opened, and
        never flushed, join its view when a lookup finds them (from the
        next flush) or when it compacts."""
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        crashed = EvaluationCache(directory=directory)
        crashed.put("aaaa1111", CachedEntry(records=[{"scheme": "SC"}]))
        crashed.put("bbbb2222", CachedEntry(records=[{"scheme": "SC"}]))

        assert cache.get("aaaa1111") is not None
        assert cache.disk_stats()["entries"] == 0  # queued until the flush
        cache.flush_index()
        assert cache.disk_stats()["entries"] == 1
        assert cache.compact() == 2
        assert cache.disk_stats()["bytes"] == sum(
            p.stat().st_size for p in directory.rglob("*.json"))

    def test_index_writes_are_batched_until_flush(self, tmp_path):
        """A disk hit leaves the entry file alone; flush_index re-stamps
        its mtime once, and a flush with no hits queued writes nothing."""
        directory = tmp_path / "cache"
        EvaluationCache(directory=directory).put(
            "deadbeef", CachedEntry(records=[{"scheme": "SC"}]))
        path = directory / "de" / "deadbeef.json"
        old = 1_600_000_000 * 10 ** 9
        os.utime(path, ns=(old, old))

        cache = EvaluationCache(directory=directory)
        assert cache.get("deadbeef") is not None
        assert path.stat().st_mtime_ns == old
        cache.flush_index()
        stamped = path.stat().st_mtime_ns
        assert stamped > old
        cache.flush_index()
        assert path.stat().st_mtime_ns == stamped

    def test_disk_hit_recency_survives_sessions(self, tmp_path):
        directory = tmp_path / "cache"
        writer = EvaluationCache(directory=directory)
        writer.put("aaaa1111", CachedEntry(records=[{"scheme": "SC"}]))
        writer.put("bbbb2222", CachedEntry(records=[{"scheme": "SC"}]))
        writer.flush_index()
        # A hit-only session touches the older entry and flushes.
        warm = EvaluationCache(directory=directory)
        assert warm.get("aaaa1111") is not None
        warm.flush_index()
        # A later bounded session must evict the true LRU (bbbb2222).
        bounded = EvaluationCache(directory=directory, max_disk_entries=2)
        bounded.put("cccc3333", CachedEntry(records=[{"scheme": "SC"}]))
        fresh = EvaluationCache(directory=directory)
        assert fresh.get("aaaa1111") is not None
        assert fresh.get("bbbb2222") is None

    def test_nested_config_round_trips_through_disk(self, tmp_path):
        nested = ExperimentConfig().with_overrides(**{
            "crossbar.port_count": 7,
            "noc.link_length": 2.0e-3,
        })
        key = point_key(nested, SCHEMES)
        writer = EvaluationCache(directory=tmp_path / "cache")
        writer.put(key, CachedEntry(records=[{"scheme": "SC", "p": 7}]))
        reader = EvaluationCache(directory=tmp_path / "cache")
        assert reader.get(key).records == [{"scheme": "SC", "p": 7}]

    def test_key_ignores_default_extension_fields(self, monkeypatch):
        """Flat-only points keep their PR-1 cache keys: the optional noc
        branch and new crossbar fields only enter the key when set."""
        import repro

        # Pin the version the golden hash was captured under, so routine
        # version bumps (an *intended* invalidation) don't fail this test.
        monkeypatch.setattr(repro, "__version__", "1.0.0")
        base = point_key(ExperimentConfig(), SCHEMES)
        assert base == ("bd609d6dacd12aac0807b920269863c91337550c30a095"
                        "bd5c61f573ec6c500d")  # golden, captured pre-refactor
        explicit_defaults = ExperimentConfig().with_overrides(**{
            "crossbar.input_buffer_depth": 4})
        assert point_key(explicit_defaults, SCHEMES) == base
        assert point_key(ExperimentConfig().with_overrides(**{
            "crossbar.input_buffer_depth": 8}), SCHEMES) != base
        assert point_key(ExperimentConfig().with_overrides(**{
            "noc.buffer_depth": 4}), SCHEMES) != base  # branch materialised

    def test_key_hashes_the_canonical_config_payload(self):
        """point_key assembles its canonical text piecewise; it must hash
        exactly the sorted-key JSON of config_payload — including for
        values equal but differently serialised (1 vs 1.0), for a fresh
        sub-config object equal to one already keyed, and when the same
        sub-config object is keyed again."""
        import hashlib

        import repro
        from repro.crossbar import CrossbarConfig

        def reference(config, schemes, baseline="SC"):
            payload = {"schema": CACHE_SCHEMA_VERSION,
                       "model_version": repro.__version__,
                       "config": config_payload(config),
                       "schemes": list(schemes), "baseline": baseline}
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              default=repr)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        base = ExperimentConfig()
        configs = [
            base,
            base.with_overrides(static_probability=0.125, toggle_activity=1.0),
            base.with_overrides(**{"crossbar.port_count": 7,
                                   "noc.link_length": 2.0e-3}),
            base.with_overrides(**{"crossbar.input_buffer_depth": 8}),
            base.with_overrides(**{"crossbar.layout_overhead": 1}),
            base.with_overrides(**{"crossbar.layout_overhead": 1.0}),
            ExperimentConfig(crossbar=CrossbarConfig()),
        ]
        assert configs[-1].crossbar is not base.crossbar
        assert point_key(configs[-1], SCHEMES) == point_key(base, SCHEMES)
        for config in configs + configs:
            for schemes, baseline in ((SCHEMES, "SC"), (["SDPC", "SC"], "SDPC")):
                assert point_key(config, schemes, baseline) == \
                    reference(config, schemes, baseline)

    def test_scalar_fast_path_spells_values_like_json_dumps(self):
        import enum

        from repro.engine.cache import _canonical_json

        class Level(enum.IntEnum):
            HIGH = 3

        values = ["45nm", "tempér\u00e9\n\"", "", 0, -7, 2**70, True, False, None,
                  0.1, 1.0, -0.0, 1e-300, 3.0e9, float("inf"), float("-inf"),
                  float("nan"), Level.HIGH, ["SC", "DFC"], {"b": 1, "a": [1.5, None]}]
        for value in values:
            assert _canonical_json(value) == json.dumps(
                value, sort_keys=True, separators=(",", ":"), default=repr), value

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = tmp_path / "cache"
        cache = EvaluationCache(directory=directory)
        (directory / "bad.json").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None
        assert cache.stats.misses == 1


class TestExecutors:
    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)
        serial = SerialExecutor()
        assert resolve_executor(serial) is serial
        with pytest.raises(ConfigurationError):
            resolve_executor("threads")

    def test_process_parity_with_serial(self):
        space = DesignSpace.grid({"static_probability": [0.2, 0.8],
                                  "temperature_celsius": [25.0, 110.0]})
        serial = Evaluator(scheme_names=SCHEMES, executor="serial").evaluate(space)
        process = Evaluator(scheme_names=SCHEMES,
                            executor=ProcessExecutor(max_workers=2)).evaluate(space)
        assert [p.records for p in process] == [p.records for p in serial]

    def test_invalid_worker_and_chunk_counts(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessExecutor(chunksize=0)

    def test_pool_spawns_off_the_main_thread(self):
        """Forking a multithreaded process is unsafe, so a pool created
        from another thread (the service's flushes) uses spawn; the main
        thread keeps the platform default."""
        def start_method(executor):
            return executor._ensure_pool()._mp_context.get_start_method()

        with ProcessExecutor(max_workers=1) as executor:
            assert start_method(executor) == multiprocessing.get_context().get_start_method()
        seen = []
        with ProcessExecutor(max_workers=1) as executor:
            thread = threading.Thread(target=lambda: seen.append(start_method(executor)))
            thread.start()
            thread.join()
        assert seen == ["spawn"]


class TestEvaluator:
    def test_second_run_hits_cache_on_every_point(self):
        space = DesignSpace.grid({"static_probability": [0.3, 0.7]})
        evaluator = Evaluator(scheme_names=SCHEMES)
        first = evaluator.evaluate(space)
        assert first.cache_hit_count == 0
        second = evaluator.evaluate(space)
        assert second.cache_hit_count == len(space)
        assert [p.records for p in second] == [p.records for p in first]

    def test_overlapping_grids_share_points(self):
        evaluator = Evaluator(scheme_names=SCHEMES)
        evaluator.evaluate(DesignSpace.grid({"static_probability": [0.3, 0.5]}))
        widened = evaluator.evaluate(
            DesignSpace.grid({"static_probability": [0.3, 0.5, 0.7]}))
        assert widened.cache_hit_count == 2

    def test_duplicate_points_in_one_batch_evaluated_once(self):
        space = DesignSpace.from_points([{"corner": "TT"}, {"corner": "TT"}])
        evaluator = Evaluator(scheme_names=SCHEMES)
        results = evaluator.evaluate(space)
        assert evaluator.cache.stats.puts == 1
        assert results.points[0].records == results.points[1].records

    def test_disk_cache_survives_new_evaluator(self, tmp_path):
        space = DesignSpace.grid({"static_probability": [0.4]})
        first = Evaluator(scheme_names=SCHEMES, cache_dir=tmp_path)
        first.evaluate(space)
        second = Evaluator(scheme_names=SCHEMES, cache_dir=tmp_path)
        results = second.evaluate(space)
        assert results.cache_hit_count == 1
        assert second.cache.stats.disk_hits == 1

    def test_short_executor_fails_the_batch_before_caching(self):
        class ShortExecutor:
            """Returns one result too few — a broken pluggable executor."""

            name = "short"

            def run(self, items):
                return SerialExecutor().run(items)[:-1]

        evaluator = Evaluator(scheme_names=SCHEMES, executor=ShortExecutor())
        space = DesignSpace.grid({"static_probability": [0.15, 0.85]})
        with pytest.raises(RuntimeError, match="returned 1 results for 2 items"):
            evaluator.evaluate(space)
        assert len(evaluator.cache) == 0
        assert evaluator.cache.stats.puts == 0

    def test_failing_cache_writes_do_not_lose_results(self):
        class FailingPutCache(EvaluationCache):
            """Cache whose writes always fail (a full disk)."""

            def put(self, key, entry):
                raise OSError(28, "No space left on device")

        evaluator = Evaluator(scheme_names=SCHEMES, cache=FailingPutCache())
        space = DesignSpace.grid({"static_probability": [0.2, 0.4, 0.6]})
        results = evaluator.evaluate(space)
        assert len(results) == 3
        expected = Evaluator(scheme_names=SCHEMES).evaluate(space)
        assert [p.records for p in results] == [p.records for p in expected]
        assert evaluator.cache_write_failures == 3

    def test_string_specs_are_owned_and_objects_borrowed(self, monkeypatch):
        closed = []
        monkeypatch.setattr(SerialExecutor, "close",
                            lambda executor: closed.append(executor),
                            raising=False)
        space = DesignSpace.grid({"static_probability": [0.5]})
        with Evaluator(scheme_names=SCHEMES, executor="serial") as owner:
            owner.evaluate(space)
            owner.evaluate(DesignSpace.grid({"static_probability": [0.6]}))
            built = owner.executors()
        assert len(built) == 1 and closed == built  # one instance, closed once
        borrowed = SerialExecutor()
        with Evaluator(scheme_names=SCHEMES, executor=borrowed) as borrower:
            borrower.evaluate(space)
            assert borrower.executors() == [borrowed]
        assert closed == built  # the borrowed executor stays open

    def test_baseline_must_be_evaluated(self):
        with pytest.raises(ConfigurationError):
            Evaluator(scheme_names=["DFC", "DPC"])

    def test_base_config_is_respected(self):
        space = DesignSpace.grid({"static_probability": [0.5]})
        hot = Evaluator(base_config=paper_experiment().with_overrides(
            temperature_celsius=150.0), scheme_names=SCHEMES).evaluate(space)
        default = Evaluator(scheme_names=SCHEMES).evaluate(space)
        assert (hot.points[0].value("SC", "active_leakage_mw")
                > default.points[0].value("SC", "active_leakage_mw"))


class TestResultSet:
    def test_filter_and_series(self, small_results):
        sliced = small_results.filter(temperature_celsius=110.0)
        assert len(sliced) == 2
        series = sliced.series("SDPC", "total_power_mw", axis="static_probability")
        assert [value for value, _ in series] == [0.1, 0.9]
        assert all(power > 0 for _, power in series)

    def test_series_needs_axis_for_multi_parameter_sets(self, small_results):
        with pytest.raises(ConfigurationError):
            small_results.series("SC", "total_power_mw")

    def test_unknown_scheme_metric_and_parameter_rejected(self, small_results):
        with pytest.raises(ConfigurationError):
            small_results.points[0].value("XYZ", "total_power_mw")
        with pytest.raises(ConfigurationError):
            small_results.points[0].value("SC", "bogus_metric")
        with pytest.raises(ConfigurationError):
            small_results.filter(corner="TT")

    def test_pareto_front(self, small_results):
        front = small_results.pareto_front("SC", ["total_power_mw", "high_to_low_ps"])
        assert front
        # Every non-front point must be dominated by some front point.
        for point in small_results:
            if point in front:
                continue
            assert any(
                other.value("SC", "total_power_mw") <= point.value("SC", "total_power_mw")
                and other.value("SC", "high_to_low_ps") <= point.value("SC", "high_to_low_ps")
                for other in front
            )

    def test_pareto_front_respects_sense(self, small_results):
        best_saving = max(point.value("SDPC", "active_leakage_saving_percent")
                          for point in small_results)
        front = small_results.pareto_front(
            "SDPC", ["active_leakage_saving_percent"], minimize=[False])
        assert all(point.value("SDPC", "active_leakage_saving_percent") == best_saving
                   for point in front)

    def test_to_records_is_json_safe(self, small_results):
        rows = small_results.to_records()
        assert len(rows) == len(small_results) * len(SCHEMES)
        json.dumps(rows)

    def test_sweep_table_requires_singleton_other_axes(self, small_results):
        with pytest.raises(ConfigurationError, match="filter"):
            sweep_table(small_results, SCHEMES, "total_power_mw",
                        axis="static_probability")
        text = sweep_table(small_results.filter(temperature_celsius=25.0),
                           SCHEMES, "total_power_mw", axis="static_probability")
        assert "SDPC" in text and "0.9" in text


class TestNestedAxes:
    """Dotted config paths swept end-to-end through the engine."""

    @pytest.fixture(scope="class")
    def radix_results(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("radix-cache")
        evaluator = Evaluator(scheme_names=SCHEMES, cache_dir=cache_dir)
        results = evaluator.evaluate_grid({
            "crossbar.port_count": [3, 5, 8],
            "technology_node": ["65nm", "45nm"],
        })
        return evaluator, results, cache_dir

    def test_grid_order_and_configs(self, radix_results):
        _, results, _ = radix_results
        assert results.parameters == ("crossbar.port_count", "technology_node")
        assert [p.overrides["crossbar.port_count"] for p in results] == \
            [3, 3, 5, 5, 8, 8]
        assert [p.config.crossbar.port_count for p in results] == [3, 3, 5, 5, 8, 8]
        assert [p.config.technology_node for p in results] == \
            ["65nm", "45nm"] * 3
        # More ports -> more crosspoints -> more leakage, all else equal.
        at_45 = results.filter(technology_node="45nm")
        leakages = [p.value("SC", "active_leakage_mw") for p in at_45]
        assert leakages == sorted(leakages) and leakages[0] < leakages[-1]

    def test_second_run_hits_sharded_disk_cache(self, radix_results):
        _, first, cache_dir = radix_results
        fresh = Evaluator(scheme_names=SCHEMES, cache_dir=cache_dir)
        rerun = fresh.evaluate_grid({
            "crossbar.port_count": [3, 5, 8],
            "technology_node": ["65nm", "45nm"],
        })
        assert rerun.cache_hit_count == len(rerun) == 6
        assert fresh.cache.stats.disk_hits == 6
        assert [p.records for p in rerun] == [p.records for p in first]

    def test_series_filter_and_table_accept_dotted_names(self, radix_results):
        _, results, _ = radix_results
        series = results.filter(technology_node="45nm").series(
            "SDPC", "total_power_mw", axis="crossbar.port_count")
        assert [value for value, _ in series] == [3, 5, 8]
        # The unambiguous leaf alias resolves to the same axis.
        alias = results.filter(technology_node="45nm").series(
            "SDPC", "total_power_mw", axis="port_count")
        assert alias == series
        text = sweep_table(results.filter(technology_node="45nm"), SCHEMES,
                           "total_power_mw", axis="crossbar.port_count")
        assert "SDPC" in text and "8" in text
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            results.series("SC", "total_power_mw", axis="flit_width")
        with pytest.raises(ConfigurationError, match="twice"):
            results.filter(port_count=3, **{"crossbar.port_count": 5})

    def test_alias_and_dotted_spellings_share_cache_keys(self):
        evaluator = Evaluator(scheme_names=SCHEMES)
        evaluator.evaluate_grid({"port_count": [3]})
        rerun = evaluator.evaluate_grid({"crossbar.port_count": [3]})
        assert rerun.cache_hit_count == 1

    def test_invalid_nested_value_names_the_path(self):
        space = DesignSpace.grid({"crossbar.port_count": [1]})
        with pytest.raises(ReproError, match="crossbar.port_count"):
            space.configs()

    def test_noc_axis_materialises_branch(self):
        space = DesignSpace.grid({"noc.link_length": [1.0e-3, 2.0e-3]})
        configs = space.configs()
        assert [c.noc.link_length for c in configs] == [1.0e-3, 2.0e-3]

    def test_flat_sweep_tables_unchanged_by_path_refactor(self):
        """Flat-field sweeps must render byte-identically whether driven
        through sweep_parameter or the engine grid (same points, same
        order, same cache identity)."""
        from repro import sweep_parameter

        values = [0.2, 0.8]
        legacy = sweep_parameter("static_probability", values,
                                 scheme_names=SCHEMES)
        legacy_series = legacy.series("SDPC", "total_power_mw")
        results = Evaluator(scheme_names=SCHEMES).evaluate_grid(
            {"static_probability": values})
        engine_series = results.series("SDPC", "total_power_mw")
        assert legacy_series == engine_series


class TestStructuralMemoisation:
    def test_schemes_reused_across_non_structural_points(self):
        from repro.core.scheme_evaluator import (
            clear_structural_cache,
            structural_cache_stats,
        )

        clear_structural_cache()
        Evaluator(scheme_names=SCHEMES).evaluate_grid(
            {"static_probability": [0.1, 0.5, 0.9],
             "toggle_activity": [0.3, 0.7]})
        stats = structural_cache_stats()
        # One library and one build per scheme for all six points.
        assert stats.library_misses == 1
        assert stats.scheme_misses == len(SCHEMES)
        assert stats.scheme_hits == (6 - 1) * len(SCHEMES)

    def test_structural_axes_rebuild(self):
        from repro.core.scheme_evaluator import (
            clear_structural_cache,
            structural_cache_stats,
        )

        clear_structural_cache()
        Evaluator(scheme_names=SCHEMES).evaluate_grid(
            {"crossbar.flit_width": [32, 64]})
        stats = structural_cache_stats()
        assert stats.scheme_misses == 2 * len(SCHEMES)
        assert stats.library_misses == 1  # same technology point throughout


class TestCrossoverBugfix:
    def test_multiple_crossings_are_reported_not_swallowed(self):
        xs = (0.0, 1.0, 2.0, 3.0)
        wave = SweepSeries("wave", xs, (-1.0, 1.0, -1.0, 1.0))
        flat = SweepSeries("flat", xs, (0.0, 0.0, 0.0, 0.0))
        assert crossover_points(wave, flat) == (0.5, 1.5, 2.5)
        with pytest.raises(ReproError, match="3 times"):
            crossover_point(wave, flat)

    def test_single_crossing_still_returned(self):
        a = SweepSeries("a", (0.0, 1.0), (0.0, 2.0))
        b = SweepSeries("b", (0.0, 1.0), (1.0, 1.0))
        assert crossover_point(a, b) == pytest.approx(0.5)

    def test_nan_values_rejected(self):
        with pytest.raises(ReproError, match="NaN"):
            SweepSeries("bad", (0.0, 1.0), (0.0, float("nan")))
        with pytest.raises(ReproError, match="NaN"):
            SweepSeries("bad", (float("nan"), 1.0), (0.0, 1.0))
