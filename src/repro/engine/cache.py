"""Content-addressed cache for design-point evaluations.

Every evaluation is keyed by a canonical hash of the full
:class:`~repro.core.config.ExperimentConfig` (including the nested
crossbar and optional noc sub-configs), the evaluated scheme set, the
baseline, and the model version — so two points that happen to coincide
(overlapping sweeps, benchmark re-runs, a grid revisited with a wider
axis) are evaluated once.  The cache is in-memory by default and
optionally persists the JSON-safe comparison records to a directory.

Disk layout
-----------
Entries are sharded into 256 two-hex-char prefix directories
(``<dir>/ab/<key>.json``) so million-point spaces never degrade on a
single directory scan, with an ``index.json`` recording every entry's
location, size and last-use sequence number.  Keys that are not
filesystem-safe content hashes (anything beyond lowercase hex — in
particular keys containing path separators) are stored under the SHA-256
of the key instead of the key itself, so a hostile or merely unusual key
can never escape the cache directory.  The flat one-file-per-key layout
written by earlier versions is migrated into the shards on first open.

When ``max_disk_entries`` and/or ``max_disk_bytes`` is set, an LRU
eviction pass runs after each write: the entry-count bound caps how many
entries the shards hold, and the byte budget caps their total payload
size using the per-entry sizes the index records.
:meth:`EvaluationCache.compact` re-scans the shards, drops corrupt or
orphaned files, rebuilds the index and enforces both bounds in one
sweep.  ``python -m repro.engine.cache stats|compact DIR`` (with
``--max-entries`` / ``--max-bytes`` on ``compact``) exposes all of it to
the shell for long-lived shared caches (see :func:`main`).

Multi-writer journaling
-----------------------
``index.json`` is rewritten whole, so two processes writing the same
directory (two services on a network mount, a coordinator next to an
offline sweep) would race last-writer-wins on each other's bookkeeping.
A cache opened with a ``writer_id`` therefore never rewrites
``index.json``: it *appends* its puts and evictions, one JSON record
per line, to its own ``index.<writer_id>.journal``.  Readers merge
``index.json`` plus every journal at open, so each writer's entries are
visible everywhere without any write contention; a line truncated by a
crash mid-append is simply skipped (the entry itself is still found by
the canonical shard probe and re-adopted).  :meth:`EvaluationCache.compact`
folds the journals back into a rebuilt ``index.json`` and deletes them —
run it periodically (or via the CLI) when writers are quiescent.  LRU
recency across writers is approximate: per-writer sequence numbers only
order entries within one journal, which can skew *which* entry a
bounded cache evicts first, never correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..core.comparison import SchemeComparison
from ..core.config import ExperimentConfig
from ..errors import ConfigurationError

__all__ = ["CACHE_SCHEMA_VERSION", "config_payload", "point_key", "CacheStats",
           "CachedEntry", "EvaluationCache", "main"]

#: Bump when the cached record layout changes; invalidates old disk entries.
CACHE_SCHEMA_VERSION = 1

#: Name of the shard index file inside a cache directory.
INDEX_FILENAME = "index.json"

#: ``put`` rewrites the index at most once per this many entries; call
#: :meth:`EvaluationCache.flush_index` at batch boundaries for the rest.
INDEX_WRITE_INTERVAL = 64

#: Journal files of all writers sharing one directory.
JOURNAL_GLOB = "index.*.journal"

#: Writer ids become journal file names; keep them filesystem-safe.
_WRITER_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Keys matching this are content hashes, safe to use as file names and
#: sharded by their own first two characters.
_HEX_KEY = re.compile(r"[0-9a-f]{8,128}")

#: Fields added to the config tree after PR 1, with the default values
#: under which they are omitted from the canonical key payload.  This
#: keeps keys (and therefore existing disk caches) byte-identical for
#: every point that does not use the new structure.
_ROOT_EXTENSION_DEFAULTS: dict[str, object] = {"noc": None}
_CROSSBAR_EXTENSION_DEFAULTS: dict[str, object] = {"input_buffer_depth": 4}


def config_payload(config: ExperimentConfig) -> dict:
    """JSON-safe nested dict of ``config`` for canonical hashing.

    Post-PR-1 extension fields are omitted while they hold their
    defaults, so flat-only points keep the keys they have always had.
    :func:`point_key` hashes exactly this payload's canonical JSON, built
    piecewise so sub-configs shared between points are serialised once.
    """
    payload = dataclasses.asdict(config)
    for name, default in _ROOT_EXTENSION_DEFAULTS.items():
        if payload.get(name) == default:
            payload.pop(name, None)
    crossbar = payload.get("crossbar")
    if isinstance(crossbar, dict):
        for name, default in _CROSSBAR_EXTENSION_DEFAULTS.items():
            if crossbar.get(name) == default:
                crossbar.pop(name, None)
    return payload


def point_key(config: ExperimentConfig, scheme_names: Sequence[str],
              baseline_name: str = "SC") -> str:
    """Canonical content hash of one evaluation point.

    The key covers everything the result depends on: the experiment
    configuration (including the nested crossbar sizing and, when set,
    the noc branch), the scheme list *in order* (record order follows
    it), the baseline, the model version and the cache schema version.
    """
    from .. import __version__

    # The canonical text of {"baseline", "config", "model_version",
    # "schema", "schemes"} with sorted keys, assembled from parts so the
    # config's sub-configs are serialised once rather than per point.
    canonical = (
        '{"baseline":' + _canonical_json(baseline_name)
        + ',"config":' + _config_text(config)
        + ',"model_version":' + _canonical_json(__version__)
        + ',"schema":' + _canonical_json(CACHE_SCHEMA_VERSION)
        + ',"schemes":' + _canonical_json(list(scheme_names))
        + "}"
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_json(value) -> str:
    """``value`` in the canonical JSON form every key is hashed from."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


#: Canonical text of recently keyed sub-configs, by identity.  Each entry
#: holds the sub-config itself, so its id cannot be reused while cached;
#: equality is not enough (``1 == 1.0`` but they serialise differently).
_SUBCONFIG_TEXT: dict[int, tuple[object, str]] = {}
_SUBCONFIG_TEXT_MAX = 256

#: Top-level config fields in canonical (sorted) key order.
_CONFIG_FIELD_NAMES = tuple(sorted(f.name for f in dataclasses.fields(ExperimentConfig)))


def _subconfig_text(subconfig, extension_defaults: dict[str, object]) -> str:
    """Canonical text of one frozen sub-config (e.g. the crossbar), cached."""
    cached = _SUBCONFIG_TEXT.get(id(subconfig))
    if cached is not None and cached[0] is subconfig:
        return cached[1]
    payload = dataclasses.asdict(subconfig)
    for name, default in extension_defaults.items():
        if payload.get(name) == default:
            payload.pop(name, None)
    text = _canonical_json(payload)
    if len(_SUBCONFIG_TEXT) >= _SUBCONFIG_TEXT_MAX:
        _SUBCONFIG_TEXT.clear()
    _SUBCONFIG_TEXT[id(subconfig)] = (subconfig, text)
    return text


def _config_text(config: ExperimentConfig) -> str:
    """``_canonical_json(config_payload(config))``, without the deep copy."""
    parts = []
    for name in _CONFIG_FIELD_NAMES:
        value = getattr(config, name)
        if name in _ROOT_EXTENSION_DEFAULTS and value == _ROOT_EXTENSION_DEFAULTS[name]:
            continue
        if dataclasses.is_dataclass(value):
            defaults = _CROSSBAR_EXTENSION_DEFAULTS if name == "crossbar" else {}
            text = _subconfig_text(value, defaults)
        else:
            text = _canonical_json(value)
        parts.append(f'"{name}":{text}')
    return "{" + ",".join(parts) + "}"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    memory_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class CachedEntry:
    """One cached evaluation: JSON-safe records plus, when the point was
    evaluated in this process, the live comparison object."""

    records: list[dict]
    comparison: SchemeComparison | None = None


def _shard_and_name(key: str) -> tuple[str, str]:
    """(shard directory, file stem) for one key.

    Content-hash keys shard by their own two-hex-char prefix; any other
    key — too short, mixed case, or containing path separators — is
    replaced by its SHA-256, which both sanitises the file name and
    gives it a uniform shard.
    """
    if _HEX_KEY.fullmatch(key):
        return key[:2], key
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return digest[:2], digest


#: File stems that are safe to look up in the legacy flat layout.
_LEGACY_SAFE = re.compile(r"[A-Za-z0-9_-]{1,200}")


@dataclass
class EvaluationCache:
    """In-memory, optionally disk-backed store of evaluated points.

    ``max_disk_entries`` bounds the sharded store by entry count and
    ``max_disk_bytes`` by total payload bytes (per-entry sizes from the
    index); ``None`` means unbounded, and both may be set together.
    The bounds are enforced LRU-wise, after each write, over the
    entries the index knows about: files left by a session that
    crashed before flushing its index batch are adopted when a lookup
    touches them, and :meth:`compact` reconciles everything on disk.

    ``max_memory_entries`` likewise bounds the in-memory layer LRU-wise
    (``None`` = unbounded) — long-lived holders such as the evaluation
    service should set it so a scan over millions of distinct points
    cannot exhaust RAM; evicted entries remain served from disk when a
    directory is configured.

    ``writer_id`` switches index persistence to per-writer journaling
    (see the module docstring): this writer appends to
    ``index.<writer_id>.journal`` instead of rewriting the shared
    ``index.json``, making concurrent writers on one directory safe.
    Every open still *merges* all journals it finds, writer id or not.
    """

    directory: Path | None = None
    max_disk_entries: int | None = None
    max_disk_bytes: int | None = None
    max_memory_entries: int | None = None
    writer_id: str | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_disk_entries is not None and self.max_disk_entries < 1:
            raise ConfigurationError("max_disk_entries must be at least 1")
        if self.max_disk_bytes is not None and self.max_disk_bytes < 1:
            raise ConfigurationError("max_disk_bytes must be at least 1")
        if self.max_memory_entries is not None and self.max_memory_entries < 1:
            raise ConfigurationError("max_memory_entries must be at least 1")
        if self.writer_id is not None:
            if self.directory is None:
                raise ConfigurationError("writer_id requires a cache directory")
            if not _WRITER_ID.fullmatch(self.writer_id):
                raise ConfigurationError(
                    f"writer_id {self.writer_id!r} must be 1-64 characters of "
                    "[A-Za-z0-9_.-] and start alphanumeric"
                )
        self._memory: dict[str, CachedEntry] = {}
        self._index: dict[str, dict] = {}
        self._index_bytes = 0
        self._sequence = 0
        self._index_dirty = False
        self._puts_since_index_write = 0
        self._journal_pending: list[dict] = []
        self._legacy_possible = False
        if self.directory is not None:
            self.directory = Path(self.directory)
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_index()
            self._migrate_flat_layout()

    def __len__(self) -> int:
        """Number of entries in the in-memory layer."""
        return len(self._memory)

    # -- disk layout -------------------------------------------------------------
    @property
    def _index_path(self) -> Path:
        assert self.directory is not None
        return self.directory / INDEX_FILENAME

    def _disk_path(self, key: str) -> Path:
        """Sharded, sanitised location of one key's entry file."""
        assert self.directory is not None
        shard, name = _shard_and_name(key)
        return self.directory / shard / f"{name}.json"

    def _legacy_path(self, key: str) -> Path | None:
        """Pre-shard flat location, only for keys that cannot traverse."""
        assert self.directory is not None
        if not _LEGACY_SAFE.fullmatch(key):
            return None
        return self.directory / f"{key}.json"

    @staticmethod
    def _sane_index_file(name: str) -> bool:
        """True when an on-disk index 'file' value stays inside the cache
        directory: relative, no parent traversal, no absolute override
        (``dir / "/abs"`` discards ``dir`` entirely)."""
        path = Path(name)
        return not path.is_absolute() and ".." not in path.parts

    @property
    def _journal_path(self) -> Path:
        assert self.directory is not None and self.writer_id is not None
        return self.directory / f"index.{self.writer_id}.journal"

    @staticmethod
    def _sanitised_meta(meta: object) -> dict | None:
        """A clean ``{file, size, seq}`` dict, or ``None`` for garbage."""
        if not (isinstance(meta, dict) and isinstance(meta.get("file"), str)):
            return None
        if not EvaluationCache._sane_index_file(meta["file"]):
            return None
        seq = meta.get("seq", 0)
        size = meta.get("size", 0)
        return {
            "file": meta["file"],
            "size": size if isinstance(size, int) else 0,
            "seq": seq if isinstance(seq, int) else 0,
        }

    def _merge_journals(self, loaded: dict[str, dict]) -> None:
        """Apply every writer's journal to ``loaded``, in journal-name
        order then line order.  Journals are as untrusted as the index:
        malformed lines — including the half-written line a crash
        mid-append leaves behind — are skipped."""
        assert self.directory is not None
        for journal in sorted(self.directory.glob(JOURNAL_GLOB)):
            try:
                text = journal.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                op = record.get("op", "put")
                if op == "del":
                    loaded.pop(key, None)
                    continue
                if op != "put":
                    continue
                meta = self._sanitised_meta(record)
                if meta is not None:
                    loaded[key] = meta

    def _load_index(self) -> None:
        """Best-effort load of ``index.json`` plus every writer journal:
        the index is untrusted — malformed entries are dropped and a
        corrupt file is simply ignored (``get`` probes the canonical
        shard path anyway, and :meth:`compact` rebuilds)."""
        loaded: dict[str, dict] = {}
        try:
            payload = json.loads(self._index_path.read_text(encoding="utf-8"))
            entries = payload["entries"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            entries = {}
        if isinstance(entries, dict):
            for key, meta in entries.items():
                meta = self._sanitised_meta(meta)
                if meta is not None:
                    loaded[key] = meta
        self._merge_journals(loaded)
        if not loaded:
            return
        # The in-memory index is kept in recency order (oldest first) so
        # eviction is O(1); restore that invariant from the stored seqs.
        # Across writers the per-journal seqs interleave arbitrarily —
        # recency is approximate, which only biases LRU choice.
        self._index = dict(sorted(loaded.items(), key=lambda kv: kv[1]["seq"]))
        self._index_bytes = sum(meta["size"] for meta in self._index.values())
        self._sequence = max(
            (meta["seq"] for meta in self._index.values()), default=0
        )

    def _write_index(self) -> None:
        assert self.directory is not None
        payload = {"schema": CACHE_SCHEMA_VERSION, "entries": self._index}
        tmp = self._index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self._index_path)
        self._index_dirty = False
        self._puts_since_index_write = 0

    def _append_journal(self) -> None:
        """Flush buffered put/del records to this writer's journal.

        Append-only and line-framed: concurrent writers each own their
        file, and a reader that races an append at worst skips the
        still-partial last line."""
        if not self._journal_pending:
            return
        lines = "".join(json.dumps(record, sort_keys=True) + "\n"
                        for record in self._journal_pending)
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            handle.write(lines)
        self._journal_pending.clear()
        self._puts_since_index_write = 0

    def _persist_index(self) -> None:
        """Write index state the way this cache's mode persists it:
        journal appends for journaled writers, an ``index.json`` rewrite
        otherwise."""
        if self.writer_id is not None:
            self._append_journal()
            self._index_dirty = False
        else:
            self._write_index()

    def flush_index(self) -> None:
        """Persist the index if it has unwritten changes.

        ``put`` batches index writes (every ``INDEX_WRITE_INTERVAL``
        entries) so a cold N-point sweep stays O(N) in index I/O; batch
        owners — the evaluator, or anything driving many puts — call
        this once at the end.  A stale index is never a correctness
        problem (``get`` probes the canonical shard path regardless), it
        only costs the probe.  Journaled writers append their buffered
        records instead of rewriting the shared ``index.json``."""
        if self.directory is not None and self._index_dirty:
            self._persist_index()

    def _migrate_flat_layout(self) -> None:
        """Move flat ``<key>.json`` files written by the PR-1 layout into
        their shard directories, indexing them as they go."""
        assert self.directory is not None
        moved = False
        for flat in self.directory.glob("*.json"):
            if flat.name == INDEX_FILENAME or not flat.is_file():
                continue
            key = flat.stem
            target = self._disk_path(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(flat, target)
            except OSError:
                # Couldn't move it: lookups must keep probing flat paths.
                self._legacy_possible = True
                continue
            self._remember_entry(key, target)
            moved = True
        if moved:
            self._index_dirty = True
            self._persist_index()

    def _remember_entry(self, key: str, path: Path) -> None:
        assert self.directory is not None
        self._sequence += 1
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        # Pop-then-insert keeps the index dict in recency order.
        replaced = self._index.pop(key, None)
        if replaced is not None:
            self._index_bytes -= replaced.get("size", 0)
        meta = {
            "file": path.relative_to(self.directory).as_posix(),
            "size": size,
            "seq": self._sequence,
        }
        self._index[key] = meta
        self._index_bytes += size
        if self.writer_id is not None:
            self._journal_pending.append({"op": "put", "key": key, **meta})

    # -- lookups -----------------------------------------------------------------
    def _read_records(self, path: Path, key: str) -> list[dict] | None:
        """Records stored at ``path``, or ``None`` when the file is
        corrupt or holds a *different* key — a misdirected (or hostile)
        index entry must never alias one design point to another."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            records = payload["records"]
            stored_key = payload["key"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None
        if stored_key != key or not isinstance(records, list):
            return None
        return records

    def _remember_memory(self, key: str, entry: CachedEntry) -> None:
        """Insert at the recent end of the memory layer; enforce the bound.

        The memory dict is kept in recency order (oldest first), so the
        LRU eviction is O(1) per dropped entry."""
        self._memory.pop(key, None)
        self._memory[key] = entry
        if self.max_memory_entries is not None:
            while len(self._memory) > self.max_memory_entries:
                self._memory.pop(next(iter(self._memory)))
                self.stats.memory_evictions += 1

    def get(self, key: str) -> CachedEntry | None:
        """Look up one key; counts a hit or a miss."""
        entry = self._memory.get(key)
        if entry is not None:
            if self.max_memory_entries is not None:
                # Keep recency accurate for the bounded memory layer.
                self._memory.pop(key)
                self._memory[key] = entry
            self.stats.hits += 1
            return entry
        if self.directory is not None:
            for path in self._candidate_paths(key):
                if path is None or not path.is_file():
                    continue
                records = self._read_records(path, key)
                if records is None:
                    continue  # corrupt or mismatched entry: treat as a miss
                entry = CachedEntry(records=records)
                self._remember_memory(key, entry)
                meta = self._index.pop(key, None)
                if meta is not None:  # move to the recent end of the index
                    self._sequence += 1
                    meta["seq"] = self._sequence
                    self._index[key] = meta
                    self._index_dirty = True  # persist recency at next flush
                elif path == self._disk_path(key):
                    # Found via the canonical shard probe but unknown to
                    # the index (written by a crashed/unflushed session):
                    # adopt it so the size bound can see and evict it.
                    self._remember_entry(key, path)
                    self._index_dirty = True
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def _candidate_paths(self, key: str):
        """Where a key's entry may live, most authoritative first."""
        assert self.directory is not None
        meta = self._index.get(key)
        if meta is not None and self._sane_index_file(meta["file"]):
            yield self.directory / meta["file"]
        yield self._disk_path(key)
        if self._legacy_possible:
            # Only when migration left flat files behind — otherwise this
            # would be a wasted stat() on every miss of a big sweep.
            yield self._legacy_path(key)

    def put(self, key: str, entry: CachedEntry) -> None:
        """Store one evaluated point (records go to disk when enabled)."""
        self._remember_memory(key, entry)
        self.stats.puts += 1
        if self.directory is not None:
            path = self._disk_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "records": entry.records,
            }
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
            self._remember_entry(key, path)
            self._evict_to_bound()
            self._index_dirty = True
            self._puts_since_index_write += 1
            if self._puts_since_index_write >= INDEX_WRITE_INTERVAL:
                self._persist_index()

    # -- maintenance -------------------------------------------------------------
    def _over_bounds(self) -> bool:
        """True while the index exceeds the entry-count or byte budget."""
        if not self._index:
            return False
        if self.max_disk_entries is not None and len(self._index) > self.max_disk_entries:
            return True
        return (self.max_disk_bytes is not None
                and self._index_bytes > self.max_disk_bytes)

    def _evict_to_bound(self) -> None:
        """Drop least-recently-used disk entries beyond the configured
        bounds (``max_disk_entries`` entries and/or ``max_disk_bytes``
        total payload bytes, using the per-entry sizes the index records).

        The index dict is maintained in recency order (oldest first), so
        each eviction is O(1) — a bounded million-point sweep never pays
        a per-put scan."""
        if (self.max_disk_entries is None and self.max_disk_bytes is None) \
                or self.directory is None:
            return
        while self._over_bounds():
            victim = next(iter(self._index))
            self._index_bytes -= self._index.pop(victim).get("size", 0)
            self.stats.evictions += 1
            if self.writer_id is not None:
                self._journal_pending.append({"op": "del", "key": victim})
            # Unlink the victim's *canonical* location, never the index's
            # stored path: a corrupt/hostile index entry could otherwise
            # aim eviction at index.json or another key's valid file.
            try:
                self._disk_path(victim).unlink(missing_ok=True)
            except OSError:
                pass

    def compact(self) -> int:
        """Re-scan the shards: drop corrupt entries and stray temp files,
        rebuild the index from what is actually on disk (preserving known
        recency), enforce the size bound, fold every writer's journal back
        into the rebuilt ``index.json`` (the journals are then deleted),
        and return the entry count.

        Run it when writers are quiescent: a writer appending while its
        journal is folded away loses only recency bookkeeping — its entry
        files are still on disk and are re-adopted by the next lookup or
        compact."""
        if self.directory is None:
            return 0
        old_seq = {key: meta.get("seq", 0) for key, meta in self._index.items()}
        rebuilt: dict[str, dict] = {}
        for shard in sorted(self.directory.iterdir()):
            if not shard.is_dir():
                continue
            for entry_file in sorted(shard.glob("*")):
                if not entry_file.is_file():
                    continue  # leave unexpected subdirectories alone
                if entry_file.suffix != ".json":  # includes stray *.json.tmp
                    entry_file.unlink(missing_ok=True)
                    continue
                try:
                    payload = json.loads(entry_file.read_text(encoding="utf-8"))
                    key = payload["key"]
                    records = payload["records"]
                except (OSError, json.JSONDecodeError, KeyError, TypeError):
                    entry_file.unlink(missing_ok=True)
                    continue
                if not isinstance(key, str) or not isinstance(records, list):
                    entry_file.unlink(missing_ok=True)
                    continue
                rebuilt[key] = {
                    "file": entry_file.relative_to(self.directory).as_posix(),
                    "size": entry_file.stat().st_size,
                    "seq": old_seq.get(key, 0),
                }
        # Restore the recency-order invariant (oldest first) for O(1) eviction.
        self._index = dict(sorted(rebuilt.items(), key=lambda kv: kv[1]["seq"]))
        self._index_bytes = sum(meta["size"] for meta in self._index.values())
        self._sequence = max(
            (meta["seq"] for meta in self._index.values()), default=self._sequence
        )
        self._evict_to_bound()
        # The fold: the rebuilt index.json now carries every journaled
        # entry, so the journals themselves are spent.
        self._journal_pending.clear()
        self._write_index()
        for journal in self.directory.glob(JOURNAL_GLOB):
            try:
                journal.unlink()
            except OSError:
                pass
        return len(self._index)

    def disk_stats(self) -> dict:
        """Summary of the on-disk store, from the loaded index.

        Returns a JSON-safe dict with the cache ``directory``, indexed
        ``entries``, their total ``bytes``, the configured
        ``max_disk_entries`` bound (``None`` = unbounded), this writer's
        ``writer_id`` (``None`` when not journaling) and the number of
        ``journals`` currently on disk.  Counts what the index knows
        about; run :meth:`compact` first for an exact on-disk
        reconciliation.
        """
        journals = 0
        if self.directory is not None:
            journals = sum(1 for _ in self.directory.glob(JOURNAL_GLOB))
        return {
            "directory": str(self.directory) if self.directory is not None else None,
            "entries": len(self._index),
            "bytes": self._index_bytes,
            "max_disk_entries": self.max_disk_entries,
            "max_disk_bytes": self.max_disk_bytes,
            "writer_id": self.writer_id,
            "journals": journals,
        }

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries, if any, survive)."""
        self._memory.clear()


# ---------------------------------------------------------------------------
# maintenance CLI: python -m repro.engine.cache
# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    """Maintain a long-lived shared cache directory from the shell.

    ``stats DIR`` prints the indexed entry count and byte total;
    ``compact DIR`` re-scans the shards, drops corrupt/orphaned files
    and rebuilds the index, optionally applying the LRU bounds with
    ``--max-entries N`` (entry count) and/or ``--max-bytes N`` (total
    payload bytes).  Both print a JSON report to stdout.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.cache",
        description="Inspect and maintain an on-disk evaluation cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser(
        "stats", help="print entry count, byte total and eviction bound")
    p_stats.add_argument("directory", help="cache directory")
    p_compact = sub.add_parser(
        "compact", help="re-scan shards, rebuild the index, enforce bounds")
    p_compact.add_argument("directory", help="cache directory")
    p_compact.add_argument("--max-entries", type=int, default=None,
                           help="evict least-recently-used entries beyond "
                                "this count during the compact")
    p_compact.add_argument("--max-bytes", type=int, default=None,
                           help="evict least-recently-used entries until the "
                                "indexed payload total fits this byte budget")
    args = parser.parse_args(argv)

    if not Path(args.directory).is_dir():
        print(json.dumps({"error": "no-such-directory",
                          "directory": args.directory}))
        return 2
    cache = EvaluationCache(
        directory=args.directory,
        max_disk_entries=getattr(args, "max_entries", None),
        max_disk_bytes=getattr(args, "max_bytes", None),
    )
    report: dict[str, object] = {"command": args.command}
    if args.command == "compact":
        report["entries_after_compact"] = cache.compact()
        report["evictions"] = cache.stats.evictions
    report.update(cache.disk_stats())
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())
