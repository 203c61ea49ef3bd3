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
single directory scan.  Keys that are not filesystem-safe content
hashes (anything beyond lowercase hex — in particular keys containing
path separators) are stored under the SHA-256 of the key instead of the
key itself, so a hostile or merely unusual key can never escape the
cache directory.  The flat one-file-per-key layout written by earlier
versions is migrated into the shards on first open.

The entry files are the whole on-disk state: there is no index file.
Opening a cache scans the shards once and orders the entries it finds
by modification time, oldest first; that in-memory view is the LRU
order.  A disk hit is recorded in the view, and persisted by
re-stamping the entry file's modification time, at the next
:meth:`EvaluationCache.flush_index`.  Every write is staged in a
uniquely named temp file and renamed into place, so any number of
caches — threads, processes or hosts on a shared mount — can write one
directory with no per-writer setup: concurrent writers of one key all
write the same content-addressed records, and the last rename wins.

When ``max_disk_entries`` and/or ``max_disk_bytes`` is set, an LRU
eviction pass runs after each write: the entry-count bound caps how many
entries the shards hold, and the byte budget caps their total payload
size.  Bounds apply to the entries this cache has seen (its open-time
scan, its own writes and its disk hits); :meth:`EvaluationCache.compact`
re-scans the shards, deletes corrupt, misplaced and temp files plus the
index files earlier versions kept, and enforces both bounds over
everything on disk.  ``python -m repro.engine.cache stats|compact DIR``
(with ``--max-entries`` / ``--max-bytes`` on ``compact``) exposes it to
the shell for long-lived shared caches (see :func:`main`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import secrets
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ..core.config import ExperimentConfig
from ..errors import ConfigurationError

__all__ = ["CACHE_SCHEMA_VERSION", "config_payload", "point_key", "CacheStats",
           "CachedEntry", "EvaluationCache", "main"]

#: Bump when the cached record layout changes; invalidates old disk entries.
CACHE_SCHEMA_VERSION = 1

#: Bookkeeping files earlier versions kept beside the shards; nothing
#: reads them any more, and :meth:`EvaluationCache.compact` deletes them.
_LEFTOVER_INDEX_FILES = ("index.json", "index.*.journal")

#: Shard directory names: the first two hex characters of the file stem.
_SHARD = re.compile(r"[0-9a-f]{2}")

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


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)``
#: with the encoder built once rather than per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr)


def _canonical_json(value) -> str:
    """``value`` in the canonical JSON form every key is hashed from.

    Strings, ints and finite floats, the bulk of a config, take the
    encoder's own scalar spellings directly.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _CANONICAL_ENCODER.encode(value)


#: Canonical text of recently keyed sub-configs, by identity.  Each entry
#: holds the sub-config itself, so its id cannot be reused while cached;
#: equality is not enough (``1 == 1.0`` but they serialise differently).
_SUBCONFIG_TEXT: dict[int, tuple[object, str]] = {}
_SUBCONFIG_TEXT_MAX = 256

#: Top-level config fields in canonical (sorted) key order.
_CONFIG_FIELD_NAMES = tuple(sorted(f.name for f in dataclasses.fields(ExperimentConfig)))

#: Leaf types ``dataclasses.asdict`` passes through unchanged.
_FLAT_TYPES = (str, int, float, bool, type(None))


def _field_payload(subconfig) -> dict:
    """``dataclasses.asdict(subconfig)``: a shallow field dict when every
    field is a scalar (the common case), else the deep copy."""
    payload = {f.name: getattr(subconfig, f.name) for f in dataclasses.fields(subconfig)}
    if all(type(value) in _FLAT_TYPES for value in payload.values()):
        return payload
    return dataclasses.asdict(subconfig)


def _subconfig_text(subconfig, extension_defaults: dict[str, object]) -> str:
    """Canonical text of one frozen sub-config (e.g. the crossbar), cached."""
    cached = _SUBCONFIG_TEXT.get(id(subconfig))
    if cached is not None and cached[0] is subconfig:
        return cached[1]
    payload = _field_payload(subconfig)
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
    """One cached evaluation: its JSON-safe comparison records."""

    records: list[dict]


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


@dataclass
class EvaluationCache:
    """In-memory, optionally disk-backed store of evaluated points.

    ``max_disk_entries`` bounds the sharded store by entry count and
    ``max_disk_bytes`` by total payload bytes; ``None`` means unbounded,
    and both may be set together.  The bounds are enforced LRU-wise,
    after each write, over the entries this cache has seen: the shards
    as scanned at open, its own writes and its disk hits.  Entries
    another cache writes later join the view when this one reads them;
    :meth:`compact` reconciles everything on disk.

    ``max_memory_entries`` likewise bounds the in-memory layer LRU-wise
    (``None`` = unbounded) — long-lived holders such as the evaluation
    service should set it so a scan over millions of distinct points
    cannot exhaust RAM; evicted entries remain served from disk when a
    directory is configured.

    In the evaluation service :meth:`get` runs on the event loop while
    :meth:`put` and :meth:`flush_index` run in a flush thread, so only
    :meth:`put`, :meth:`flush_index` and :meth:`compact` change the disk
    view; :meth:`get` only queues its hits for the next flush.
    """

    directory: Path | None = None
    max_disk_entries: int | None = None
    max_disk_bytes: int | None = None
    max_memory_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_disk_entries is not None and self.max_disk_entries < 1:
            raise ConfigurationError("max_disk_entries must be at least 1")
        if self.max_disk_bytes is not None and self.max_disk_bytes < 1:
            raise ConfigurationError("max_disk_bytes must be at least 1")
        if self.max_memory_entries is not None and self.max_memory_entries < 1:
            raise ConfigurationError("max_memory_entries must be at least 1")
        self._memory: dict[str, CachedEntry] = {}
        # The disk view: (shard, stem) -> entry size in bytes, kept in
        # recency order (oldest first) so each eviction is O(1).
        self._entries: dict[tuple[str, str], int] = {}
        self._bytes = 0
        # Disk hits since the last flush, as ((shard, stem), size); a
        # deque because get() appends while a flush thread drains it.
        self._touched: deque[tuple[tuple[str, str], int]] = deque()
        if self.directory is not None:
            self.directory = Path(self.directory)
            self.directory.mkdir(parents=True, exist_ok=True)
            self._migrate_flat_layout()
            self._scan(verify=False)

    def __len__(self) -> int:
        """Number of entries in the in-memory layer."""
        return len(self._memory)

    # -- disk layout -------------------------------------------------------------
    def _entry_path(self, name: tuple[str, str]) -> Path:
        """Location of the entry file ``<dir>/<shard>/<stem>.json``."""
        assert self.directory is not None
        shard, stem = name
        return self.directory / shard / f"{stem}.json"

    def _disk_path(self, key: str) -> Path:
        """Sharded, sanitised location of one key's entry file."""
        return self._entry_path(_shard_and_name(key))

    def _migrate_flat_layout(self) -> None:
        """Move flat ``<key>.json`` files written by the PR-1 layout into
        their shard directories."""
        assert self.directory is not None
        for flat in self.directory.glob("*.json"):
            if flat.name in _LEFTOVER_INDEX_FILES or not flat.is_file():
                continue
            target = self._disk_path(flat.stem)
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(flat, target)
            except OSError:
                continue  # left in place: a miss, re-evaluated on demand

    def _scan(self, *, verify: bool) -> None:
        """Rebuild the disk view from the shard directories.

        Entries are ordered by modification time, oldest first; ties
        (writes in one clock tick) keep their order in the current view.
        With ``verify`` every entry file is read, and corrupt files,
        files whose stored key belongs at another path, and stray temp
        files are deleted; without it the scan only lists ``*.json``.
        """
        assert self.directory is not None
        rank = {name: i for i, name in enumerate(self._entries)}
        found = []
        with os.scandir(self.directory) as shards:
            shard_names = [shard.name for shard in shards
                           if _SHARD.fullmatch(shard.name) and shard.is_dir()]
        for shard in shard_names:
            with os.scandir(self.directory / shard) as files:
                for entry in files:
                    if not entry.is_file():
                        continue  # leave unexpected subdirectories alone
                    name = (shard, entry.name.removesuffix(".json"))
                    keep = entry.name.endswith(".json")
                    if verify and keep:
                        loaded = self._load(Path(entry.path))
                        keep = loaded is not None and _shard_and_name(loaded[0]) == name
                    if not keep:
                        if verify:
                            with contextlib.suppress(OSError):
                                os.unlink(entry.path)
                        continue
                    try:
                        info = entry.stat()
                    except OSError:
                        continue  # evicted by another writer mid-scan
                    found.append((info.st_mtime_ns, rank.get(name, -1), name,
                                  info.st_size))
        found.sort()
        self._entries = {name: size for _mtime, _rank, name, size in found}
        self._bytes = sum(self._entries.values())

    def flush_index(self) -> None:
        """Record the disk hits since the last flush.

        Each entry read from disk moves to the recent end of the view,
        and its file's modification time is set to now so later sessions
        see the same recency.  The time is set explicitly because the
        kernel stamps writes at clock-tick granularity.  Batch owners —
        the evaluator, or anything driving many lookups — call this once
        per batch; ``get`` itself never touches the filesystem beyond
        its read.
        """
        now = time.time_ns()
        while self._touched:
            name, size = self._touched.popleft()
            try:
                os.utime(self._entry_path(name), ns=(now, now))
            except FileNotFoundError:  # evicted by another writer since
                self._forget(name)
                continue
            self._record(name, size)

    def _record(self, name: tuple[str, str], size: int) -> None:
        """Insert ``name`` at the recent end of the disk view."""
        self._bytes += size - self._entries.pop(name, 0)
        self._entries[name] = size

    def _forget(self, name: tuple[str, str]) -> None:
        self._bytes -= self._entries.pop(name, 0)

    # -- lookups -----------------------------------------------------------------
    @staticmethod
    def _load(path: Path) -> tuple[str, list, int] | None:
        """``(stored key, records, file size)`` of one entry file, or
        ``None`` when it is missing or corrupt."""
        try:
            data = path.read_bytes()
            payload = json.loads(data)
            stored_key = payload["key"]
            records = payload["records"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if not isinstance(stored_key, str) or not isinstance(records, list):
            return None
        return stored_key, records, len(data)

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
            name = _shard_and_name(key)
            loaded = self._load(self._entry_path(name))
            # The stored-key check keeps a file that holds another key's
            # records from ever aliasing one design point to another.
            if loaded is not None and loaded[0] == key:
                _stored_key, records, size = loaded
                entry = CachedEntry(records=records)
                self._remember_memory(key, entry)
                self._touched.append((name, size))
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def put(self, key: str, entry: CachedEntry) -> None:
        """Store one evaluated point (records go to disk when enabled).

        The file is staged under a name unique to this write and renamed
        into place, so concurrent writers of one key never collide."""
        self._remember_memory(key, entry)
        self.stats.puts += 1
        if self.directory is None:
            return
        name = _shard_and_name(key)
        path = self._entry_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA_VERSION, "key": key,
                   "records": entry.records}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        tmp = path.with_name(f"{name[1]}.{secrets.token_hex(8)}.tmp")
        try:
            with open(tmp, "xb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        self._record(name, len(data))
        self._evict_to_bound()

    # -- maintenance -------------------------------------------------------------
    def _over_bounds(self) -> bool:
        """True while the view exceeds the entry-count or byte budget."""
        if not self._entries:
            return False
        if self.max_disk_entries is not None and len(self._entries) > self.max_disk_entries:
            return True
        return self.max_disk_bytes is not None and self._bytes > self.max_disk_bytes

    def _evict_to_bound(self) -> None:
        """Unlink least-recently-used entry files until the view fits the
        configured bounds; O(1) per eviction, so a bounded million-point
        sweep never pays a per-put scan."""
        while self._over_bounds():
            victim = next(iter(self._entries))
            self._forget(victim)
            self.stats.evictions += 1
            with contextlib.suppress(OSError):
                self._entry_path(victim).unlink(missing_ok=True)

    def compact(self) -> int:
        """Re-scan the shards and return the entry count.

        Persists pending disk hits, deletes the index files earlier
        versions kept, rebuilds the view from every intact entry file
        (deleting corrupt files, files whose stored key belongs at
        another path, and temp files), then enforces the bounds.  A
        temp file still being written by another cache is deleted too,
        which fails that one write; run compact when writers are idle or
        accept that cost."""
        if self.directory is None:
            return 0
        self.flush_index()
        for pattern in _LEFTOVER_INDEX_FILES:
            for leftover in self.directory.glob(pattern):
                with contextlib.suppress(OSError):
                    leftover.unlink()
        self._scan(verify=True)
        self._evict_to_bound()
        return len(self._entries)

    def disk_stats(self) -> dict:
        """Summary of the on-disk store, from this cache's view.

        Returns a JSON-safe dict with the cache ``directory``, the
        ``entries`` in view, their total ``bytes``, and the configured
        ``max_disk_entries`` / ``max_disk_bytes`` bounds (``None`` =
        unbounded).  The view is exact as of open plus this cache's own
        writes; run :meth:`compact` first to count what other caches
        have written since.
        """
        return {
            "directory": str(self.directory) if self.directory is not None else None,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_disk_entries": self.max_disk_entries,
            "max_disk_bytes": self.max_disk_bytes,
        }

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries, if any, survive)."""
        self._memory.clear()


# ---------------------------------------------------------------------------
# maintenance CLI: python -m repro.engine.cache
# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    """Maintain a long-lived shared cache directory from the shell.

    ``stats DIR`` prints the entry count and byte total of the shards;
    ``compact DIR`` re-scans them and deletes corrupt, misplaced and
    leftover files (see :meth:`EvaluationCache.compact`), optionally
    applying the LRU bounds with
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
        "compact", help="re-scan shards, delete bad files, enforce bounds")
    p_compact.add_argument("directory", help="cache directory")
    p_compact.add_argument("--max-entries", type=int, default=None,
                           help="evict least-recently-used entries beyond "
                                "this count during the compact")
    p_compact.add_argument("--max-bytes", type=int, default=None,
                           help="evict least-recently-used entries until the "
                                "payload total fits this byte budget")
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
