"""Persistent store for coverage-set point clouds.

Coverage sets (paper Alg. 2) are pure functions of the template
parameters and the sampling seed, and they are *expensive*: thousands of
template propagations plus eight Nelder–Mead boosting runs per K.  The
historical cache was a per-directory pile of ``.npz`` files with an
in-process dict memo bolted on the side — invisible to the service
layer, unqueryable, and racy to clean up.

:class:`CoverageStore` answers a coverage lookup from two tiers:

* an in-memory LRU front of *assembled* :class:`CoverageSet` objects
  (repeated scoring sweeps like Fig. 5's SLF grid reuse the same sets
  dozens of times);
* the raw per-K point clouds, one sqlite row per key (``clouds`` table)
  at ``<REPRO_CACHE_DIR>/coverage.sqlite``, shared by every worker
  process and persisted across runs.  A fresh process (a forked service
  worker, a new test run) assembles the hulls from them with SVD plus
  one ``ConvexHull`` per region, about 0.1–0.2 s a set.

Keyspace discipline matches the decomposition cache: the key string
encodes the template family (backend), every geometry-affecting
parameter, and the sampling seed — two builds share a row only when
they are the same computation.  Payloads are the exact float64 bytes of
the sampled clouds (a compressed ``.npz``, read with
``allow_pickle=False``: the store is a shared on-disk cache and never
unpickles), so a warm load is bit-identical to the cold build (coverage
digests are part of the paper pipeline's contract).

Schema v3 is the v1 layout.  v1 stores are restamped in place; v2
stores, which carried a ``hulls`` column of persisted hull state, open
and merge with that column ignored (``repro store merge --into
<new path> <v2 path>`` copies the clouds into a compact v3 store).

The legacy per-directory ``.npz`` read path (and its one-release
absorption shim) is gone: a stale ``<key>.npz`` next to the store now
raises with a pointer at ``repro synth --coverage``, which rebuilds the
row straight into sqlite.
"""

from __future__ import annotations

import io
import sqlite3
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs import metrics
from .store_base import SqliteStoreMixin

__all__ = [
    "CoverageStoreStats",
    "CoverageStore",
    "coverage_disk_usage",
    "default_coverage_store",
]

#: Cloud-store schema version (bumped on incompatible layout changes).
#: v2 added a ``hulls`` column of persisted hull state; v3 drops it again.
_COVERAGE_SCHEMA = 3

#: What decoding a damaged npz payload can raise.
_DECODE_ERRORS = (
    OSError, KeyError, ValueError, TypeError, IndexError, EOFError,
    zipfile.BadZipFile,
)


@dataclass
class CoverageStoreStats:
    """Hit/miss counters, split by which tier answered.

    Per-instance fields keep their historical semantics; every
    increment is additionally mirrored into the process-wide registry
    under ``repro.cache.coverage.<field>``.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    _METRIC_PREFIX = "repro.cache.coverage"
    _FIELDS = ("memory_hits", "disk_hits", "misses", "puts")

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS:
            delta = value - getattr(self, name, 0)
            if delta > 0:
                metrics.counter(f"{self._METRIC_PREFIX}.{name}").inc(delta)
        object.__setattr__(self, name, value)

    @property
    def hits(self) -> int:
        """Total hits across the memory and cloud tiers."""
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON reports."""
        return {name: getattr(self, name) for name in self._FIELDS}


def _encode_clouds(clouds: list[np.ndarray]) -> bytes:
    """Exact npz-format bytes of a per-K cloud list."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        **{f"k{k}": np.asarray(cloud, dtype=float)
           for k, cloud in enumerate(clouds, start=1)},
    )
    return buffer.getvalue()


def _decode_clouds(payload: bytes, kmax: int) -> list[np.ndarray]:
    """Inverse of :func:`_encode_clouds`."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as data:
        return [data[f"k{k}"] for k in range(1, kmax + 1)]


def coverage_disk_usage(conn: sqlite3.Connection) -> dict[str, int]:
    """Cloud rows and payload bytes of a coverage store (any schema)."""
    clouds, cloud_bytes = conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM clouds"
    ).fetchone()
    return {"clouds": int(clouds), "cloud_bytes": int(cloud_bytes)}


class CoverageStore(SqliteStoreMixin):
    """Two-tier (LRU, clouds) store of coverage sets.

    Args:
        path: sqlite database file; ``None`` picks
            ``<coverage cache dir>/coverage.sqlite`` (the directory the
            legacy ``.npz`` memo used, so stale archives are caught).
        memory_size: LRU capacity for assembled coverage sets.
        persistent: ``False`` keeps only the in-memory tier (tests, or
            explicit no-disk flows).
    """

    _STORE_SCHEMA = _COVERAGE_SCHEMA
    _STORE_DDL = (
        "CREATE TABLE IF NOT EXISTS clouds ("
        "  key TEXT PRIMARY KEY,"
        "  kmax INTEGER NOT NULL,"
        "  payload BLOB NOT NULL)",
    )
    # A store that cannot persist must never fail a coverage build.
    _STORE_DEGRADE = True
    _STORE_TABLE = "clouds"
    _STORE_LABEL = "coverage store"

    def __init__(
        self,
        path: str | Path | None = None,
        memory_size: int = 64,
        persistent: bool = True,
    ):
        if memory_size < 1:
            raise ValueError("memory_size must be >= 1")
        self.persistent = bool(persistent)
        if self.persistent and path is None:
            from ..core.coverage import default_cache_dir

            path = default_cache_dir() / "coverage.sqlite"
        self._init_store(path if self.persistent else None)
        self.memory_size = int(memory_size)
        self._memory: OrderedDict[str, object] = OrderedDict()
        self.stats = CoverageStoreStats()

    def _store_degraded(self) -> None:
        self.persistent = False

    def _store_migrate(self, conn: sqlite3.Connection, found: int) -> bool:
        if found == 1:
            # v1 rows already have the v3 layout: restamp in place.
            # Take the write lock and re-read the stamp first: another
            # process opening the same v1 store may be restamping it.
            conn.execute("BEGIN IMMEDIATE")
            (found,) = conn.execute(
                "SELECT value FROM meta WHERE key = ?",
                (self._STORE_SCHEMA_KEY,),
            ).fetchone()
            if int(found) == 1:
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = ?",
                    (str(_COVERAGE_SCHEMA), self._STORE_SCHEMA_KEY),
                )
            return True
        # v2 stores keep a ``hulls`` column this build never reads.
        return found in (2, _COVERAGE_SCHEMA)

    # -- assembled-set tier --------------------------------------------------

    def get_set(self, key: str):
        """Memoized assembled coverage set, or ``None``."""
        assembled = self._memory.get(key)
        if assembled is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
        return assembled

    def remember_set(self, key: str, coverage) -> None:
        """Keep an assembled coverage set in the LRU front."""
        self._memory[key] = coverage
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_size:
            self._memory.popitem(last=False)
            metrics.counter("repro.cache.coverage.evictions").inc()

    # -- cloud tier ----------------------------------------------------------

    def _legacy_npz_path(self, key: str) -> Path | None:
        if self.path is None:
            return None
        return self.path.parent / f"{key}.npz"

    def get_clouds(self, key: str, kmax: int) -> list[np.ndarray] | None:
        """Per-K point clouds from the sqlite store, or ``None``.

        Raises:
            RuntimeError: when the row is absent but a legacy
                ``<key>.npz`` archive sits next to the store — the npz
                read path is gone; rebuild via ``repro synth
                --coverage``.
        """
        conn = self._connection()
        if conn is not None:
            try:
                row = conn.execute(
                    "SELECT kmax, payload FROM clouds WHERE key = ?",
                    (key,),
                ).fetchone()
            except sqlite3.Error:
                row = None
            if row is not None:
                stored_kmax, payload = row
                if int(stored_kmax) >= kmax:
                    try:
                        clouds = _decode_clouds(payload, kmax)
                    except _DECODE_ERRORS:
                        clouds = None
                    if clouds is not None:
                        self.stats.disk_hits += 1
                        return clouds
                # Corrupted or under-sized row: drop and rebuild.
                try:
                    conn.execute(
                        "DELETE FROM clouds WHERE key = ?", (key,)
                    )
                    conn.commit()
                except sqlite3.Error:
                    pass
        legacy = self._legacy_npz_path(key)
        if legacy is not None and legacy.exists():
            # The npz read/absorption shim lived for exactly one
            # release; it answered its last lookup in the previous one.
            raise RuntimeError(
                f"legacy coverage archive {legacy} is no longer "
                "readable: the npz tier was removed after its "
                "one-release migration window. Rebuild the row with "
                "'repro synth --basis <name> --coverage <K>' (the "
                "result persists in coverage.sqlite), then delete the "
                ".npz file."
            )
        self.stats.misses += 1
        return None

    def put_clouds(self, key: str, clouds: list[np.ndarray]) -> None:
        """Persist per-K clouds for a key (one write transaction)."""
        conn = self._connection()
        if conn is None:
            return
        self.stats.puts += 1
        payload = _encode_clouds(clouds)
        metrics.histogram(
            "repro.cache.coverage.write_bytes", metrics.BYTE_BUCKETS
        ).observe(len(payload))
        try:
            conn.execute(
                "INSERT OR REPLACE INTO clouds (key, kmax, payload)"
                " VALUES (?, ?, ?)",
                (key, len(clouds), payload),
            )
            conn.commit()
        except sqlite3.Error:
            pass  # A lost write is only a future rebuild.

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Assembled sets resident in the memory front."""
        return len(self._memory)

    def disk_entries(self) -> int:
        """Cloud rows in the persistent store (0 when memory-only)."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM clouds"
            ).fetchone()
        except sqlite3.Error:
            return 0
        return int(count)

    def disk_usage(self) -> dict[str, int]:
        """Cloud rows and bytes (see :func:`coverage_disk_usage`); all
        zero when memory-only."""
        conn = self._connection()
        if conn is not None:
            try:
                return coverage_disk_usage(conn)
            except sqlite3.Error:
                pass
        return {"clouds": 0, "cloud_bytes": 0}

    def clear(self, disk: bool = False) -> None:
        """Empty the memory tier (and optionally the persistent store)."""
        self._memory.clear()
        if disk:
            conn = self._connection()
            if conn is not None:
                try:
                    conn.execute("DELETE FROM clouds")
                    conn.commit()
                except sqlite3.Error:
                    pass


#: Per-process stores keyed by resolved sqlite path: tests and workers
#: repoint ``REPRO_CACHE_DIR`` mid-process, and entries from one
#: directory must not answer for another (same discipline as the
#: decomposition cache's per-path registry).
_PROCESS_STORES: dict[str, CoverageStore] = {}


def default_coverage_store() -> CoverageStore:
    """The shared per-process store for the current cache directory."""
    from ..core.coverage import default_cache_dir

    path = default_cache_dir() / "coverage.sqlite"
    key = str(path)
    store = _PROCESS_STORES.get(key)
    if store is None:
        store = _PROCESS_STORES[key] = CoverageStore(path=path)
    return store
