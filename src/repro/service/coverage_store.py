"""Persistent store for coverage-set point clouds and their hulls.

Coverage sets (paper Alg. 2) are pure functions of the template
parameters and the sampling seed, and they are *expensive*: thousands of
template propagations plus eight Nelder–Mead boosting runs per K.  The
historical cache was a per-directory pile of ``.npz`` files with an
in-process dict memo bolted on the side — invisible to the service
layer, unqueryable, and racy to clean up.

:class:`CoverageStore` answers a coverage lookup from three tiers:

* an in-memory LRU front of *assembled* :class:`CoverageSet` objects
  (repeated scoring sweeps like Fig. 5's SLF grid reuse the same sets
  dozens of times);
* the persisted *hull state* of each assembled set — every
  ``RegionHull``'s projection, facets and ``Delaunay`` arrays — so a
  fresh process (a forked service worker, a new test run) rehydrates
  the hulls instead of re-running SVD + qhull over 9k–24k-point clouds,
  which costs 0.8–2.8 s per set;
* the raw per-K point clouds, from which the hulls are re-assembled
  when their state is missing, stale or corrupt.

Both persisted tiers live in one sqlite row per key (``clouds`` table:
``payload`` and the nullable ``hulls`` column) at
``<REPRO_CACHE_DIR>/coverage.sqlite``, shared by every worker process
and persisted across runs.  Keeping them in one row lets
:meth:`~repro.service.store_base.SqliteStoreMixin.merge` carry hull
state along with the clouds when shard or build partitions fold.

Keyspace discipline matches the decomposition cache: the key string
encodes the template family (backend), every geometry-affecting
parameter, and the sampling seed — two builds share a row only when
they are the same computation.  Cloud payloads are the exact float64
bytes of the sampled clouds, and hull payloads the exact arrays of the
assembled hulls (an uncompressed ``.npz``, read with
``allow_pickle=False``: the store is a shared on-disk cache and never
unpickles; the ``Delaunay`` arrays are also checked for layout and index
ranges before scipy walks them).  A warm load is therefore bit-identical to the cold build
(coverage digests are part of the paper pipeline's contract).  Hull
payloads carry a format token naming the payload version and the scipy
and numpy versions that wrote them; a payload from any other build is
re-assembled from the clouds and overwritten.

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
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np
import scipy

from ..obs import metrics
from .store_base import SqliteStoreMixin

__all__ = [
    "CoverageStoreStats",
    "CoverageStore",
    "coverage_disk_usage",
    "default_coverage_store",
]

#: Cloud-store schema version (bumped on incompatible layout changes).
#: v2 added the nullable ``hulls`` column; v1 stores migrate in place.
_COVERAGE_SCHEMA = 2

#: Stamp of the hull payloads this build writes and reads.  ``Delaunay``
#: internals are scipy's private layout, so a payload written under any
#: other scipy (or numpy, or payload format) is re-assembled instead.
_HULL_FORMAT = (
    f"hulls-v1|scipy-{scipy.__version__}|numpy-{np.__version__}"
)

#: What decoding a damaged npz payload can raise.
_DECODE_ERRORS = (
    OSError, KeyError, ValueError, TypeError, IndexError, EOFError,
    zipfile.BadZipFile,
)

_T = TypeVar("_T")


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
    #: Lookups the persisted hull tier answered / could not answer (a
    #: hull miss re-assembles the set from its clouds or a fresh build).
    hull_hits: int = 0
    hull_misses: int = 0

    _METRIC_PREFIX = "repro.cache.coverage"
    _FIELDS = (
        "memory_hits", "disk_hits", "misses", "puts", "hull_hits",
        "hull_misses",
    )

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


def _encode_hulls(state: Mapping[str, np.ndarray], kmax: int) -> bytes:
    """Uncompressed npz bytes of a hull state, stamped with its format.

    Uncompressed: deflate shrinks a payload only by about a third, and
    inflating it would make a load several times slower (0.23 s against
    0.03 s for the largest default set, 27 MB).
    """
    buffer = io.BytesIO()
    np.savez(
        buffer, format=np.array(_HULL_FORMAT), kmax=np.int64(kmax), **state
    )
    return buffer.getvalue()


def coverage_disk_usage(conn: sqlite3.Connection) -> dict[str, int]:
    """Rows and payload bytes of both persisted tiers of a store.

    Works on any coverage database, including a not-yet-migrated v1
    store (which has no hull column and reports zero hulls).
    """
    columns = {row[1] for row in conn.execute("PRAGMA table_info(clouds)")}
    hulls = (
        "COUNT(hulls), COALESCE(SUM(LENGTH(hulls)), 0)"
        if "hulls" in columns
        else "0, 0"
    )
    clouds, cloud_bytes, hull_rows, hull_bytes = conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0), "
        f"{hulls} FROM clouds"
    ).fetchone()
    return {
        "clouds": int(clouds),
        "cloud_bytes": int(cloud_bytes),
        "hulls": int(hull_rows),
        "hull_bytes": int(hull_bytes),
    }


class CoverageStore(SqliteStoreMixin):
    """Three-tier (LRU, hull state, clouds) store of coverage sets.

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
        "  payload BLOB NOT NULL,"
        "  hulls BLOB)",
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
            # In-place v1 -> v2 migration: the nullable hull column.
            # Existing rows start without hull state and gain it on
            # their next load.  Take the write lock before looking at
            # the columns: another process opening the same v1 store
            # may be adding the column right now.
            conn.execute("BEGIN IMMEDIATE")
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(clouds)")
            }
            if columns and "hulls" not in columns:
                conn.execute("ALTER TABLE clouds ADD COLUMN hulls BLOB")
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = ?",
                (str(_COVERAGE_SCHEMA), self._STORE_SCHEMA_KEY),
            )
            return True
        return found == _COVERAGE_SCHEMA

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

    # -- hull tier -----------------------------------------------------------

    def get_hulls(
        self,
        key: str,
        kmax: int,
        rehydrate: Callable[[Mapping[str, np.ndarray]], _T],
    ) -> _T | None:
        """The set rebuilt from persisted hull state, or ``None``.

        ``rehydrate`` maps the decoded payload (name -> array) to the
        assembled set.  A payload that is absent, stamped by another
        build (:data:`_HULL_FORMAT`), holds fewer than ``kmax`` K, or
        fails to decode or rehydrate is a hull miss: the caller
        re-assembles from the clouds and overwrites it via
        :meth:`put_hulls`.
        """
        conn = self._connection()
        payload = None
        if conn is not None:
            try:
                row = conn.execute(
                    "SELECT hulls FROM clouds WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                row = None
            if row is not None:
                payload = row[0]
        if payload is not None:
            try:
                with np.load(io.BytesIO(payload), allow_pickle=False) as data:
                    if (
                        str(data["format"]) == _HULL_FORMAT
                        and int(data["kmax"]) >= kmax
                    ):
                        assembled = rehydrate(data)
                        self.stats.hull_hits += 1
                        return assembled
            except _DECODE_ERRORS:
                pass
        self.stats.hull_misses += 1
        return None

    def put_hulls(
        self, key: str, kmax: int, state: Mapping[str, np.ndarray]
    ) -> None:
        """Attach assembled hull state for K = 1..kmax to the key's row.

        ``state`` is :func:`repro.core.coverage._hull_state` output.  A
        key without a cloud row stores nothing: hulls are only ever a
        cache of the clouds.
        """
        conn = self._connection()
        if conn is None:
            return
        payload = _encode_hulls(state, kmax)
        try:
            conn.execute(
                "UPDATE clouds SET hulls = ? WHERE key = ?", (payload, key)
            )
            conn.commit()
        except sqlite3.Error:
            pass  # A lost write is only a future re-assembly.

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
        """Persist per-K clouds for a key (one write transaction).

        Replacing a row drops its hull state: hulls of other clouds
        must never answer for these.
        """
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
        """Rows and bytes of the cloud and hull tiers (see
        :func:`coverage_disk_usage`); all zero when memory-only."""
        conn = self._connection()
        if conn is not None:
            try:
                return coverage_disk_usage(conn)
            except sqlite3.Error:
                pass
        return dict.fromkeys(("clouds", "cloud_bytes", "hulls", "hull_bytes"), 0)

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
