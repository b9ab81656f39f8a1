"""Shared sqlite discipline for every persistent store in the repo.

Five stores grew the same connection management independently — the
job queue, the result store, the decomposition cache, the coverage
store, and the perf ledger.  Each carried the identical WAL journal
setup, fork-safe lazy reconnect, and (for the loud ones) the
schema-versioned ``meta`` table with migration refusal.  This module
is the one copy: a mixin a store class configures with class
attributes and, when needed, a couple of hook overrides.

Two failure policies coexist behind one surface:

* **loud** stores (queue, results, ledger) raise their configured
  error class when the database cannot be opened — durability was the
  point, so a broken store is a broken server;
* **degrade** stores (decomposition cache, coverage store) fall back
  to memory-only operation — a cache that cannot persist must never
  fail a compilation.

Schema mismatch is always loud, for both policies: silently serving
from an incompatible layout is worse than refusing.  A subclass may
override :meth:`_store_migrate` to upgrade old layouts in place
instead (the perf ledger's v1 -> v2 column add rides this hook).

On top of the connection discipline sits the key-range surface the
sharded service tier folds shards with: :meth:`iter_range` walks a
contiguous slice of the primary-key space, :meth:`row_count` sizes a
partition, and :meth:`merge` absorbs another same-layout database
first-writer-wins.  Stores with stronger merge semantics (the result
store refuses digest conflicts) override :meth:`merge` and keep the
rest.

This is the implementation module behind the public
:mod:`repro.service.store_base`.  It lives at the top of the package
and imports nothing from ``repro`` (stdlib only) because
``obs.ledger`` mixes it in at class-definition time while
``repro.obs`` must stay an import leaf: routing the import through
``repro.service`` (whose ``__init__`` pulls the whole compile stack)
from inside ``obs`` re-enters partially-initialized modules.  Stores
keep their own metrics/stats at call sites instead.
"""

from __future__ import annotations

import os
import sqlite3
from collections.abc import Iterator
from pathlib import Path

__all__ = ["SqliteStoreMixin", "StoreError", "detect_store_kind"]


class StoreError(RuntimeError):
    """A shared-discipline sqlite store could not be opened or merged."""


class SqliteStoreMixin:
    """Fork-safe, WAL-journaled, schema-versioned sqlite connection.

    Subclasses configure via class attributes:

    * ``_STORE_SCHEMA`` — integer version stamped into ``meta``;
    * ``_STORE_SCHEMA_KEY`` — the ``meta`` row name (historical stores
      disagree: ``'schema'`` vs the ledger's ``'schema_version'``);
    * ``_STORE_DDL`` — ``CREATE TABLE IF NOT EXISTS ...`` statements;
    * ``_STORE_ERROR`` — exception class raised on loud failures;
    * ``_STORE_DEGRADE`` — ``True`` turns open failures into
      memory-only fallback (:meth:`_store_degraded` fires once);
    * ``_STORE_SAME_THREAD`` — ``False`` for server-side stores opened
      on one thread and served from the event loop's;
    * ``_STORE_TABLE`` / ``_STORE_KEY`` — the primary table and its
      key column, powering ``iter_range``/``row_count``/``merge``;
    * ``_STORE_LABEL`` — human name used in default error messages.

    The mixin owns ``self.path`` / ``self._conn`` / ``self._pid``;
    subclasses call :meth:`_init_store` from ``__init__``.
    """

    _STORE_SCHEMA: int = 1
    _STORE_SCHEMA_KEY: str = "schema"
    _STORE_DDL: tuple[str, ...] = ()
    _STORE_ERROR: type[Exception] = StoreError
    _STORE_DEGRADE: bool = False
    _STORE_SAME_THREAD: bool = True
    _STORE_TABLE: str = ""
    _STORE_KEY: str = "key"
    _STORE_LABEL: str = "sqlite store"

    # -- connection ----------------------------------------------------------

    def _init_store(self, path: str | Path | None) -> None:
        """Set the connection state every store instance carries."""
        self.path: Path | None = Path(path) if path is not None else None
        self._conn: sqlite3.Connection | None = None
        self._pid = os.getpid()

    def _connection(self) -> sqlite3.Connection | None:
        """Open (or re-open after fork) the backing database.

        ``None`` means memory-only: either no path was configured, or a
        degrade-policy store hit an unusable database.
        """
        if self.path is None:
            return None
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        # Connections must never cross a fork; drop the parent's handle.
        self._conn = None
        self._pid = os.getpid()
        try:
            conn = self._open_db(self.path)
        except (OSError, sqlite3.Error) as exc:
            if self._STORE_DEGRADE:
                # Unusable store (read-only fs blocking the mkdir,
                # corrupted file, ...): degrade to memory-only rather
                # than failing the caller's workload.
                self.path = None
                self._store_degraded()
                return None
            raise self._STORE_ERROR(self._store_open_message(exc)) from exc
        self._conn = conn
        return conn

    def _open_db(self, path: Path) -> sqlite3.Connection:
        """Open ``path`` with pragmas, schema check, and table DDL.

        Raises the configured error class on schema mismatch and lets
        ``OSError``/``sqlite3.Error`` propagate for :meth:`_connection`
        to apply the loud/degrade policy.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            path, timeout=30.0, check_same_thread=self._STORE_SAME_THREAD
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "  key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?",
                (self._STORE_SCHEMA_KEY,),
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta VALUES (?, ?)",
                    (self._STORE_SCHEMA_KEY, str(self._STORE_SCHEMA)),
                )
            elif not self._store_migrate(conn, int(row[0])):
                conn.close()
                raise self._STORE_ERROR(
                    self._store_schema_message(int(row[0]))
                )
            for statement in self._STORE_DDL:
                conn.execute(statement)
            conn.commit()
        except (OSError, sqlite3.Error):
            conn.close()
            raise
        return conn

    def _store_migrate(self, conn: sqlite3.Connection, found: int) -> bool:
        """Accept (and possibly upgrade) an existing schema version.

        Returns ``True`` when ``found`` is usable — either current, or
        migrated in place by an override.  ``False`` triggers the loud
        mismatch refusal.  Overrides must update the ``meta`` row when
        they migrate.
        """
        return found == self._STORE_SCHEMA

    def _store_degraded(self) -> None:
        """Hook: a degrade-policy store just fell back to memory-only."""

    def _store_open_message(self, exc: Exception) -> str:
        return f"cannot open {self._STORE_LABEL} at {self.path}: {exc}"

    def _store_schema_message(self, found: int) -> str:
        return (
            f"{self._STORE_LABEL} {self.path} has schema v{found}, this "
            f"build writes v{self._STORE_SCHEMA}; point it at a fresh "
            "path or migrate the old one"
        )

    def close(self) -> None:
        """Close the database handle (reopened lazily on next use)."""
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None

    # -- key-range surface ---------------------------------------------------

    def iter_range(self, lo: str = "", hi: str | None = None) -> Iterator[tuple]:
        """Rows of the primary table with key in ``[lo, hi)``, sorted.

        The half-open interval composes into gap-free partitions — the
        contract the digest-range shard router relies on.  ``hi=None``
        leaves the range unbounded above.  Memory-only stores yield
        nothing.
        """
        conn = self._connection()
        if conn is None or not self._STORE_TABLE:
            return
        sql = (
            f"SELECT * FROM {self._STORE_TABLE} "  # noqa: S608 - class-level names
            f"WHERE {self._STORE_KEY} >= ?"
        )
        params: list[str] = [lo]
        if hi is not None:
            sql += f" AND {self._STORE_KEY} < ?"
            params.append(hi)
        sql += f" ORDER BY {self._STORE_KEY}"
        yield from conn.execute(sql, params)

    def row_count(self) -> int:
        """Persisted rows in the primary table (0 when memory-only)."""
        conn = self._connection()
        if conn is None or not self._STORE_TABLE:
            return 0
        (count,) = conn.execute(
            f"SELECT COUNT(*) FROM {self._STORE_TABLE}"
        ).fetchone()
        return int(count)

    def merge(self, other_path: str | Path) -> int:
        """Fold another same-layout database into this one.

        First writer wins per key (``INSERT OR IGNORE``): existing rows
        are never overwritten, so repeated folds are idempotent.  The
        source is opened through the same schema check as the
        destination; a version mismatch refuses the merge.  Returns the
        number of rows absorbed.

        Stores whose rows carry semantic identity beyond the key (the
        result store's digests) override this with a conflict-refusing
        variant.
        """
        conn = self._connection()
        if conn is None or not self._STORE_TABLE:
            raise self._STORE_ERROR(
                f"cannot merge into a memory-only {self._STORE_LABEL}"
            )
        other_path = Path(other_path)
        if not other_path.exists():
            raise self._STORE_ERROR(
                f"no {self._STORE_LABEL} to merge at {other_path}"
            )
        if self.path is not None and other_path.resolve() == self.path.resolve():
            raise self._STORE_ERROR(
                f"refusing to merge {self._STORE_LABEL} {self.path} into itself"
            )
        source = self._open_db(other_path)
        absorbed = 0
        try:
            # Copy the columns both layouts share, so a readable older
            # schema with an extra column folds in without it.
            table = self._STORE_TABLE
            theirs = {row[1] for row in source.execute(f"PRAGMA table_info({table})")}
            columns = ", ".join(
                row[1]
                for row in conn.execute(f"PRAGMA table_info({table})")
                if row[1] in theirs
            )
            # Stream row by row: rows can carry multi-megabyte payloads,
            # so a fetchall would hold a whole store in memory.
            for row in source.execute(f"SELECT {columns} FROM {table}"):
                cursor = conn.execute(
                    f"INSERT OR IGNORE INTO {table} ({columns}) "
                    f"VALUES ({','.join('?' * len(row))})",
                    row,
                )
                absorbed += cursor.rowcount
            conn.commit()
        except sqlite3.Error as exc:
            conn.rollback()
            raise self._STORE_ERROR(
                f"cannot merge {other_path} into {self._STORE_LABEL} "
                f"{self.path}: {exc}"
            ) from exc
        finally:
            source.close()
        return absorbed


#: Primary-table name -> store kind, checked in declaration order (each
#: store database carries exactly one of these tables).
_KIND_TABLES = (
    ("results", "results"),
    ("templates", "decomp"),
    ("clouds", "coverage"),
    ("queue", "queue"),
    ("runs", "ledger"),
)


def detect_store_kind(path: str | Path) -> str:
    """Which store family a database belongs to, by its table names.

    Powers ``repro store merge`` auto-detection: returns ``"results"``,
    ``"decomp"``, ``"coverage"``, ``"queue"``, or ``"ledger"``.
    """
    path = Path(path)
    if not path.exists():
        raise StoreError(f"no store database at {path}")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=30.0)
        try:
            names = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        finally:
            conn.close()
    except sqlite3.Error as exc:
        raise StoreError(f"cannot read {path} as a sqlite store: {exc}") from exc
    for table, kind in _KIND_TABLES:
        if table in names:
            return kind
    raise StoreError(
        f"{path} is not a recognized repro store "
        f"(tables: {sorted(names) or 'none'})"
    )
