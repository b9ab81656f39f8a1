"""Persistent decomposition cache for 2Q basis templates.

Basis translation classifies every consolidated 2Q block by its
canonical Weyl coordinates and asks a rule engine for the cheapest
covering template.  Those lookups are pure functions of the engine's
``cache_token`` (its name plus every template-affecting parameter) and
the coordinates — and workload suites repeat the same coordinate
classes thousands of times across trials, workloads, and runs.

:class:`DecompositionCache` memoizes them at two levels:

* an in-memory LRU front (per process, bounded, no locking needed);
* an on-disk sqlite store shared by every worker process and persisted
  across runs, under ``~/.cache/repro-decomp`` by default
  (``REPRO_DECOMP_CACHE_DIR`` overrides, mirroring the coverage cache's
  ``REPRO_CACHE_DIR``).

Basis translation batches its traffic per circuit through
:meth:`DecompositionCache.lookup_many`: keys are quantized up front for
the whole coordinate stack, memory hits answer immediately, the
remaining keys go to disk in one ``IN (...)`` query, and freshly
computed templates land in a single write transaction — instead of one
round-trip and one transaction per gate.  Pulse durations persist as
``float.hex()`` text, an exact, locale-independent round-trip format
(legacy ``repr``-formatted rows still parse).

Keys quantize coordinates on a grid two orders of magnitude finer than
the rule engines' classification tolerance (1e-6), and basis
translation hands the rules the same rounded coordinates
(:func:`~repro.core.decomposition_rules.quantize_coordinates`) whether
or not a cache is attached.  Every coordinate in one key bucket thus
gets the same template by construction, so cached compiles equal
uncached ones.  Bit-exact repeats (the overwhelmingly common case:
identical blocks across trials, workers, and reruns of deterministic
workloads) always key identically.  A fully warm cache short-circuits
``template_for`` entirely, which also skips the lazy construction of
coverage-set hulls — the dominant cold cost of a fresh process.
"""

from __future__ import annotations

import os
import sqlite3
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.decomposition_rules import (
    KEY_DECIMALS,
    TemplateSpec,
    quantize_coordinates,
)
from ..obs import metrics
from .store_base import SqliteStoreMixin

__all__ = ["CacheStats", "DecompositionCache", "default_decomp_cache_dir"]

#: Template-store schema version (bumped on incompatible layout changes).
_CACHE_SCHEMA = 1

#: Keys per ``IN (...)`` clause; sqlite's default variable limit is 999.
_SQL_CHUNK = 400


def _serialize_pulses(pulses: tuple[float, ...]) -> str:
    """Exact, stable text form of a pulse tuple (``float.hex`` joined)."""
    return ",".join(float(p).hex() for p in pulses)


def _parse_pulses(text: str) -> tuple[float, ...]:
    """Inverse of :func:`_serialize_pulses`; accepts legacy ``repr`` rows.

    ``float.hex`` output always carries an ``x`` (pulses are finite);
    decimal-formatted rows written by older stores never do, so the two
    formats are unambiguous.
    """
    values = []
    for token in text.split(","):
        if not token:
            continue
        values.append(
            float.fromhex(token) if "x" in token else float(token)
        )
    return tuple(values)


def default_decomp_cache_dir() -> Path:
    """Directory holding the persistent template store.

    Overridable via ``REPRO_DECOMP_CACHE_DIR``; defaults to
    ``~/.cache/repro-decomp``.
    """
    override = os.environ.get("REPRO_DECOMP_CACHE_DIR")
    base = Path(override) if override else Path.home() / ".cache" / "repro-decomp"
    base.mkdir(parents=True, exist_ok=True)
    return base


@dataclass
class CacheStats:
    """Hit/miss counters, split by which tier answered.

    Per-instance fields keep their historical semantics (tests assert
    on them per cache object); every increment is additionally mirrored
    into the process-wide registry under ``repro.cache.decomp.<field>``
    so cross-subsystem reports see one unified pipe.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    _METRIC_PREFIX = "repro.cache.decomp"

    def __setattr__(self, name: str, value) -> None:
        # ``stats.misses += 1`` call sites stay untouched; the positive
        # delta rides into the registry here.
        if name in ("memory_hits", "disk_hits", "misses", "puts"):
            delta = value - getattr(self, name, 0)
            if delta > 0:
                metrics.counter(f"{self._METRIC_PREFIX}.{name}").inc(delta)
        object.__setattr__(self, name, value)

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON reports."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
        }


class DecompositionCache(SqliteStoreMixin):
    """Two-tier (LRU + sqlite) store of decomposition templates.

    Args:
        path: sqlite database file; ``None`` picks
            ``default_decomp_cache_dir() / "templates.sqlite"``.  The
            parent directory is created on demand.
        memory_size: LRU front capacity (entries).  Evicted entries
            remain readable from disk.
        persistent: set ``False`` for a memory-only cache (tests, or
            ``--no-cache``-adjacent flows that still want per-process
            memoization).
    """

    _STORE_SCHEMA = _CACHE_SCHEMA
    _STORE_DDL = (
        "CREATE TABLE IF NOT EXISTS templates ("
        "  key TEXT PRIMARY KEY,"
        "  pulses TEXT NOT NULL,"
        "  layer_count INTEGER NOT NULL,"
        "  description TEXT NOT NULL)",
    )
    # A cache that cannot persist must never fail a compilation.
    _STORE_DEGRADE = True
    _STORE_TABLE = "templates"
    _STORE_LABEL = "decomposition cache"

    def __init__(
        self,
        path: str | Path | None = None,
        memory_size: int = 4096,
        persistent: bool = True,
    ):
        if memory_size < 1:
            raise ValueError("memory_size must be >= 1")
        self.persistent = bool(persistent)
        if self.persistent and path is None:
            path = default_decomp_cache_dir() / "templates.sqlite"
        self._init_store(path if self.persistent else None)
        self.memory_size = int(memory_size)
        self._memory: OrderedDict[str, TemplateSpec] = OrderedDict()
        self.stats = CacheStats()

    def _store_degraded(self) -> None:
        self.persistent = False

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(rules_token: str, coords: np.ndarray) -> str:
        """Stable text key: rules cache token + grid-quantized coordinates."""
        c = quantize_coordinates(coords)
        return (
            f"{rules_token}|{c[0]:.{KEY_DECIMALS}f}"
            f"|{c[1]:.{KEY_DECIMALS}f}|{c[2]:.{KEY_DECIMALS}f}"
        )

    @staticmethod
    def keys_for(rules_token: str, coords: np.ndarray) -> list[str]:
        """Batched :meth:`key_for`: quantize a whole stack up front."""
        c = quantize_coordinates(np.atleast_2d(coords))
        return [
            f"{rules_token}|{row[0]:.{KEY_DECIMALS}f}"
            f"|{row[1]:.{KEY_DECIMALS}f}|{row[2]:.{KEY_DECIMALS}f}"
            for row in c
        ]

    # -- core operations -----------------------------------------------------

    def _remember(self, key: str, spec: TemplateSpec) -> None:
        self._memory[key] = spec
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_size:
            self._memory.popitem(last=False)
            metrics.counter("repro.cache.decomp.evictions").inc()

    def get(self, rules_token: str, coords: np.ndarray) -> TemplateSpec | None:
        """Cached template for a coordinate class, or ``None`` on miss."""
        key = self.key_for(rules_token, coords)
        spec = self._memory.get(key)
        if spec is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return spec
        conn = self._connection()
        if conn is not None:
            try:
                row = conn.execute(
                    "SELECT pulses, layer_count, description "
                    "FROM templates WHERE key = ?",
                    (key,),
                ).fetchone()
            except sqlite3.Error:
                row = None
            if row is not None:
                pulses_text, layer_count, description = row
                spec = TemplateSpec(
                    _parse_pulses(pulses_text), int(layer_count), description
                )
                self._remember(key, spec)
                self.stats.disk_hits += 1
                return spec
        self.stats.misses += 1
        return None

    def put(
        self, rules_token: str, coords: np.ndarray, spec: TemplateSpec
    ) -> None:
        """Store a template under its coordinate-class key."""
        self._put_rows([(self.key_for(rules_token, coords), spec)])

    def put_many(
        self,
        rules_token: str,
        coords: np.ndarray,
        specs: Sequence[TemplateSpec],
    ) -> None:
        """Store one template per coordinate row in a single transaction."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if len(coords) != len(specs):
            raise ValueError("one spec per coordinate row required")
        keys = self.keys_for(rules_token, coords)
        self._put_rows(list(zip(keys, specs)))

    def _put_rows(self, rows: list[tuple[str, TemplateSpec]]) -> None:
        """Remember and persist (key, spec) pairs; one write transaction."""
        if not rows:
            return
        metrics.histogram(
            "repro.cache.decomp.write_rows", metrics.BATCH_SIZE_BUCKETS
        ).observe(len(rows))
        for key, spec in rows:
            self._remember(key, spec)
            self.stats.puts += 1
        conn = self._connection()
        if conn is not None:
            try:
                conn.executemany(
                    "INSERT OR REPLACE INTO templates VALUES (?, ?, ?, ?)",
                    [
                        (
                            key,
                            _serialize_pulses(spec.pulses),
                            spec.layer_count,
                            spec.description,
                        )
                        for key, spec in rows
                    ],
                )
                conn.commit()
            except sqlite3.Error:
                pass  # A lost write is only a future miss.

    def _select_rows(self, keys: list[str]) -> dict[str, TemplateSpec]:
        """One chunked ``IN (...)`` query over the persistent store."""
        conn = self._connection()
        if conn is None or not keys:
            return {}
        found: dict[str, TemplateSpec] = {}
        for start in range(0, len(keys), _SQL_CHUNK):
            chunk = keys[start : start + _SQL_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            try:
                rows = conn.execute(
                    "SELECT key, pulses, layer_count, description "
                    f"FROM templates WHERE key IN ({placeholders})",
                    chunk,
                ).fetchall()
            except sqlite3.Error:
                return found
            for key, pulses_text, layer_count, description in rows:
                found[key] = TemplateSpec(
                    _parse_pulses(pulses_text), int(layer_count), description
                )
        return found

    def lookup(
        self,
        rules_token: str,
        coords: np.ndarray,
        factory: Callable[[], TemplateSpec],
    ) -> TemplateSpec:
        """Return the cached template, computing and storing on miss."""
        spec = self.get(rules_token, coords)
        if spec is None:
            spec = factory()
            self.put(rules_token, coords, spec)
        return spec

    def lookup_many(
        self,
        rules_token: str,
        coords: np.ndarray,
        factory_many: Callable[[np.ndarray], Sequence[TemplateSpec]],
    ) -> list[TemplateSpec]:
        """Batched :meth:`lookup` over stacked coordinate rows.

        This is the hook :func:`repro.transpiler.basis.translate_to_basis`
        calls once per circuit.  All keys are quantized up front; memory
        hits answer vectorized, the remaining unique keys go to disk in
        one ``IN (...)`` query, and only the still-missing unique
        coordinate classes reach ``factory_many`` — whose results are
        persisted in a single write transaction.  Hit/miss accounting
        matches the equivalent scalar :meth:`lookup` sequence — repeated
        keys within one batch count as memory hits after their first
        occurrence — provided the batch's unique keys fit the memory
        tier (they always do in practice: circuits carry far fewer
        coordinate classes than the default 4096-entry front).  A batch
        overflowing it still returns correct specs, but duplicates are
        credited as memory hits even though the scalar sequence would
        have evicted and re-fetched them.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        keys = self.keys_for(rules_token, coords)
        results: list[TemplateSpec | None] = [None] * len(keys)
        pending: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            spec = self._memory.get(key)
            if spec is not None and key not in pending:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                results[index] = spec
                continue
            pending.setdefault(key, []).append(index)
        if not pending:
            return results  # type: ignore[return-value]
        disk = self._select_rows(list(pending))
        missing_keys = []
        for key, indices in pending.items():
            spec = disk.get(key)
            if spec is None:
                missing_keys.append(key)
                continue
            self._remember(key, spec)
            self.stats.disk_hits += 1
            self.stats.memory_hits += len(indices) - 1
            for index in indices:
                results[index] = spec
        if missing_keys:
            rows = np.stack(
                [coords[pending[key][0]] for key in missing_keys]
            )
            computed = factory_many(rows)
            if len(computed) != len(missing_keys):
                raise ValueError(
                    "factory returned a wrong-length template sequence"
                )
            self.stats.misses += len(missing_keys)
            self._put_rows(list(zip(missing_keys, computed)))
            for key, spec in zip(missing_keys, computed):
                indices = pending[key]
                self.stats.memory_hits += len(indices) - 1
                for index in indices:
                    results[index] = spec
        return results  # type: ignore[return-value]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Entries resident in the in-memory front."""
        return len(self._memory)

    def disk_entries(self) -> int:
        """Entries in the persistent store (0 when memory-only)."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM templates"
            ).fetchone()
        except sqlite3.Error:
            return 0
        return int(count)

    def token_entries(self, rules_token: str) -> int:
        """Persisted entries for one rule engine's keyspace."""
        conn = self._connection()
        if conn is None:
            return 0
        prefix = f"{rules_token}|"
        try:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM templates "
                "WHERE substr(key, 1, ?) = ?",
                (len(prefix), prefix),
            ).fetchone()
        except sqlite3.Error:
            return 0
        return int(count)

    def clear(self, disk: bool = False) -> None:
        """Empty the memory tier (and optionally the persistent store)."""
        self._memory.clear()
        if disk:
            conn = self._connection()
            if conn is not None:
                try:
                    conn.execute("DELETE FROM templates")
                    conn.commit()
                except sqlite3.Error:
                    pass
