"""Batch compilation service: job farm + persistent decomposition cache.

The paper's workload studies (Tables IV-VII) transpile whole benchmark
suites best-of-N per circuit.  This package turns those one-off
``transpile()`` calls into a service:

* :mod:`repro.service.jobs`   — :class:`CompileJob` / :class:`CompileResult`
  descriptions with JSON round-trip, so suites can be queued, shipped to
  workers, and archived.  Jobs name a hardware target from
  :mod:`repro.targets`;
* :mod:`repro.service.cache`  — :class:`DecompositionCache`, an LRU-fronted
  sqlite store of 2Q decomposition templates keyed by canonical Weyl
  coordinates, shared by every worker and persisted across runs;
* :mod:`repro.service.engine` — :class:`BatchEngine`, a multiprocessing
  farm with deterministic per-job seeding, retry-on-failure, and progress
  callbacks, plus :class:`ResultStore` aggregation and the named job
  :data:`SUITES`;
* :mod:`repro.service.coverage_store` — :class:`CoverageStore`, the
  LRU-fronted sqlite store of coverage-set point clouds that the
  synthesis engine rides;
* :mod:`repro.service.front` / :mod:`repro.service.server` /
  :mod:`repro.service.client` — the network tier: one HTTP front
  (request loop, endpoints, submit validation, ndjson framing) under
  :class:`CompileServer`, an asyncio job server with digest dedup, a
  crash-safe :class:`PersistentJobQueue`, and bounded worker requeue;
  :class:`ServiceClient`, the blocking submit/stream client behind
  ``repro batch --submit``;
* :mod:`repro.service.router` — the sharded tier: :class:`ShardRouter`,
  the same front over routing instead of admission, partitions the
  digest keyspace into contiguous ranges across N independent shard
  servers (``repro serve --shards N``), and
  :func:`merge_shard_stores` folds shard result partitions back into
  one canonical store;
* :mod:`repro.service.store_base` — :class:`SqliteStoreMixin`, the one
  copy of the WAL/fork-safe/schema-versioned sqlite discipline every
  persistent store rides, with the ``iter_range``/``merge`` key-range
  surface the shard fold uses.
"""

from __future__ import annotations

from .cache import CacheStats, DecompositionCache, default_decomp_cache_dir
from .client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
    wait_until_ready,
)
from .coverage_store import (
    CoverageStore,
    CoverageStoreStats,
    default_coverage_store,
)
from .engine import (
    BatchEngine,
    ResultMergeError,
    ResultStore,
    ResultStoreError,
    SUITES,
    record_job_retry,
    record_job_settled,
    run_with_freight,
    suite_jobs,
)
from .jobs import CompileJob, CompileResult, circuit_digest
from .queue import PersistentJobQueue, QueuedJob, QueueError
from .router import (
    DigestRange,
    RouterThread,
    ShardRouter,
    merge_shard_stores,
    serve_sharded,
    shard_index,
    shard_ranges,
    shard_store_path,
)
from .server import CompileServer, ServerThread, serve
from .store_base import SqliteStoreMixin, StoreError, detect_store_kind

__all__ = [
    "BatchEngine",
    "CacheStats",
    "CompileJob",
    "CompileResult",
    "CompileServer",
    "CoverageStore",
    "CoverageStoreStats",
    "DecompositionCache",
    "DigestRange",
    "PersistentJobQueue",
    "QueueError",
    "QueuedJob",
    "ResultMergeError",
    "ResultStore",
    "ResultStoreError",
    "RouterThread",
    "SUITES",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "ShardRouter",
    "SqliteStoreMixin",
    "StoreError",
    "circuit_digest",
    "default_coverage_store",
    "default_decomp_cache_dir",
    "detect_store_kind",
    "merge_shard_stores",
    "record_job_retry",
    "record_job_settled",
    "run_with_freight",
    "serve",
    "serve_sharded",
    "shard_index",
    "shard_ranges",
    "shard_store_path",
    "suite_jobs",
    "wait_until_ready",
]
