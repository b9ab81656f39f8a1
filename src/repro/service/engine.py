"""Batch compilation engine: a multiprocessing transpile farm.

:class:`BatchEngine` runs :class:`~repro.service.jobs.CompileJob` lists
through the full transpilation pipeline, either serially in-process
(``workers <= 1``) or across a ``multiprocessing`` pool.  Guarantees:

* **Determinism** — every job carries its own seed, per-trial RNG
  streams are spawned from it, and each worker calls the exact same
  ``repro.compile(...)`` the sequential path would, so a parallel run
  is byte-identical (per the circuit digest) to a sequential one
  regardless of worker count or cache state.
* **Retry** — a job that raises is retried up to ``retries`` times; the
  final failure is returned as an error result rather than poisoning
  the batch.
* **Progress** — an optional callback fires in the parent as each job
  settles.

Workers share the persistent :class:`DecompositionCache`, so repeated
2Q coordinate classes are templated once per suite (and reused across
runs).  :class:`ResultStore` aggregates per-workload statistics, and
:data:`SUITES` names the paper's workload suites for the CLI.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
import sqlite3
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path

from ..obs import metrics, trace
from ..obs import profile as obs_profile
from .cache import DecompositionCache, default_decomp_cache_dir
from .jobs import CompileJob, CompileResult, circuit_digest
from .store_base import SqliteStoreMixin

__all__ = [
    "BatchEngine",
    "ResultMergeError",
    "ResultStore",
    "ResultStoreError",
    "SUITES",
    "absorb_freight",
    "execute_job",
    "fan_out",
    "record_job_retry",
    "record_job_settled",
    "run_with_freight",
    "start_worker",
    "suite_jobs",
]


def _worker_context():
    """Fork where the platform has it, spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _restore_default_sigterm() -> None:
    """Worker start: drop the SIGTERM handler a fork inherits.

    A parent's handler that raises (``SystemExit`` from a harness's
    cleanup hook, say) would turn a terminate into an exception in the
    middle of the worker's teardown, which can wedge ``Pool.terminate()``.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _worker_main(target, args: tuple) -> None:
    _restore_default_sigterm()
    target(*args)


def start_worker(target, *args, daemon: bool = True):
    """Start ``target(conn, *args)`` in a worker process, as :func:`fan_out` pools do.

    ``conn`` is the sending end of a one-way pipe; returns the process
    and the receiving end.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    process = _worker_context().Process(
        target=_worker_main, args=(target, (sender, *args)), daemon=daemon
    )
    process.start()
    sender.close()
    return process, receiver


def fan_out(function, payloads: Sequence, workers: int) -> Iterator:
    """Stream ``function(payload)`` results over a worker pool.

    The service layer's one fan-out primitive: ``workers <= 1`` (or a
    single payload) runs serially in-process, otherwise a fork pool
    (spawn on non-POSIX platforms) streams results as they settle via
    ``imap_unordered``.  Both :class:`BatchEngine` compile rounds and
    the synthesis engine's multi-start refinements ride it, so pooling
    discipline (fork safety, streaming, worker-count invariance of the
    result set) lives in exactly one place.  ``function`` must be a
    module-level callable and payloads picklable.  Pool workers start
    with the default SIGTERM disposition, like :func:`start_worker`'s.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            yield function(payload)
        return
    with _worker_context().Pool(
        processes=min(workers, len(payloads)),
        initializer=_restore_default_sigterm,
    ) as pool:
        yield from pool.imap_unordered(function, payloads)

#: Paper Table VII / Fig. 3b benchmark order.
_WORKLOAD_SUITE = (
    "quantum_volume",
    "vqe_linear",
    "ghz",
    "hlf",
    "qft",
    "adder",
    "qaoa",
    "vqe_full",
    "multiplier",
)


def _suite(
    workloads: Sequence[str],
    rules: Sequence[str],
    num_qubits: int,
    target: str,
    trials: int,
    seed: int,
) -> tuple[CompileJob, ...]:
    return tuple(
        CompileJob(
            workload=workload,
            num_qubits=num_qubits,
            rules=rule,
            trials=trials,
            seed=seed,
            target=target,
        )
        for workload in workloads
        for rule in rules
    )


#: Named job suites.  "table4"/"table5" run the optimized parallel-drive
#: flow over the full workload set (the same transpiles back both of the
#: paper's parallel-drive tables — they differ only in analysis, so the
#: names alias one job tuple); "table7" adds the baseline for the
#: published side-by-side; "smoke" is a seconds-scale sanity suite.
_PARALLEL_SUITE = _suite(_WORKLOAD_SUITE, ("parallel",), 16, "snail_4x4", 10, 7)
SUITES: dict[str, tuple[CompileJob, ...]] = {
    "smoke": _suite(
        ("ghz", "qft"), ("baseline", "parallel"), 8, "square_2x4", 2, 7
    ),
    "table4": _PARALLEL_SUITE,
    "table5": _PARALLEL_SUITE,
    "table7": _suite(
        _WORKLOAD_SUITE, ("baseline", "parallel"), 16, "snail_4x4", 10, 7
    ),
}


def suite_jobs(
    name: str,
    trials: int | None = None,
    seed: int | None = None,
    target: str | None = None,
    pipeline: str | None = None,
) -> list[CompileJob]:
    """Jobs of a named suite, optionally overriding knobs suite-wide.

    A ``target`` override retargets every job in the suite (the target
    must be large enough for the suite's register width — job
    validation enforces that); a ``pipeline`` override swaps every
    job's pass pipeline (e.g. ``"fast"`` for a latency smoke run).
    """
    try:
        jobs = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; known: {sorted(SUITES)}"
        ) from None
    return [
        job.updated(trials=trials, seed=seed, target=target, pipeline=pipeline)
        for job in jobs
    ]


def _warm_rules(names: set[str]) -> None:
    """Force lazy coverage-set construction before forking workers.

    Children inherit the assembled sets (fork) instead of each paying
    the full Algorithm-2 build.  Processes that start cold — spawned
    workers, or workers forked by a server that never warmed — load the
    sets' point clouds from the coverage store and assemble their hulls
    (SVD + qhull, a fraction of a second per set).  Coverage hulls are
    independent of a
    target's speed-limit scale and 1Q duration, so warming the default
    engines covers every target variant.
    """
    from ..core.decomposition_rules import build_rules

    with trace.span("batch.warm_rules", engines=len(names)):
        for name in sorted(names):
            rules = build_rules(name)
            if name == "baseline":
                _ = rules.coverage
            else:
                _ = rules.iswap_parallel_k1
                _ = rules.sqrt_parallel_k1
                _ = rules.sqrt_parallel_k2


#: Per-process cache instances keyed by resolved store path, so every
#: job a worker executes shares one sqlite connection and one warm
#: memory tier (instances survive fork; the connection is re-opened
#: lazily on first use in the child).
_PROCESS_CACHES: dict[str, DecompositionCache] = {}


def _cache_for(cache_path: str | Path | None) -> DecompositionCache:
    resolved = (
        Path(cache_path)
        if cache_path is not None
        else default_decomp_cache_dir() / "templates.sqlite"
    )
    key = str(resolved)
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = _PROCESS_CACHES[key] = DecompositionCache(path=resolved)
    return cache


def execute_job(
    job: CompileJob,
    use_cache: bool = True,
    cache_path: str | Path | None = None,
    profile: bool = False,
) -> CompileResult:
    """Run one compile job to completion (also the pool worker body).

    Rides the :func:`repro.compile` facade: the job's embedded
    :class:`~repro.transpiler.compiler.CompilerConfig` names the
    pipeline, rule engine, and hardware target, and the target supplies
    every device-dependent ingredient (coupling map, speed-limit-scaled
    rules, per-edge schedule durations, fidelity model).  With
    ``profile=True`` the per-pass timing records come back on
    ``CompileResult.pass_profile``.
    """
    from ..circuits.workloads import get_workload
    from ..transpiler.compiler import compile as compile_circuit
    from ..transpiler.passes import PassProfile

    # Adopt the submitter's trace context: a no-op under fork (the
    # worker inherited the live tracer), the anchor under spawn or when
    # a job file carries a context from another process.
    trace.TRACER.activate(job.trace)
    start = time.perf_counter()
    pass_profile = PassProfile() if profile else None
    metrics.counter("repro.service.jobs").inc()
    with trace.span("job.run", job=job.label, seed=job.seed) as job_span:
        try:
            circuit = get_workload(
                job.workload, job.num_qubits, seed=job.workload_seed
            )
            cache = _cache_for(cache_path) if use_cache else None
            result = compile_circuit(
                circuit,
                config=job.config,
                seed=job.seed,
                cache=cache,
                profile=pass_profile,
            )
        except Exception:  # noqa: BLE001 - reported to the engine for retry
            wall_time = time.perf_counter() - start
            metrics.counter("repro.service.job_errors").inc()
            metrics.histogram("repro.service.job_seconds").observe(wall_time)
            job_span.set(outcome="error")
            return CompileResult.failure(
                job,
                error=traceback.format_exc(limit=20),
                wall_time=wall_time,
            )
        wall_time = time.perf_counter() - start
        metrics.histogram("repro.service.job_seconds").observe(wall_time)
        job_span.set(outcome="ok")
    return CompileResult(
        job=job,
        duration=result.duration,
        pulse_count=result.pulse_count,
        swap_count=result.swap_count,
        total_pulse_time=result.total_pulse_time,
        estimated_fidelity=(
            result.estimated_fidelity
            if result.estimated_fidelity is not None
            else math.nan
        ),
        trial_index=result.trial_index,
        digest=circuit_digest(result.circuit),
        gate_counts=dict(result.circuit.count_ops()),
        wall_time=wall_time,
        pass_profile=(
            pass_profile.to_dict() if pass_profile is not None else None
        ),
    )


def run_with_freight(
    function: Callable,
    *args,
    profile_interval: float | None = None,
    **kwargs,
):
    """Run ``function`` and capture its observability freight.

    The freight is what crosses a process boundary next to a result:
    the spans the call recorded, the metrics *delta*, and (when the
    parent runs the sampling profiler) the stack-sample delta.  Deltas
    — not absolute snapshots — because fork-pool workers inherit the
    parent's counts; shipping absolutes would double-count everything
    recorded before the fork.  Consumers ignore freight stamped with
    their own pid (serial in-process rounds).

    This is the one freight-capture path: both the
    :class:`BatchEngine` pool worker body and the compile service's
    per-job workers (``repro.service.server``) ride it, so the
    no-double-count discipline lives in exactly one place.

    ``fork()`` never carries threads into the child, so a worker whose
    parent had the sampler running arrives threadless:
    ``profile_interval`` tells it to restart the sampler before the
    body runs (and to start it fresh under ``spawn``).
    """
    marker = trace.TRACER.mark()
    before = metrics.REGISTRY.snapshot()
    samples_before = None
    if profile_interval is not None:
        obs_profile.enable_profiling(interval=profile_interval)
        samples_before = obs_profile.PROFILER.snapshot()
    result = function(*args, **kwargs)
    freight = {
        "pid": os.getpid(),
        "spans": trace.TRACER.drain_since(marker),
        "metrics": metrics.MetricsRegistry.delta(
            before, metrics.REGISTRY.snapshot()
        ),
    }
    if samples_before is not None:
        freight["profile"] = obs_profile.SamplingProfiler.delta(
            samples_before, obs_profile.PROFILER.snapshot()
        )
    return result, freight


def absorb_freight(freight: dict) -> None:
    """Merge another process's freight into this process's telemetry.

    The receiving end of :func:`run_with_freight`: spans go to the
    tracer, the metrics delta to the registry, stack samples to the
    profiler.  Callers skip freight this process recorded itself (it
    is already here); each keeps its own same-process check.
    """
    trace.TRACER.absorb(freight.get("spans", ()))
    delta = freight.get("metrics")
    if delta:
        metrics.REGISTRY.merge_snapshot(delta)
    samples = freight.get("profile")
    if samples:
        obs_profile.PROFILER.absorb(samples)


def record_job_retry(count: int = 1) -> None:
    """Count a retry decision (one per re-attempted execution).

    Called exactly once, by whichever layer *decides* the retry — the
    :class:`BatchEngine` round loop for in-batch retries, the compile
    service for error-result requeues — never by the worker body, so
    the count survives freight merges without double-counting.
    """
    metrics.counter("repro.service.job_retries").inc(count)


def record_job_settled(result: CompileResult) -> None:
    """Record a job's final settlement (once per job, not per attempt).

    Observes ``repro.service.job_attempts`` with the *cumulative*
    attempt count and bumps ``repro.service.jobs_failed`` for final
    failures.  Settlement accounting must run in the settling process
    only (engine parent or service scheduler): a job whose worker died
    mid-run re-executes through ``execute_job`` — which counts
    per-execution metrics that ride the freight — but settles exactly
    once, so ``job_attempts.count`` equals the number of jobs even
    when executions outnumber them.
    """
    metrics.histogram(
        "repro.service.job_attempts", metrics.BATCH_SIZE_BUCKETS
    ).observe(result.attempts)
    if not result.ok:
        metrics.counter("repro.service.jobs_failed").inc()


def _execute_payload(payload: tuple) -> tuple[int, CompileResult, dict]:
    """Pool entry point: unpack (index, job, cache + profile config).

    The third element is the observability freight captured by
    :func:`run_with_freight` around the job body.
    """
    index, job, use_cache, cache_path, profile, profile_interval = payload
    result, freight = run_with_freight(
        execute_job,
        job,
        use_cache=use_cache,
        cache_path=cache_path,
        profile=profile,
        profile_interval=profile_interval,
    )
    return index, result, freight


class BatchEngine:
    """Farm compile jobs over worker processes with retry and progress.

    Args:
        workers: process count; ``<= 1`` runs serially in-process.
        use_cache: share a persistent :class:`DecompositionCache`
            between workers (``False`` disables all caching).
        cache_path: explicit sqlite path for the cache (defaults to the
            ``REPRO_DECOMP_CACHE_DIR``-resolved store).
        retries: extra attempts for a job whose worker raised.
        progress: ``callback(done, total, result)`` fired in the parent
            as each job settles (after its final attempt).
        warm_coverage: pre-build coverage sets in the parent before
            spawning a pool (ignored for serial runs, where laziness is
            part of the cache's cold/warm story).
        profile: collect per-pass timing/gate-count records for every
            job (returned on ``CompileResult.pass_profile``; aggregate
            with ``ResultStore.format_pass_profile``).
    """

    def __init__(
        self,
        workers: int | None = None,
        use_cache: bool = True,
        cache_path: str | Path | None = None,
        retries: int = 1,
        progress: Callable[[int, int, CompileResult], None] | None = None,
        warm_coverage: bool = True,
        profile: bool = False,
    ):
        if workers is None:
            workers = multiprocessing.cpu_count()
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = max(1, int(workers))
        self.use_cache = bool(use_cache)
        self.cache_path = cache_path
        self.retries = int(retries)
        self.progress = progress
        self.warm_coverage = bool(warm_coverage)
        self.profile = bool(profile)

    # -- internals -----------------------------------------------------------

    def _payloads(
        self, indexed: list[tuple[int, CompileJob]]
    ) -> list[tuple]:
        path = (
            str(self.cache_path) if self.cache_path is not None else None
        )
        context = trace.TRACER.current_context()
        if context is not None:
            # Stamp the submitting span into each job so worker spans
            # parent under it even across a spawn boundary.
            payload_trace = context.to_dict()
            indexed = [
                (index, job.updated(trace=payload_trace))
                for index, job in indexed
            ]
        profile_interval = (
            obs_profile.PROFILER.interval
            if obs_profile.profiling_enabled()
            else None
        )
        return [
            (index, job, self.use_cache, path, self.profile,
             profile_interval)
            for index, job in indexed
        ]

    def _run_round(
        self, indexed: list[tuple[int, CompileJob]], pool_size: int
    ) -> Iterator[tuple[int, CompileResult]]:
        """Yield (index, result) pairs as they settle, streaming.

        Worker observability freight is merged into the parent tracer
        and registry here, as each job settles — so spans from a pool
        round land in the same buffer the serial path fills directly.
        """
        pid = os.getpid()
        for index, result, freight in fan_out(
            _execute_payload, self._payloads(indexed), pool_size
        ):
            if freight.get("pid") != pid:
                absorb_freight(freight)
            yield index, result

    def _cache_covers(self, jobs: Sequence[CompileJob]) -> bool:
        """True when the persistent store has templates for every engine.

        Tokens are built per (rules, target) pair, because a target's
        speed-limit scale is part of the cache keyspace (fast/slow
        variants cache different template durations).  A populated
        keyspace means workers will mostly hit the cache, so
        pre-building coverage hulls in the parent would waste exactly
        the work the cache exists to skip.  (A partially-warm store can
        still miss; the first miss then builds lazily in that worker.)
        """
        if not self.use_cache:
            return False
        from ..targets import get_target

        cache = _cache_for(self.cache_path)
        pairs = {(job.rules, job.target) for job in jobs}
        return all(
            cache.token_entries(
                get_target(target).build_rules(name).cache_token
            )
            > 0
            for name, target in pairs
        )

    # -- API -----------------------------------------------------------------

    def run(self, jobs: Sequence[CompileJob]) -> list[CompileResult]:
        """Execute all jobs; results come back in job order."""
        jobs = list(jobs)
        if not jobs:
            return []
        pool_size = min(self.workers, len(jobs))
        metrics.counter("repro.service.jobs_queued").inc(len(jobs))
        with trace.span(
            "batch.run", jobs=len(jobs), workers=pool_size
        ):
            if pool_size > 1 and self.warm_coverage:
                if not self._cache_covers(jobs):
                    _warm_rules({job.rules for job in jobs})
            settled: dict[int, CompileResult] = {}
            pending = list(enumerate(jobs))
            done = 0
            for attempt in range(self.retries + 1):
                if not pending:
                    break
                still_failing: list[tuple[int, CompileJob]] = []
                # _run_round streams: progress fires as each job
                # settles, not after the whole round drains.
                for index, result in self._run_round(pending, pool_size):
                    if not result.ok and attempt < self.retries:
                        still_failing.append((index, jobs[index]))
                        record_job_retry()
                        continue
                    result = result.with_attempts(attempt + 1)
                    record_job_settled(result)
                    settled[index] = result
                    done += 1
                    if self.progress is not None:
                        self.progress(done, len(jobs), result)
                pending = still_failing
        return [settled[index] for index in range(len(jobs))]


class ResultStoreError(RuntimeError):
    """A persistent result store could not be opened or merged."""


class ResultMergeError(ResultStoreError):
    """Merging two stores found the same job with different digests.

    Carries ``conflicts``: a list of ``(job_key, ours, theirs)`` digest
    triples.  A conflict means two shards claim to have compiled the
    same fully-specified job to different circuits — a determinism
    violation that must be investigated, never silently resolved.
    """

    def __init__(self, conflicts: list[tuple[str, str, str]]):
        self.conflicts = conflicts
        preview = ", ".join(key[:12] for key, _, _ in conflicts[:4])
        super().__init__(
            f"{len(conflicts)} job(s) have conflicting result digests "
            f"across stores (keys {preview}{'…' if len(conflicts) > 4 else ''}); "
            "identical jobs must compile identically — refusing to merge"
        )


#: Result-store schema version (bumped on incompatible layout changes).
_RESULT_SCHEMA = 1


class ResultStore(SqliteStoreMixin):
    """Accumulate compile results and aggregate per-(workload, rules).

    The store is what table drivers and the CLI consume: it keeps the
    raw results (JSON-serializable) and derives suite-level statistics
    without re-running anything.

    With ``path`` set, successful results are additionally persisted to
    a sqlite table keyed by :meth:`CompileJob.identity_digest` — the
    compile service's warm dedup tier (a restarted server answers
    previously-compiled jobs without scheduling work) and the shard
    unit :meth:`merge` folds together.  Failed results stay in memory
    only: an error is not a reusable artifact, and persisting it would
    let a transient crash permanently shadow a job's real result.
    """

    _STORE_SCHEMA = _RESULT_SCHEMA
    _STORE_DDL = (
        "CREATE TABLE IF NOT EXISTS results ("
        "  job_key TEXT PRIMARY KEY,"
        "  digest TEXT NOT NULL,"
        "  payload TEXT NOT NULL,"
        "  recorded_at REAL NOT NULL)",
    )
    _STORE_ERROR = ResultStoreError
    # check_same_thread off: the compile server opens the store on its
    # constructing thread and serves it from the event loop's thread;
    # each instance stays single-writer.
    _STORE_SAME_THREAD = False
    _STORE_TABLE = "results"
    _STORE_KEY = "job_key"
    _STORE_LABEL = "result store"

    def __init__(
        self,
        results: Sequence[CompileResult] = (),
        path: str | Path | None = None,
    ):
        self._results: list[CompileResult] = []
        self._by_key: dict[str, CompileResult] = {}
        self._init_store(path)
        if self.path is not None:
            for result in self._load_persisted(self.path):
                self._results.append(result)
                self._by_key[result.job.identity_digest()] = result
        for result in results:
            self.add(result)

    # -- persistence ---------------------------------------------------------

    def _store_schema_message(self, found: int) -> str:
        return (
            f"result store {self.path} has schema v{found}, "
            f"this build writes v{_RESULT_SCHEMA}; migrate or "
            "point the server at a fresh --results-db path"
        )

    def _load_persisted(self, path: Path) -> list[CompileResult]:
        """All persisted results of the store at ``path`` (may be new)."""
        if not path.exists():
            # First open: create the schema eagerly so a crash before
            # the first result still leaves a well-formed store.
            self._connection()
            return []
        rows = self._connection().execute(
            "SELECT payload FROM results ORDER BY recorded_at, job_key"
        ).fetchall()
        return [CompileResult.from_dict(json.loads(p)) for (p,) in rows]

    def add(self, result: CompileResult) -> None:
        """Record one result (persisted when backed and successful)."""
        self._results.append(result)
        if not result.ok or not result.digest:
            return
        key = result.job.identity_digest()
        self._by_key[key] = result
        conn = self._connection()
        if conn is not None:
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?)",
                    (key, result.digest, result.to_json(), time.time()),
                )
                conn.commit()
            except sqlite3.Error as exc:
                raise ResultStoreError(
                    f"cannot persist result to {self.path}: {exc}"
                ) from exc

    def get(self, job_key: str) -> CompileResult | None:
        """Successful result for a job identity digest, or ``None``."""
        return self._by_key.get(job_key)

    def __contains__(self, job_key: str) -> bool:
        return job_key in self._by_key

    def merge(self, other_path: str | Path) -> int:
        """Fold another store's persisted results into this one.

        This is the shard-merge primitive: N service nodes each write
        their own result db, then one node folds them together.
        Returns the number of results actually absorbed; same-key
        same-digest rows are idempotently skipped.  Same-key
        *different*-digest rows raise :class:`ResultMergeError` before
        anything is written — every conflict is collected first, so
        the exception names the full damage and the store is left
        untouched.
        """
        other_path = Path(other_path)
        if (
            self.path is not None
            and other_path.exists()
            and other_path.resolve() == self.path.resolve()
        ):
            raise ResultStoreError(
                f"refusing to merge result store {self.path} into itself"
            )
        other = ResultStore(path=other_path)
        try:
            fresh: list[CompileResult] = []
            conflicts: list[tuple[str, str, str]] = []
            for result in other.ok():
                key = result.job.identity_digest()
                mine = self._by_key.get(key)
                if mine is None:
                    fresh.append(result)
                elif mine.digest != result.digest:
                    conflicts.append((key, mine.digest, result.digest))
            if conflicts:
                raise ResultMergeError(conflicts)
            for result in fresh:
                self.add(result)
        finally:
            other.close()
        metrics.counter("repro.service.store_merged").inc(len(fresh))
        return len(fresh)

    @property
    def results(self) -> tuple[CompileResult, ...]:
        """All recorded results, in insertion order."""
        return tuple(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def ok(self) -> list[CompileResult]:
        """Successful results only."""
        return [r for r in self._results if r.ok]

    def failures(self) -> list[CompileResult]:
        """Failed results only."""
        return [r for r in self._results if not r.ok]

    def best(
        self, workload: str, rules: str
    ) -> CompileResult | None:
        """Shortest-duration success for one (workload, rules) pair."""
        matches = [
            r
            for r in self.ok()
            if r.job.workload == workload and r.job.rules == rules
        ]
        if not matches:
            return None
        return min(matches, key=lambda r: r.duration)

    def summary(self) -> dict[str, dict]:
        """Aggregate statistics keyed by the job label."""
        grouped: dict[str, list[CompileResult]] = {}
        for result in self._results:
            grouped.setdefault(result.job.label, []).append(result)
        out: dict[str, dict] = {}
        for label, results in grouped.items():
            successes = [r for r in results if r.ok]
            entry: dict = {
                "jobs": len(results),
                "errors": len(results) - len(successes),
            }
            if successes:
                durations = [r.duration for r in successes]
                entry.update(
                    {
                        "best_duration": min(durations),
                        "mean_duration": sum(durations) / len(durations),
                        "mean_pulses": sum(
                            r.pulse_count for r in successes
                        )
                        / len(successes),
                        "mean_swaps": sum(
                            r.swap_count for r in successes
                        )
                        / len(successes),
                        "wall_time": sum(r.wall_time for r in successes),
                    }
                )
                fidelities = [
                    r.estimated_fidelity
                    for r in successes
                    if not math.isnan(r.estimated_fidelity)
                ]
                if fidelities:
                    entry["best_fidelity"] = max(fidelities)
            out[label] = entry
        return out

    def format_table(self) -> str:
        """Render the summary with the experiments table formatter."""
        from ..experiments.common import format_table

        rows = []
        for label, entry in sorted(self.summary().items()):
            if entry.get("errors") == entry["jobs"]:
                rows.append(
                    [label, "-", "-", "-", "-", "-", entry["errors"]]
                )
                continue
            fidelity = entry.get("best_fidelity")
            rows.append(
                [
                    label,
                    round(entry["best_duration"], 2),
                    "-" if fidelity is None else round(fidelity, 4),
                    round(entry["mean_pulses"], 1),
                    round(entry["mean_swaps"], 1),
                    round(entry["wall_time"], 2),
                    entry["errors"],
                ]
            )
        return format_table(
            ["job", "best dur", "best FT", "pulses", "swaps", "wall s",
             "errors"],
            rows,
        )

    def pass_profile(self):
        """Merge every result's per-pass records into one profile.

        Returns a :class:`~repro.transpiler.passes.PassProfile` (empty
        when no job ran with profiling enabled).
        """
        from ..transpiler.passes import PassProfile

        merged = PassProfile()
        for result in self._results:
            if result.pass_profile:
                merged.records.extend(
                    PassProfile.from_dict(result.pass_profile).records
                )
        return merged

    def format_pass_profile(self) -> str:
        """Render the suite-wide per-pass timing table."""
        profile = self.pass_profile()
        if not len(profile):
            return "no pass-profile records (run with profiling enabled)"
        return profile.format_table()

    def to_dict(self) -> dict:
        """JSON-compatible dump: raw results plus the summary."""
        return {
            "results": [r.to_dict() for r in self._results],
            "summary": self.summary(),
        }
