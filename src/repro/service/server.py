"""Compile-as-a-service: the asyncio job server.

:class:`CompileServer` is the long-running network tier on top of the
batch machinery: it accepts :class:`~repro.service.jobs.CompileJob`
submissions over HTTP, dedups them by
:meth:`~repro.service.jobs.CompileJob.identity_digest` *before* any
work is scheduled, feeds a crash-safe priority queue
(:class:`~repro.service.queue.PersistentJobQueue`) into a pool of
forked worker processes running the same
:func:`~repro.service.engine.execute_job` body the
:class:`~repro.service.engine.BatchEngine` farms, streams per-job
progress and results back as JSON lines, and survives worker crashes
with bounded requeue plus exponential backoff.

Dedup tiers, checked in order at admission:

1. **Completed results** — the server's
   :class:`~repro.service.engine.ResultStore` (optionally sqlite-backed,
   so warm hits survive restarts) answers immediately, no scheduling.
2. **In-flight jobs** — an identical submission subscribes to the
   already-running job's completion instead of queueing a duplicate.

Workers below those tiers still share the persistent
:class:`~repro.service.cache.DecompositionCache` and coverage store,
so even a cold job reuses every previously-templated coordinate class.

Protocol: the shared :class:`~repro.service.front.HttpFront` (see
there for transport and endpoints).  A submission streams ``hello``,
per-job ``accepted`` / ``running`` / ``requeued`` / ``result`` events,
then ``done``; ``result`` events carry the serialized
:class:`~repro.service.jobs.CompileResult` plus observability freight
(worker spans and metric deltas) so a traced client renders one
client → server → worker Perfetto timeline.  Health reports queue
depth, inflight count and results held.  Drain shutdown finishes all
queued work first; non-drain leaves unfinished rows in the durable
queue for the next start (crash semantics, on purpose).

Trace context rides the network boundary exactly the way it rides the
process boundary: jobs carry ``CompileJob.trace``, workers activate it,
and the freight returns the spans — the server only *forwards*
per-job freight to the submitting connection and absorbs it locally,
while the client dedups by span id before absorbing, so in-process
test servers and standalone ``repro serve`` processes both produce a
single-copy timeline.

Scheduling notes: one forked process per job execution (crash
attribution is exact — a SIGKILLed worker is an ``EOFError`` on its
result pipe, never a poisoned pool), at most ``workers`` concurrent.
A requeued job holds its worker slot through its backoff sleep; with
bounded attempts and a capped backoff this idles a slot for at most a
few seconds, which keeps eligibility ordering trivially correct.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..obs import metrics, trace
from .engine import (
    ResultStore,
    absorb_freight,
    execute_job,
    record_job_retry,
    record_job_settled,
    run_with_freight,
    start_worker,
)
from .front import FrontThread, HttpFront, service_span
from .jobs import CompileJob, CompileResult
from .queue import PersistentJobQueue

__all__ = ["CompileServer", "ServerThread", "serve"]


def _service_worker(conn, payload: tuple) -> None:
    """Forked per-job worker body: execute, ship (result, freight)."""
    job, use_cache, cache_path, delay = payload
    try:
        if delay:
            time.sleep(delay)
        result, freight = run_with_freight(
            execute_job, job, use_cache=use_cache, cache_path=cache_path
        )
        conn.send((result, freight))
    finally:
        conn.close()


def _collect_worker(receiver, process) -> tuple | None:
    """Blockingly await one worker's pipe; ``None`` means it died.

    Runs in an executor thread so the event loop never blocks.  A
    worker that was SIGKILLed (or OOM-killed, or segfaulted) closes
    its pipe end without sending — the ``EOFError`` is the crash
    signal the requeue path keys off.
    """
    try:
        item = receiver.recv()
    except (EOFError, OSError):
        item = None
    finally:
        receiver.close()
    process.join()
    return item


@dataclass
class _JobEntry:
    """One admitted (non-dedup'd) job and its subscribers."""

    key: str
    job: CompileJob
    priority: int
    attempts: int = 0
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: ``(submission index, connection event queue)`` pairs; grows when
    #: identical submissions dedup onto this entry.
    subscribers: list = field(default_factory=list)

    def publish(self, event: dict) -> None:
        """Fan one event out to every subscriber with its own index."""
        for index, queue in self.subscribers:
            queue.put_nowait({**event, "index": index})


class CompileServer(HttpFront):
    """Async compile-job server over the batch-engine worker body.

    Args:
        host/port: bind address (``port=0`` lets the OS pick; the
            resolved port is readable after startup).
        workers: maximum concurrently-running job processes.
        use_cache/cache_path: decomposition-cache wiring, exactly as
            :class:`~repro.service.engine.BatchEngine` takes it.
        retries: extra executions granted per job after a failure or
            worker death (``retries=2`` → at most 3 executions).
        backoff_base/backoff_cap: exponential requeue backoff, seconds
            (``base * 2**(attempt-1)``, capped).
        queue_path: sqlite path for the crash-safe job queue (``None``
            → memory-only).
        results_path: sqlite path for the persistent result store that
            backs warm dedup across restarts (``None`` → memory-only).
        worker_delay: artificial per-execution delay in seconds, so
            lifecycle tests can hold a job open long enough to SIGKILL
            its worker and load benches can simulate heavy jobs.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        use_cache: bool = True,
        cache_path: str | Path | None = None,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        queue_path: str | Path | None = None,
        results_path: str | Path | None = None,
        worker_delay: float = 0.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        super().__init__(host, port)
        self.workers = int(workers)
        self.use_cache = bool(use_cache)
        self.cache_path = (
            str(cache_path) if cache_path is not None else None
        )
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.worker_delay = float(worker_delay)
        self.queue = PersistentJobQueue(queue_path)
        self.results = ResultStore(path=results_path)
        self._inflight: dict[str, _JobEntry] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._tasks: set[asyncio.Task] = set()
        self._scheduler_task: asyncio.Task | None = None
        self._work_available: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._live_procs: set = set()

    # -- lifecycle -----------------------------------------------------------

    def _on_start(self) -> None:
        self._work_available = asyncio.Event()
        self._slots = asyncio.Semaphore(self.workers)
        for queued in self.queue.recover():
            # A previous process left these unfinished — crash-safe
            # requeue.  Attempt counts survive so the retry budget
            # spans crashes too.
            metrics.counter("repro.service.recovered").inc()
            self._admit_entry(
                _JobEntry(
                    key=queued.key,
                    job=queued.job,
                    priority=queued.priority,
                    attempts=queued.attempts,
                ),
                persist=False,
            )
        self._scheduler_task = asyncio.create_task(self._scheduler())

    def _on_stop(self) -> None:
        self._scheduler_task.cancel()
        for task in list(self._tasks):
            task.cancel()
        for proc in list(self._live_procs):
            if proc.is_alive():
                proc.terminate()

    def _on_closed(self) -> None:
        self.results.close()
        self.queue.close()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` finish all admitted work first.

        Non-drain shutdown intentionally leaves unsettled rows in the
        durable queue: the next server pointed at the same
        ``queue_path`` recovers and finishes them.
        """
        self._accepting = False
        if drain:
            while self._inflight:
                await asyncio.sleep(0.02)
        self._stop()

    def announce(self) -> None:
        print(
            f"repro compile service listening on {self.url} "
            f"(workers={self.workers}, retries={self.retries}, "
            f"queue={'durable' if self.queue.path else 'memory'}, "
            f"results={'durable' if self.results.path else 'memory'})",
            flush=True,
        )

    # -- admission -----------------------------------------------------------

    def _update_gauges(self) -> None:
        metrics.gauge("repro.service.inflight").set(len(self._inflight))
        metrics.gauge("repro.service.queue_depth").set(self.queue.depth())

    def _admit_entry(self, entry: _JobEntry, persist: bool = True) -> None:
        """Make a fresh entry schedulable (durably recorded first)."""
        if persist:
            self.queue.put(entry.key, entry.job, entry.priority)
        self._inflight[entry.key] = entry
        heapq.heappush(
            self._heap, (entry.priority, next(self._seq), entry.key)
        )
        self._update_gauges()
        if self._work_available is not None:
            self._work_available.set()

    def _admit(
        self, index: int, job: CompileJob, priority: int, events
    ) -> list[dict]:
        """Route one submitted job through the dedup tiers.

        Returns the events to emit immediately; queued/inflight jobs
        additionally subscribe ``events`` for their later lifecycle.
        """
        key = job.identity_digest()
        metrics.counter("repro.service.submissions").inc()
        if job.trace is not None:
            # Join the submitter's trace so server-side spans (and the
            # workers below) land on the client's timeline.
            trace.TRACER.activate(job.trace)
        cached = self.results.get(key)
        if cached is not None:
            metrics.counter("repro.service.dedup_hits").inc()
            metrics.counter("repro.service.dedup_store").inc()
            return [
                {"event": "accepted", "index": index, "key": key,
                 "status": "dedup_store"},
                {"event": "result", "index": index, "key": key,
                 "ok": cached.ok, "dedup": True,
                 "result": cached.to_dict()},
            ]
        entry = self._inflight.get(key)
        if entry is not None:
            metrics.counter("repro.service.dedup_hits").inc()
            metrics.counter("repro.service.dedup_inflight").inc()
            entry.subscribers.append((index, events))
            return [
                {"event": "accepted", "index": index, "key": key,
                 "status": "dedup_inflight"},
            ]
        entry = _JobEntry(key=key, job=job, priority=priority)
        entry.subscribers.append((index, events))
        self._admit_entry(entry)
        return [
            {"event": "accepted", "index": index, "key": key,
             "status": "queued"},
        ]

    # -- scheduling ----------------------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            await self._work_available.wait()
            self._work_available.clear()
            while self._heap:
                _, _, key = heapq.heappop(self._heap)
                entry = self._inflight.get(key)
                if entry is None:
                    continue
                await self._slots.acquire()
                task = asyncio.create_task(self._run_entry(entry))
                self._tasks.add(task)
                task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._slots.release()
        if not task.cancelled() and task.exception() is not None:
            # A scheduler bug must not wedge the slot accounting; the
            # entry's subscribers already got a failure result.
            metrics.counter("repro.service.scheduler_errors").inc()

    async def _execute_once(self, entry: _JobEntry) -> tuple | None:
        """One forked execution; ``None`` signals a dead worker."""
        job = entry.job
        if job.trace is None and trace.TRACER.enabled:
            context = trace.TRACER.current_context()
            if context is not None:
                job = job.updated(trace=context.to_dict())
        process, receiver = start_worker(
            _service_worker,
            (job, self.use_cache, self.cache_path, self.worker_delay),
        )
        self._live_procs.add(process)
        entry.publish(
            {"event": "running", "key": entry.key, "pid": process.pid,
             "attempt": entry.attempts}
        )
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, _collect_worker, receiver, process
            )
        finally:
            self._live_procs.discard(process)

    async def _requeue(self, entry: _JobEntry, reason: str) -> None:
        """One requeue decision: durable state, metrics, event, backoff.

        ``repro.service.requeues`` counts scheduler requeue events and
        :func:`record_job_retry` counts retry decisions — both fire
        here and only here, so the server-side invariant holds:
        ``job_attempts.total - job_attempts.count == job_retries ==
        requeues`` once every job settles, no matter how executions
        were lost (a killed worker's own freight never arrives, so
        nothing it counted can double-count against these).
        """
        metrics.counter("repro.service.requeues").inc()
        record_job_retry()
        delay = min(
            self.backoff_cap,
            self.backoff_base * 2 ** (entry.attempts - 1),
        )
        self.queue.requeue(entry.key, entry.attempts)
        entry.publish(
            {"event": "requeued", "key": entry.key,
             "attempt": entry.attempts, "delay_s": delay,
             "reason": reason}
        )
        await asyncio.sleep(delay)

    async def _run_entry(self, entry: _JobEntry) -> None:
        """Drive one admitted job to settlement, requeueing as needed."""
        freight: dict = {}
        result: CompileResult | None = None
        while True:
            entry.attempts += 1
            self.queue.mark_running(entry.key, entry.attempts)
            item = await self._execute_once(entry)
            if item is None:
                # The worker process died without reporting — SIGKILL,
                # OOM, segfault.  Its per-execution metrics died with
                # it, which is exactly why settlement accounting runs
                # here and not in the worker.
                if self._stop_event is not None and self._stop_event.is_set():
                    # Forced shutdown terminated it; leave the queue
                    # row for recovery, report nothing.
                    self._inflight.pop(entry.key, None)
                    return
                if entry.attempts <= self.retries:
                    await self._requeue(entry, "worker_died")
                    continue
                result = CompileResult.failure(
                    entry.job,
                    error=(
                        "worker process died during execution "
                        f"(attempt {entry.attempts}; killed or crashed)"
                    ),
                )
                break
            result, freight = item
            if freight.get("pid") != os.getpid():
                absorb_freight(freight)
            if not result.ok and entry.attempts <= self.retries:
                await self._requeue(entry, "error")
                continue
            break
        result = result.with_attempts(entry.attempts)
        record_job_settled(result)
        self.queue.mark_done(entry.key)
        if result.ok:
            self.results.add(result)
        spans = list(freight.get("spans", ()))
        if entry.job.trace is not None:
            spans.append(service_span(
                "service.job", entry.job.trace, entry.enqueued_at,
                {"key": entry.key[:12], "job": entry.job.label,
                 "attempts": entry.attempts,
                 "outcome": "ok" if result.ok else "error"},
            ))
        entry.publish(
            {"event": "result", "key": entry.key, "ok": result.ok,
             "dedup": False, "result": result.to_dict(),
             "freight": {
                 "pid": os.getpid(),
                 "spans": spans,
                 "metrics": freight.get("metrics", {}),
             }}
        )
        self._inflight.pop(entry.key, None)
        self._update_gauges()

    # -- HTTP ----------------------------------------------------------------

    async def _serve_submission(self, jobs, priority, emit) -> None:
        events: asyncio.Queue = asyncio.Queue()
        finished = 0
        for index, job in enumerate(jobs):
            for event in self._admit(index, job, priority, events):
                if event["event"] == "result":
                    finished += 1
                await emit(event)
        while finished < len(jobs):
            event = await events.get()
            await emit(event)
            if event["event"] == "result":
                finished += 1

    async def _health(self) -> dict:
        return {
            "status": "ok" if self._accepting else "draining",
            "pid": os.getpid(),
            "workers": self.workers,
            "inflight": len(self._inflight),
            "queue_depth": self.queue.depth(),
            "results": len(self.results.ok()),
            "retries": self.retries,
        }


#: A :class:`CompileServer` on a background thread (tests, benches).
ServerThread = functools.partial(FrontThread, CompileServer)


def serve(
    host: str = "127.0.0.1",
    port: int = 8234,
    **kwargs,
) -> int:
    """Blocking entry point for ``repro serve``."""
    CompileServer(host=host, port=port, **kwargs).serve_forever("repro serve")
    return 0
