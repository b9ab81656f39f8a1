"""Digest-range shard router: the front tier of the sharded service.

One :class:`~repro.service.server.CompileServer` scales until its
worker pool saturates one machine's cores; past that the keyspace
itself must be split.  :class:`ShardRouter` partitions the job
identity-digest space (hex sha256, so uniformly distributed by
construction) into ``N`` contiguous ranges and routes every submitted
:class:`~repro.service.jobs.CompileJob` to the shard owning its
digest prefix.  Each shard is an ordinary, unmodified
:class:`CompileServer` with its own queue/result-store partition —
the router speaks the same client protocol downward that it serves
upward, so shards don't know they are shards.

Routing invariants:

* **Contiguity** — shard ``i`` owns the half-open bucket interval
  ``[ceil(i*K/N), ceil((i+1)*K/N))`` over ``K = 16**4`` digest-prefix
  buckets.  Ranges tile the keyspace exactly: every digest has one
  owner, and a shard's result-store partition covers one contiguous
  ``iter_range`` slice — the property ``repro store merge`` folds
  along.
* **Affinity** — identical jobs always land on the same shard, so the
  per-shard dedup tiers (result store, inflight subscription) keep
  their single-server semantics unchanged.  On top of that the router
  keeps a small LRU memo of successful results, answering repeats
  without a shard hop at all (``status: dedup_router``).
* **Transparency** — shard ndjson events stream back unchanged except
  for index remapping (client indices are submission-relative) and a
  ``shard`` tag; digests served through the router are bit-identical
  to the single-process path because the same worker body runs below.

Degradation: a dead shard fails *its digest range*, not the service.
The stream carries a ``shard_down`` event naming the shard, URL, and
hex range, then per-job failure results for the jobs stranded there —
so a client learns exactly which slice of the keyspace is degraded
(:attr:`ServiceClient.degraded_ranges`) while other ranges proceed.

Tracing: the router emits one ``service.route`` span per
(submission, shard) group and re-parents forwarded jobs under it, so
a traced client renders one Perfetto timeline spanning
client → router → shard → worker.

:func:`serve_sharded` is the one-command supervisor behind ``repro
serve --shards N``: fork N shard servers on OS-assigned ports (each
with ``.shardI``-suffixed store paths), run the router in the
foreground, and on drain fold the shard result stores into the
canonical ``--results-db`` via :meth:`ResultStore.merge`.
"""

from __future__ import annotations

import asyncio
import functools
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..obs import metrics
from .client import ServiceClient, ServiceError
from .engine import ResultMergeError, ResultStore, start_worker
from .front import FrontThread, HttpFront, new_span_id, service_span
from .jobs import CompileJob, CompileResult
from .server import CompileServer

__all__ = [
    "DigestRange",
    "RouterThread",
    "ShardRouter",
    "merge_shard_stores",
    "serve_sharded",
    "shard_index",
    "shard_ranges",
    "shard_store_path",
]

#: Hex digits of the identity digest used for routing.  Four digits
#: give 65536 buckets — enough to split evenly across any plausible
#: shard count while keeping range labels human-readable.
_PREFIX_DIGITS = 4
_KEYSPACE = 16**_PREFIX_DIGITS

#: LRU capacity of the router-level result memo (successful results).
_MEMO_SIZE = 256


@dataclass(frozen=True)
class DigestRange:
    """One shard's contiguous slice of the digest-prefix keyspace.

    Half-open over integer buckets ``[lo, hi)``; ``hi == 16**4`` means
    unbounded above.  ``key_bounds`` renders the same interval as hex
    string bounds compatible with the stores'
    :meth:`~repro._storebase.SqliteStoreMixin.iter_range`.
    """

    shard: int
    lo: int
    hi: int

    @property
    def lo_hex(self) -> str:
        return format(self.lo, f"0{_PREFIX_DIGITS}x")

    @property
    def hi_hex(self) -> str:
        return format(self.hi, f"0{_PREFIX_DIGITS + 1}x") \
            if self.hi >= _KEYSPACE else format(self.hi, f"0{_PREFIX_DIGITS}x")

    @property
    def label(self) -> str:
        return f"[{self.lo_hex}, {self.hi_hex})"

    def contains(self, digest: str) -> bool:
        return self.lo <= int(digest[:_PREFIX_DIGITS], 16) < self.hi

    def key_bounds(self) -> tuple[str, str | None]:
        """``(lo, hi)`` hex-string bounds for store ``iter_range``."""
        return self.lo_hex, (None if self.hi >= _KEYSPACE else self.hi_hex)


def shard_ranges(count: int) -> list[DigestRange]:
    """Tile the digest keyspace into ``count`` contiguous ranges."""
    if count < 1:
        raise ValueError("shard count must be >= 1")
    bounds = [(i * _KEYSPACE + count - 1) // count for i in range(count + 1)]
    bounds[-1] = _KEYSPACE
    return [
        DigestRange(shard=i, lo=bounds[i], hi=bounds[i + 1])
        for i in range(count)
    ]


def shard_index(digest: str, count: int) -> int:
    """The shard owning ``digest`` under :func:`shard_ranges`.

    ``bucket * count // KEYSPACE`` is the exact inverse of the
    ceil-partition above: ``shard_ranges(count)[shard_index(d, count)]
    .contains(d)`` holds for every digest.
    """
    return int(digest[:_PREFIX_DIGITS], 16) * count // _KEYSPACE


def shard_store_path(path: str | Path | None, shard: int) -> str | None:
    """A shard-private sibling of a store path (``x.shard0.sqlite``)."""
    if path is None:
        return None
    path = Path(path)
    return str(path.with_name(f"{path.stem}.shard{shard}{path.suffix}"))


class ShardRouter(HttpFront):
    """Route compile submissions across digest-range shard servers.

    Args:
        shard_urls: one ``http://host:port`` per shard, in range order
            (shard ``i`` owns ``shard_ranges(N)[i]``).
        host/port: the router's own bind address (``port=0`` → OS
            pick, resolved after startup).
        timeout: per-read timeout on shard streams, seconds.
    """

    _label = "router"

    def __init__(
        self,
        shard_urls: list[str],
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
    ):
        if not shard_urls:
            raise ValueError("router needs at least one shard URL")
        super().__init__(host, port)
        self.shard_urls = list(shard_urls)
        self.count = len(self.shard_urls)
        self.ranges = shard_ranges(self.count)
        self.timeout = float(timeout)
        self._memo: OrderedDict[str, dict] = OrderedDict()
        # Down-shard dials must fail fast: the stranded jobs' failure
        # results are blocking the client's stream.
        self._clients = [
            ServiceClient(
                url, timeout=self.timeout,
                connect_retries=1, backoff_base=0.05,
            )
            for url in self.shard_urls
        ]

    # -- lifecycle -----------------------------------------------------------

    async def shutdown(self, drain: bool = True, stop_shards: bool = False) -> None:
        """Stop the router, optionally fanning shutdown out to shards.

        ``stop_shards`` is what the HTTP shutdown endpoint uses — one
        ``POST /v1/shutdown`` at the router stops the whole topology.
        Local-only shutdown (the default) leaves shards running, which
        is what test harnesses owning their own shard lifecycles want.
        """
        self._accepting = False
        if stop_shards:
            # A shard that is already down counts as stopped.
            await self._each_shard(
                lambda client: client.shutdown(drain), lambda exc: None
            )
        self._stop()

    async def _each_shard(self, call, on_error) -> list:
        """``call(client)`` on every shard at once, results in shard order.

        Runs on executor threads (the shard client is blocking); a shard
        raising :class:`ServiceError` contributes ``on_error(exc)``.
        """
        loop = asyncio.get_running_loop()

        async def one(client: ServiceClient):
            try:
                return await loop.run_in_executor(None, call, client)
            except ServiceError as exc:
                return on_error(exc)

        return await asyncio.gather(*(one(c) for c in self._clients))

    def _on_shutdown_request(self, drain: bool):
        # One POST /v1/shutdown at the router stops the whole topology.
        return (
            {"ok": True, "drain": drain, "router": True},
            self.shutdown(drain=drain, stop_shards=True),
        )

    def announce(self) -> None:
        print(
            f"repro shard router listening on {self.url} "
            f"({self.count} shards)",
            flush=True,
        )
        for range_, url in zip(self.ranges, self.shard_urls):
            print(
                f"  shard {range_.shard}: {url} owns digests {range_.label}",
                flush=True,
            )

    # -- HTTP ----------------------------------------------------------------

    def _hello_fields(self) -> dict:
        return {"router": True, "shards": self.count}

    async def _serve_submission(self, jobs, priority, emit) -> None:
        metrics.counter("repro.service.router.submissions").inc()
        settled = 0
        groups: dict[int, list[tuple[int, CompileJob]]] = {}
        for index, job in enumerate(jobs):
            digest = job.identity_digest()
            memo = self._memo_get(digest)
            if memo is not None:
                metrics.counter("repro.service.router.dedup_hits").inc()
                await emit(
                    {"event": "accepted", "index": index, "key": digest,
                     "status": "dedup_router"}
                )
                await emit(
                    {"event": "result", "index": index, "key": digest,
                     "ok": True, "dedup": True, "result": memo}
                )
                settled += 1
                continue
            groups.setdefault(shard_index(digest, self.count), []).append(
                (index, job)
            )
        events: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        for shard, group in groups.items():
            metrics.counter(f"repro.service.shard.{shard}.jobs").inc(
                len(group)
            )
            loop.run_in_executor(
                None, self._forward_group, shard, group, priority, events, loop
            )
        while settled < len(jobs):
            event = await events.get()
            kind = event.get("event")
            if kind == "result":
                settled += 1
                self._memo_put(event)
                if "shard" in event:
                    metrics.counter(
                        f"repro.service.shard.{event['shard']}.results"
                    ).inc()
            elif kind == "shard_down":
                metrics.counter("repro.service.router.shard_down").inc()
                metrics.counter(
                    f"repro.service.shard.{event['shard']}.errors"
                ).inc()
            await emit(event)

    # -- forwarding (executor threads) ---------------------------------------

    def _forward_group(
        self, shard: int, group: list, priority: int, events, loop
    ) -> None:
        """Stream one shard's slice of a submission back to the loop.

        Runs on an executor thread (the shard client is blocking);
        every event crosses back via ``call_soon_threadsafe``.  Shard
        ``hello``/``done`` frames are swallowed (the router emits its
        own), indices are remapped to submission-relative, and the
        group's ``service.route`` span rides the last result's freight.
        """
        range_ = self.ranges[shard]
        client = self._clients[shard]
        start = time.perf_counter()
        context = next(
            (job.trace for _, job in group if job.trace is not None), None
        )
        span_id = new_span_id("r")
        forwarded = []
        for _, job in group:
            if job.trace is not None:
                # Re-parent under the route span so shard-side
                # service.job spans nest inside the router hop.
                job = job.updated(trace={**job.trace, "parent_id": span_id})
            forwarded.append(job)

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(events.put_nowait, event)

        sub_to_orig = [orig for orig, _ in group]
        done_indices: set[int] = set()
        try:
            for event in client.submit_stream(forwarded, priority=priority):
                kind = event.get("event")
                if kind in ("hello", "done"):
                    continue
                if "index" in event:
                    orig = sub_to_orig[event["index"]]
                    event = {**event, "index": orig, "shard": shard}
                    if kind == "result":
                        done_indices.add(orig)
                        if (
                            len(done_indices) == len(group)
                            and context is not None
                        ):
                            event = _with_span(event, service_span(
                                "service.route", context, start,
                                {"shard": shard, "range": range_.label,
                                 "jobs": len(group)},
                                span_id=span_id,
                            ))
                emit(event)
        except ServiceError as exc:
            emit(
                {"event": "shard_down", "shard": shard,
                 "url": self.shard_urls[shard], "range": range_.label,
                 "error": str(exc)}
            )
            for orig, job in group:
                if orig in done_indices:
                    continue
                failure = CompileResult.failure(
                    job,
                    error=(
                        f"shard {shard} at {self.shard_urls[shard]} is "
                        f"unreachable; digest range {range_.label} "
                        f"degraded: {exc}"
                    ),
                )
                emit(
                    {"event": "result", "index": orig,
                     "key": job.identity_digest(), "ok": False,
                     "dedup": False, "shard": shard,
                     "result": failure.to_dict()}
                )

    # -- memo ----------------------------------------------------------------

    def _memo_get(self, digest: str) -> dict | None:
        payload = self._memo.get(digest)
        if payload is not None:
            self._memo.move_to_end(digest)
        return payload

    def _memo_put(self, event: dict) -> None:
        if not event.get("ok"):
            return
        key = event.get("key")
        if not key:
            return
        self._memo[key] = event["result"]
        self._memo.move_to_end(key)
        while len(self._memo) > _MEMO_SIZE:
            self._memo.popitem(last=False)

    # -- health --------------------------------------------------------------

    async def _health(self) -> dict:
        """Aggregate shard healths; a down shard degrades its range."""
        shard_health = await self._each_shard(
            ServiceClient.health,
            lambda exc: {"status": "down", "error": str(exc)},
        )
        degraded = [
            self.ranges[index].label
            for index, health in enumerate(shard_health)
            if health.get("status") not in ("ok", "draining")
        ]
        return {
            "status": "degraded" if degraded else (
                "ok" if self._accepting else "draining"
            ),
            "router": True,
            "pid": os.getpid(),
            "shards": [
                {"shard": index, "url": self.shard_urls[index],
                 "range": self.ranges[index].label, **health}
                for index, health in enumerate(shard_health)
            ],
            "degraded_ranges": degraded,
            "inflight": sum(
                int(h.get("inflight", 0)) for h in shard_health
            ),
            "queue_depth": sum(
                int(h.get("queue_depth", 0)) for h in shard_health
            ),
        }


def _with_span(event: dict, span: dict) -> dict:
    """``event`` with ``span`` appended to its result freight."""
    freight = dict(
        event.get("freight")
        or {"pid": os.getpid(), "spans": [], "metrics": {}}
    )
    freight["spans"] = list(freight.get("spans", ())) + [span]
    return {**event, "freight": freight}


#: A :class:`ShardRouter` on a background thread (tests, benches).
#: Stopping it is local to the router; the shards keep running.
RouterThread = functools.partial(FrontThread, ShardRouter)


# -- supervisor ---------------------------------------------------------------


def _run_shard(conn, kwargs: dict) -> None:
    """Forked shard body: run one CompileServer, report its port."""

    def ready(server: CompileServer) -> None:
        conn.send(server.port)
        conn.close()

    asyncio.run(CompileServer(**kwargs).run(ready_callback=ready))


def merge_shard_stores(results_path: str | Path, shards: int) -> int:
    """Fold every existing shard result partition into the canonical db.

    Returns the number of result rows absorbed.  Digest conflicts
    (:class:`ResultMergeError`) propagate — a determinism violation
    across shards must stop the fold, not half-apply it.
    """
    store = ResultStore(path=results_path)
    absorbed = 0
    try:
        for shard in range(shards):
            partition = shard_store_path(results_path, shard)
            if partition is not None and Path(partition).exists():
                absorbed += store.merge(partition)
    finally:
        store.close()
    return absorbed


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8234,
    shards: int = 2,
    merge_on_drain: bool = True,
    queue_path: str | Path | None = None,
    results_path: str | Path | None = None,
    cache_path: str | Path | None = None,
    **kwargs,
) -> int:
    """Blocking entry point for ``repro serve --shards N``.

    Forks ``shards`` ordinary :class:`CompileServer` processes on
    OS-assigned ports — each with shard-private queue/results/cache
    paths derived from the given ones — then runs the digest-range
    router in the foreground.  A ``POST /v1/shutdown`` at the router
    drains the whole topology; afterwards (``merge_on_drain``) the
    shard result partitions are folded into the canonical
    ``results_path`` store.
    """
    procs = []
    for shard in range(shards):
        shard_kwargs = dict(
            kwargs,
            host=host,
            port=0,
            queue_path=shard_store_path(queue_path, shard),
            results_path=shard_store_path(results_path, shard),
            cache_path=shard_store_path(cache_path, shard),
        )
        procs.append(start_worker(_run_shard, shard_kwargs, daemon=False))
    urls = []
    for shard, (process, receiver) in enumerate(procs):
        if not receiver.poll(30):
            for doomed, _ in procs:
                doomed.terminate()
            raise RuntimeError(f"shard {shard} failed to start in 30s")
        urls.append(f"http://{host}:{receiver.recv()}")
    if not ShardRouter(urls, host=host, port=port).serve_forever("repro serve"):
        for process, _ in procs:
            process.terminate()
    for process, _ in procs:
        process.join(timeout=30)
    if merge_on_drain and results_path is not None:
        try:
            absorbed = merge_shard_stores(results_path, shards)
        except ResultMergeError as exc:
            print(f"repro serve: shard merge refused: {exc}", flush=True)
            return 1
        print(
            f"repro serve: folded {absorbed} shard result row(s) "
            f"into {results_path}",
            flush=True,
        )
    return 0
