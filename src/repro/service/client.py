"""Client for the compile service (`repro.service.server`).

:class:`ServiceClient` speaks the server's ndjson streaming protocol
over plain :mod:`http.client` — stdlib only, one *keep-alive*
connection per thread reused across requests and submit streams — and
restores the in-process calling convention on top of it:
:meth:`ServiceClient.submit` takes
:class:`~repro.service.jobs.CompileJob` lists and returns
:class:`~repro.service.jobs.CompileResult` lists in submission order,
exactly like :meth:`~repro.service.engine.BatchEngine.run`, so
``repro batch --submit URL`` is a transport swap, not a code path.

Transport discipline:

* Connections are cached per thread (``threading.local``) — two
  threads sharing one client never interleave requests on one socket.
* Submit streams arrive chunk-encoded; after the ``done`` event the
  client drains the terminal chunk so the connection is reusable.
* A cached connection the server has since dropped (restart, idle
  reap) is detected on the next request and transparently re-dialed
  once before giving up.
* Connect retries back off exponentially with *additive* jitter: the
  schedule is never shorter than ``base * 2**attempt`` (capped), but a
  fleet of clients re-dialing a restarting shard spreads out instead
  of stampeding in lockstep.

Observability rides along in both directions:

* Outbound, the client stamps its tracer's current context into every
  job (``CompileJob.trace``), so server- and worker-side spans parent
  under the submitting span — one Perfetto timeline spans
  client → server → worker.
* Inbound, ``result`` events carry freight (worker spans + metric
  deltas).  The client absorbs it only when the server lives in a
  *different* process: an in-process :class:`ServerThread` shares this
  process's tracer and registry, and absorbing its freight would
  double-count every span and metric.

Router awareness: when the endpoint is a :class:`ShardRouter` and a
shard is down, the stream carries ``shard_down`` events naming the
degraded digest range.  The client records them in
:attr:`ServiceClient.degraded_ranges` (reset per stream) and names the
ranges in the unsettled-jobs error, so callers learn *which slice of
the keyspace* is degraded, not just that something failed.

Failure taxonomy: :class:`ServiceUnavailable` when the server cannot
be reached (after bounded connect retries with exponential backoff),
:class:`ServiceTimeout` when a connected request stops producing bytes
for longer than ``timeout``, :class:`ServiceError` for protocol-level
failures (non-200 responses, malformed streams).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
from collections.abc import Iterator, Sequence
from urllib.parse import urlsplit

from ..obs import trace
from .engine import absorb_freight
from .jobs import CompileJob, CompileResult

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "wait_until_ready",
]


class ServiceError(RuntimeError):
    """The compile service misbehaved at the protocol level."""


class ServiceUnavailable(ServiceError):
    """The compile service could not be reached (connect failed)."""


class ServiceTimeout(ServiceError):
    """A connected request produced no bytes within the timeout."""


def _parse_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"//{url}")
    if parts.scheme not in ("", "http"):
        raise ServiceError(
            f"compile service URLs are plain http, got {url!r}"
        )
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 8234
    return host, port


#: Errors that mean "the cached keep-alive connection went stale" —
#: the server closed it between requests (restart, shutdown, idle
#: reap).  One fresh re-dial is the correct response; anything past
#: that is a real outage.
_STALE_ERRORS = (
    http.client.NotConnected,
    http.client.CannotSendRequest,
    http.client.ResponseNotReady,
    http.client.BadStatusLine,
    ConnectionError,
)


class ServiceClient:
    """One compile-service endpoint, with retrying connect semantics.

    Args:
        url: ``http://host:port`` (scheme optional).
        timeout: per-read socket timeout in seconds — the longest the
            client will wait for the *next* stream event, not for the
            whole batch.
        connect_retries: extra connection attempts after a refused or
            unreachable connect, backed off exponentially.
        backoff_base/backoff_cap: the connect backoff schedule in
            seconds (``base * 2**attempt``, capped).
        backoff_jitter: additive jitter fraction — each backoff sleep
            is stretched by ``uniform(0, jitter)`` of itself, never
            shortened.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 120.0,
        connect_retries: int = 4,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.25,
    ):
        self.host, self.port = _parse_url(url)
        self.timeout = float(timeout)
        self.connect_retries = int(connect_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.backoff_jitter = float(backoff_jitter)
        self._local = threading.local()
        #: ``shard_down`` ranges seen on the most recent submit stream
        #: (router endpoints only): dicts with shard/url/range keys.
        self.degraded_ranges: list[dict] = []

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- transport -----------------------------------------------------------

    def close(self) -> None:
        """Drop this thread's cached connection (re-dialed on next use)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def _connect(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection, dialing if needed.

        Fresh dials retry refused/unreachable connects with capped
        exponential backoff plus additive jitter.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        last: Exception | None = None
        for attempt in range(self.connect_retries + 1):
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                conn.connect()
                self._local.conn = conn
                return conn
            except (ConnectionError, socket.timeout, OSError) as exc:
                conn.close()
                last = exc
                if attempt < self.connect_retries:
                    delay = min(
                        self.backoff_cap,
                        self.backoff_base * 2**attempt,
                    )
                    time.sleep(
                        delay
                        * (1.0 + random.uniform(0.0, self.backoff_jitter))
                    )
        raise ServiceUnavailable(
            f"compile service at {self.url} unreachable after "
            f"{self.connect_retries + 1} attempts: {last}"
        ) from last

    def _send_request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> http.client.HTTPResponse:
        """Issue one request on the cached connection, re-dialing once.

        A stale keep-alive connection surfaces as a send/response
        error; the second pass runs on a guaranteed-fresh dial, so a
        failure there is a real outage, not staleness.
        """
        for fresh in (False, True):
            conn = self._connect()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                return conn.getresponse()
            except socket.timeout:
                self.close()
                raise
            except _STALE_ERRORS as exc:
                self.close()
                if fresh:
                    raise ServiceUnavailable(
                        f"compile service at {self.url} dropped the "
                        f"connection: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        """One non-streaming request; returns the decoded JSON body."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            response = self._send_request(method, path, body, headers)
            text = response.read().decode()
        except socket.timeout as exc:
            self.close()
            raise ServiceTimeout(
                f"{method} {path} timed out after {self.timeout}s"
            ) from exc
        decoded = json.loads(text) if text else {}
        if response.status != 200:
            raise ServiceError(
                f"{method} {path} -> {response.status}: "
                f"{decoded.get('error', text)}"
            )
        return decoded

    # -- control plane -------------------------------------------------------

    def health(self) -> dict:
        """The server's health summary (``GET /v1/health``)."""
        return self._request("GET", "/v1/health")

    def server_metrics(self) -> dict:
        """The server's metrics-registry snapshot."""
        return self._request("GET", "/v1/metrics")

    def shutdown(self, drain: bool = True) -> dict:
        """Ask the server to stop (draining queued work by default)."""
        try:
            return self._request("POST", "/v1/shutdown", {"drain": drain})
        finally:
            # The server tears the connection down after a shutdown
            # response; don't leave the doomed socket cached.
            self.close()

    # -- submission ----------------------------------------------------------

    def submit_stream(
        self, jobs: Sequence[CompileJob], priority: int = 0
    ) -> Iterator[dict]:
        """Submit jobs and yield protocol events as they arrive.

        Events are the server's raw dicts (``hello`` / ``accepted`` /
        ``running`` / ``requeued`` / ``result`` / ``done``, plus
        ``shard_down`` behind a router) — the granular form the SIGKILL
        tests and progress UIs want.  Result freight is absorbed into
        this process's tracer/registry here (cross-process servers
        only), so callers consuming the stream get stitched telemetry
        for free.  After ``done`` the connection is kept alive for the
        next call; any other exit closes it.
        """
        jobs = list(jobs)
        context = trace.TRACER.current_context()
        if context is not None:
            payload_trace = context.to_dict()
            jobs = [
                job if job.trace is not None
                else job.updated(trace=payload_trace)
                for job in jobs
            ]
        body = json.dumps(
            {"jobs": [job.to_dict() for job in jobs],
             "priority": int(priority)}
        ).encode()
        self.degraded_ranges = []
        server_pid: int | None = None
        completed = False
        stream_conn: http.client.HTTPConnection | None = None
        try:
            response = self._send_request(
                "POST",
                "/v1/submit",
                body,
                {"Content-Type": "application/json"},
            )
            stream_conn = getattr(self._local, "conn", None)
            if response.status != 200:
                text = response.read().decode()
                try:
                    detail = json.loads(text).get("error", text)
                except ValueError:
                    detail = text
                completed = True  # body fully read; connection reusable
                raise ServiceError(
                    f"submit -> {response.status}: {detail}"
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    raise ServiceError(
                        f"malformed stream line: {line[:120]!r}"
                    ) from exc
                kind = event.get("event")
                if kind == "hello":
                    server_pid = event.get("server_pid")
                elif kind == "shard_down":
                    self.degraded_ranges.append(
                        {
                            "shard": event.get("shard"),
                            "url": event.get("url"),
                            "range": event.get("range"),
                        }
                    )
                elif kind == "result" and event.get("freight"):
                    # An in-process server shares this process's tracer
                    # and registry; absorbing its freight would count
                    # everything twice.
                    if server_pid != os.getpid():
                        absorb_freight(event["freight"])
                yield event
                if kind == "done":
                    # Drain the terminal chunk so http.client marks
                    # the response finished and the connection can
                    # carry the next request.
                    response.read()
                    completed = True
                    return
        except socket.timeout as exc:
            raise ServiceTimeout(
                f"submit stream stalled for {self.timeout}s "
                f"(server {self.url})"
            ) from exc
        finally:
            if not completed:
                # Abandoned or broken mid-stream: the socket is
                # mid-response and unusable.  Only drop it if it is
                # still the cached one (a later request on this
                # thread may already have re-dialed).
                if getattr(self._local, "conn", None) is stream_conn:
                    self._local.conn = None
                if stream_conn is not None:
                    stream_conn.close()

    def submit(
        self, jobs: Sequence[CompileJob], priority: int = 0
    ) -> list[CompileResult]:
        """Submit jobs, block, return results in submission order.

        The drop-in replacement for
        :meth:`~repro.service.engine.BatchEngine.run` — the digest
        parity guarantee is stated against exactly this method.
        """
        jobs = list(jobs)
        settled: dict[int, CompileResult] = {}
        for event in self.submit_stream(jobs, priority=priority):
            if event.get("event") != "result":
                continue
            settled[event["index"]] = CompileResult.from_dict(
                event["result"]
            )
        missing = [i for i in range(len(jobs)) if i not in settled]
        if missing:
            detail = ""
            if self.degraded_ranges:
                ranges = ", ".join(
                    str(entry.get("range")) for entry in self.degraded_ranges
                )
                detail = f"; degraded digest range(s): {ranges}"
            raise ServiceError(
                f"stream ended with {len(missing)} unsettled job(s) "
                f"(indices {missing[:8]}){detail}"
            )
        return [settled[index] for index in range(len(jobs))]


def wait_until_ready(
    url: str, timeout: float = 30.0, interval: float = 0.1
) -> dict:
    """Poll a server's health endpoint until it answers (or time out)."""
    client = ServiceClient(url, timeout=5.0, connect_retries=0)
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    try:
        while time.monotonic() < deadline:
            try:
                return client.health()
            except ServiceError as exc:
                last = exc
                time.sleep(interval)
    finally:
        client.close()
    raise ServiceUnavailable(
        f"compile service at {url} not ready after {timeout}s: {last}"
    ) from last
