"""The HTTP front shared by the compile server and the shard router.

Protocol (newline-delimited JSON over HTTP/1.1, keep-alive): every
connection serves requests in a loop until the client hangs up, so a
:class:`~repro.service.client.ServiceClient` reuses one TCP connection
across calls instead of reconnecting.

* ``POST /v1/submit`` — body ``{"jobs": [job payloads], "priority": n}``;
  the response streams one JSON event per chunk (``Transfer-Encoding:
  chunked``, then a terminal zero-chunk, which is what lets
  ``http.client`` see the response end and reuse the connection):
  ``hello``, the front's per-job events, then ``done``.
* ``GET /v1/health`` — the front's health summary.
* ``GET /v1/metrics`` — the process's metrics-registry snapshot.
* ``POST /v1/shutdown`` — body ``{"drain": bool}``; ends the connection.

:class:`HttpFront` owns all of that plus the listener, the stop event
and connection teardown; a concrete front supplies how a submission is
served and how health is reported.  Malformed requests are refused,
not crashed on: a body that is not a JSON object gets 400, a
``Content-Length`` that is not a non-negative integer gets 400, and a
body over :data:`MAX_BODY_BYTES` gets 413 — the last two close the
connection, since the body is never read.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from collections.abc import Coroutine

from ..obs import metrics, trace
from .jobs import CompileJob

__all__ = [
    "MAX_BODY_BYTES", "FrontThread", "HttpFront", "new_span_id", "service_span",
]

#: Largest request body a front reads; submissions are job descriptions
#: of well under a kilobyte each.
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 500: "Error", 503: "Unavailable"}

#: Distinct id stream for hand-built service spans (kept out of the
#: tracer's own counter so ids never collide).
_SPAN_IDS = itertools.count(1)


def new_span_id(kind: str) -> str:
    """A process-unique span id; ``kind`` tags the tier that built it."""
    return f"{os.getpid():x}-{kind}{next(_SPAN_IDS):x}"


def service_span(
    name: str, context: dict, start: float, attrs: dict,
    span_id: str | None = None,
) -> dict:
    """Record a span from ``start`` to now under a job's trace ``context``.

    Built explicitly (not via ``trace.span``) because concurrent jobs
    interleave in the tracer buffer, which makes per-job drain
    attribution racy; an explicit span is exact.  It is appended to
    this process's tracer too, so a standalone front's own export shows
    it — clients dedup by span id before absorbing, which keeps
    in-process fronts single-copy.  Returns the dict for the freight.
    """
    span = trace.Span(
        name=name,
        trace_id=context.get("trace_id", ""),
        span_id=span_id or new_span_id("s"),
        parent_id=context.get("parent_id"),
        start=start,
        duration=time.perf_counter() - start,
        pid=os.getpid(),
        attrs=attrs,
    )
    if trace.TRACER.enabled:
        trace.TRACER.spans.append(span)
    return span.to_dict()


class _RequestError(Exception):
    """A request refused before its body is read (status + message)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_http_request(reader):
    """One request off a (possibly reused) connection, or ``None`` at EOF."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    length = "0"
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = value.strip()
    if not (length.isascii() and length.isdigit()):
        raise _RequestError(400, f"bad Content-Length: {length!r}")
    if int(length) > MAX_BODY_BYTES:
        raise _RequestError(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(int(length)) if int(length) else b""
    return method, path, body


def _json_object(body: bytes) -> dict:
    """Decode a body that must be a JSON object (empty means ``{}``)."""
    payload = json.loads(body or b"{}")
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


async def _write_json_response(
    writer, status: int, payload: dict, close: bool = False
) -> None:
    """One JSON control response; Content-Length keeps the conn reusable."""
    body = json.dumps(payload).encode()
    writer.write(
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n".encode()
        + body
    )
    await writer.drain()


class HttpFront:
    """Asyncio HTTP front; subclasses say how jobs are served.

    A front implements ``async _serve_submission(jobs, priority, emit)``,
    ``async _health()``, ``async shutdown(drain)`` and ``announce()``,
    and may hook its lifecycle with ``_on_start`` (in the loop, before
    the listener binds), ``_on_stop`` (before connections are torn down,
    so no new work starts meanwhile) and ``_on_closed`` (after).
    """

    #: Names the front in its 503 reply.
    _label = "server"

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self._accepting = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping: asyncio.Future | None = None
        #: Open client writers — keep-alive connections idle between
        #: requests must be force-closed at stop, or ``wait_closed``
        #: (which waits on handlers since 3.12.1) would hang on them.
        self._connections: set = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    async def run(self, ready_callback=None) -> None:
        """Serve until :meth:`shutdown` fires (the main coroutine)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._accepting = True
        self._on_start()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if ready_callback is not None:
            ready_callback(self)
        try:
            await self._stop_event.wait()
        finally:
            self._accepting = False
            self._on_stop()
            for conn in list(self._connections):
                conn.close()
            server.close()
            await server.wait_closed()
            self._on_closed()

    def serve_forever(self, name: str) -> bool:
        """Run in the foreground, announced; ``False`` after Ctrl-C."""
        try:
            asyncio.run(self.run(ready_callback=lambda _front: self.announce()))
        except KeyboardInterrupt:
            print(f"{name}: interrupted, stopping", flush=True)
            return False
        return True

    def _on_start(self) -> None:
        pass

    def _on_stop(self) -> None:
        pass

    def _on_closed(self) -> None:
        pass

    def _stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _on_shutdown_request(self, drain: bool) -> tuple[dict, Coroutine]:
        """The reply to an HTTP shutdown request, and the stop to run."""
        return {"ok": True, "drain": drain}, self.shutdown(drain=drain)

    def _hello_fields(self) -> dict:
        """Extra keys for this front's ``hello`` event."""
        return {}

    async def _serve_submission(
        self, jobs: list[CompileJob], priority: int, emit
    ) -> None:
        """Stream every job's events through ``await emit(event)``.

        Runs between the front's ``hello`` and ``done`` events and
        returns once every job has emitted its ``result``.
        """
        raise NotImplementedError

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            # Keep-alive: serve requests until the client hangs up (or
            # asks for shutdown — terminal by construction).
            while True:
                try:
                    request = await _read_http_request(reader)
                except _RequestError as exc:
                    await _write_json_response(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    break
                if request is None:
                    break
                method, path, body = request
                if method == "GET" and path == "/v1/health":
                    await _write_json_response(writer, 200, await self._health())
                elif method == "GET" and path == "/v1/metrics":
                    await _write_json_response(
                        writer, 200, metrics.REGISTRY.snapshot()
                    )
                elif method == "POST" and path == "/v1/shutdown":
                    try:
                        drain = bool(_json_object(body).get("drain", True))
                    except ValueError as exc:
                        await _write_json_response(
                            writer, 400, {"error": f"bad shutdown: {exc}"}
                        )
                        continue
                    reply, stopping = self._on_shutdown_request(drain)
                    # The loop holds tasks weakly: keep this one alive.
                    self._stopping = asyncio.ensure_future(stopping)
                    await _write_json_response(writer, 200, reply)
                    break
                elif method == "POST" and path == "/v1/submit":
                    await self._handle_submit(writer, body)
                else:
                    await _write_json_response(
                        writer, 404, {"error": f"no route {method} {path}"}
                    )
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # Client went away; its jobs still run to completion.
        except asyncio.CancelledError:
            # Loop teardown cancelled an idle keep-alive handler;
            # returning (not re-raising) keeps shutdown quiet.
            pass
        except Exception as exc:  # noqa: BLE001 - report, don't crash front
            try:
                await _write_json_response(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    async def _handle_submit(self, writer, body: bytes) -> None:
        if not self._accepting:
            await _write_json_response(
                writer, 503, {"error": f"{self._label} is draining/stopped"}
            )
            return
        try:
            payload = _json_object(body)
            jobs = [
                CompileJob.from_dict(item)
                for item in payload.get("jobs", [])
            ]
            priority = int(payload.get("priority", 0))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            await _write_json_response(
                writer, 400, {"error": f"bad submission: {exc}"}
            )
            return
        if not jobs:
            await _write_json_response(
                writer, 400, {"error": "submission carries no jobs"}
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: keep-alive\r\n\r\n"
        )

        async def emit(event: dict) -> None:
            line = json.dumps(event).encode() + b"\n"
            writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            await writer.drain()

        await emit(
            {"event": "hello", "server_pid": os.getpid(),
             "count": len(jobs), **self._hello_fields()}
        )
        await self._serve_submission(jobs, priority, emit)
        await emit({"event": "done", "count": len(jobs)})
        writer.write(b"0\r\n\r\n")
        await writer.drain()


class FrontThread:
    """A front on a background thread (tests, benches).

    ``FrontThread(CompileServer, workers=2)`` builds the front from its
    class and arguments.  Context manager: entering starts the loop
    thread and blocks until the front is accepting; exiting stops it
    (draining unless the block raised) and joins.  The front shares the
    process's tracer/metrics registry, which is exactly what in-process
    tests assert against.
    """

    def __init__(self, front_type: type[HttpFront], *args, **kwargs):
        self.server = front_type(*args, **kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def url(self) -> str:
        return self.server.url

    def start(self):
        name = type(self.server).__name__
        self._thread = threading.Thread(
            target=self._main, name=f"repro-{name}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(f"{name} failed to start in 30s")
        return self

    def _main(self) -> None:
        asyncio.run(
            self.server.run(ready_callback=lambda _front: self._ready.set())
        )

    def stop(self, drain: bool = True) -> None:
        loop = self.server._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), loop
            )
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)
