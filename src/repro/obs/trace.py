"""Span-based tracer with cross-process context propagation.

A *span* is one timed, named region of work (``pass.Route``,
``job.run``, ``synth.refine``) with free-form attributes, a process id,
and a parent link — the tree the Chrome trace-event export renders.
Usage::

    from repro.obs import trace

    with trace.span("kak.decompose", n=256):
        ...

When tracing is off (the default) ``span()`` returns a cached null
context manager — no allocation, no clock reads — so instrumentation
can live permanently in hot paths.  Tracing turns on via
:func:`enable_tracing`, the ``REPRO_TRACE`` environment variable
(any value but ``0/false/off/no``), or
``CompilerConfig(trace=True)``.

Cross-process propagation: the parent serializes its
:class:`TraceContext` (trace id + current span id) into each
:class:`~repro.service.jobs.CompileJob`; the worker activates it, so
worker spans parent correctly even under ``spawn`` (under ``fork`` the
inherited span stack already parents them).  Workers ship the spans
they emitted back with their results (see
``repro.service.engine._execute_payload``) and the parent merges them
with :meth:`Tracer.absorb` — same-pid spans are skipped, so the serial
in-process path never duplicates its own buffer.

Span timestamps are ``time.perf_counter()`` readings: on the platforms
the fork pool runs on this is ``CLOCK_MONOTONIC``, shared across
processes on one machine, so parent and worker spans align on one
timeline without clock juggling.
"""

from __future__ import annotations

import itertools
import os
import uuid
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "disable_tracing",
    "enable_tracing",
    "span",
    "tracing_enabled",
]


def _env_tracing_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (off when unset)."""
    value = os.environ.get("REPRO_TRACE")
    if value is None:
        return False
    return value.strip().lower() not in {"", "0", "false", "off", "no"}


@dataclass
class Span:
    """One finished timed region."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float  # perf_counter seconds (machine-wide monotonic)
    duration: float  # seconds
    pid: int
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-python form (JSON-compatible)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start=payload["start"],
            duration=payload["duration"],
            pid=payload["pid"],
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass(frozen=True)
class TraceContext:
    """Serializable propagation handle: trace id + parent span id."""

    trace_id: str
    parent_id: str | None = None

    def to_dict(self) -> dict:
        """Plain-python form carried inside :class:`CompileJob`."""
        return {"trace_id": self.trace_id, "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        return cls(
            trace_id=payload["trace_id"],
            parent_id=payload.get("parent_id"),
        )


class _NullSpan:
    """The cached do-nothing context manager tracing-off returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> None:
        """No-op attribute update."""


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes before the span closes."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._span_id = f"{os.getpid():x}-{next(tracer._ids):x}"
        tracer._stack.append(self._span_id)
        tracer._names.append(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = perf_counter() - self._start
        tracer = self._tracer
        if tracer.close_hook is not None:
            tracer.close_hook()
        # The stack is per-process; a fork between enter and exit leaves
        # the parent's open span ids on the child's stack, which is
        # exactly the parenting the child's spans should see.
        if tracer._stack and tracer._stack[-1] == self._span_id:
            tracer._stack.pop()
            if tracer._names:
                tracer._names.pop()
        parent = (
            tracer._stack[-1] if tracer._stack else tracer._root_parent
        )
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        tracer.spans.append(
            Span(
                name=self._name,
                trace_id=tracer.trace_id or "",
                span_id=self._span_id,
                parent_id=parent,
                start=self._start,
                duration=duration,
                pid=os.getpid(),
                attrs=self._attrs,
            )
        )


class Tracer:
    """Process-local span collector with explicit cross-process merge."""

    def __init__(self, enabled: bool | None = None):
        self.enabled = (
            _env_tracing_enabled() if enabled is None else bool(enabled)
        )
        self.trace_id: str | None = None
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._names: list[str] = []
        self._root_parent: str | None = None
        self._ids = itertools.count(1)
        #: Called as a span closes, before it leaves the stack; the
        #: sampling profiler sets it while it owes a fresh sampler its
        #: first in-span sample.
        self.close_hook: Callable[[], None] | None = None

    # -- switches ------------------------------------------------------------

    def enable(self, trace_id: str | None = None) -> None:
        """Turn span collection on (idempotent; keeps an active trace)."""
        self.enabled = True
        if trace_id is not None:
            self.trace_id = trace_id
        elif self.trace_id is None:
            self.trace_id = uuid.uuid4().hex[:16]

    def disable(self) -> None:
        """Turn span collection off (buffered spans stay readable)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop buffered spans and context (fresh run)."""
        self.spans.clear()
        self._stack.clear()
        self._names.clear()
        self._root_parent = None
        self.trace_id = None

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs):
        """A timed region context manager (cached no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        if self.trace_id is None:
            self.trace_id = uuid.uuid4().hex[:16]
        return _ActiveSpan(self, name, attrs)

    def active_span_name(self) -> str | None:
        """Name of the innermost open span (None outside any span).

        Safe to call from another thread while spans open and close:
        the sampling profiler reads it between list mutations, so a
        momentary race is answered with ``None`` rather than an
        exception.
        """
        try:
            return self._names[-1]
        except IndexError:
            return None

    # -- propagation ---------------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """The serializable handle a child process should adopt."""
        if not self.enabled or self.trace_id is None:
            return None
        parent = self._stack[-1] if self._stack else self._root_parent
        return TraceContext(trace_id=self.trace_id, parent_id=parent)

    def activate(self, context: TraceContext | dict | None) -> None:
        """Adopt a parent's context (no-op when already in that trace).

        Under ``fork`` the child inherits the parent's live stack and
        trace id, so activation changes nothing; under ``spawn`` (or in
        a fresh process) it enables tracing and anchors root-less spans
        under the parent's current span.
        """
        if context is None:
            return
        if isinstance(context, dict):
            context = TraceContext.from_dict(context)
        if self.enabled and self.trace_id == context.trace_id:
            return
        self.enable(trace_id=context.trace_id)
        if not self._stack:
            self._root_parent = context.parent_id

    def mark(self) -> int:
        """Buffer position marker (pair with :meth:`drain_since`)."""
        return len(self.spans)

    def drain_since(self, marker: int) -> list[dict]:
        """Serialized spans recorded after ``marker`` (for shipping)."""
        return [s.to_dict() for s in self.spans[marker:]]

    def absorb(self, payload: list[dict]) -> int:
        """Merge spans shipped from another process; returns count kept.

        Spans stamped with this process's own pid are skipped: they are
        already in the local buffer (the serial in-process execution
        path ships the same spans it just recorded).
        """
        pid = os.getpid()
        kept = 0
        for item in payload:
            if item.get("pid") == pid:
                continue
            self.spans.append(Span.from_dict(item))
            kept += 1
        return kept


#: The process-wide tracer (workers inherit it over fork).
TRACER = Tracer()


def span(name: str, **attrs):
    """Open a span on the process tracer (no-op when tracing is off)."""
    if not TRACER.enabled:  # fast path: no dict/closure work at all
        return _NULL_SPAN
    return TRACER.span(name, **attrs)


def tracing_enabled() -> bool:
    """Whether the process tracer is collecting spans."""
    return TRACER.enabled


def enable_tracing(trace_id: str | None = None) -> None:
    """Turn on the process tracer (see :meth:`Tracer.enable`)."""
    TRACER.enable(trace_id=trace_id)


def disable_tracing() -> None:
    """Turn off the process tracer (buffer kept)."""
    TRACER.disable()
