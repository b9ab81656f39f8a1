"""Sampling profiler that attributes stacks to the active span.

A daemon thread wakes every ``interval`` seconds, reads the main
thread's frame stack via ``sys._current_frames()``, and counts one
sample against the key ``"<active span>;<root frame>;...;<leaf
frame>"`` — natively the collapsed-stack format flamegraph tooling
consumes (``flamegraph.pl``, speedscope, inferno).  Prefixing the
current span name means a flamegraph groups first by *semantic* phase
(``pass.Route``, ``synth.refine``) and only then by call stack, and the
per-span self-time table falls out of the same counters.

The sampler only ever *reads* foreign frames — the profiled code runs
unmodified, so overhead is one stack walk per tick (~200/s at the 5 ms
default) regardless of how hot the profiled path is.

Cross-process: ``fork()`` does not carry threads into the child, so a
worker inheriting an enabled profiler has no sampler thread.  Workers
call :func:`ensure_running` on entry (pid + liveness check restarts the
thread).  A fresh thread may not run before a short job ends (its first
tick waits ``interval``, and the job may hold the GIL), so until the
sampler lands a sample inside some span, the first span closing on the
main thread samples itself.  Workers then ship their sample *delta*
back through the same freight channel spans and metric deltas use
(``snapshot()``/``delta()``/``absorb()`` mirror
:class:`~repro.obs.metrics.MetricsRegistry`), and the parent merges
counts keyed by identical strings.

Activation mirrors the tracer: :func:`enable_profiling`, the
``REPRO_PROFILE`` environment variable (truthy → 5 ms default, a number
→ that interval in milliseconds), ``CompilerConfig(profile=True)``, or
``repro trace --profile``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from time import sleep

from .trace import TRACER

__all__ = [
    "DEFAULT_INTERVAL_S",
    "PROFILER",
    "SamplingProfiler",
    "disable_profiling",
    "enable_profiling",
    "ensure_running",
    "format_self_time_table",
    "profiling_enabled",
    "to_collapsed",
    "write_collapsed",
]

#: Default wall-clock gap between samples (5 ms ≈ 200 samples/s).
DEFAULT_INTERVAL_S = 0.005

#: Frames deeper than this are dropped (leaf side) to bound key size.
_MAX_DEPTH = 64

#: Placeholder span segment for samples taken outside any span.
NO_SPAN = "(no span)"


def _env_profile_interval() -> float | None:
    """Interval ``REPRO_PROFILE`` asks for, or None when off.

    Unset/``0``/``false``/``off``/``no`` → off; other non-numeric
    truthy values → the default interval; a number → that many
    milliseconds between samples.
    """
    value = os.environ.get("REPRO_PROFILE")
    if value is None:
        return None
    value = value.strip().lower()
    if value in {"", "0", "false", "off", "no"}:
        return None
    try:
        return float(value) / 1000.0
    except ValueError:
        return DEFAULT_INTERVAL_S


def _format_stack(frame) -> list[str]:
    """Root-first ``module:function`` frames of one thread's stack."""
    frames: list[str] = []
    while frame is not None and len(frames) < _MAX_DEPTH:
        code = frame.f_code
        frames.append(f"{Path(code.co_filename).stem}:{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return frames


class SamplingProfiler:
    """Background-thread stack sampler with fork-safe sample shipping.

    Samples accumulate in ``self.samples`` as ``collapsed-key ->
    count``; the key's first ``;``-segment is the span active when the
    sample landed.  All mutation happens on the sampler thread;
    readers take inexpensive dict copies (GIL-atomic enough for
    monotonically growing counters).
    """

    def __init__(self, interval: float | None = None):
        env_interval = _env_profile_interval()
        self.interval = (
            interval if interval is not None
            else (env_interval or DEFAULT_INTERVAL_S)
        )
        self.enabled = env_interval is not None
        self.samples: dict[str, int] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._pid = os.getpid()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start (or restart after fork) the sampler thread."""
        self.enabled = True
        if (
            self._thread is not None
            and self._thread.is_alive()
            and self._pid == os.getpid()
        ):
            return
        # After fork the inherited thread object is dead and the stop
        # event may be stale; rebuild both.
        self._pid = os.getpid()
        self._stop = threading.Event()
        TRACER.close_hook = self._sample_closing_span
        self._thread = threading.Thread(
            target=self._run,
            name="repro-profiler",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling (buffered samples stay readable)."""
        self.enabled = False
        self._stop.set()
        if self._pid == os.getpid():
            TRACER.close_hook = None
        thread = self._thread
        if thread is not None and thread.is_alive() \
                and self._pid == os.getpid():
            thread.join(timeout=1.0)
        self._thread = None

    def clear(self) -> None:
        """Drop accumulated samples (fresh run)."""
        self.samples = {}

    def ensure_running(self) -> None:
        """Restart the sampler if enabled but threadless (post-fork)."""
        if self.enabled:
            self.start()

    # -- the sampler thread --------------------------------------------------

    def _run(self) -> None:
        main_ident = threading.main_thread().ident
        stop = self._stop
        while not stop.wait(self.interval):
            frame = sys._current_frames().get(main_ident)
            if frame is not None:
                self._record(frame)

    def _record(self, frame) -> None:
        """Count one sample of ``frame``'s stack under the active span."""
        span_name = TRACER.active_span_name()
        key = ";".join([span_name or NO_SPAN, *_format_stack(frame)])
        self.samples[key] = self.samples.get(key, 0) + 1
        if span_name is not None:
            TRACER.close_hook = None

    def _sample_closing_span(self) -> None:
        """Tracer close hook: sample the main thread as a span closes."""
        if (
            self._pid == os.getpid()
            and threading.current_thread() is threading.main_thread()
        ):
            # Frames: this hook, the span's __exit__, the closing code.
            self._record(sys._getframe(2))

    # -- shipping (mirrors MetricsRegistry snapshot/delta/absorb) ------------

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the sample counters."""
        return dict(self.samples)

    @staticmethod
    def delta(
        before: dict[str, int], after: dict[str, int]
    ) -> dict[str, int]:
        """Samples accumulated between two snapshots."""
        out: dict[str, int] = {}
        for key, count in after.items():
            gained = count - before.get(key, 0)
            if gained > 0:
                out[key] = gained
        return out

    def absorb(self, payload: dict[str, int]) -> int:
        """Merge counts shipped from another process; returns total."""
        absorbed = 0
        for key, count in payload.items():
            if count <= 0:
                continue
            self.samples[key] = self.samples.get(key, 0) + int(count)
            absorbed += int(count)
        return absorbed


#: The process-wide profiler (workers restart its thread after fork).
PROFILER = SamplingProfiler()


def profiling_enabled() -> bool:
    """Whether the process profiler is (or should be) sampling."""
    return PROFILER.enabled


def enable_profiling(interval: float | None = None) -> None:
    """Start the process profiler (idempotent)."""
    if interval is not None:
        PROFILER.interval = interval
    PROFILER.start()


def disable_profiling() -> None:
    """Stop the process profiler (samples kept)."""
    PROFILER.stop()


def ensure_running() -> None:
    """Module-level :meth:`SamplingProfiler.ensure_running` shortcut."""
    PROFILER.ensure_running()


# -- exports -----------------------------------------------------------------


def to_collapsed(samples: dict[str, int] | None = None) -> str:
    """Collapsed-stack text (``key count`` lines, flamegraph-ready)."""
    samples = samples if samples is not None else PROFILER.samples
    return "\n".join(
        f"{key} {count}" for key, count in sorted(samples.items())
    )


def write_collapsed(
    path: str | Path, samples: dict[str, int] | None = None
) -> Path:
    """Write :func:`to_collapsed` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = to_collapsed(samples)
    path.write_text(text + "\n" if text else "", encoding="utf-8")
    return path


def format_self_time_table(
    samples: dict[str, int] | None = None,
    interval: float | None = None,
) -> str:
    """Per-span self-time table from the sample counters.

    Self time is estimated as ``samples * interval`` — the profiler's
    view of where wall-clock actually went, grouped by the span that
    was active (the first collapsed-key segment).
    """
    from ..experiments.common import format_table

    samples = samples if samples is not None else PROFILER.samples
    interval = interval if interval is not None else PROFILER.interval
    if not samples:
        return "no profile samples (profiler off, or run too short?)"
    per_span: dict[str, int] = {}
    for key, count in samples.items():
        span_name = key.split(";", 1)[0]
        per_span[span_name] = per_span.get(span_name, 0) + count
    total = sum(per_span.values())
    rows = []
    for span_name, count in sorted(
        per_span.items(), key=lambda item: -item[1]
    ):
        rows.append(
            [
                span_name,
                count,
                round(count * interval, 3),
                round(100.0 * count / total, 1),
            ]
        )
    return format_table(["span", "samples", "est s", "%"], rows)
