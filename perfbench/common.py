"""Shared plumbing of the benchmark: paths, statistics, result line.

Everything here is independent of the workload being measured.  The
benchmark lives at ``<checkout>/perfbench`` and drives the program under
``<checkout>/src`` from outside; run-time state goes under
``perfbench/.cache`` (the prepared coverage store), ``perfbench/.runs``
(per-run scratch stores, deleted at exit) and ``perfbench/.traces``
(Chrome traces of traced runs).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
STATE_DIR = BENCH_DIR / ".cache"
RUNS_DIR = BENCH_DIR / ".runs"
TRACES_DIR = BENCH_DIR / ".traces"

#: Client threads, worker processes and pool sizes never exceed the
#: machine's core count.
NPROC = max(1, os.cpu_count() or 1)

#: A tail percentile is only reported with this many samples beyond it.
MIN_BEYOND = 10

#: End-to-end metric units, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "ok_fraction": "ratio",
    "peak_rss_mb": "MB",
}


PASS_NAMES = (
    "Route",
    "Merge1QRuns",
    "Collect2QBlocks",
    "TranslateToBasis",
    "MergePlaceholders",
    "Schedule",
)


def _per_layer_units() -> dict[str, str]:
    units = {f"passes.{name}.s": "s" for name in PASS_NAMES}
    units.update(
        {
            "passes.fidelity.s": "s",
            "passes.trials": "count",
            "passes.gates_after_Route": "count",
            "passes.gates_after_TranslateToBasis": "count",
            "routing.swaps": "count",
            "passes.circuit_duration_geomean_ns": "ns",
            "passes.circuit_infidelity_geomean": "ratio",
        }
    )
    for kernel in ("weyl_coordinates_many", "min_k", "membership_matrix"):
        units[f"kernels.{kernel}.calls"] = "count"
        units[f"kernels.{kernel}.rows"] = "count"
        units[f"kernels.{kernel}.s"] = "s"
    for tier in ("lookups", "memory_hits", "disk_hits", "misses", "puts"):
        units[f"decomp.{tier}"] = "count"
    units["decomp.hit_ratio"] = "ratio"
    units["decomp.lookup_many_self_s"] = "s"
    units.update(
        {
            "rules.templates_for_many.calls": "count",
            "rules.templates_for_many.rows": "count",
            "rules.templates_for_many.s": "s",
            "rules.coverage_loads": "count",
            "rules.coverage_load_s": "s",
            "coverage_store.reads": "count",
            "coverage_store.read_s": "s",
            "coverage_store.bytes_read": "bytes",
            "service.admit_s": "s",
            "service.queue_wait_p50_s": "s",
            "service.exec_p50_s": "s",
            "service.executed": "count",
            "service.worker_wall_s": "s",
            "service.dispatch_overhead_s": "s",
            "service.dedup_store": "count",
            "service.dedup_inflight": "count",
            "service.dedup_router": "count",
            "service.dedup_ratio": "ratio",
            "service.requeues": "count",
            "service.retries": "count",
            "service.job_latency_p50_s": "s",
            "service.job_latency_p90_s": "s",
            "service.sweep_latency_p50_s": "s",
            "router.shard_jobs_max_over_mean": "ratio",
            "engine.pool_overhead_s": "s",
            "engine.job_latency_p50_s": "s",
            "synth.solve_latency_p50_s": "s",
            "synth.price_s": "s",
            "synth.refine_s": "s",
            "synth.refinements": "count",
            "synth.unitary_calls": "count",
            "synth.unitary_s": "s",
            "synth.refine_win_ratio": "ratio",
            "synth.fan_out_overhead_s": "s",
            "quantum.makhlin_s": "s",
            "process.cpu_utilization": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


#: Per-layer metric units (the traced run prints every one of them;
#: a layer a workload does not exercise reads 0).
PER_LAYER_UNITS = _per_layer_units()


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile with ``min_beyond`` samples above.

    The value at rank ``ceil(q/100 * n)`` is returned only when at least
    ``min_beyond`` samples rank beyond it; otherwise the percentile says
    more about one or two outliers than about the distribution, and
    :class:`InsufficientSamples` is raised.
    """
    if not 0 < q < 100:
        raise ValueError("percentile must be in (0, 100)")
    ordered = sorted(float(value) for value in samples)
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} "
            f"beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    count = 1
    while True:
        rank = math.ceil(q / 100 * count)
        if rank >= 1 and count - rank >= min_beyond:
            return count
        count += 1


def median(samples) -> float:
    """Median of a non-empty sample list."""
    return float(statistics.median(samples))


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = [float(v) for v in values]
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def now() -> float:
    """The benchmark's one clock (monotonic, shared across processes)."""
    return time.perf_counter()


def program_env(extra: dict | None = None) -> dict:
    """Environment for program subprocesses: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra or {})
    return env


class RunResult:
    """Outcome accounting of one run: attempts, failures, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Failures outside the documented classes (README "Known
        #: failures"): wrong outputs, which make the run incorrect.
        self.unexpected: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def record(self, ok: bool, reason: str = "", known: bool = False):
        """Count one attempted operation and, if it failed, why."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.notes.append(reason)
        if not known:
            self.unexpected.append(reason)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def ok_fraction(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)

    def line(self) -> str:
        """The final JSON line of the benchmark's standard output."""
        return json.dumps(
            {
                "correct": not self.unexpected,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
