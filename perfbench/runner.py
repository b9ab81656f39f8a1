"""Run plumbing shared by the workloads: set-up probes, the traced
pass, reference checks and the final metric line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback

import checks
from common import (
    BENCH_DIR,
    NPROC,
    PER_LAYER_UNITS,
    ROOT,
    TRACES_DIR,
    cpu_seconds,
    log,
    median,
    now,
    peak_rss_mb,
    program_env,
)


class Clock:
    """Process start and the time preparation took (excluded from set-up)."""

    def __init__(self, started: float):
        self.started = started
        self.prepare_s = 0.0

    def since_start(self) -> float:
        return now() - self.started - self.prepare_s


def probe_setups(workload: str, count: int) -> list[float]:
    """Set-up times of ``workload`` measured in ``count`` fresh processes.

    The probes are single-process and single-threaded, so they run side
    by side, ``NPROC`` at a time; every probe is waited for (and killed
    on failure or timeout) before this returns.
    """
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--setup-probe"]
    samples: list[float] = []
    while len(samples) < count:
        wave = [
            subprocess.Popen(command, cwd=ROOT, env=program_env(),
                             stdout=subprocess.PIPE, text=True)
            for _ in range(min(NPROC, count - len(samples)))
        ]
        try:
            for probe in wave:
                out, _ = probe.communicate(timeout=120)
                if probe.returncode != 0:
                    raise RuntimeError(
                        f"set-up probe exited with code {probe.returncode}"
                    )
                samples.append(
                    float(json.loads(out.strip().splitlines()[-1])["setup_s"])
                )
        finally:
            for probe in wave:
                if probe.poll() is None:
                    probe.kill()
                probe.wait()
    return samples


def cpu_seconds_of(body):
    """``(body(), CPU seconds it used in this process and reaped children)``."""
    before = cpu_seconds()
    value = body()
    return value, cpu_seconds() - before


def traced_pass(workload: str, seed: int, body, synthesis: bool = False):
    """Run ``body`` with the shims installed and tracing on.

    Returns ``(value, spans, counter_deltas)`` and writes the spans as a
    Chrome trace (Perfetto-loadable) under ``perfbench/.traces``.
    """
    import shims
    from repro.obs import (
        REGISTRY,
        TRACER,
        MetricsRegistry,
        disable_tracing,
        enable_tracing,
        span,
        write_chrome_trace,
    )

    shims.install(synthesis=synthesis)
    TRACER.clear()
    before = REGISTRY.snapshot()
    enable_tracing()
    try:
        with span(f"bench.{workload}", seed=seed):
            value = body()
    finally:
        disable_tracing()
    counters = MetricsRegistry.delta(before, REGISTRY.snapshot()).get(
        "counters", {}
    )
    spans = shims.span_dicts(TRACER.spans)
    path = TRACES_DIR / f"{workload}-seed{seed}.json"
    write_chrome_trace(spans, path, main_pid=os.getpid())
    log(f"wrote {len(spans)} spans to {path}")
    return value, spans, counters


def _reference_item(item):
    index, job = item
    try:
        return index, checks.reference(job)
    except Exception:  # noqa: BLE001 - a crashing reference is a failed check
        return index, traceback.format_exc(limit=8)


def references(jobs) -> dict:
    """Uncached reference per distinct job identity, computed in a pool."""
    from repro.service.engine import fan_out

    distinct: dict[str, object] = {}
    for job in jobs:
        distinct.setdefault(job.identity_digest(), job)
    keys = list(distinct)
    out = {}
    for index, ref in fan_out(
        _reference_item, list(enumerate(distinct.values())), NPROC
    ):
        out[keys[index]] = ref
    return out


def check_compile_results(res, results, refs) -> None:
    """Count each compile result, failing it on any check problem."""
    for result in results:
        ref = refs.get(result.job.identity_digest())
        label = result.job.label
        if not isinstance(ref, checks.Reference):
            res.record(False, f"{label}: reference compile failed: {ref}")
            continue
        problems, known = checks.result_problems(result, ref)
        res.record(not problems, f"{label}: {'; '.join(problems)}", known)


def finish(res, trace: bool, setup, jobs: int, wall: float,
           layers: dict) -> None:
    """Fill the metric block: end-to-end untraced, per-layer traced.

    ``setup`` is a callable returning the set-up samples, so traced
    runs (which print no ``setup_s``) skip the probes.
    """
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            res.put(name, float(layers.get(name, 0.0)), unit)
        return
    res.put("setup_s", median(setup()), "s")
    res.put("jobs_per_s", jobs / wall, "1/s")
    res.put("ok_fraction", res.ok_fraction, "ratio")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
