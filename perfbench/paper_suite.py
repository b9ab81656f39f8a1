"""paper_suite: the Table VII flow through ``BatchEngine.run``.

One in-process ``BatchEngine(workers=nproc)`` batch per pass, each
with a fresh decomposition cache, over Table VII (9 workloads x 2 rule
engines) repeated under compile seeds drawn from the benchmark seed.
"""

from __future__ import annotations

import inputs
import shims
from common import NPROC, geomean, median, now
from runner import (
    check_compile_results,
    cpu_seconds_of,
    finish,
    probe_setups,
    references,
    traced_pass,
)

#: Seconds of the ``--seconds`` budget one compile seed (18 jobs) is
#: sized to: 4-5 s of batch on 2 cores, each pool worker's first-use
#: hull builds included, plus about 3 s of reference compiles after it.
SECONDS_PER_COMPILE_SEED = 7.5


def ready() -> None:
    """What a batch user's process does before its first batch: load
    the coverage sets of both rule engines (the engine's warm path)."""
    from repro.core.decomposition_rules import build_rules

    build_rules("baseline").coverage
    parallel = build_rules("parallel")
    parallel.iswap_parallel_k1
    parallel.sqrt_parallel_k1
    parallel.sqrt_parallel_k2


def compile_seeds(seconds: int) -> int:
    return max(1, round(seconds / SECONDS_PER_COMPILE_SEED))


def batch_pass(jobs: list, cache_path) -> dict:
    """One timed ``BatchEngine.run``; per-job settle latencies."""
    from repro.service.engine import BatchEngine

    latencies: list[float] = []
    start = now()

    def progress(done, total, result):
        latencies.append(now() - start)

    engine = BatchEngine(workers=NPROC, cache_path=cache_path, progress=progress)
    results = engine.run(jobs)
    wall = now() - start
    pool = min(NPROC, len(jobs))
    return {
        "results": results,
        "latencies": latencies,
        "wall": wall,
        "pool_overhead": wall - sum(r.wall_time for r in results) / pool,
    }


def quality(results) -> dict[str, float]:
    """Geomeans of compiled duration (ns) and infidelity over successes."""
    from repro.targets import get_target

    ok = [r for r in results if r.ok]
    if not ok:
        return {}
    return {
        "passes.circuit_duration_geomean_ns": geomean(
            r.duration * get_target(r.job.target).two_q_ns for r in ok
        ),
        "passes.circuit_infidelity_geomean": geomean(
            1.0 - r.estimated_fidelity for r in ok
        ),
    }


def run(seed: int, seconds: int, trace: bool, res, clock, scratch) -> None:
    ready()
    main_setup = clock.since_start()
    jobs = inputs.paper_suite_jobs(seed, compile_seeds(seconds))
    untraced, cpu = cpu_seconds_of(
        lambda: batch_pass(jobs, scratch / "decomp-untraced.sqlite")
    )
    passes = [untraced]
    layers = {}
    if trace:
        traced, spans, counters = traced_pass(
            "paper_suite",
            seed,
            lambda: batch_pass(jobs, scratch / "decomp-traced.sqlite"),
        )
        passes.append(traced)
        layers = shims.layer_metrics(spans, counters)
        layers["engine.pool_overhead_s"] = traced["pool_overhead"]
        layers["trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
        layers["process.cpu_utilization"] = cpu / (untraced["wall"] * NPROC)
        layers.update(quality(untraced["results"]))
        layers["engine.job_latency_p50_s"] = median(untraced["latencies"])
    refs = references(jobs)
    for one in passes:
        check_compile_results(res, one["results"], refs)
    finish(
        res,
        trace=trace,
        setup=lambda: [main_setup] + probe_setups("paper_suite", 2),
        jobs=len(jobs),
        wall=untraced["wall"],
        layers=layers,
    )
