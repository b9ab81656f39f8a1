"""Synthesis-engine timings: multi-start training and the CoverageStore.

Two measurements feed the ``BENCH_synthesis.json`` perf trajectory:

* **multi-start vs single-start** — the engine's batched multi-start
  flow (all starts priced in one vectorized pass through the batched
  propagators, only the best few refined) against the legacy
  sequential-restart ``synthesize`` at matched optimization budgets;
  reported as throughput (converged syntheses per second) plus the
  loss each path reaches;
* **cold vs warm CoverageStore** — a full Alg. 2 coverage build against
  re-loading the same set from the sqlite store (a fresh store
  instance, nothing memoized in-process: the persisted clouds answer
  and only their hulls are assembled, with no re-sampling).

``test_perf_smoke_coverage_store`` is the cheap CI guard: the warm
store must be at least 2x faster than the cold build on the small
preset (observed ~40x, so the bound trips on a genuinely broken store,
not on runner noise), and — noise-free — the warm load must be one
cloud-tier disk hit with zero coverage builds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.coverage import (
    build_coverage_set,
    coverage_cache_key,
    haar_coordinate_samples,
)
from repro.obs import metrics
from repro.quantum.weyl import named_gate_coordinates
from repro.service.coverage_store import CoverageStore
from repro.synthesis import SynthesisEngine, synthesize

from _artifact import write_bench_artifact
from conftest import run_once

#: Small coverage preset shared by the bench and the CI smoke guard.
SMALL_PRESET = dict(
    gc=np.pi / 2,
    gg=0.0,
    pulse_duration=0.5,
    kmax=2,
    basis_name="bench_sqrt_iswap",
    parallel=False,
    samples_per_k=400,
    steps_per_pulse=2,
    seed=5,
    synthesis_restarts=1,
    synthesis_iterations=300,
)


def _multistart_entry() -> dict:
    """Single-start vs batched multi-start at a matched budget."""
    engine = SynthesisEngine("piecewise")
    template = engine.template(
        gc=np.pi / 2, gg=0.0, pulse_duration=1.0, repetitions=1
    )
    target = named_gate_coordinates("CNOT")

    start = time.perf_counter()
    sequential = synthesize(
        template, target, seed=7, restarts=4, max_iterations=2000
    )
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    multi = engine.synthesize_multistart(
        template, target, starts=16, refine=2, seed=7, max_iterations=2000
    )
    multistart_s = time.perf_counter() - start

    return {
        "kernel": "multistart_vs_single",
        "target": "CNOT",
        "sequential_s": sequential_s,
        "sequential_loss": sequential.loss,
        "sequential_converged": bool(sequential.converged),
        "multistart_s": multistart_s,
        "multistart_loss": multi.best.loss,
        "multistart_converged": bool(multi.converged),
        "multistart_starts": len(multi.start_losses),
        "speedup": sequential_s / multistart_s,
        "throughput_per_s": 1.0 / multistart_s,
    }


def _race_entry(seeds=(3, 7, 11, 19, 23)) -> dict:
    """Race-vs-sequential refinement latency across seeds (p50/p99).

    One worker and ``race_threshold == tolerance`` make the race an
    early-stopped prefix of exactly the sequential strategy's work, so
    its latency distribution is stochastically dominated by the
    sequential one — the p99 comparison below is a structural
    guarantee, not a lucky draw.
    """
    engine = SynthesisEngine("piecewise")
    template = engine.template(
        gc=np.pi / 2, gg=0.0, pulse_duration=1.0, repetitions=1
    )
    target = named_gate_coordinates("CNOT")
    budget = dict(starts=8, refine=4, max_iterations=2000, tolerance=1e-8)

    sequential_times, race_times, cancelled = [], [], 0
    for seed in seeds:
        start = time.perf_counter()
        engine.synthesize_multistart(template, target, seed=seed, **budget)
        sequential_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        outcome = engine.synthesize_multistart(
            template, target, seed=seed, strategy="race", **budget
        )
        race_times.append(time.perf_counter() - start)
        cancelled += outcome.race.cancelled

    return {
        "kernel": "race_vs_sequential",
        "target": "CNOT",
        "seeds": len(seeds),
        "sequential_p50_s": float(np.percentile(sequential_times, 50)),
        "sequential_p99_s": float(np.percentile(sequential_times, 99)),
        "race_p50_s": float(np.percentile(race_times, 50)),
        "race_p99_s": float(np.percentile(race_times, 99)),
        "race_cancelled_total": cancelled,
    }


def _store_entry(tmp_path) -> dict:
    """Cold Alg. 2 build vs warm sqlite reload (disk tier)."""
    store_path = tmp_path / "coverage.sqlite"
    cold_store = CoverageStore(path=store_path)
    start = time.perf_counter()
    cold = build_coverage_set(store=cold_store, **SMALL_PRESET)
    cold_s = time.perf_counter() - start

    # Fresh instance: empty memory tier, clouds come from sqlite.
    warm_store = CoverageStore(path=store_path)
    builds = metrics.counter("repro.coverage.builds")
    built_before = builds.value
    start = time.perf_counter()
    warm = build_coverage_set(store=warm_store, **SMALL_PRESET)
    warm_s = time.perf_counter() - start
    assert warm_store.stats.disk_hits == 1, "warm build missed the cloud tier"
    assert builds.value == built_before, (
        "warm build re-sampled the clouds instead of loading them"
    )

    haar = haar_coordinate_samples(500, seed=9)
    assert np.array_equal(cold.min_k(haar), warm.min_k(haar)), (
        "warm store reload diverged from the cold build"
    )
    return {
        "kernel": "coverage_store_cold_vs_warm",
        "key": coverage_cache_key(
            backend="piecewise",
            boost_targets=True,
            **SMALL_PRESET,
        ),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def test_synthesis_bench(benchmark, capsys, tmp_path):
    """Full synthesis sweep; emits results/synthesis_bench.json."""

    def sweep() -> list[dict]:
        return [_multistart_entry(), _race_entry(), _store_entry(tmp_path)]

    entries = run_once(benchmark, sweep)
    multi, race, store = entries

    assert multi["multistart_converged"], "multi-start failed to converge"
    assert race["race_p99_s"] <= race["sequential_p99_s"], (
        "racing made the refinement tail worse"
    )
    assert store["speedup"] >= 2.0, (
        f"warm CoverageStore only {store['speedup']:.1f}x over cold"
    )

    out = write_bench_artifact(
        "synthesis",
        {"benchmarks": entries},
        metrics={
            "multistart.sequential_s": multi["sequential_s"],
            "multistart.multistart_s": multi["multistart_s"],
            "multistart.speedup": multi["speedup"],
            "multistart.throughput_per_s": multi["throughput_per_s"],
            "race.sequential_p50_s": race["sequential_p50_s"],
            "race.sequential_p99_s": race["sequential_p99_s"],
            "race.p50_s": race["race_p50_s"],
            "race.p99_s": race["race_p99_s"],
            "coverage_store.cold_s": store["cold_s"],
            "coverage_store.warm_s": store["warm_s"],
            "coverage_store.speedup": store["speedup"],
        },
    )
    with capsys.disabled():
        print("\nsynthesis engine timings:")
        print(
            f"  single-start (4 restarts): {multi['sequential_s']:.2f}s "
            f"loss {multi['sequential_loss']:.1e}"
        )
        print(
            f"  multi-start (16 starts, refine 2): "
            f"{multi['multistart_s']:.2f}s loss "
            f"{multi['multistart_loss']:.1e} "
            f"({multi['speedup']:.1f}x)"
        )
        print(
            f"  race vs sequential (p50/p99 over {race['seeds']} seeds): "
            f"{race['race_p50_s']:.2f}s/{race['race_p99_s']:.2f}s vs "
            f"{race['sequential_p50_s']:.2f}s/"
            f"{race['sequential_p99_s']:.2f}s, "
            f"{race['race_cancelled_total']} refinements cancelled"
        )
        print(
            f"  coverage store: cold {store['cold_s']:.2f}s, warm "
            f"{store['warm_s']:.3f}s ({store['speedup']:.1f}x)"
        )
        print(f"written to {out}")


def test_perf_smoke_race():
    """CI perf smoke: race p99 must not exceed the sequential p99.

    With one worker and the race threshold equal to the tolerance, the
    race executes a strict prefix of the sequential strategy's
    refinement schedule (same seeds, same order, early stop), so this
    bound holds structurally — a failure means racing stopped cutting
    work, not that the runner was busy.
    """
    entry = _race_entry(seeds=(3, 7, 11))
    assert entry["race_cancelled_total"] > 0, (
        "race never cancelled a refinement; early acceptance is broken"
    )
    assert entry["race_p99_s"] <= entry["sequential_p99_s"], (
        f"race p99 ({entry['race_p99_s']:.2f}s) exceeded sequential p99 "
        f"({entry['sequential_p99_s']:.2f}s)"
    )


def test_perf_smoke_coverage_store(tmp_path):
    """CI perf smoke: warm store >= 2x cold build on the small preset.

    Runs in well under a minute and carries a ~40x margin; a failure
    means the store genuinely stopped serving (every build re-samples),
    not that the runner was busy.
    """
    entry = _store_entry(tmp_path)
    assert entry["speedup"] >= 2.0, (
        f"warm CoverageStore ({entry['warm_s']:.2f}s) less than 2x faster "
        f"than the cold build ({entry['cold_s']:.2f}s)"
    )
