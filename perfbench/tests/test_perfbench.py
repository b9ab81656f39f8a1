"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from common import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    InsufficientSamples,
    RunResult,
    percentile,
    samples_needed,
)


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Keep any store a test touches out of the user's cache dirs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "coverage"))
    monkeypatch.setenv("REPRO_DECOMP_CACHE_DIR", str(tmp_path / "decomp"))


# -- generators ---------------------------------------------------------------


def _paper_ids(seed):
    return [j.identity_digest() for j in inputs.paper_suite_jobs(seed, 2)]


def _service_ids(seed):
    return [
        (b.kind, tuple(j.identity_digest() for j in b.jobs))
        for b in inputs.service_batches(seed)
    ]


def _synth_ids(seed):
    return [
        (p.label, p.seed, p.target.round(12).tobytes())
        for p in inputs.synth_pairs(seed, 2)
    ]


@pytest.mark.parametrize("ids", [_paper_ids, _service_ids, _synth_ids])
def test_same_seed_same_inputs_other_seed_other_inputs(ids):
    assert ids(3) == ids(3)
    assert ids(3) != ids(4)


def test_paper_suite_is_table7_per_compile_seed():
    jobs = inputs.paper_suite_jobs(1, 3)
    assert len(jobs) == 3 * 18
    assert {j.workload for j in jobs} == set(inputs.TABLE7_WORKLOADS)
    assert {j.rules for j in jobs} == {"baseline", "parallel"}
    assert {(j.num_qubits, j.target, j.trials, j.pipeline) for j in jobs} == {
        (16, "snail_4x4", 10, "noise_aware")
    }


def test_service_traffic_mix():
    batches = inputs.service_batches(5)
    jobs = sum(len(b.jobs) for b in batches)
    assert jobs >= inputs.SERVICE_MIN_JOBS == samples_needed(90)
    sweeps = [b for b in batches if b.kind == "sweep"]
    assert sorted(b.jobs[0].workload for b in sweeps) == sorted(
        ("qaoa", "vqe_linear", "vqe_full", "hlf", "quantum_volume")
    )
    for batch in batches:
        if batch.kind != "replay":
            shards = [inputs.shard_of(j) for j in batch.jobs]
            assert abs(shards.count(0) - shards.count(1)) <= 1
    for batch in sweeps:
        assert len({j.workload_seed for j in batch.jobs}) == inputs.SWEEP_SIZE
    for index, batch in enumerate(batches):
        if batch.kind == "replay":
            assert batch.source < index
            assert batch.jobs == batches[batch.source].jobs


# -- metric names -------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == PER_LAYER_UNITS


def test_result_line_carries_exactly_the_result_keys():
    res = RunResult()
    res.record(True)
    res.put("setup_s", 1.25, "s")
    payload = json.loads(res.line())
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["metrics"]["setup_s"] == {"value": 1.25, "unit": "s"}


# -- percentile helper ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert samples_needed(90) == 100
    with pytest.raises(InsufficientSamples):
        percentile(range(99), 90)
    assert percentile(range(1, 101), 90) == 90.0
    samples = list(range(1, 101))
    assert sum(1 for s in samples if s > percentile(samples, 90)) == 10


def test_percentile_rule_holds_for_other_ranks():
    assert samples_needed(50) == 20
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)
    with pytest.raises(ValueError):
        percentile(range(1000), 100)


# -- output checks --------------------------------------------------------------


def _small_job():
    from repro.service.jobs import CompileJob

    # A GHZ chain on a line under the one-trial trivial-layout pipeline
    # needs no SWAPs and only CX-family templates: no coverage build.
    return CompileJob(
        workload="ghz", num_qubits=4, target="line_16", rules="parallel",
        pipeline="fast", trials=1, seed=3,
    )


def test_reference_matches_documented_reference_path():
    from repro.service.engine import execute_job

    job = _small_job()
    ref = checks.reference(job)
    assert ref.problems == []
    assert ref.digest == execute_job(job, use_cache=False).digest


def test_corrupted_digest_counts_as_failure():
    from dataclasses import replace

    from repro.service.engine import execute_job

    job = _small_job()
    ref = checks.reference(job)
    good = execute_job(job, use_cache=False)
    res = RunResult()
    for result in (good, replace(good, digest="0" * 64)):
        problems, known = checks.result_problems(result, ref)
        res.record(not problems, "; ".join(problems), known)
    assert (res.attempted, res.failed) == (2, 1)
    assert "digest differs" in res.notes[0]


def test_wrong_makespan_counts_as_failure():
    from repro.circuits.workloads import get_workload
    from repro.targets import get_target
    from repro.transpiler.compiler import compile as compile_circuit

    job = _small_job()
    result = compile_circuit(
        get_workload(job.workload, job.num_qubits, seed=job.workload_seed),
        config=job.config,
        seed=job.seed,
    )
    target = get_target(job.target)
    fidelity = result.estimated_fidelity
    assert checks.circuit_problems(
        result.circuit, result.duration, fidelity, target
    ) == []
    problems = checks.circuit_problems(
        result.circuit, result.duration + 0.25, fidelity, target
    )
    assert problems and "makespan" in problems[0]
    res = RunResult()
    res.record(not problems, problems[0])
    assert res.failed == 1 and not json.loads(res.line())["correct"]


def test_off_edge_pulse_and_bad_fidelity_are_problems():
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gate import Gate
    from repro.targets import get_target

    circuit = QuantumCircuit(4)
    circuit.append(Gate("pulse2q", (0, 3), duration=0.5))
    problems = checks.circuit_problems(circuit, 0.5, 1.5, get_target("line_16"))
    assert any("non-edge" in p for p in problems)
    assert any("fidelity" in p for p in problems)


def _one_qubit(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_makhlin_recomputation_agrees_with_program():
    from repro.quantum.makhlin import makhlin_invariants

    rng = np.random.default_rng(0)
    a, b = inputs.haar_unitary(rng), inputs.haar_unitary(rng)
    program = float(np.linalg.norm(makhlin_invariants(a) - makhlin_invariants(b)))
    assert math.isclose(checks.makhlin_distance(a, b), program, rel_tol=1e-9)
    local = np.kron(_one_qubit(rng), _one_qubit(rng))
    assert checks.makhlin_distance(a, local @ a) < 1e-12
    assert checks.makhlin_distance(a, b) > 1e-3


def test_known_failures_are_counted_but_keep_the_run_correct():
    res = RunResult()
    res.record(True)
    res.record(False, "adder-16q-baseline: digest differs", known=True)
    line = json.loads(res.line())
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 1, True)
    res.record(False, "fidelity 1.5 outside (0, 1]")
    assert json.loads(res.line())["correct"] is False


# -- the stripped directory -----------------------------------------------------


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".runs", ".traces", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
