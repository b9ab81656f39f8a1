"""Tests for the batch compilation service (jobs, cache, engine)."""

from __future__ import annotations

import json
import math
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.workloads import get_workload
from repro.core.decomposition_rules import TemplateSpec, quantize_coordinates
from repro.quantum.weyl import named_gate_coordinates
from repro.targets import get_target
from repro.service import (
    BatchEngine,
    CompileJob,
    CompileResult,
    DecompositionCache,
    ResultStore,
    SUITES,
    circuit_digest,
    suite_jobs,
)
from repro.service.engine import execute_job, fan_out, start_worker
from repro.transpiler.basis import translate_to_basis
from repro.transpiler.coupling import square_lattice
from repro.transpiler.pipeline import transpile


class TestJobRoundTrip:
    def test_json_round_trip(self):
        job = CompileJob(
            workload="qft",
            num_qubits=8,
            rules="baseline",
            trials=3,
            seed=42,
            target="square_2x4",
            tag="unit",
        )
        assert CompileJob.from_json(job.to_json()) == job

    def test_job_embeds_compiler_config(self):
        from repro.transpiler.compiler import CompilerConfig

        job = CompileJob(
            workload="qft", num_qubits=8, rules="baseline", trials=3,
            target="square_2x4",
        )
        assert isinstance(job.config, CompilerConfig)
        assert job.config.pipeline == "noise_aware"  # job default
        # Convenience kwargs and an explicit config are the same job.
        assert job == CompileJob(
            workload="qft",
            num_qubits=8,
            config=CompilerConfig(
                pipeline="noise_aware", rules="baseline",
                target="square_2x4", trials=3,
            ),
        )
        # Serialized form nests the config.
        payload = job.to_dict()
        assert payload["config"]["target"] == "square_2x4"
        assert payload["config"]["rules"] == "baseline"
        assert "rules" not in payload  # flat keys no longer emitted

    def test_flat_pre_config_payload_loads(self):
        """Jobs archived before the pass-manager redesign still parse."""
        flat = {
            "workload": "qft",
            "num_qubits": 8,
            "rules": "baseline",
            "trials": 3,
            "seed": 42,
            "target": "square_2x4",
            "scheduler": "alap",
            "selection": "fidelity",
            "workload_seed": 11,
            "tag": "unit",
        }
        job = CompileJob.from_dict(flat)
        assert job.rules == "baseline"
        assert job.target == "square_2x4"
        assert job.scheduler == "alap"
        assert CompileJob.from_json(job.to_json()) == job

    def test_pipeline_kwarg_selects_pipeline(self):
        job = CompileJob(
            workload="ghz", num_qubits=4, target="square_2x2",
            pipeline="fast",
        )
        assert job.pipeline == "fast"
        assert job.trials == 1  # fast pipeline default
        assert job.scheduler == "asap"
        assert job.selection == "duration"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            CompileJob(workload="ghz", pipeline="warp_speed")

    def test_updated_overrides_config_and_job_fields(self):
        job = CompileJob(workload="ghz", num_qubits=8, target="square_2x4")
        twiddled = job.updated(
            trials=2, seed=123, pipeline="paper", tag="swept"
        )
        assert twiddled.trials == 2
        assert twiddled.seed == 123
        assert twiddled.pipeline == "paper"
        assert twiddled.tag == "swept"
        assert twiddled.workload == job.workload
        # None overrides are ignored (suite-override semantics).
        assert job.updated(trials=None, target=None) == job

    def test_result_json_round_trip(self):
        job = CompileJob(workload="ghz", num_qubits=4, target="square_2x2")
        result = CompileResult(
            job=job,
            duration=12.5,
            pulse_count=7,
            swap_count=1,
            total_pulse_time=5.25,
            estimated_fidelity=0.97,
            trial_index=2,
            digest="abc123",
            gate_counts={"pulse2q": 7, "u1q": 11},
            wall_time=0.5,
            attempts=2,
        )
        parsed = CompileResult.from_json(result.to_json())
        assert parsed == result
        assert parsed.ok

    def test_failure_result(self):
        job = CompileJob(workload="ghz", num_qubits=4, target="square_2x2")
        failed = CompileResult.failure(job, error="boom", wall_time=0.1)
        assert not failed.ok
        assert math.isnan(failed.duration)
        assert math.isnan(failed.estimated_fidelity)
        parsed = CompileResult.from_json(failed.to_json())
        assert parsed.error == "boom"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown rules"):
            CompileJob(workload="ghz", rules="nope")
        with pytest.raises(ValueError, match="unknown scheduler"):
            CompileJob(workload="ghz", scheduler="greedy")
        with pytest.raises(ValueError, match="unknown selection"):
            CompileJob(workload="ghz", selection="random")
        with pytest.raises(ValueError, match="trials"):
            CompileJob(workload="ghz", trials=0)
        with pytest.raises(ValueError, match="too small"):
            CompileJob(workload="ghz", num_qubits=16, target="square_2x2")
        with pytest.raises(ValueError, match="unknown target"):
            CompileJob(workload="ghz", target="not_a_device")

    def test_label(self):
        job = CompileJob(workload="qft", num_qubits=8, target="square_2x4")
        assert job.label == "qft-8q-parallel"


class TestCouplingShimRemoved:
    """The coupling=(rows, cols) shim is gone (removal window >= PR 4)."""

    def test_constructor_rejects_coupling(self):
        with pytest.raises(TypeError, match="coupling"):
            CompileJob(workload="ghz", num_qubits=8, coupling=(2, 4))

    def test_legacy_payload_raises_with_migration_hint(self):
        legacy = {
            "workload": "qft",
            "num_qubits": 8,
            "rules": "baseline",
            "trials": 3,
            "seed": 42,
            "coupling": [2, 4],
            "workload_seed": 11,
            "tag": "unit",
        }
        with pytest.raises(ValueError, match="square_2x4"):
            CompileJob.from_dict(legacy)
        # The replacement payload loads and resolves the same lattice.
        legacy.pop("coupling")
        legacy["target"] = "square_2x4"
        job = CompileJob.from_dict(legacy)
        assert job.target == "square_2x4"
        assert get_target(job.target).num_qubits == 8

    def test_malformed_coupling_payload_still_names_replacement(self):
        with pytest.raises(ValueError, match="square_RxC"):
            CompileJob.from_dict(
                {"workload": "ghz", "coupling": "not-a-pair"}
            )

    def test_pre_target_result_payload_raises(self):
        legacy = {
            "job": {
                "workload": "ghz",
                "num_qubits": 4,
                "rules": "parallel",
                "trials": 1,
                "seed": 7,
                "coupling": [2, 2],
                "workload_seed": 11,
                "tag": "",
            },
            "duration": 10.0,
            "pulse_count": 3,
            "swap_count": 0,
            "total_pulse_time": 5.0,
            "trial_index": 0,
            "digest": "d",
            "gate_counts": {},
            "wall_time": 0.1,
            "attempts": 1,
            "error": None,
        }
        with pytest.raises(ValueError, match="coupling"):
            CompileResult.from_dict(legacy)


class TestDecompositionCache:
    COORDS = np.array([np.pi / 2, 0.0, 0.0])
    SPEC = TemplateSpec((0.5, 0.5), 3, "test template")

    def test_miss_then_hit(self, tmp_path):
        cache = DecompositionCache(path=tmp_path / "t.sqlite")
        assert cache.get("rules", self.COORDS) is None
        cache.put("rules", self.COORDS, self.SPEC)
        assert cache.get("rules", self.COORDS) == self.SPEC
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_lookup_computes_once(self, tmp_path):
        cache = DecompositionCache(path=tmp_path / "t.sqlite")
        calls = []

        def factory():
            calls.append(1)
            return self.SPEC

        assert cache.lookup("rules", self.COORDS, factory) == self.SPEC
        assert cache.lookup("rules", self.COORDS, factory) == self.SPEC
        assert len(calls) == 1

    def test_key_quantization(self):
        cache = DecompositionCache(persistent=False)
        wiggled = self.COORDS + 1e-12
        assert cache.key_for("r", self.COORDS) == cache.key_for("r", wiggled)
        other = self.COORDS + 1e-6
        assert cache.key_for("r", self.COORDS) != cache.key_for("r", other)
        # Rules with the same coordinates do not share entries.
        assert cache.key_for("a", self.COORDS) != cache.key_for(
            "b", self.COORDS
        )

    def test_persistence_across_instances(self, tmp_path):
        path = tmp_path / "t.sqlite"
        first = DecompositionCache(path=path)
        first.put("rules", self.COORDS, self.SPEC)
        first.close()
        second = DecompositionCache(path=path)
        assert second.get("rules", self.COORDS) == self.SPEC
        assert second.stats.disk_hits == 1
        assert second.disk_entries() == 1

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        cache = DecompositionCache(path=tmp_path / "t.sqlite", memory_size=2)
        specs = {}
        for i in range(3):
            coords = np.array([0.1 * (i + 1), 0.0, 0.0])
            spec = TemplateSpec((0.25 * (i + 1),), 2, f"spec {i}")
            cache.put("rules", coords, spec)
            specs[i] = (coords, spec)
        assert len(cache) == 2  # entry 0 evicted from the memory tier
        coords0, spec0 = specs[0]
        assert cache.get("rules", coords0) == spec0
        assert cache.stats.disk_hits == 1

    def test_lru_eviction_memory_only_misses(self):
        cache = DecompositionCache(persistent=False, memory_size=2)
        coords = [np.array([0.1 * (i + 1), 0.0, 0.0]) for i in range(3)]
        for i, c in enumerate(coords):
            cache.put("rules", c, TemplateSpec((0.25,), 2, f"spec {i}"))
        assert cache.get("rules", coords[0]) is None
        assert cache.get("rules", coords[2]) is not None

    def test_lru_recency_order(self):
        cache = DecompositionCache(persistent=False, memory_size=2)
        a, b, c = (np.array([0.1 * (i + 1), 0.0, 0.0]) for i in range(3))
        cache.put("rules", a, self.SPEC)
        cache.put("rules", b, self.SPEC)
        assert cache.get("rules", a) is not None  # a becomes most recent
        cache.put("rules", c, self.SPEC)  # evicts b, not a
        assert cache.get("rules", a) is not None
        assert cache.get("rules", b) is None

    def test_env_override_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DECOMP_CACHE_DIR", str(tmp_path / "d"))
        cache = DecompositionCache()
        assert cache.path is not None
        assert cache.path.parent == tmp_path / "d"

    def test_clear(self, tmp_path):
        cache = DecompositionCache(path=tmp_path / "t.sqlite")
        cache.put("rules", self.COORDS, self.SPEC)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert cache.disk_entries() == 0


#: Chamber landmarks on coverage-hull facets (plus one off the named set).
_BUCKET_LANDMARKS = {
    name: named_gate_coordinates(name)
    for name in ("I", "CNOT", "sqrt_CNOT", "B", "iSWAP", "sqrt_iSWAP", "SWAP")
} | {"(1.2,0,0)": np.array([1.2, 0.0, 0.0])}


class TestCachedTranslation:
    def test_translation_identical_with_cache(self, tmp_path, parallel_rules):
        circuit = get_workload("qft", 6, seed=11)
        cache = DecompositionCache(path=tmp_path / "t.sqlite")
        plain = transpile(
            circuit, square_lattice(2, 3), parallel_rules, trials=2, seed=3
        )
        cached = transpile(
            circuit,
            square_lattice(2, 3),
            parallel_rules,
            trials=2,
            seed=3,
            cache=cache,
        )
        assert circuit_digest(plain.circuit) == circuit_digest(cached.circuit)
        assert cache.stats.hits > 0  # repeated blocks actually hit

    def test_cache_token_separates_rule_parameters(self):
        from repro.core.decomposition_rules import (
            BaselineSqrtISwapRules,
            ParallelSqrtISwapRules,
        )

        # Same class, different parameters -> different cache keyspace;
        # otherwise a shared store would serve wrongly-quantized pulses.
        assert (
            ParallelSqrtISwapRules().cache_token
            != ParallelSqrtISwapRules(pulse_quantum=0.5).cache_token
        )
        assert (
            BaselineSqrtISwapRules().cache_token
            != BaselineSqrtISwapRules(one_q_duration=0.5).cache_token
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        landmark=st.sampled_from(sorted(_BUCKET_LANDMARKS)),
        offsets=st.lists(
            st.floats(-4.9e-9, 4.9e-9), min_size=6, max_size=6
        ),
    )
    def test_one_key_bucket_one_template(
        self, landmark, offsets, baseline_rules, parallel_rules
    ):
        """Two coordinates in one cache-key bucket get the same template,
        cached or not, under both default engines (the buckets sit on
        coverage facets, where a K decision is closest to flipping)."""
        center = quantize_coordinates(_BUCKET_LANDMARKS[landmark])
        pair = center + np.reshape(offsets, (2, 3))
        keys = DecompositionCache.keys_for("bucket", pair)
        assume(keys[0] == keys[1])
        circuit = QuantumCircuit(2)
        circuit.append(Gate("cx", (0, 1))).append(Gate("cx", (0, 1)))

        def digest(rows, rules, cache):
            with mock.patch(
                "repro.transpiler.basis.weyl_coordinates_many",
                return_value=np.array(rows),
            ):
                return circuit_digest(
                    translate_to_basis(circuit, rules, cache=cache)
                )

        for rules in (baseline_rules, parallel_rules):
            same = digest([pair[0], pair[0]], rules, None)
            assert digest(pair, rules, None) == same
            assert digest(
                pair, rules, DecompositionCache(persistent=False)
            ) == same

    def test_cached_and_uncached_jobs_agree(self, tmp_path):
        """adder-16q-baseline under compile seed 1 once diverged: the cache
        kept its bucket's first representative while the uncached path
        decided K on each block's own coordinates (181.0 vs 191.5)."""
        job = CompileJob(
            workload="adder", num_qubits=16, rules="baseline", trials=10,
            seed=1, target="snail_4x4", pipeline="noise_aware",
        )
        cached = execute_job(
            job, use_cache=True, cache_path=tmp_path / "t.sqlite"
        )
        uncached = execute_job(job, use_cache=False)
        assert cached.ok and uncached.ok
        assert cached.digest == uncached.digest

    def test_translate_accepts_cache(self, parallel_rules):
        circuit = get_workload("ghz", 4, seed=11)
        cache = DecompositionCache(persistent=False)
        out = translate_to_basis(circuit, parallel_rules, cache=cache)
        again = translate_to_basis(circuit, parallel_rules, cache=cache)
        assert circuit_digest(out) == circuit_digest(again)
        assert cache.stats.puts > 0


class TestSuites:
    def test_known_suites(self):
        assert set(SUITES) >= {"smoke", "table4", "table5", "table7"}
        assert len(SUITES["table4"]) == 9
        assert all(job.rules == "parallel" for job in SUITES["table4"])
        assert len(SUITES["table7"]) == 18

    def test_suite_overrides(self):
        jobs = suite_jobs("table4", trials=2, seed=123)
        assert all(job.trials == 2 and job.seed == 123 for job in jobs)

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown suite"):
            suite_jobs("nope")


class TestBatchEngine:
    def _sequential_digest(self, job: CompileJob) -> str:
        """Mirror execute_job's target-aware transpile in-process."""
        circuit = get_workload(
            job.workload, job.num_qubits, seed=job.workload_seed
        )
        target = get_target(job.target)
        result = transpile(
            circuit,
            target.coupling_map,
            target.build_rules(job.rules),
            trials=job.trials,
            seed=job.seed,
            fidelity_model=target.fidelity_model(),
            scheduler=job.scheduler,
            duration_of=target.gate_duration,
        )
        return circuit_digest(result.circuit)

    def test_two_workers_match_sequential(self, tmp_path, parallel_rules):
        jobs = [
            CompileJob(
                workload=name,
                num_qubits=8,
                rules="parallel",
                trials=2,
                seed=7,
                target="square_2x4",
            )
            for name in ("ghz", "qft")
        ]
        engine = BatchEngine(
            workers=2,
            use_cache=True,
            cache_path=tmp_path / "t.sqlite",
            warm_coverage=False,  # conftest fixture already warmed them
        )
        results = engine.run(jobs)
        assert [r.job for r in results] == jobs
        for job, result in zip(jobs, results):
            assert result.ok, result.error
            assert result.digest == self._sequential_digest(job)
            assert result.pulse_count > 0
            assert 0.0 < result.estimated_fidelity <= 1.0
            assert result.attempts == 1

    def test_serial_engine_without_cache(self, parallel_rules):
        job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="parallel",
            trials=1,
            seed=7,
            target="square_2x2",
        )
        (result,) = BatchEngine(workers=1, use_cache=False).run([job])
        assert result.ok
        assert result.digest == self._sequential_digest(job)

    def test_duration_selection_reproduces_paper_pipeline(
        self, parallel_rules
    ):
        """selection='duration' on the unit-scale default target is
        byte-identical to the pre-target transpile() call."""
        job = CompileJob(
            workload="ghz",
            num_qubits=6,
            rules="parallel",
            trials=2,
            seed=7,
            target="square_2x3",
            selection="duration",
            scheduler="asap",
        )
        (result,) = BatchEngine(workers=1, use_cache=False).run([job])
        assert result.ok, result.error
        circuit = get_workload(
            job.workload, job.num_qubits, seed=job.workload_seed
        )
        legacy = transpile(
            circuit,
            square_lattice(2, 3),
            parallel_rules,
            trials=job.trials,
            seed=job.seed,
        )
        assert result.digest == circuit_digest(legacy.circuit)
        assert result.duration == pytest.approx(legacy.duration)

    def test_engine_on_scaled_target_variant(self, parallel_rules, tmp_path):
        """Fast/slow variants flow through the engine end-to-end and
        land in their own decomposition-cache keyspace."""
        base_job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="parallel",
            trials=1,
            seed=7,
            target="square_2x2",
        )
        fast_job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="parallel",
            trials=1,
            seed=7,
            target="square_2x2_fast",
        )
        engine = BatchEngine(
            workers=1, use_cache=True, cache_path=tmp_path / "t.sqlite"
        )
        base, fast = engine.run([base_job, fast_job])
        assert base.ok and fast.ok
        assert fast.duration < base.duration
        assert fast.estimated_fidelity > base.estimated_fidelity
        cache = DecompositionCache(path=tmp_path / "t.sqlite")
        fast_token = get_target("square_2x2_fast").build_rules(
            "parallel"
        ).cache_token
        base_token = get_target("square_2x2").build_rules(
            "parallel"
        ).cache_token
        assert cache.token_entries(fast_token) > 0
        assert cache.token_entries(base_token) > 0

    def test_engine_collects_pass_profile(self, parallel_rules):
        from repro.transpiler.passes import PassProfile

        job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="parallel",
            trials=2,
            seed=7,
            target="square_2x2",
        )
        plain, profiled = (
            BatchEngine(workers=1, use_cache=False, profile=flag).run([job])[0]
            for flag in (False, True)
        )
        assert plain.pass_profile is None
        assert profiled.pass_profile is not None
        # Profiling must not perturb the compilation itself.
        assert profiled.digest == plain.digest
        profile = PassProfile.from_dict(profiled.pass_profile)
        assert {"Route", "TranslateToBasis", "Schedule[alap]"} <= {
            record.pass_name for record in profile.records
        }
        # The result (and its profile) still round-trips through JSON.
        parsed = CompileResult.from_json(profiled.to_json())
        assert parsed.pass_profile == profiled.pass_profile
        store = ResultStore([profiled])
        assert "TranslateToBasis" in store.format_pass_profile()

    def test_engine_runs_fast_pipeline(self, parallel_rules):
        job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="parallel",
            seed=7,
            target="square_2x2",
            pipeline="fast",
        )
        (result,) = BatchEngine(workers=1, use_cache=False).run([job])
        assert result.ok, result.error
        assert result.trial_index == 0

    def test_failure_is_reported_not_raised(self):
        job = CompileJob(
            workload="no_such_workload",
            num_qubits=4,
            rules="parallel",
            trials=1,
            target="square_2x2",
        )
        progress_calls = []
        engine = BatchEngine(
            workers=1,
            use_cache=False,
            retries=1,
            progress=lambda done, total, res: progress_calls.append(
                (done, total, res.ok)
            ),
        )
        (result,) = engine.run([job])
        assert not result.ok
        assert "no_such_workload" in result.error
        assert result.attempts == 2  # first try + one retry
        assert progress_calls == [(1, 1, False)]

    def test_empty_job_list(self):
        assert BatchEngine(workers=1).run([]) == []


def _sigterm_is_default(_payload=None) -> bool:
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


def _report_sigterm(conn) -> None:
    conn.send(_sigterm_is_default())
    conn.close()


class TestWorkerSignals:
    """Worker processes must not inherit a parent's SIGTERM handler.

    A raising handler (a harness's cleanup hook) inherited by a fork
    worker turns ``Pool.terminate()`` into an exception inside the
    worker's teardown, which can wedge the pool.
    """

    @pytest.fixture(autouse=True)
    def raising_sigterm_handler(self):
        def handler(signum, _frame):
            raise SystemExit(128 + signum)

        previous = signal.signal(signal.SIGTERM, handler)
        yield
        signal.signal(signal.SIGTERM, previous)

    def test_fan_out_pool_workers_see_default_sigterm(self):
        assert not _sigterm_is_default()
        assert list(fan_out(_sigterm_is_default, [0, 1], workers=2)) == [
            True, True,
        ]

    def test_started_worker_sees_default_sigterm(self):
        process, receiver = start_worker(_report_sigterm)
        assert receiver.recv() is True
        process.join(timeout=30)


class TestResultStore:
    def _result(self, workload, rules, duration, error=None):
        job = CompileJob(
            workload=workload,
            num_qubits=4,
            rules=rules,
            trials=1,
            target="square_2x2",
        )
        if error is not None:
            return CompileResult.failure(job, error=error)
        return CompileResult(
            job=job,
            duration=duration,
            pulse_count=3,
            swap_count=0,
            total_pulse_time=duration / 2,
            estimated_fidelity=0.9,
            trial_index=0,
            digest="d",
            wall_time=0.1,
        )

    def test_summary_and_best(self):
        store = ResultStore(
            [
                self._result("ghz", "parallel", 10.0),
                self._result("ghz", "parallel", 8.0),
                self._result("ghz", "baseline", 12.0),
                self._result("qft", "parallel", 0.0, error="boom"),
            ]
        )
        assert len(store) == 4
        assert len(store.failures()) == 1
        best = store.best("ghz", "parallel")
        assert best is not None and best.duration == 8.0
        summary = store.summary()
        assert summary["ghz-4q-parallel"]["jobs"] == 2
        assert summary["ghz-4q-parallel"]["best_duration"] == 8.0
        assert summary["qft-4q-parallel"]["errors"] == 1
        assert store.best("qft", "parallel") is None

    def test_format_table_and_json(self):
        store = ResultStore([self._result("ghz", "parallel", 10.0)])
        table = store.format_table()
        assert "ghz-4q-parallel" in table
        payload = json.loads(json.dumps(store.to_dict()))
        assert payload["summary"]["ghz-4q-parallel"]["jobs"] == 1


class TestResultStorePersistence:
    """Sqlite-backed ResultStore: round-trip, merge, conflict refusal."""

    def _result(self, tag: str, digest: str, error=None) -> CompileResult:
        job = CompileJob(
            workload="ghz",
            num_qubits=4,
            rules="baseline",
            trials=1,
            target="square_2x2",
            tag=tag,
        )
        if error is not None:
            return CompileResult.failure(job, error=error)
        return CompileResult(
            job=job,
            duration=10.0,
            pulse_count=3,
            swap_count=0,
            total_pulse_time=5.0,
            estimated_fidelity=0.9,
            trial_index=0,
            digest=digest,
            wall_time=0.1,
        )

    def test_round_trip_persists_successes_only(self, tmp_path):
        path = tmp_path / "results.sqlite"
        store = ResultStore(path=path)
        good = self._result("a", "digest-a")
        store.add(good)
        store.add(self._result("b", "", error="boom"))
        store.close()
        reopened = ResultStore(path=path)
        assert len(reopened) == 1
        (loaded,) = reopened.results
        assert loaded == good
        assert reopened.get(good.job.identity_digest()) == good
        # The failure was memory-only: a transient crash must never
        # permanently shadow a job's real result.
        assert not reopened.failures()
        reopened.close()

    def test_merge_folds_fresh_and_skips_identical(self, tmp_path):
        ours = ResultStore(path=tmp_path / "ours.sqlite")
        theirs = ResultStore(path=tmp_path / "theirs.sqlite")
        shared = self._result("shared", "digest-s")
        ours.add(shared)
        ours.add(self._result("mine", "digest-m"))
        theirs.add(shared)
        theirs.add(self._result("yours", "digest-y"))
        theirs.close()
        absorbed = ours.merge(tmp_path / "theirs.sqlite")
        assert absorbed == 1
        assert len(ours.ok()) == 3
        assert "digest-y" in {r.digest for r in ours.ok()}
        # Idempotent: merging the same shard again absorbs nothing.
        assert ours.merge(tmp_path / "theirs.sqlite") == 0
        ours.close()

    def test_merge_conflict_refuses_and_leaves_store_untouched(
        self, tmp_path
    ):
        from repro.service import ResultMergeError

        ours = ResultStore(path=tmp_path / "ours.sqlite")
        theirs = ResultStore(path=tmp_path / "theirs.sqlite")
        ours.add(self._result("clash", "digest-ours"))
        theirs.add(self._result("clash", "digest-theirs"))
        theirs.add(self._result("fresh", "digest-fresh"))
        theirs.close()
        with pytest.raises(ResultMergeError, match="refusing to merge"):
            ours.merge(tmp_path / "theirs.sqlite")
        try:
            ours.merge(tmp_path / "theirs.sqlite")
        except ResultMergeError as exc:
            (conflict,) = exc.conflicts
            key, mine, other = conflict
            assert (mine, other) == ("digest-ours", "digest-theirs")
        # Nothing — not even the conflict-free row — was absorbed.
        assert len(ours.ok()) == 1
        assert "digest-fresh" not in {r.digest for r in ours.ok()}
        ours.close()

    def test_schema_mismatch_refuses_loudly(self, tmp_path):
        from repro.service import ResultStoreError

        path = tmp_path / "results.sqlite"
        store = ResultStore(path=path)
        store._connection().execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema'"
        )
        store._connection().commit()
        store.close()
        with pytest.raises(ResultStoreError, match="schema v99"):
            ResultStore(path=path)
