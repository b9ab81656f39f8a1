"""Perf ledger, regression sentinel, and sampling profiler.

Covers the historical observability tier end to end: artifact
ingestion shapes, run stamping, the noise-aware baseline comparison,
the ``repro perf`` CLI round trip (including the acceptance case — a
synthetic 2x slowdown trips ``perf check`` while an unchanged rerun
passes), and the stack sampler's span attribution on both sides of the
``fan_out`` process boundary.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

import pytest

from repro.cli import main
from repro.obs import (
    PROFILER,
    TRACER,
    GateConfig,
    LedgerError,
    MetricComparison,
    PerfLedger,
    RunStamp,
    direction_for,
    enable_tracing,
    ingest_file,
    samples_from_bench_artifact,
    samples_from_metrics_snapshot,
    samples_from_pytest_benchmark,
    trace,
)
from repro.obs.profile import (
    SamplingProfiler,
    _env_profile_interval,
    format_self_time_table,
    to_collapsed,
)
from repro.service.engine import BatchEngine, fan_out
from repro.service.jobs import CompileJob


@pytest.fixture(autouse=True)
def _clean_obs():
    """Leave tracer and profiler off and empty around every test."""
    TRACER.disable()
    TRACER.clear()
    PROFILER.stop()
    PROFILER.clear()
    yield
    TRACER.disable()
    TRACER.clear()
    PROFILER.stop()
    PROFILER.clear()


def _stamp(**overrides) -> RunStamp:
    base = dict(
        recorded_at=1700000000.0,
        git_sha="f" * 40,
        branch="main",
        host="testhost",
        python_version="3.11.0",
        numpy_version="1.26.0",
        source="test",
        note="",
    )
    base.update(overrides)
    return RunStamp(**base)


# -- direction inference -----------------------------------------------------


class TestDirections:
    def test_suffix_rules(self):
        assert direction_for("kernels.weyl.batched_s") == "lower"
        assert direction_for("obs.chrome_trace_bytes") == "lower"
        assert direction_for("obs.traced_over_untraced_ratio") == "lower"
        assert direction_for("kernels.weyl.speedup") == "higher"
        assert direction_for("synthesis.throughput_per_s") == "higher"
        assert direction_for("obs.span_count") is None


# -- ingestion ---------------------------------------------------------------


class TestIngestion:
    def test_pytest_benchmark_shape(self):
        payload = {
            "machine_info": {"node": "x"},
            "benchmarks": [
                {
                    "name": "test_kernel_microbench",
                    "stats": {"mean": 0.5, "min": 0.4, "rounds": 1},
                },
                {"name": "broken", "stats": None},
            ],
        }
        samples = samples_from_pytest_benchmark(payload)
        assert samples == {
            "pytest.test_kernel_microbench.mean_s": 0.5,
            "pytest.test_kernel_microbench.min_s": 0.4,
        }

    def test_stamped_artifact_prefers_explicit_metrics(self):
        payload = {
            "kind": "kernels",
            "schema": 1,
            "metrics": {"weyl.batched_s": 0.01, "weyl.speedup": 19.0},
            "benchmarks": [{"kernel": "ignored", "scalar_s": 99.0}],
        }
        samples = samples_from_bench_artifact(payload, "kernels")
        assert samples == {
            "kernels.weyl.batched_s": 0.01,
            "kernels.weyl.speedup": 19.0,
        }

    def test_legacy_artifact_flattens_entries(self):
        payload = {
            "benchmarks": [
                {"kernel": "weyl", "n": 256, "scalar_s": 0.2,
                 "batched_s": 0.01, "speedup": 20.0},
            ],
            "elapsed_s": 1.5,
        }
        samples = samples_from_bench_artifact(payload, "kernels")
        assert samples["kernels.weyl.n256.batched_s"] == 0.01
        assert samples["kernels.weyl.n256.speedup"] == 20.0
        assert samples["kernels.elapsed_s"] == 1.5
        assert "kernels.weyl.n256.n" not in samples

    def test_metrics_snapshot_shape(self):
        payload = {
            "schema": 1,
            "counters": {"repro.service.jobs": 4},
            "gauges": {"repro.pool.depth": 2.0},
            "histograms": {
                "repro.service.job_seconds": {
                    "bounds": [1.0], "counts": [3, 1],
                    "total": 2.0, "count": 4,
                },
            },
        }
        samples = samples_from_metrics_snapshot(payload)
        assert samples["repro.service.jobs.count"] == 4.0
        assert samples["repro.service.job_seconds.hist_mean"] == 0.5

    def test_ingest_file_dispatch_and_pointed_errors(self, tmp_path):
        good = tmp_path / "kernels_bench.json"
        good.write_text(json.dumps(
            {"kind": "kernels", "schema": 1, "metrics": {"a_s": 1.0}}
        ))
        assert ingest_file(good) == {"kernels.a_s": 1.0}

        with pytest.raises(LedgerError, match="no artifact at"):
            ingest_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LedgerError, match="cannot parse"):
            ingest_file(bad)
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(LedgerError, match="not a JSON object"):
            ingest_file(array)
        stale = tmp_path / "metrics.json"
        stale.write_text(json.dumps({"schema": 99, "counters": {}}))
        with pytest.raises(LedgerError, match="schema v99"):
            ingest_file(stale)


# -- the store ---------------------------------------------------------------


class TestPerfLedger:
    def test_record_round_trips_samples_and_stamp(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        run_id = ledger.record(
            {"k.a_s": 1.0, "k.b.speedup": 4.0}, stamp=_stamp()
        )
        (run,) = ledger.runs()
        assert run["id"] == run_id
        assert run["git_sha"] == "f" * 40
        assert run["branch"] == "main"
        assert run["host"] == "testhost"
        assert run["python_version"] == "3.11.0"
        assert run["numpy_version"] == "1.26.0"
        assert run["source"] == "test"
        assert run["samples"] == 2
        assert ledger.samples_for_run(run_id) == {
            "k.a_s": 1.0, "k.b.speedup": 4.0,
        }
        assert ledger.metrics(contains="speedup") == ["k.b.speedup"]

    def test_refuses_empty_run(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        with pytest.raises(LedgerError, match="no samples"):
            ledger.record({})

    def test_unknown_schema_is_loud(self, tmp_path):
        path = tmp_path / "perf.sqlite"
        PerfLedger(path=path).record({"a_s": 1.0}, stamp=_stamp())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(LedgerError, match="schema v99"):
            PerfLedger(path=path).runs()

    def test_stamp_collect_fills_every_field(self):
        stamp = RunStamp.collect(source="test")
        assert stamp.git_sha and stamp.branch and stamp.host
        assert stamp.python_version.count(".") == 2
        assert stamp.numpy_version
        assert stamp.recorded_at > 0

    def test_compare_latest_flags_2x_slowdown(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        for value in (0.010, 0.011, 0.009):
            ledger.record({"k.run_s": value}, stamp=_stamp())
        ledger.record({"k.run_s": 0.020}, stamp=_stamp())
        (comparison,) = ledger.compare_latest()
        assert comparison.regressed
        assert comparison.status == "REGRESSED"
        assert comparison.baseline == 0.010
        assert comparison.ratio == 2.0

    def test_compare_latest_passes_unchanged(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        for value in (0.010, 0.011, 0.009, 0.010):
            ledger.record({"k.run_s": value}, stamp=_stamp())
        (comparison,) = ledger.compare_latest()
        assert not comparison.regressed
        assert comparison.status == "ok"

    def test_compare_latest_empty_ledger_is_loud(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        with pytest.raises(LedgerError, match="no runs"):
            ledger.compare_latest()

    def test_new_metric_never_fails(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        ledger.record({"fresh_s": 1.0}, stamp=_stamp())
        (comparison,) = ledger.compare_latest()
        assert comparison.baseline is None
        assert comparison.status == "new"
        assert not comparison.regressed

    def test_v1_ledger_migrates_in_place(self, tmp_path):
        # CI caches ledgers across builds; a v1 file must keep working.
        path = tmp_path / "perf.sqlite"
        PerfLedger(path=path).record({"a_s": 1.0}, stamp=_stamp())
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs DROP COLUMN array_backend")
        conn.execute(
            "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        ledger = PerfLedger(path=path)
        (run,) = ledger.runs()
        assert run["array_backend"] == "numpy"  # migration default
        ledger.record(
            {"a_s": 2.0}, stamp=_stamp(array_backend="torch")
        )
        backends = [r["array_backend"] for r in ledger.runs()]
        assert sorted(backends) == ["numpy", "torch"]

    def test_stamp_records_active_array_backend(self):
        assert RunStamp.collect(source="test").array_backend == "numpy"
        assert "array_backend" in RunStamp.collect(source="test").as_dict()

    def test_compare_latest_never_crosses_backends(self, tmp_path):
        ledger = PerfLedger(path=tmp_path / "perf.sqlite")
        # Fast numpy history, then a slower torch run: the torch run
        # has no same-backend baseline, so it must read as new, not as
        # a regression against numpy.
        for value in (0.010, 0.011, 0.009):
            ledger.record({"k.run_s": value}, stamp=_stamp())
        ledger.record(
            {"k.run_s": 0.050}, stamp=_stamp(array_backend="torch")
        )
        (comparison,) = ledger.compare_latest()
        assert comparison.baseline is None
        assert comparison.status == "new"
        # A second torch run gates against the first torch run only.
        ledger.record(
            {"k.run_s": 0.051}, stamp=_stamp(array_backend="torch")
        )
        (comparison,) = ledger.compare_latest()
        assert comparison.baseline == 0.050
        assert not comparison.regressed

    def test_stale_bench_artifact_schema_is_refused(self, tmp_path):
        stale = tmp_path / "kernels_bench.json"
        stale.write_text(json.dumps(
            {"kind": "kernels", "schema": 99, "metrics": {"a_s": 1.0}}
        ))
        with pytest.raises(LedgerError, match="schema v99"):
            ingest_file(stale)


class TestComparisonMath:
    def test_noise_floor_absorbs_jitter(self):
        # Noisy history: MAD is large, so a value inside the noise band
        # does not regress even though it exceeds baseline * (1 + tol).
        noisy = [1.0, 1.4, 0.6, 1.3, 0.7]  # median 1.0, MAD 0.3
        item = MetricComparison.build(
            "x_s", current=1.3, history=noisy,
            direction="lower", tolerance=0.2,
        )
        assert not item.regressed
        # A genuinely large excursion still trips.
        item = MetricComparison.build(
            "x_s", current=2.5, history=noisy,
            direction="lower", tolerance=0.2,
        )
        assert item.regressed

    def test_higher_better_mirrors(self):
        history = [10.0, 10.0, 10.0]
        item = MetricComparison.build(
            "x.speedup", current=5.0, history=history,
            direction="higher", tolerance=0.2,
        )
        assert item.regressed
        item = MetricComparison.build(
            "x.speedup", current=15.0, history=history,
            direction="higher", tolerance=0.2,
        )
        assert not item.regressed and item.improved

    def test_informational_metric_never_regresses(self):
        item = MetricComparison.build(
            "x.span_count", current=500.0, history=[10.0, 10.0],
            direction=None, tolerance=0.2,
        )
        assert not item.regressed
        assert item.status == "info"


class TestGateConfig:
    def test_longest_prefix_wins(self):
        config = GateConfig(
            default_tolerance=0.2,
            overrides={"kernels.": 0.5, "kernels.weyl.": 0.1},
        )
        assert config.tolerance_for("kernels.weyl.batched_s") == 0.1
        assert config.tolerance_for("kernels.cache.cold_s") == 0.5
        assert config.tolerance_for("synthesis.warm_s") == 0.2

    def test_from_file_round_trip_and_pointed_errors(self, tmp_path):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps(
            {"default_tolerance": 0.3, "overrides": {"a.": 0.1}}
        ))
        config = GateConfig.from_file(path)
        assert config.default_tolerance == 0.3
        assert config.overrides == {"a.": 0.1}
        with pytest.raises(LedgerError, match="no gate config"):
            GateConfig.from_file(tmp_path / "missing.json")
        path.write_text(json.dumps({"tollerance": 0.3}))
        with pytest.raises(LedgerError, match="unknown keys"):
            GateConfig.from_file(path)


# -- the CLI sentinel (acceptance flow) --------------------------------------


def _write_artifact(path, run_s: float) -> None:
    path.write_text(json.dumps({
        "kind": "kernels",
        "schema": 1,
        "metrics": {"weyl.run_s": run_s, "weyl.speedup": 19.0},
    }))


class TestPerfCli:
    def test_record_then_check_round_trip(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.sqlite")
        artifact = tmp_path / "kernels_bench.json"
        for value in (0.010, 0.011, 0.009, 0.010):
            _write_artifact(artifact, value)
            assert main(
                ["perf", "record", str(artifact), "--ledger", ledger]
            ) == 0
        assert main(["perf", "check", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "perf check: ok" in out
        assert main(["perf", "list", "--ledger", ledger]) == 0
        assert main(["perf", "compare", "--ledger", ledger]) == 0
        assert main(
            ["perf", "report", "--ledger", ledger, "--metric", "run_s"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernels.weyl.run_s" in out

    def test_synthetic_2x_slowdown_fails_then_rerun_passes(
        self, tmp_path, capsys
    ):
        ledger = str(tmp_path / "perf.sqlite")
        artifact = tmp_path / "kernels_bench.json"
        for value in (0.010, 0.011, 0.009):
            _write_artifact(artifact, value)
            assert main(
                ["perf", "record", str(artifact), "--ledger", ledger]
            ) == 0
        # Inject a synthetic 2x slowdown: the sentinel must trip.
        _write_artifact(artifact, 0.020)
        assert main(
            ["perf", "record", str(artifact), "--ledger", ledger]
        ) == 0
        assert main(["perf", "check", "--ledger", ledger]) == 1
        err = capsys.readouterr().err
        assert "regressed" in err
        # --warn-only reports but does not fail (PR builds).
        assert main(
            ["perf", "check", "--ledger", ledger, "--warn-only"]
        ) == 0
        # An unchanged rerun recorded on top passes again.
        _write_artifact(artifact, 0.010)
        assert main(
            ["perf", "record", str(artifact), "--ledger", ledger]
        ) == 0
        assert main(["perf", "check", "--ledger", ledger]) == 0

    def test_check_empty_ledger_is_pointed(self, tmp_path, capsys):
        code = main(
            ["perf", "check", "--ledger", str(tmp_path / "none.sqlite")]
        )
        assert code == 2
        assert "no runs" in capsys.readouterr().err

    def test_record_without_artifacts_is_pointed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            "REPRO_RESULTS_DIR", str(tmp_path / "results")
        )
        monkeypatch.chdir(tmp_path)
        code = main(
            ["perf", "record", "--ledger", str(tmp_path / "perf.sqlite")]
        )
        assert code == 2
        assert "no artifacts found" in capsys.readouterr().err

    def test_record_default_globs_results_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        results = tmp_path / "results"
        results.mkdir()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        monkeypatch.chdir(tmp_path)
        _write_artifact(results / "kernels_bench.json", 0.01)
        ledger = str(tmp_path / "perf.sqlite")
        assert main(["perf", "record", "--ledger", ledger]) == 0
        assert "recorded run 1" in capsys.readouterr().out


# -- the sampling profiler ---------------------------------------------------


def _burn(seconds: float) -> int:
    """CPU-bound busy loop the sampler is guaranteed to catch."""
    deadline = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < deadline:
        count += 1
    return count


class TestProfiler:
    def test_samples_attribute_to_active_span(self):
        enable_tracing()
        profiler = PROFILER
        profiler.interval = 0.001
        profiler.start()
        with trace.span("profiled.burn"):
            _burn(0.15)
        profiler.stop()
        burn_keys = [
            key for key in profiler.samples
            if key.startswith("profiled.burn;")
        ]
        assert burn_keys, profiler.samples
        # Root-first stacks: the burn helper is the leaf frame.
        assert any("_burn" in key.split(";")[-1] for key in burn_keys)

    def test_fresh_sampler_samples_first_closing_span(self):
        """A span shorter than the first tick still gets one sample."""
        enable_tracing()
        PROFILER.interval = 60.0  # the thread never ticks in this test
        PROFILER.start()
        with trace.span("short.job"):
            pass
        with trace.span("second.job"):
            pass
        PROFILER.stop()
        assert [key.split(";", 1)[0] for key in PROFILER.samples] == [
            "short.job"
        ]
        assert sum(PROFILER.samples.values()) == 1

    def test_stopped_sampler_leaves_spans_unsampled(self):
        enable_tracing()
        PROFILER.interval = 60.0
        PROFILER.start()
        PROFILER.stop()
        with trace.span("after.stop"):
            pass
        assert TRACER.close_hook is None
        assert PROFILER.samples == {}

    def test_samples_outside_spans_use_placeholder(self):
        profiler = PROFILER
        profiler.interval = 0.001
        profiler.start()
        _burn(0.1)
        profiler.stop()
        assert any(
            key.startswith("(no span);") for key in profiler.samples
        )

    def test_snapshot_delta_absorb_mirror_metrics(self):
        before = {"a;x": 2, "b;y": 1}
        after = {"a;x": 5, "c;z": 3}
        delta = SamplingProfiler.delta(before, after)
        assert delta == {"a;x": 3, "c;z": 3}
        sink = SamplingProfiler()
        sink.samples = {"a;x": 1}
        assert sink.absorb(delta) == 6
        assert sink.samples == {"a;x": 4, "c;z": 3}

    def test_collapsed_and_self_time_formats(self):
        samples = {"span.a;m:f;m:g": 10, "span.b;m:h": 30}
        text = to_collapsed(samples)
        assert "span.a;m:f;m:g 10" in text
        assert "span.b;m:h 30" in text
        table = format_self_time_table(samples, interval=0.001)
        assert "span.b" in table and "75.0" in table
        assert format_self_time_table({}, interval=0.001).startswith(
            "no profile samples"
        )

    def test_env_switch_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert _env_profile_interval() is None
        monkeypatch.setenv("REPRO_PROFILE", "off")
        assert _env_profile_interval() is None
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert _env_profile_interval() == 0.001
        monkeypatch.setenv("REPRO_PROFILE", "true")
        assert _env_profile_interval() == 0.005
        monkeypatch.setenv("REPRO_PROFILE", "2.5")
        assert _env_profile_interval() == 0.0025

    def test_compiler_config_profile_field_round_trips(self):
        from repro.transpiler.compiler import CompilerConfig

        config = CompilerConfig(profile=True)
        assert config.to_dict()["profile"] is True
        assert CompilerConfig.from_dict(config.to_dict()) == config


def _profiled_worker(payload: tuple) -> tuple[int, dict]:
    """Pool worker: restart the sampler post-fork, burn, ship delta."""
    context, interval, seconds = payload
    TRACER.activate(context)
    PROFILER.interval = interval
    PROFILER.enabled = True
    PROFILER.ensure_running()
    before = PROFILER.snapshot()
    with trace.span("worker.burn"):
        _burn(seconds)
    return os.getpid(), SamplingProfiler.delta(before, PROFILER.snapshot())


class TestCrossProcessProfile:
    def test_fan_out_worker_samples_attribute_to_worker_spans(self):
        enable_tracing()
        with trace.span("submit"):
            context = TRACER.current_context()
            results = list(fan_out(
                _profiled_worker,
                [(context, 0.001, 0.2)] * 2,
                workers=2,
            ))
        pids = {pid for pid, _ in results}
        assert os.getpid() not in pids
        total = 0
        for _, delta in results:
            # A stray sample can land between the snapshot and the span
            # opening, so filter rather than demand every key matches.
            burn = {
                key: count for key, count in delta.items()
                if key.startswith("worker.burn;")
            }
            assert burn, delta
            total += PROFILER.absorb(delta)
        assert total > 0
        assert any(
            key.startswith("worker.burn;") for key in PROFILER.samples
        )

    def test_batch_engine_ships_worker_profile_freight(self):
        enable_tracing()
        PROFILER.interval = 0.001
        PROFILER.start()
        jobs = [
            CompileJob(
                workload=workload, num_qubits=4, target="square_2x2",
                trials=1, pipeline="fast",
            )
            for workload in ("ghz", "qft")
        ]
        engine = BatchEngine(
            workers=2, use_cache=False, warm_coverage=False, retries=0
        )
        results = engine.run(jobs)
        PROFILER.stop()
        assert all(result.ok for result in results)
        # Worker-side samples were absorbed: the parent never opens
        # job.run/compile/pass spans itself under workers=2, so any
        # sample attributed to them crossed the freight channel.
        worker_side = [
            key for key in PROFILER.samples
            if key.split(";", 1)[0] == "job.run"
            or key.split(";", 1)[0] == "compile"
            or key.split(";", 1)[0].startswith("pass.")
            or key.split(";", 1)[0].startswith("synth.")
        ]
        assert worker_side, sorted(PROFILER.samples)
