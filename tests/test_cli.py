"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact in ("table1", "table7", "fig3a", "fig12"):
            assert artifact in out


class TestRun:
    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_and_saves(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["run", "fig3a"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out
        assert (tmp_path / "fig3a.txt").exists()
        assert (tmp_path / "fig3a.json").exists()


class TestTargets:
    def test_lists_presets(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        for name in ("snail_4x4", "heavy_hex_16", "line_16_fast"):
            assert name in out

    def test_show_dumps_json(self, capsys):
        import json

        assert main(["targets", "show", "heavy_hex_16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "heavy_hex_16"
        assert len(payload["t1_us"]) == 16

    def test_show_requires_name(self, capsys):
        assert main(["targets", "show"]) == 2
        assert "missing target name" in capsys.readouterr().err

    def test_show_unknown_target(self, capsys):
        assert main(["targets", "show", "nope"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_show_invalid_dynamic_target(self, capsys):
        # Parses as a dynamic name but fails validation: friendly
        # message + exit 2, not a traceback.
        assert main(["targets", "show", "line_1"]) == 2
        assert "targets:" in capsys.readouterr().err


class TestSynth:
    def test_list_backends(self, capsys):
        assert main(["synth", "--list-backends"]) == 0
        out = capsys.readouterr().out
        assert "piecewise" in out and "fourier" in out

    def test_synthesize_named_target(self, capsys):
        code = main(
            ["synth", "CNOT", "--basis", "iSWAP", "--starts", "8",
             "--refine", "1", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged=True" in out
        assert "starts: 8" in out

    def test_coordinate_target_and_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "synth.json"
        code = main(
            ["synth", "1.5707963", "0", "0", "--starts", "6",
             "--refine", "1", "--seed", "7", "--json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["converged"] is True
        assert len(payload["start_losses"]) == 6

    def test_unknown_backend_fails(self, capsys):
        assert main(["synth", "CNOT", "--backend", "nope"]) == 2
        assert "backend" in capsys.readouterr().err

    def test_unknown_basis_fails(self, capsys):
        assert main(["synth", "CNOT", "--basis", "nope"]) == 2
        assert "basis" in capsys.readouterr().err

    def test_missing_target_fails(self, capsys):
        assert main(["synth"]) == 2
        assert "target" in capsys.readouterr().err

    def test_coverage_flow(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_COVERAGE_CACHE", raising=False)
        code = main(
            ["synth", "--basis", "sqrt_iSWAP", "--coverage", "1",
             "--samples", "150", "--no-parallel", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "K=1: Haar fraction" in out
        assert "coverage store" in out
        assert "1 cloud row(s)" in out
        assert (tmp_path / "coverage.sqlite").exists()

    def test_coverage_flow_respects_kill_switch(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_COVERAGE_CACHE", "off")
        code = main(
            ["synth", "--basis", "sqrt_iSWAP", "--coverage", "1",
             "--samples", "150", "--no-parallel", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "disabled (REPRO_COVERAGE_CACHE)" in out
        # The kill-switch promises no writes: not even an empty db.
        assert not (tmp_path / "coverage.sqlite").exists()


class TestBatchTarget:
    def test_batch_on_named_target(self, tmp_path, capsys):
        # The acceptance flow: the smoke suite retargeted end-to-end
        # (1 trial keeps it seconds-scale in-process).
        out_json = tmp_path / "out.json"
        assert main([
            "batch", "--suite", "smoke", "--target", "heavy_hex_16",
            "--trials", "1", "--workers", "1",
            "--cache-path", str(tmp_path / "cache.sqlite"),
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "heavy_hex_16" in out
        import json

        payload = json.loads(out_json.read_text())
        assert all(
            result["job"]["config"]["target"] == "heavy_hex_16"
            for result in payload["results"]
        )
        assert all(
            0.0 < result["estimated_fidelity"] <= 1.0
            for result in payload["results"]
        )

    def test_batch_target_too_small(self, capsys):
        assert main([
            "batch", "--suite", "table4", "--target", "square_2x2",
        ]) == 2
        assert "too small" in capsys.readouterr().err

    def test_batch_pipeline_and_profile(self, tmp_path, capsys):
        # The acceptance flow for the pass API: a named pipeline plus
        # the per-pass timing table backed by PassProfile records.
        out_json = tmp_path / "out.json"
        assert main([
            "batch", "--workloads", "ghz", "--rules", "parallel",
            "--qubits", "4", "--trials", "2", "--workers", "1",
            "--pipeline", "paper", "--profile", "--no-cache",
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-pass profile" in out
        for pass_name in ("Route", "TranslateToBasis", "Schedule[asap]"):
            assert pass_name in out
        import json

        payload = json.loads(out_json.read_text())
        (result,) = payload["results"]
        assert result["job"]["config"]["pipeline"] == "paper"
        assert result["pass_profile"]["records"]

    def test_batch_fast_pipeline_keeps_single_trial_default(
        self, tmp_path, capsys
    ):
        # Without --trials, the named pipeline's trial default wins:
        # "fast" compiles exactly one trivial-layout trial per job.
        out_json = tmp_path / "out.json"
        assert main([
            "batch", "--workloads", "ghz", "--rules", "parallel",
            "--qubits", "4", "--workers", "1", "--pipeline", "fast",
            "--profile", "--no-cache", "--json", str(out_json),
        ]) == 0
        import json

        (result,) = json.loads(out_json.read_text())["results"]
        assert result["job"]["config"]["trials"] is None  # pipeline default
        records = result["pass_profile"]["records"]
        assert {r["trial"] for r in records} == {0}
        assert "Collect2QBlocks" not in {r["pass"] for r in records}

    def test_batch_unknown_pipeline(self, capsys):
        assert main([
            "batch", "--suite", "smoke", "--pipeline", "warp_speed",
        ]) == 2
        assert "unknown pipeline" in capsys.readouterr().err

    def test_coupling_flag_removed(self, capsys):
        """The deprecated --coupling shim is gone; argparse rejects it."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "batch", "--workloads", "ghz", "--rules", "parallel",
                "--qubits", "4", "--coupling", "2", "2", "--trials", "1",
                "--workers", "1", "--no-cache",
            ])
        assert excinfo.value.code == 2
        assert "--coupling" in capsys.readouterr().err


class TestObsConsumers:
    """Pointed failures for the trace/metrics artifact consumers."""

    def test_metrics_missing_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["metrics"]) == 2
        err = capsys.readouterr().err
        assert "no snapshot" in err and "repro trace" in err

    def test_metrics_unknown_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"schema": 99, "counters": {}}))
        assert main(["metrics", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert "schema v99" in err and "Traceback" not in err

    def test_metrics_unrecognizable_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text("{not json")
        assert main(["metrics", "--path", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_metrics_spans_missing_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["metrics", "--spans"]) == 2
        assert "no trace" in capsys.readouterr().err

    def test_metrics_spans_unknown_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [], "schema": 99}))
        assert main(
            ["metrics", "--spans", "--trace-path", str(path)]
        ) == 2
        assert "schema v99" in capsys.readouterr().err

    def test_metrics_spans_summarizes_trace(self, tmp_path, capsys):
        from repro.obs import Span, write_chrome_trace

        span = Span(
            name="compile", trace_id="t", span_id="1", parent_id=None,
            start=0.0, duration=0.5, pid=123,
        )
        path = write_chrome_trace([span], tmp_path / "trace.json")
        assert main(
            ["metrics", "--spans", "--trace-path", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "total ms" in out

    def test_trace_profile_exports_collapsed_stacks(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs import PROFILER, TRACER

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        try:
            assert main(["trace", "--profile", "targets"]) == 0
        finally:
            PROFILER.stop()
            PROFILER.clear()
            TRACER.disable()
            TRACER.clear()
        out = capsys.readouterr().out
        assert "collapsed stacks written to" in out
        assert (tmp_path / "profile_collapsed.txt").exists()
        assert (tmp_path / "trace.json").exists()


@pytest.mark.slow
class TestTranspile:
    def test_transpile_command(self, capsys):
        assert main(["transpile", "ghz", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "faster" in out
