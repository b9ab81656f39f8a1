"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro run table1 table6
    python -m repro run all
    python -m repro transpile qft --trials 5
    python -m repro targets
    python -m repro targets show heavy_hex_16
    python -m repro batch --suite table4 --workers 4
    python -m repro batch --suite smoke --target heavy_hex_16
    python -m repro batch --workloads ghz qft --rules both --json out.json
    python -m repro batch --suite smoke --pipeline paper --profile
    python -m repro serve --port 8234 --workers 4 --queue jobs.sqlite
    python -m repro serve --ping http://127.0.0.1:8234
    python -m repro batch --suite smoke --submit http://127.0.0.1:8234
    python -m repro serve --stop http://127.0.0.1:8234
    python -m repro serve --shards 4 --results-db results.sqlite
    python -m repro route --shard http://h1:8234 --shard http://h2:8234
    python -m repro store stats results.shard0.sqlite
    python -m repro store merge --into results.sqlite results.shard*.sqlite
    python -m repro synth --list-backends
    python -m repro synth CNOT --basis iSWAP --starts 16 --refine 2
    python -m repro synth SWAP --backend fourier --repetitions 2
    python -m repro synth --basis sqrt_iSWAP --coverage 2
    python -m repro trace batch --suite smoke --workers 4
    python -m repro trace --profile batch --suite smoke --workers 2
    python -m repro metrics
    python -m repro metrics --spans
    python -m repro perf record
    python -m repro perf check --warn-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .experiments import EXPERIMENTS, results_dir, run_experiment

__all__ = ["main"]


def _cmd_list(_: argparse.Namespace) -> int:
    print("available experiments (paper artifact ids):")
    for experiment_id in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[experiment_id].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {experiment_id:8s} {summary}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    for experiment_id in ids:
        start = time.time()
        result = run_experiment(experiment_id)
        path = result.save(results_dir())
        print(result)
        print(f"[{time.time() - start:.1f}s] saved to {path}\n")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    from .circuits.workloads import get_workload
    from .core.decomposition_rules import (
        BaselineSqrtISwapRules,
        ParallelSqrtISwapRules,
    )
    from .transpiler.coupling import square_lattice
    from .transpiler.fidelity import PAPER_FIDELITY_MODEL
    from .transpiler.pipeline import transpile

    circuit = get_workload(args.workload, args.qubits)
    coupling = square_lattice(4, 4)
    base = transpile(
        circuit, coupling, BaselineSqrtISwapRules(), args.trials, args.seed
    )
    opt = transpile(
        circuit, coupling, ParallelSqrtISwapRules(), args.trials, args.seed
    )
    model = PAPER_FIDELITY_MODEL
    gain = 100 * (base.duration - opt.duration) / base.duration
    print(f"{args.workload}: baseline {base.duration:.2f} pulses, "
          f"parallel-drive {opt.duration:.2f} pulses ({gain:.1f}% faster)")
    print(f"  FT {model.total_fidelity(base.duration, args.qubits):.4f} -> "
          f"{model.total_fidelity(opt.duration, args.qubits):.4f}")
    return 0


def _cmd_targets(args: argparse.Namespace) -> int:
    from .targets import get_target, list_targets

    if args.action == "show":
        if not args.name:
            print("targets show: missing target name", file=sys.stderr)
            return 2
        try:
            target = get_target(args.name)
        except (KeyError, ValueError) as exc:
            # KeyError: unknown name; ValueError: a dynamic name that
            # parses but fails validation (line_1, square_0x2, ...).
            print(f"targets: {exc.args[0] if exc.args else exc}",
                  file=sys.stderr)
            return 2
        print(json.dumps(target.to_dict(), indent=2, sort_keys=True))
        return 0
    print("available hardware targets (presets; square_RxC / line_N / "
          "all_to_all_N and _fast/_slow suffixes resolve dynamically):")
    for name in list_targets():
        print(f"  {name:22s} {get_target(name).summary()}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import (
        BatchEngine,
        CompileJob,
        CompileResult,
        DecompositionCache,
        ResultStore,
        ServiceError,
        ServiceClient,
        SUITES,
        suite_jobs,
    )

    target = args.target
    try:
        if args.suite is not None:
            jobs = suite_jobs(
                args.suite,
                trials=args.trials,
                seed=args.seed,
                target=target,
                pipeline=args.pipeline,
            )
        elif args.workloads:
            rules = (
                ("baseline", "parallel")
                if args.rules == "both"
                else (args.rules,)
            )
            if target is None:
                # Smallest near-square lattice holding the register, so
                # --qubits works at any width (16 keeps the paper's 4x4).
                rows = max(1, int(args.qubits**0.5))
                target = f"square_{rows}x{-(-args.qubits // rows)}"
            jobs = [
                CompileJob(
                    workload=workload,
                    num_qubits=args.qubits,
                    rules=rule,
                    # None lets the named pipeline's trial default win
                    # (e.g. --pipeline fast compiles a single trial).
                    trials=args.trials,
                    seed=args.seed if args.seed is not None else 7,
                    target=target,
                    pipeline=args.pipeline,
                )
                for workload in args.workloads
                for rule in rules
            ]
        else:
            jobs = None
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"batch: {message}", file=sys.stderr)
        return 2
    if jobs is None:
        print(
            f"specify --suite (one of {sorted(SUITES)}) or --workloads",
            file=sys.stderr,
        )
        return 2

    def progress(done: int, total: int, result) -> None:
        import math

        if not result.ok:
            status = "FAILED"
        elif math.isnan(result.estimated_fidelity):
            status = f"{result.duration:.2f} pulses"
        else:
            status = (
                f"{result.duration:.2f} pulses, "
                f"FT {result.estimated_fidelity:.4f}"
            )
        print(
            f"[{done}/{total}] {result.job.label}"
            f"@{result.job.target}: {status} "
            f"({result.wall_time:.1f}s, attempt {result.attempts})"
        )

    start = time.time()
    if args.submit is not None:
        # Route through a running compile service instead of compiling
        # in-process — same jobs, same result shape, digest parity
        # guaranteed by the server's use of the same execute_job body.
        client = ServiceClient(args.submit)
        settled: dict[int, CompileResult] = {}
        done = 0
        try:
            for event in client.submit_stream(jobs):
                kind = event.get("event")
                if kind == "requeued":
                    print(
                        f"  requeued {event['key'][:12]} "
                        f"(attempt {event['attempt']}, "
                        f"{event['reason']})"
                    )
                elif kind == "result":
                    result = CompileResult.from_dict(event["result"])
                    settled[event["index"]] = result
                    done += 1
                    progress(done, len(jobs), result)
        except ServiceError as exc:
            print(f"batch: {exc}", file=sys.stderr)
            return 2
        missing = [i for i in range(len(jobs)) if i not in settled]
        if missing:
            print(
                f"batch: server settled only {len(settled)} of "
                f"{len(jobs)} job(s)",
                file=sys.stderr,
            )
            return 2
        results = [settled[index] for index in range(len(jobs))]
    else:
        engine = BatchEngine(
            workers=args.workers,
            use_cache=args.cache,
            cache_path=args.cache_path,
            retries=args.retries,
            progress=progress,
            profile=args.profile,
        )
        results = engine.run(jobs)
    store = ResultStore(results)
    elapsed = time.time() - start
    print(f"\n{store.format_table()}")
    if args.profile:
        print("\nper-pass profile (all jobs, all trials):")
        print(store.format_pass_profile())
    if args.submit is not None:
        print(f"\n{len(store)} jobs in {elapsed:.1f}s "
              f"via compile service at {args.submit}")
    else:
        print(f"\n{len(store)} jobs in {elapsed:.1f}s "
              f"({args.workers or 'auto'} workers, "
              f"cache {'on' if args.cache else 'off'})")
        if args.cache:
            cache = DecompositionCache(path=args.cache_path)
            print(f"decomposition cache: {cache.disk_entries()} templates "
                  f"at {cache.path}")
    if args.json is not None:
        payload = store.to_dict()
        payload["elapsed_seconds"] = elapsed
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    return 1 if store.failures() else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        ServiceClient,
        ServiceError,
        serve,
        wait_until_ready,
    )

    if args.ping is not None:
        try:
            health = wait_until_ready(args.ping, timeout=args.timeout)
        except ServiceError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0
    if args.stop is not None:
        client = ServiceClient(args.stop, timeout=args.timeout)
        try:
            client.shutdown(drain=args.drain)
        except ServiceError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        print(
            f"compile service at {args.stop} asked to stop "
            f"({'drain' if args.drain else 'immediate'})"
        )
        return 0
    options = dict(
        host=args.host,
        port=args.port,
        workers=args.workers,
        use_cache=args.cache,
        cache_path=args.cache_path,
        retries=args.retries,
        queue_path=args.queue,
        results_path=args.results_db,
    )
    if args.shards > 1:
        from .service import serve_sharded

        return serve_sharded(
            shards=args.shards, merge_on_drain=args.merge_on_drain, **options
        )
    return serve(**options)


def _cmd_route(args: argparse.Namespace) -> int:
    """Run a standalone digest-range router over already-running shards."""
    from .service import ShardRouter

    ShardRouter(
        args.shard, host=args.host, port=args.port, timeout=args.timeout
    ).serve_forever("repro route")
    return 0


#: Store kind -> (primary table, human label) for ``repro store``.
_STORE_KINDS = {
    "results": ("results", "result store"),
    "decomp": ("templates", "decomposition cache"),
    "coverage": ("clouds", "coverage store"),
    "queue": ("queue", "job queue"),
    "ledger": ("runs", "perf ledger"),
}


def _store_rows(path, table: str) -> int:
    import sqlite3

    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=30.0)
    try:
        (count,) = conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
    finally:
        conn.close()
    return int(count)


def _coverage_usage_note(usage: dict[str, int]) -> str:
    """Row and byte counts of a coverage store's clouds."""
    return (
        f"{usage['clouds']} cloud row(s), "
        f"{usage['cloud_bytes'] / 1e6:.1f} MB"
    )


def _store_coverage_usage(path) -> str:
    import sqlite3

    from .service.coverage_store import coverage_disk_usage

    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=30.0)
    try:
        return _coverage_usage_note(coverage_disk_usage(conn))
    finally:
        conn.close()


def _cmd_store(args: argparse.Namespace) -> int:
    from .service import (
        QueueError,
        ResultMergeError,
        ResultStoreError,
        StoreError,
        detect_store_kind,
    )

    store_errors = (StoreError, ResultStoreError, QueueError)

    if args.store_command == "stats":
        try:
            for path in args.paths:
                kind = detect_store_kind(path)
                table, label = _STORE_KINDS[kind]
                line = (f"{path}: {label} ({kind}), "
                        f"{_store_rows(path, table)} row(s)")
                if kind == "coverage":
                    line += f"; {_store_coverage_usage(path)}"
                print(line)
        except store_errors as exc:
            print(f"store: {exc}", file=sys.stderr)
            return 1
        return 0

    # merge
    try:
        kinds = {detect_store_kind(path) for path in args.sources}
    except store_errors as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 1
    if len(kinds) > 1:
        print(
            f"store: sources mix store kinds {sorted(kinds)}; "
            "merge one family at a time",
            file=sys.stderr,
        )
        return 1
    (kind,) = kinds
    if kind == "ledger":
        print(
            "store: perf ledgers record append-only run history; "
            "merge them with 'repro perf' tooling, not 'store merge'",
            file=sys.stderr,
        )
        return 1
    store = _open_merge_target(kind, args.into)
    absorbed = 0
    try:
        for source in args.sources:
            absorbed += store.merge(source)
    except ResultMergeError as exc:
        print(f"store: merge refused: {exc}", file=sys.stderr)
        for key, ours, theirs in exc.conflicts:
            print(
                f"store:   conflict job {key[:16]}…: "
                f"ours {ours[:16]}… theirs {theirs[:16]}…",
                file=sys.stderr,
            )
        return 1
    except store_errors as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    table, label = _STORE_KINDS[kind]
    print(
        f"absorbed {absorbed} row(s) from {len(args.sources)} "
        f"{label}(s) into {args.into} "
        f"({_store_rows(args.into, table)} total)"
    )
    return 0


def _open_merge_target(kind: str, path):
    """The right store class for a merge destination, by kind."""
    if kind == "results":
        from .service import ResultStore

        return ResultStore(path=path)
    if kind == "decomp":
        from .service.cache import DecompositionCache

        return DecompositionCache(path=path)
    if kind == "coverage":
        from .service.coverage_store import CoverageStore

        return CoverageStore(path=path)
    from .service import PersistentJobQueue

    return PersistentJobQueue(path)


def _parse_synth_target(tokens: list[str]):
    """Resolve a CLI target: a named gate or three Weyl coordinates."""
    import numpy as np

    from .quantum.weyl import named_gate_coordinates

    if len(tokens) == 1:
        return named_gate_coordinates(tokens[0])
    if len(tokens) == 3:
        return np.array([float(token) for token in tokens])
    raise ValueError(
        "target must be one named gate (e.g. CNOT) or three Weyl "
        "coordinates (e.g. 1.5708 0 0)"
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.decomposition_rules import (
        BASIS_DRIVE_ANGLES,
        canonical_basis_name,
    )
    from .synthesis import (
        SynthesisEngine,
        backend_description,
        list_backends,
    )

    if args.list_backends:
        print("registered synthesis backends:")
        for name in list_backends():
            print(f"  {name:12s} {backend_description(name)}")
        return 0

    try:
        if args.gc is not None or args.gg is not None:
            theta_c = args.gc or 0.0
            theta_g = args.gg or 0.0
            basis_label = f"gc{theta_c:g}_gg{theta_g:g}"
        else:
            basis_name = canonical_basis_name(args.basis)
            theta_c, theta_g = BASIS_DRIVE_ANGLES[basis_name]
            basis_label = basis_name
        if theta_c + theta_g <= 0:
            raise ValueError("basis drive angles must not both be zero")
        pulse_duration = (
            args.pulse_duration
            if args.pulse_duration is not None
            else (theta_c + theta_g) / (np.pi / 2)
        )
        engine = SynthesisEngine(args.backend, workers=args.workers)
        template = engine.template(
            gc=theta_c / pulse_duration,
            gg=theta_g / pulse_duration,
            pulse_duration=pulse_duration,
            repetitions=args.repetitions,
            parallel=args.parallel,
        )
    except (KeyError, ValueError) as exc:
        print(f"synth: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    if args.coverage is not None:
        from .core.coverage import haar_coordinate_samples

        start = time.time()
        coverage = engine.coverage_set(
            gc=theta_c / pulse_duration,
            gg=theta_g / pulse_duration,
            pulse_duration=pulse_duration,
            kmax=args.coverage,
            basis_name=basis_label,
            parallel=args.parallel,
            samples_per_k=args.samples,
            seed=args.seed,
        )
        haar = haar_coordinate_samples(2000, seed=99)
        elapsed = time.time() - start
        print(
            f"coverage of {basis_label} ({args.backend}, "
            f"{'parallel' if args.parallel else 'standard'}) "
            f"in {elapsed:.1f}s:"
        )
        for k in range(1, coverage.kmax + 1):
            fraction = float(coverage.coverage_for(k).contains(haar).mean())
            print(f"  K={k}: Haar fraction {fraction:.3f}")
        from .core.coverage import cache_enabled

        if cache_enabled():
            from .service.coverage_store import default_coverage_store

            store = default_coverage_store()
            print(
                f"coverage store: {store.stats.as_dict()} "
                f"({store.path}: {_coverage_usage_note(store.disk_usage())})"
            )
        else:
            # Touching the default store here would create the sqlite
            # file the kill-switch promises not to write.
            print("coverage store: disabled (REPRO_COVERAGE_CACHE)")
        return 0

    if not args.target:
        print(
            "synth: give a target (named gate or 3 coordinates), "
            "--coverage K, or --list-backends",
            file=sys.stderr,
        )
        return 2
    try:
        target = _parse_synth_target(args.target)
    except (KeyError, ValueError) as exc:
        print(f"synth: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    start = time.time()
    outcome = engine.synthesize_multistart(
        template,
        target,
        starts=args.starts,
        refine=args.refine,
        seed=args.seed,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        strategy="race" if args.race else "rank",
        race_threshold=args.race_threshold,
    )
    elapsed = time.time() - start
    best = outcome.best
    print(
        f"{args.backend} template ({basis_label}, K={args.repetitions}, "
        f"{template.num_parameters} parameters) -> "
        f"target {np.round(np.asarray(target).flatten()[:3], 4).tolist()}"
    )
    print(
        f"  starts: {args.starts} (initial loss "
        f"{outcome.start_losses.min():.3g} .. "
        f"{outcome.start_losses.max():.3g}), refined: "
        f"{list(outcome.refined_indices)}"
    )
    if outcome.race is not None:
        race = outcome.race
        verdict = (
            f"winner start {race.winner}"
            if race.accepted
            else "no winner (fell back to best completed)"
        )
        print(
            f"  race: {verdict}, {race.cancelled} cancelled, "
            f"~{race.tail_latency_saved_seconds:.1f}s tail saved "
            f"(threshold {race.threshold:.3g})"
        )
    print(
        f"  best loss {best.loss:.3e}  converged={best.converged}  "
        f"({elapsed:.1f}s, {args.workers} worker(s))"
    )
    if best.parameters.size:
        print(
            f"  coordinates {np.round(best.coordinates, 6).tolist()}"
        )
    if args.json is not None:
        payload = {
            "backend": args.backend,
            "basis": basis_label,
            "repetitions": args.repetitions,
            "target": np.asarray(target).tolist(),
            "start_losses": outcome.start_losses.tolist(),
            "refined_losses": {
                str(k): v for k, v in outcome.refined_losses.items()
            },
            "best_loss": best.loss,
            "converged": bool(best.converged),
            "parameters": best.parameters.tolist(),
            "elapsed_seconds": elapsed,
        }
        if outcome.race is not None:
            payload["race"] = {
                "winner": outcome.race.winner,
                "threshold": outcome.race.threshold,
                "completed": list(outcome.race.completed),
                "cancelled": outcome.race.cancelled,
                "elapsed_seconds": outcome.race.elapsed_seconds,
                "tail_latency_saved_seconds":
                    outcome.race.tail_latency_saved_seconds,
            }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    return 0 if best.converged else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        PROFILER,
        TRACER,
        REGISTRY,
        default_metrics_path,
        disable_profiling,
        enable_profiling,
        enable_tracing,
        format_self_time_table,
        format_span_summary,
        write_chrome_trace,
        write_collapsed,
        write_jsonl,
        write_metrics_snapshot,
    )

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print(
            "trace: give a command to trace, e.g. "
            "'repro trace batch --suite smoke'",
            file=sys.stderr,
        )
        return 2
    if rest[0] in ("trace", "metrics", "perf"):
        print(f"trace: cannot wrap {rest[0]!r}", file=sys.stderr)
        return 2
    import os

    TRACER.clear()
    enable_tracing()
    if args.profile:
        PROFILER.clear()
        enable_profiling()
    code = main(rest)
    if args.profile:
        disable_profiling()
    spans = TRACER.spans
    out = args.out or str(results_dir() / "trace.json")
    write_chrome_trace(spans, out, main_pid=os.getpid())
    if args.jsonl is not None:
        write_jsonl(spans, args.jsonl)
        print(f"span JSON-lines written to {args.jsonl}")
    metrics_path = write_metrics_snapshot(
        REGISTRY.snapshot(),
        args.metrics_out or default_metrics_path(),
    )
    pids = {span.pid for span in spans}
    print(
        f"\ntrace: {len(spans)} spans from {len(pids)} process(es), "
        f"trace id {TRACER.trace_id}"
    )
    print(format_span_summary(spans))
    print(f"\nChrome trace written to {out} "
          "(load in chrome://tracing or https://ui.perfetto.dev)")
    print(f"metrics snapshot written to {metrics_path} "
          "(render with 'repro metrics')")
    if args.profile:
        profile_out = args.profile_out or str(
            results_dir() / "profile_collapsed.txt"
        )
        write_collapsed(profile_out)
        total = sum(PROFILER.samples.values())
        print(
            f"\nprofile: {total} stack samples "
            f"@ {PROFILER.interval * 1000:g} ms"
        )
        print(format_self_time_table())
        print(f"collapsed stacks written to {profile_out} "
              "(feed to flamegraph.pl / speedscope / inferno)")
    return code


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import (
        SchemaError,
        default_metrics_path,
        format_chrome_trace_summary,
        format_metrics_table,
        load_chrome_trace,
        load_metrics_snapshot,
    )

    if args.spans:
        trace_path = args.trace_path or str(results_dir() / "trace.json")
        try:
            payload = load_chrome_trace(trace_path)
        except FileNotFoundError:
            print(
                f"metrics: no trace at {trace_path}; run "
                "'repro trace <cmd>' first (or pass --trace-path)",
                file=sys.stderr,
            )
            return 2
        except (OSError, SchemaError) as exc:
            print(f"metrics: {exc}", file=sys.stderr)
            return 2
        print(f"trace: {trace_path}")
        print(format_chrome_trace_summary(payload))
        return 0
    path = args.path or default_metrics_path()
    try:
        snapshot = load_metrics_snapshot(path)
    except FileNotFoundError:
        print(
            f"metrics: no snapshot at {path}; run 'repro trace <cmd>' "
            "first (or pass --path)",
            file=sys.stderr,
        )
        return 2
    except (OSError, SchemaError) as exc:
        print(f"metrics: {exc}", file=sys.stderr)
        return 2
    print(f"metrics snapshot: {path}")
    print(format_metrics_table(snapshot))
    return 0


def _default_perf_artifacts() -> list:
    """Artifacts ``perf record`` ingests when given no paths.

    Every ``results/*_bench.json`` experiment artifact, every
    ``BENCH_*.json`` pytest-benchmark file in the working directory,
    and the metrics snapshot of the last traced run (when present) —
    exactly what a CI bench job leaves behind.
    """
    from pathlib import Path

    from .obs import default_metrics_path

    paths = sorted(results_dir().glob("*_bench.json"))
    paths += sorted(Path.cwd().glob("BENCH_*.json"))
    metrics_path = default_metrics_path()
    if metrics_path.exists():
        paths.append(metrics_path)
    return paths


def _gate_config(args: argparse.Namespace):
    """Build the GateConfig the compare/check actions share."""
    from .obs import GateConfig

    if args.gate_config is not None:
        config = GateConfig.from_file(args.gate_config)
    else:
        config = GateConfig()
    overrides = {}
    if args.window is not None:
        overrides["window"] = args.window
    if args.tolerance is not None:
        overrides["default_tolerance"] = args.tolerance
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def _format_comparisons(comparisons) -> str:
    """Render sentinel verdicts as an aligned table."""
    from .experiments.common import format_table

    rows = []
    for item in comparisons:
        rows.append(
            [
                item.metric,
                f"{item.current:.6g}",
                "-" if item.baseline is None else f"{item.baseline:.6g}",
                "-" if item.ratio is None else f"{item.ratio:.3f}",
                item.window_used,
                item.direction or "-",
                item.status,
            ]
        )
    return format_table(
        ["metric", "current", "baseline", "ratio", "n", "dir", "status"],
        rows,
    )


def _cmd_perf(args: argparse.Namespace) -> int:
    from .obs import LedgerError, PerfLedger, RunStamp, ingest_file

    ledger = PerfLedger(path=args.ledger)
    try:
        if args.action == "record":
            paths = args.paths or _default_perf_artifacts()
            if not paths:
                print(
                    "perf record: no artifacts found; run the benchmarks "
                    f"first (looked for {results_dir()}/*_bench.json and "
                    "./BENCH_*.json) or pass explicit paths",
                    file=sys.stderr,
                )
                return 2
            samples: dict[str, float] = {}
            for path in paths:
                ingested = ingest_file(path)
                samples.update(ingested)
                print(f"  {path}: {len(ingested)} metrics")
            stamp = RunStamp.collect(
                source=args.source, note=args.note or ""
            )
            run_id = ledger.record(samples, stamp=stamp)
            print(
                f"recorded run {run_id}: {len(samples)} metrics "
                f"@ {stamp.git_sha[:12]} ({stamp.branch}) -> {ledger.path}"
            )
            return 0

        if args.action == "list":
            runs = ledger.runs(limit=args.limit)
            if not runs:
                print(f"perf ledger {ledger.path} holds no runs yet")
                return 0
            from .experiments.common import format_table

            rows = [
                [
                    run["id"],
                    time.strftime(
                        "%Y-%m-%d %H:%M", time.localtime(run["recorded_at"])
                    ),
                    run["git_sha"][:12],
                    run["branch"],
                    run["source"],
                    run["samples"],
                    run["note"],
                ]
                for run in runs
            ]
            print(f"perf ledger: {ledger.path}")
            print(format_table(
                ["run", "recorded", "sha", "branch", "source", "metrics",
                 "note"],
                rows,
            ))
            return 0

        if args.action in ("compare", "check"):
            comparisons = ledger.compare_latest(config=_gate_config(args))
            regressed = [item for item in comparisons if item.regressed]
            if args.action == "compare":
                print(_format_comparisons(comparisons))
                return 0
            # check: quiet on success, loud and nonzero on regression.
            if regressed:
                print(_format_comparisons(regressed))
                print(
                    f"\nperf check: {len(regressed)} metric(s) regressed "
                    f"vs the last-{_gate_config(args).window} baseline",
                    file=sys.stderr,
                )
                if args.warn_only:
                    print(
                        "perf check: --warn-only set, not failing",
                        file=sys.stderr,
                    )
                    return 0
                return 1
            gated = [
                item for item in comparisons if item.direction is not None
            ]
            fresh = [item for item in gated if item.baseline is None]
            print(
                f"perf check: ok — {len(gated)} gated metric(s), "
                f"{len(fresh)} without history yet"
            )
            return 0

        if args.action == "report":
            metrics = ledger.metrics(contains=args.metric)
            if not metrics:
                hint = f" matching {args.metric!r}" if args.metric else ""
                print(f"perf ledger {ledger.path}: no metrics{hint}")
                return 0
            from .experiments.common import format_table

            rows = []
            for name in metrics:
                history = ledger.metric_history(name, limit=args.limit)
                values = [value for _, value in history]
                rows.append(
                    [
                        name,
                        len(values),
                        f"{values[0]:.6g}",
                        f"{min(values):.6g}",
                        f"{max(values):.6g}",
                    ]
                )
            print(f"perf ledger: {ledger.path}")
            print(format_table(
                ["metric", "runs", "latest", "min", "max"], rows
            ))
            return 0
    except LedgerError as exc:
        print(f"perf {args.action}: {exc}", file=sys.stderr)
        return 2
    finally:
        ledger.close()
    raise AssertionError(f"unhandled perf action {args.action!r}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Parallel Driving for Fast Quantum Computing "
            "Under Speed Limits' (ISCA 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts")

    run_parser = sub.add_parser("run", help="regenerate paper artifacts")
    run_parser.add_argument(
        "experiments", nargs="+", help="artifact ids, or 'all'"
    )

    transpile_parser = sub.add_parser(
        "transpile", help="compare baseline vs parallel-drive on a workload"
    )
    transpile_parser.add_argument("workload")
    transpile_parser.add_argument("--qubits", type=int, default=16)
    transpile_parser.add_argument("--trials", type=int, default=5)
    transpile_parser.add_argument("--seed", type=int, default=7)

    targets_parser = sub.add_parser(
        "targets", help="list or show hardware-target device models"
    )
    targets_parser.add_argument(
        "action", nargs="?", choices=("list", "show"), default="list",
        help="'list' (default) or 'show NAME'",
    )
    targets_parser.add_argument(
        "name", nargs="?", default=None, help="target name for 'show'"
    )

    batch_parser = sub.add_parser(
        "batch",
        help="farm a workload suite across worker processes",
    )
    batch_jobs = batch_parser.add_mutually_exclusive_group()
    batch_jobs.add_argument(
        "--suite",
        help="named job suite (e.g. table4, table7, smoke)",
    )
    batch_jobs.add_argument(
        "--workloads", nargs="+", help="explicit workload names"
    )
    batch_parser.add_argument(
        "--rules",
        choices=("baseline", "parallel", "both"),
        default="both",
        help="rule engines for --workloads jobs",
    )
    batch_parser.add_argument(
        "--qubits", type=int, default=16,
        help="workload width for --workloads jobs (lattice sized to fit)",
    )
    batch_parser.add_argument(
        "--target", default=None,
        help="hardware target name for all jobs (see 'repro targets')",
    )
    batch_parser.add_argument(
        "--pipeline", default=None,
        help="named pass pipeline for all jobs (paper, noise_aware, "
             "fast, or user-registered)",
    )
    batch_parser.add_argument(
        "--profile", action="store_true",
        help="record per-pass wall time / gate deltas and print the "
             "aggregated timing table",
    )
    batch_parser.add_argument(
        "--trials", type=int, default=None,
        help="override per-job trial count",
    )
    batch_parser.add_argument(
        "--seed", type=int, default=None, help="override per-job seed"
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: cpu count; 1 = in-process)",
    )
    batch_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the persistent decomposition cache",
    )
    batch_parser.add_argument(
        "--cache-path", default=None,
        help="explicit sqlite path for the decomposition cache",
    )
    batch_parser.add_argument(
        "--retries", type=int, default=1,
        help="retry attempts for failed jobs",
    )
    batch_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write raw results + summary as JSON",
    )
    batch_parser.add_argument(
        "--submit", default=None, metavar="URL",
        help="submit the jobs to a running compile service (see "
             "'repro serve') instead of compiling in-process",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the compile service (async job server with digest "
             "dedup, streaming results, and crash-safe requeue)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="max concurrently running job processes",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=2,
        help="extra executions granted per job after a failure or "
             "worker death",
    )
    serve_parser.add_argument(
        "--queue", default=None, metavar="PATH",
        help="sqlite path for the crash-safe job queue "
             "(default: memory-only)",
    )
    serve_parser.add_argument(
        "--results-db", default=None, metavar="PATH",
        help="sqlite path for the persistent result store backing "
             "warm dedup across restarts (default: memory-only)",
    )
    serve_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="workers share the persistent decomposition cache",
    )
    serve_parser.add_argument(
        "--cache-path", default=None,
        help="explicit sqlite path for the decomposition cache",
    )
    serve_parser.add_argument(
        "--ping", default=None, metavar="URL",
        help="wait for a server to answer health checks, print its "
             "health, and exit",
    )
    serve_parser.add_argument(
        "--stop", default=None, metavar="URL",
        help="ask a running server to shut down and exit",
    )
    serve_parser.add_argument(
        "--drain",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --stop: finish queued work before stopping",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="client timeout for --ping/--stop, seconds",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=1,
        help="with N > 1: fork N shard servers partitioning the digest "
             "keyspace and front them with a digest-range router "
             "(store paths gain .shardI suffixes)",
    )
    serve_parser.add_argument(
        "--merge-on-drain",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --shards: fold shard result partitions into the "
             "canonical --results-db after the topology drains",
    )

    route_parser = sub.add_parser(
        "route",
        help="run a standalone digest-range router over already-running "
             "shard servers (see 'repro serve')",
    )
    route_parser.add_argument(
        "--shard", action="append", required=True, metavar="URL",
        help="shard server URL; repeat once per shard, in digest-range "
             "order (shard i owns range i of N)",
    )
    route_parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-read timeout on shard streams, seconds",
    )
    for front_parser in (serve_parser, route_parser):
        front_parser.add_argument(
            "--host", default="127.0.0.1", help="bind address"
        )
        front_parser.add_argument(
            "--port", type=int, default=8234,
            help="bind port (0 = OS-assigned)",
        )

    store_parser = sub.add_parser(
        "store",
        help="inspect and fold the service's sqlite stores (results, "
             "decomposition cache, coverage, queue)",
    )
    store_sub = store_parser.add_subparsers(
        dest="store_command", required=True
    )
    store_stats = store_sub.add_parser(
        "stats", help="print each database's store kind and row count"
    )
    store_stats.add_argument(
        "paths", nargs="+", metavar="PATH", help="store database path"
    )
    store_merge = store_sub.add_parser(
        "merge",
        help="fold shard store partitions into one canonical database "
             "(kind auto-detected; result-digest conflicts refuse)",
    )
    store_merge.add_argument(
        "--into", required=True, metavar="PATH",
        help="destination database (created if missing)",
    )
    store_merge.add_argument(
        "sources", nargs="+", metavar="SRC",
        help="source database(s) to absorb",
    )

    synth_parser = sub.add_parser(
        "synth",
        help="train a synthesis-backend template toward a 2Q target",
    )
    synth_parser.add_argument(
        "target", nargs="*",
        help="named gate (CNOT, iSWAP, B, SWAP, ...) or 3 Weyl coordinates",
    )
    synth_parser.add_argument(
        "--backend", default="piecewise",
        help="registered synthesis backend (see --list-backends)",
    )
    synth_parser.add_argument(
        "--list-backends", action="store_true",
        help="list registered backends and exit",
    )
    synth_parser.add_argument(
        "--basis", default="iSWAP",
        help="named basis gate supplying the drive angles",
    )
    synth_parser.add_argument(
        "--gc", type=float, default=None,
        help="explicit conversion angle theta_c (overrides --basis)",
    )
    synth_parser.add_argument(
        "--gg", type=float, default=None,
        help="explicit gain angle theta_g (overrides --basis)",
    )
    synth_parser.add_argument(
        "--pulse-duration", type=float, default=None,
        help="per-application duration (default: linear-SLF normalized)",
    )
    synth_parser.add_argument(
        "--repetitions", type=int, default=1,
        help="K, the number of basis applications",
    )
    synth_parser.add_argument(
        "--parallel",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the Eq. 9 parallel 1Q drives",
    )
    synth_parser.add_argument(
        "--starts", type=int, default=16,
        help="multi-start batch size (SeedSequence streams)",
    )
    synth_parser.add_argument(
        "--refine", type=int, default=2,
        help="most-promising starts refined by Nelder-Mead",
    )
    synth_parser.add_argument(
        "--seed", type=int, default=7, help="multi-start seed"
    )
    synth_parser.add_argument(
        "--max-iterations", type=int, default=2000,
        help="Nelder-Mead iteration cap per refined start",
    )
    synth_parser.add_argument(
        "--tolerance", type=float, default=1e-8,
        help="Makhlin-loss convergence threshold",
    )
    synth_parser.add_argument(
        "--workers", type=int, default=1,
        help="process count for fanning refinements",
    )
    synth_parser.add_argument(
        "--race", action="store_true",
        help="race the refinements: accept the first result under the "
             "race threshold and cancel the rest",
    )
    synth_parser.add_argument(
        "--race-threshold", type=float, default=None, metavar="LOSS",
        help="accepting loss for --race (default: --tolerance)",
    )
    synth_parser.add_argument(
        "--coverage", type=int, default=None, metavar="KMAX",
        help="build the basis coverage set through the store instead "
             "of synthesizing a single target",
    )
    synth_parser.add_argument(
        "--samples", type=int, default=1500,
        help="coverage samples per K (with --coverage)",
    )
    synth_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the synthesis outcome as JSON",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run another repro command with span tracing on and "
             "export the trace",
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="Chrome trace-event JSON output "
             "(default: <results>/trace.json; Perfetto-loadable)",
    )
    trace_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write raw spans as JSON lines",
    )
    trace_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="metrics snapshot output "
             "(default: <results>/metrics.json; read by 'repro metrics')",
    )
    trace_parser.add_argument(
        "--profile", action="store_true",
        help="also run the sampling stack profiler and export "
             "collapsed stacks (span-attributed, flamegraph-ready)",
    )
    trace_parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="collapsed-stack output with --profile "
             "(default: <results>/profile_collapsed.txt)",
    )
    trace_parser.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="the repro command to trace, e.g. 'batch --suite smoke'",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="print the unified metrics table of the last traced run",
    )
    metrics_parser.add_argument(
        "--path", default=None, metavar="PATH",
        help="metrics snapshot to render "
             "(default: <results>/metrics.json)",
    )
    metrics_parser.add_argument(
        "--spans", action="store_true",
        help="render the span summary of the last exported trace "
             "instead of the metrics snapshot",
    )
    metrics_parser.add_argument(
        "--trace-path", default=None, metavar="PATH",
        help="Chrome trace to summarize with --spans "
             "(default: <results>/trace.json)",
    )

    perf_parser = sub.add_parser(
        "perf",
        help="record bench artifacts into the perf ledger and gate "
             "on regressions",
    )
    perf_parser.add_argument(
        "action",
        choices=("record", "list", "compare", "check", "report"),
        help="record artifacts / list runs / compare vs baseline / "
             "gate (nonzero exit on regression) / per-metric history",
    )
    perf_parser.add_argument(
        "paths", nargs="*",
        help="artifact files for 'record' (default: results/*_bench.json"
             " + ./BENCH_*.json + results/metrics.json)",
    )
    perf_parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="sqlite ledger path (default: <results>/perf.sqlite, or "
             "REPRO_PERF_LEDGER)",
    )
    perf_parser.add_argument(
        "--source", default="manual",
        help="provenance label stamped on recorded runs (e.g. ci)",
    )
    perf_parser.add_argument(
        "--note", default=None, help="free-form note for 'record'"
    )
    perf_parser.add_argument(
        "--window", type=int, default=None,
        help="baseline window: median of the last N prior runs "
             "(default 5)",
    )
    perf_parser.add_argument(
        "--tolerance", type=float, default=None,
        help="default relative tolerance before a metric regresses "
             "(default 0.2)",
    )
    perf_parser.add_argument(
        "--gate-config", default=None, metavar="PATH",
        help="JSON gate policy with per-metric-prefix tolerance "
             "overrides",
    )
    perf_parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (PR builds)",
    )
    perf_parser.add_argument(
        "--metric", default=None,
        help="substring filter for 'report'",
    )
    perf_parser.add_argument(
        "--limit", type=int, default=None,
        help="row cap for 'list'/'report'",
    )

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "transpile": _cmd_transpile,
        "targets": _cmd_targets,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "route": _cmd_route,
        "store": _cmd_store,
        "synth": _cmd_synth,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "perf": _cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
