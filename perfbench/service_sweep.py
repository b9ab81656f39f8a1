"""service_sweep: closed-loop clients against ``repro serve --shards 2``.

The service runs as a subprocess in its own session on OS-assigned
ports, with fresh queue, results and decomposition-cache stores per
pass, and its whole process group is killed on the way out so no shard
or bound port outlives the run.  ``nproc`` client threads, each with
its own keep-alive ``ServiceClient`` connection, pull batches from the
seeded traffic (:func:`inputs.service_batches`) and submit the next one
only when the previous one is ``done``.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading

import inputs
import shims
from common import (
    BENCH_DIR,
    NPROC,
    ROOT,
    InsufficientSamples,
    log,
    median,
    now,
    percentile,
    program_env,
)
from paper_suite import quality
from runner import (
    check_compile_results,
    cpu_seconds_of,
    finish,
    references,
    traced_pass,
)

#: Seconds to wait for the topology to announce itself / drain.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
SHARDS = 2
WORKERS_PER_SHARD = 1


class Service:
    """One ``repro serve --shards 2 --workers 1`` process tree."""

    def __init__(self, scratch, tag: str, traced: bool):
        from prepare import COVERAGE_DIR

        base = scratch / tag
        base.mkdir()
        command = (
            [sys.executable, str(BENCH_DIR / "launch.py")]
            if traced
            else [sys.executable, "-m", "repro"]
        )
        command += [
            "serve",
            "--shards", str(SHARDS),
            "--workers", str(WORKERS_PER_SHARD),
            "--port", "0",
            "--queue", str(base / "queue.sqlite"),
            "--results-db", str(base / "results.sqlite"),
            "--cache-path", str(base / "decomp.sqlite"),
        ]
        env = program_env(
            {
                "REPRO_CACHE_DIR": str(COVERAGE_DIR),
                "REPRO_DECOMP_CACHE_DIR": str(base / "decomp-default"),
            }
        )
        self.started = now()
        self.log = open(base / "service.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.url = ""
        self.shard_urls: list[str] = []

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def wait_ready(self) -> float:
        """Block until router and shards announced and health answers."""
        from repro.service import wait_until_ready

        deadline = self.started + START_TIMEOUT
        while not self.url or len(self.shard_urls) < SHARDS:
            try:
                line = self.lines.get(timeout=max(0.1, deadline - now()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("compile service did not announce itself")
            match = re.search(r"router listening on (http://\S+)", line)
            if match:
                self.url = match.group(1)
            match = re.search(r"shard \d+: (http://\S+)", line)
            if match:
                self.shard_urls.append(match.group(1))
        wait_until_ready(self.url, timeout=max(1.0, deadline - now()))
        return now() - self.started

    def stop(self) -> None:
        """Drain and stop; then kill whatever is left of the group."""
        from repro.service import ServiceClient, ServiceError

        try:
            if self.url and self.process.poll() is None:
                client = ServiceClient(self.url, timeout=10, connect_retries=0)
                try:
                    client.shutdown(drain=True)
                except ServiceError:
                    pass
                self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            log("compile service did not drain in time; killing it")
        finally:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
            self.reader.join(timeout=5)
            self.process.stdout.close()
            self.log.close()


def _metrics(url: str) -> dict:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=10, connect_retries=1)
    try:
        return client.server_metrics().get("counters", {})
    finally:
        client.close()


def traffic_pass(service: Service, batches) -> dict:
    """Drive the closed loop to completion; per-job and per-batch records."""
    from repro.service import ServiceClient, ServiceError
    from repro.service.jobs import CompileResult

    clients = min(NPROC, len(batches))
    lock = threading.Lock()
    jobs: list[dict] = []
    sweeps: list[float] = []
    errors: list[str] = []

    def client_loop(mine) -> None:
        client = ServiceClient(service.url, timeout=180)
        try:
            for number, batch in mine:
                records = [
                    {"batch": number, "kind": batch.kind, "job": job}
                    for job in batch.jobs
                ]
                submitted = now()
                finished = None
                try:
                    for event in client.submit_stream(batch.jobs):
                        stamp = now() - submitted
                        kind = event.get("event")
                        if kind == "done":
                            finished = stamp
                            continue
                        if "index" not in event:
                            continue
                        record = records[event["index"]]
                        if kind == "accepted":
                            record["accepted"] = stamp
                            record["status"] = event.get("status")
                        elif kind == "running":
                            record.setdefault("running", stamp)
                        elif kind == "result":
                            record["latency"] = stamp
                            record["result"] = CompileResult.from_dict(
                                event["result"]
                            )
                            record["freight"] = (
                                event.get("freight") or {}
                            ).get("metrics", {})
                except ServiceError as exc:
                    errors.append(f"batch {number}: {exc}")
                with lock:
                    jobs.extend(records)
                    if finished is not None and batch.kind == "sweep":
                        sweeps.append(finished)
        finally:
            client.close()

    # Client i submits batches i, i + clients, ...: a fixed share, so
    # which client carries which batch does not depend on timing.
    threads = [
        threading.Thread(
            target=client_loop,
            args=(list(enumerate(batches))[i::clients],),
            name=f"client{i}",
        )
        for i in range(clients)
    ]
    start = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "jobs": jobs,
        "sweeps": sweeps,
        "errors": errors,
        "wall": now() - start,
    }


def served_pass(scratch, tag: str, batches, traced: bool) -> dict:
    """Start a fresh service, run the traffic, read its counters, stop."""
    service = Service(scratch, tag, traced)
    try:
        setup = service.wait_ready()
        before = [_metrics(url) for url in service.shard_urls]
        outcome = traffic_pass(service, batches)
        after = [_metrics(url) for url in service.shard_urls]
        router = _metrics(service.url)
    finally:
        service.stop()
    outcome["shard_deltas"] = [
        {k: a.get(k, 0) - b.get(k, 0) for k in a} for a, b in zip(after, before)
    ]
    outcome["router"] = router
    outcome["setup"] = setup
    return outcome


def setup_sample(scratch, tag: str) -> float:
    """Start-to-ready of one fresh service (then stop it)."""
    service = Service(scratch, tag, traced=False)
    try:
        return service.wait_ready()
    finally:
        service.stop()


def _executed(outcome) -> list[dict]:
    return [j for j in outcome["jobs"] if j.get("status") == "queued"]


def service_layers(outcome) -> dict[str, float]:
    """Service-layer metrics from one pass's client-side records."""
    executed = [j for j in _executed(outcome) if "running" in j and "latency" in j]
    statuses = [j.get("status") for j in outcome["jobs"]]
    dedup = {
        name: float(statuses.count(f"dedup_{name}"))
        for name in ("store", "inflight", "router")
    }
    shard_jobs = [
        value for name, value in outcome["router"].items()
        if re.fullmatch(r"repro\.service\.shard\.\d+\.jobs", name)
    ]
    layers = {
        "service.admit_s": median(
            j["accepted"] for j in outcome["jobs"] if "accepted" in j
        ),
        "service.executed": float(len(executed)),
        "service.dedup_ratio": sum(dedup.values()) / max(len(statuses), 1),
        "service.requeues": float(
            sum(d.get("repro.service.requeues", 0) for d in outcome["shard_deltas"])
        ),
        "service.retries": float(
            sum(
                d.get("repro.service.job_retries", 0)
                for d in outcome["shard_deltas"]
            )
        ),
        "router.shard_jobs_max_over_mean": (
            max(shard_jobs) / (sum(shard_jobs) / len(shard_jobs))
            if shard_jobs and sum(shard_jobs) else 0.0
        ),
    }
    layers.update({f"service.dedup_{k}": v for k, v in dedup.items()})
    if executed:
        exec_s = [j["latency"] - j["running"] for j in executed]
        walls = [j["result"].wall_time for j in executed]
        layers.update(
            {
                "service.queue_wait_p50_s": median(
                    j["running"] - j["accepted"] for j in executed
                ),
                "service.exec_p50_s": median(exec_s),
                "service.worker_wall_s": median(walls),
                "service.dispatch_overhead_s": median(
                    e - w for e, w in zip(exec_s, walls)
                ),
            }
        )
    return layers


def latency_layers(outcome) -> dict[str, float]:
    """Job latency over every job, sweep latency over new sweeps."""
    latencies = [j["latency"] for j in outcome["jobs"] if "latency" in j]
    layers = {
        "service.sweep_latency_p50_s": median(outcome["sweeps"]),
        "service.job_latency_p50_s": median(latencies),
    }
    try:
        layers["service.job_latency_p90_s"] = percentile(latencies, 90)
    except InsufficientSamples as exc:
        log(f"no p90: {exc}")
    return layers


def run(seed: int, seconds: int, trace: bool, res, clock, scratch) -> None:
    batches = inputs.service_batches(seed)
    untraced, cpu = cpu_seconds_of(
        lambda: served_pass(scratch, "untraced", batches, traced=False)
    )
    passes = [untraced]
    layers = {}
    if trace:
        traced, spans, _ = traced_pass(
            "service_sweep",
            seed,
            lambda: served_pass(scratch, "traced", batches, traced=True),
        )
        passes.append(traced)
        counters: dict[str, float] = {}
        for record in traced["jobs"]:
            for name, value in (
                record.get("freight", {}).get("counters", {}).items()
            ):
                counters[name] = counters.get(name, 0) + value
        layers = shims.layer_metrics(spans, counters)
        layers.update(service_layers(traced))
        layers.update(latency_layers(untraced))
        layers["trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
        layers["process.cpu_utilization"] = cpu / (untraced["wall"] * NPROC)
        layers.update(
            quality(
                [j["result"] for j in _executed(untraced) if "result" in j]
            )
        )
    fresh = [job for batch in batches if batch.kind != "replay" for job in batch.jobs]
    refs = references(fresh)
    for one in passes:
        for error in one["errors"]:
            log(f"submission failed: {error}")
        for record in one["jobs"]:
            if "result" not in record:
                res.record(False, f"{record['job'].label}: no result event")
        check_compile_results(
            res, [j["result"] for j in one["jobs"] if "result" in j], refs
        )
    finish(
        res,
        trace=trace,
        setup=lambda: [untraced["setup"]]
        + [setup_sample(scratch, f"probe{i}") for i in range(2)],
        jobs=len(untraced["jobs"]),
        wall=untraced["wall"],
        layers=layers,
    )
