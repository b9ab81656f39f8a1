"""Compile service: server lifecycle, dedup, requeue, client, queue.

Covers the network tier's contracts: digest parity with the in-process
path (the acceptance criterion every other test leans on), dedup of
identical submissions before any work is scheduled, SIGKILL-a-worker
requeue-to-success with consistent retry accounting, crash-safe queue
recovery, client timeout/backoff taxonomy, and trace-context
propagation across the HTTP boundary.

Most tests run the server in-process (:class:`ServerThread`) so they
can assert against the shared tracer/metrics registry; one test drives
a real ``repro serve`` subprocess over HTTP end to end.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import REGISTRY, TRACER, MetricsRegistry, enable_tracing
from repro.service import (
    CompileJob,
    CompileResult,
    PersistentJobQueue,
    QueueError,
    RouterThread,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
    wait_until_ready,
)
from repro.service.engine import execute_job
from repro.service.front import MAX_BODY_BYTES

#: Seconds-scale job every service test farms (fast pipeline, 4 qubits).
_FAST = dict(
    workload="ghz", num_qubits=4, target="square_2x2",
    trials=1, rules="baseline", pipeline="fast",
)


def fast_job(**overrides) -> CompileJob:
    return CompileJob(**{**_FAST, **overrides})


def counters_delta(before: dict) -> dict:
    return MetricsRegistry.delta(before, REGISTRY.snapshot()).get(
        "counters", {}
    )


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture(params=["server", "router"])
def front_url(request):
    """A live front of each kind: a bare server, or a router over one."""
    with ServerThread(workers=1, use_cache=False) as shard:
        if request.param == "server":
            yield shard.url
        else:
            with RouterThread([shard.url]) as router:
                yield router.url


def exchange(sock, reader, head: str, body: bytes = b"") -> tuple[int, dict]:
    """One raw HTTP request on ``sock``; returns (status, JSON reply)."""
    sock.sendall(f"{head}Host: test\r\n\r\n".encode() + body)
    status = int(reader.readline().split()[1])
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return status, json.loads(reader.read(length))


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Leave the process tracer off and empty around every test."""
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


class TestServerLifecycle:
    def test_start_health_drain_shutdown(self):
        with ServerThread(workers=1, use_cache=False) as st:
            client = ServiceClient(st.url, timeout=30)
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"] == 1
            assert health["queue_depth"] == 0
            url = st.url
        # Context exit drained and stopped the server: gone from the
        # network, and the thread has joined.
        assert not st._thread.is_alive()
        with pytest.raises(ServiceUnavailable):
            ServiceClient(url, timeout=2, connect_retries=0).health()

    def test_shutdown_over_http(self):
        st = ServerThread(workers=1, use_cache=False).start()
        client = ServiceClient(st.url, timeout=30)
        response = client.shutdown(drain=True)
        assert response["ok"] is True
        st._thread.join(timeout=30)
        assert not st._thread.is_alive()

    def test_drain_finishes_queued_work(self):
        with ServerThread(
            workers=1, use_cache=False, worker_delay=0.3
        ) as st:
            client = ServiceClient(st.url, timeout=60)
            collected: list = []
            worker = threading.Thread(
                target=lambda: collected.extend(
                    client.submit([fast_job(tag="drain")])
                )
            )
            worker.start()
            time.sleep(0.1)  # submission admitted, job running
        # __exit__ drained: the submitted job settled before the stop.
        worker.join(timeout=60)
        assert collected and collected[0].ok

    def test_empty_submission_rejected(self, front_url):
        client = ServiceClient(front_url, timeout=30)
        with pytest.raises(ServiceError, match="no jobs"):
            list(client.submit_stream([]))

    def test_unknown_route_is_404(self, front_url):
        client = ServiceClient(front_url, timeout=30)
        with pytest.raises(ServiceError, match="no route"):
            client._request("GET", "/v1/nope")

    def test_malformed_requests_are_refused(self, front_url):
        address = front_url.removeprefix("http://").split(":")
        address = (address[0], int(address[1]))
        # A JSON body that is not an object: 400, connection reusable,
        # and a shutdown request refused this way stops nothing.
        with socket.create_connection(address, timeout=30) as sock:
            reader = sock.makefile("rb")
            for path in ("/v1/submit", "/v1/shutdown"):
                status, reply = exchange(
                    sock, reader,
                    f"POST {path} HTTP/1.1\r\nContent-Length: 6\r\n",
                    b"[1, 2]",
                )
                assert status == 400
                assert "JSON object" in reply["error"]
            status, health = exchange(
                sock, reader, "GET /v1/health HTTP/1.1\r\n"
            )
            assert status == 200 and health["status"] == "ok"
        # A bad or oversized Content-Length: refused, body never read,
        # connection closed.
        for length, expected in (
            ("-5", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413),
        ):
            with socket.create_connection(address, timeout=30) as sock:
                reader = sock.makefile("rb")
                status, reply = exchange(
                    sock, reader,
                    f"POST /v1/submit HTTP/1.1\r\n"
                    f"Content-Length: {length}\r\n",
                )
                assert status == expected, reply
                assert reader.read() == b""
        client = ServiceClient(front_url, timeout=30)
        assert client.health()["status"] == "ok"
        client.close()


class TestDigestParityAndDedup:
    def test_served_digest_matches_in_process(self):
        job = fast_job(tag="parity")
        local = execute_job(job, use_cache=False)
        assert local.ok
        with ServerThread(workers=2, use_cache=False) as st:
            (served,) = ServiceClient(st.url, timeout=60).submit([job])
        assert served.ok
        assert served.digest == local.digest
        assert served.attempts == 1

    def test_same_batch_duplicates_dedup(self):
        job = fast_job(tag="dup")
        before = REGISTRY.snapshot()
        with ServerThread(workers=2, use_cache=False) as st:
            results = ServiceClient(st.url, timeout=60).submit(
                [job, job, job]
            )
        digests = {r.digest for r in results}
        assert len(digests) == 1 and results[0].ok
        delta = counters_delta(before)
        assert delta.get("repro.service.dedup_hits") == 2
        # Only one job actually settled through the scheduler.
        attempts = MetricsRegistry.delta(before, REGISTRY.snapshot())[
            "histograms"
        ]["repro.service.job_attempts"]
        assert attempts["count"] == 1

    def test_concurrent_identical_submissions_run_once(self):
        job = fast_job(tag="race")
        before = REGISTRY.snapshot()
        with ServerThread(
            workers=2, use_cache=False, worker_delay=0.4
        ) as st:
            client = ServiceClient(st.url, timeout=60)
            results: dict[str, CompileResult] = {}

            def submit(name: str) -> None:
                (results[name],) = client.submit([job])

            threads = [
                threading.Thread(target=submit, args=(name,))
                for name in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert results["a"].ok and results["b"].ok
        assert results["a"].digest == results["b"].digest
        delta = counters_delta(before)
        # Whichever submission lost the race deduped — against the
        # in-flight entry or (if the first finished fast) the store.
        assert delta.get("repro.service.dedup_hits") == 1
        attempts = MetricsRegistry.delta(before, REGISTRY.snapshot())[
            "histograms"
        ]["repro.service.job_attempts"]
        assert attempts["count"] == 1

    def test_warm_dedup_hits_result_store(self):
        job = fast_job(tag="warm")
        with ServerThread(workers=1, use_cache=False) as st:
            client = ServiceClient(st.url, timeout=60)
            (cold,) = client.submit([job])
            before = REGISTRY.snapshot()
            statuses = [
                event["status"]
                for event in client.submit_stream([job])
                if event.get("event") == "accepted"
            ]
        assert statuses == ["dedup_store"]
        delta = counters_delta(before)
        assert delta.get("repro.service.dedup_store") == 1
        assert cold.ok

    def test_warm_dedup_survives_restart(self, tmp_path):
        job = fast_job(tag="restart")
        results_db = tmp_path / "results.sqlite"
        with ServerThread(
            workers=1, use_cache=False, results_path=results_db
        ) as st:
            (first,) = ServiceClient(st.url, timeout=60).submit([job])
        with ServerThread(
            workers=1, use_cache=False, results_path=results_db
        ) as st:
            client = ServiceClient(st.url, timeout=60)
            events = list(client.submit_stream([job]))
        accepted = [e for e in events if e["event"] == "accepted"]
        assert accepted[0]["status"] == "dedup_store"
        (result_event,) = [e for e in events if e["event"] == "result"]
        assert result_event["result"]["digest"] == first.digest


class TestRequeue:
    def test_sigkill_worker_requeues_to_success(self):
        job = fast_job(workload="qft", tag="kill")
        local = execute_job(job, use_cache=False)
        before = REGISTRY.snapshot()
        with ServerThread(
            workers=1, use_cache=False, worker_delay=0.8,
            retries=2, backoff_base=0.05, backoff_cap=0.2,
        ) as st:
            client = ServiceClient(st.url, timeout=60)
            killed = False
            events = []
            for event in client.submit_stream([job]):
                events.append(event)
                if event["event"] == "running" and not killed:
                    os.kill(event["pid"], signal.SIGKILL)
                    killed = True
        kinds = [e["event"] for e in events]
        assert "requeued" in kinds
        (requeued,) = [e for e in events if e["event"] == "requeued"]
        assert requeued["reason"] == "worker_died"
        (result_event,) = [e for e in events if e["event"] == "result"]
        result = CompileResult.from_dict(result_event["result"])
        assert result.ok
        assert result.attempts == 2
        assert result.digest == local.digest
        delta = counters_delta(before)
        assert delta.get("repro.service.requeues") == 1
        assert delta.get("repro.service.job_retries") == 1
        attempts = MetricsRegistry.delta(before, REGISTRY.snapshot())[
            "histograms"
        ]["repro.service.job_attempts"]
        # Settled once, with the cumulative attempt count — the lost
        # execution does not double-count across freight merges.
        assert attempts["count"] == 1 and attempts["total"] == 2.0

    def test_failing_job_exhausts_retries_with_engine_semantics(self):
        """Server-side retry accounting matches the BatchEngine's
        pinned semantics (test_obs.test_retried_job_records_retry_metrics):
        retries=2 -> attempts==3, job_retries==2, jobs_failed==1."""
        job = CompileJob(
            workload="no_such_workload", num_qubits=4,
            target="square_2x2", trials=1,
        )
        before = REGISTRY.snapshot()
        with ServerThread(
            workers=1, use_cache=False, retries=2,
            backoff_base=0.01, backoff_cap=0.05,
        ) as st:
            (result,) = ServiceClient(st.url, timeout=60).submit([job])
        assert not result.ok
        assert result.attempts == 3
        delta = counters_delta(before)
        assert delta.get("repro.service.job_retries") == 2
        assert delta.get("repro.service.requeues") == 2
        assert delta.get("repro.service.jobs_failed") == 1
        assert delta.get("repro.service.job_errors") == 3
        attempts = MetricsRegistry.delta(before, REGISTRY.snapshot())[
            "histograms"
        ]["repro.service.job_attempts"]
        assert attempts["count"] == 1 and attempts["total"] == 3.0


class TestQueue:
    def test_lifecycle_round_trip(self, tmp_path):
        queue = PersistentJobQueue(tmp_path / "q.sqlite")
        job = fast_job(tag="queued")
        queue.put("k1", job)
        queue.put("k2", fast_job(tag="other"), priority=5)
        assert queue.depth() == 2
        queue.mark_running("k1", attempts=2)
        queue.mark_done("k2")
        assert queue.depth() == 1
        recovered = queue.recover()
        assert [q.key for q in recovered] == ["k1"]
        assert recovered[0].attempts == 2
        assert recovered[0].job == job
        queue.close()

    def test_recover_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        queue = PersistentJobQueue(path)
        queue.put("k1", fast_job(tag="crash"))
        queue.mark_running("k1", attempts=1)
        queue.close()
        # A fresh process (simulated by a fresh instance) sees the
        # running row as crashed work to redo, attempts preserved.
        reopened = PersistentJobQueue(path)
        (entry,) = reopened.recover()
        assert entry.key == "k1" and entry.attempts == 1
        reopened.close()

    def test_schema_mismatch_refuses_loudly(self, tmp_path):
        path = tmp_path / "q.sqlite"
        queue = PersistentJobQueue(path)
        queue._connection().execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema'"
        )
        queue._connection().commit()
        queue.close()
        with pytest.raises(QueueError, match="schema v99"):
            PersistentJobQueue(path)

    def test_server_recovers_crashed_queue(self, tmp_path):
        """Rows a dead server left behind run to completion on start."""
        queue_db = tmp_path / "queue.sqlite"
        results_db = tmp_path / "results.sqlite"
        job = fast_job(tag="recover")
        seeded = PersistentJobQueue(queue_db)
        seeded.put(job.identity_digest(), job)
        seeded.mark_running(job.identity_digest(), attempts=1)
        seeded.close()
        before = REGISTRY.snapshot()
        with ServerThread(
            workers=1, use_cache=False,
            queue_path=queue_db, results_path=results_db,
        ) as st:
            client = ServiceClient(st.url, timeout=60)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                health = client.health()
                if health["queue_depth"] == 0 and health["results"] == 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("recovered job never completed")
            # The same submission now answers from the result store.
            statuses = [
                e["status"]
                for e in client.submit_stream([job])
                if e.get("event") == "accepted"
            ]
        assert statuses == ["dedup_store"]
        assert counters_delta(before).get("repro.service.recovered") == 1


class TestClientFailureModes:
    def test_unreachable_raises_after_backoff(self):
        url = f"http://127.0.0.1:{free_port()}"
        client = ServiceClient(
            url, timeout=2, connect_retries=2, backoff_base=0.05
        )
        start = time.monotonic()
        with pytest.raises(ServiceUnavailable, match="unreachable"):
            client.health()
        # Two retries backed off 0.05 + 0.1 seconds before giving up.
        assert time.monotonic() - start >= 0.15

    def test_stalled_stream_raises_timeout(self):
        with ServerThread(
            workers=1, use_cache=False, worker_delay=2.0
        ) as st:
            client = ServiceClient(st.url, timeout=0.4)
            with pytest.raises(ServiceTimeout, match="stalled"):
                list(client.submit_stream([fast_job(tag="stall")]))

    def test_wait_until_ready_times_out(self):
        url = f"http://127.0.0.1:{free_port()}"
        with pytest.raises(ServiceUnavailable, match="not ready"):
            wait_until_ready(url, timeout=0.4, interval=0.1)

    def test_https_rejected(self):
        with pytest.raises(ServiceError, match="plain http"):
            ServiceClient("https://example.com:1234")


class TestTracePropagation:
    def test_in_process_timeline_spans_client_server_worker(self):
        enable_tracing()
        from repro.obs import span

        job = fast_job(tag="traced")
        with ServerThread(workers=1, use_cache=False) as st:
            with span("client.submit"):
                (result,) = ServiceClient(st.url, timeout=60).submit(
                    [job]
                )
        assert result.ok
        names = {s.name for s in TRACER.spans}
        assert {"client.submit", "service.job", "job.run"} <= names
        submit_span = next(
            s for s in TRACER.spans if s.name == "client.submit"
        )
        service_span = next(
            s for s in TRACER.spans if s.name == "service.job"
        )
        job_span = next(s for s in TRACER.spans if s.name == "job.run")
        # One trace; the server's span parents under the submitting
        # span; the worker ran in a different (forked) process.
        assert {s.trace_id for s in (submit_span, service_span, job_span)} \
            == {TRACER.trace_id}
        assert service_span.parent_id == submit_span.span_id
        assert job_span.pid != os.getpid()
        # No span arrived twice (server forwarded freight the client
        # must not re-absorb for an in-process server).
        ids = [s.span_id for s in TRACER.spans]
        assert len(ids) == len(set(ids))

    def test_http_propagation_from_subprocess_server(self, tmp_path):
        """One timeline across a real server process: client spans,
        the server's service.job span, and worker job.run spans all
        share the client's trace id after HTTP freight absorption."""
        port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            (os.path.dirname(os.path.dirname(__file__)) or ".") + "/src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port), "--workers", "2", "--no-cache",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        url = f"http://127.0.0.1:{port}"
        try:
            wait_until_ready(url, timeout=120)
            enable_tracing()
            from repro.obs import span

            job = fast_job(tag="http")
            local = execute_job(job, use_cache=False)
            TRACER.clear()
            enable_tracing()
            client = ServiceClient(url, timeout=120)
            with span("client.submit"):
                (served,) = client.submit([job])
            assert served.ok and served.digest == local.digest
            foreign = [s for s in TRACER.spans if s.pid != os.getpid()]
            assert {"service.job", "job.run"} <= {s.name for s in foreign}
            assert {s.trace_id for s in foreign} == {TRACER.trace_id}
            # Requeue counter lives server-side, visible over HTTP.
            counters = client.server_metrics()["counters"]
            assert counters.get("repro.service.submissions") == 1
            client.shutdown(drain=True)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestServeCli:
    def test_batch_submit_routes_through_service(self, capsys):
        from repro.cli import main

        with ServerThread(workers=2, use_cache=False) as st:
            code = main(
                [
                    "batch", "--workloads", "ghz", "--rules", "baseline",
                    "--qubits", "4", "--pipeline", "fast",
                    "--trials", "1", "--submit", st.url,
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "via compile service" in out
        assert "ghz-4q-baseline" in out

    def test_serve_ping_reports_health(self, capsys):
        from repro.cli import main

        with ServerThread(workers=1, use_cache=False) as st:
            code = main(["serve", "--ping", st.url])
        assert code == 0
        assert '"status": "ok"' in capsys.readouterr().out

    def test_serve_ping_unreachable_fails(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--ping", f"http://127.0.0.1:{free_port()}",
             "--timeout", "0.4"]
        )
        assert code == 1
        assert "not ready" in capsys.readouterr().err
