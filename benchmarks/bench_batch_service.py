"""Cold-vs-warm decomposition-cache speedup for the batch service.

Runs the parallel-drive workload suite (``--suite table4``) through the
``python -m repro batch`` CLI in fresh subprocesses so each phase pays
its real process-lifetime costs:

* **cold** — empty decomposition cache: every 2Q coordinate class is
  templated from scratch, and the coverage-set hulls are assembled
  along the way;
* **warm** — second run against the same store: all template lookups
  hit sqlite, and the lazy coverage machinery is never touched;
* **no-cache** — caching disabled, as a parity control;
* **2 workers** — warm again, through the multiprocessing pool.

Only the decomposition cache is isolated to the temp dir; the
coverage cache (``REPRO_CACHE_DIR``: point clouds) is deliberately
shared by all phases, so the cold/warm delta isolates exactly what the
decomposition cache saves a fresh process: assembling the coverage
hulls from their clouds (a fraction of a second per set) plus every
``template_for`` call.  Cold pays it in every regime, so the strict
``warm < cold`` assertion is stable without multi-minute Algorithm-2
rebuilds per phase.

Asserts the paper-suite guarantees: the warm run is strictly faster
than the cold one, and every phase produces byte-identical circuits
(per-job digests) for the same seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SUITE = "table4"
TRIALS = 3  # keep the bench minutes-scale on one core


def _run_batch(
    tmp_path: Path, tag: str, extra: list[str]
) -> tuple[dict, float]:
    """Run one CLI batch phase in a fresh process; return (json, wall)."""
    out = tmp_path / f"{tag}.json"
    command = [
        sys.executable, "-m", "repro", "batch",
        "--suite", SUITE, "--trials", str(TRIALS),
        "--retries", "0", "--json", str(out), *extra,
    ]
    env = dict(os.environ)
    env["REPRO_DECOMP_CACHE_DIR"] = str(tmp_path / "decomp")
    src = Path(__file__).resolve().parents[1] / "src"
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else str(src)
    start = time.perf_counter()
    proc = subprocess.run(
        command, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    assert proc.returncode == 0, (
        f"{tag} phase failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(out.read_text()), wall


def _digests(payload: dict) -> dict[str, str]:
    return {
        result["job"]["workload"]: result["digest"]
        for result in payload["results"]
    }


def test_batch_cache_cold_vs_warm(tmp_path, capsys):
    cold, cold_wall = _run_batch(tmp_path, "cold", ["--workers", "1"])
    warm, warm_wall = _run_batch(tmp_path, "warm", ["--workers", "1"])
    nocache, nocache_wall = _run_batch(
        tmp_path, "nocache", ["--workers", "1", "--no-cache"]
    )
    pooled, pooled_wall = _run_batch(
        tmp_path, "pooled", ["--workers", "2"]
    )

    # Parity: the cache and the worker pool change nothing but speed.
    reference = _digests(nocache)
    assert _digests(cold) == reference
    assert _digests(warm) == reference
    assert _digests(pooled) == reference

    cold_s = cold["elapsed_seconds"]
    warm_s = warm["elapsed_seconds"]
    with capsys.disabled():
        print(
            f"\nbatch service, suite={SUITE} trials={TRIALS} "
            f"({len(reference)} workloads):\n"
            f"  cold cache   {cold_s:7.2f}s engine ({cold_wall:.2f}s wall)\n"
            f"  warm cache   {warm_s:7.2f}s engine ({warm_wall:.2f}s wall)"
            f"  -> {cold_s / warm_s:.2f}x speedup\n"
            f"  no cache     {nocache['elapsed_seconds']:7.2f}s engine "
            f"({nocache_wall:.2f}s wall)\n"
            f"  2 workers    {pooled['elapsed_seconds']:7.2f}s engine "
            f"({pooled_wall:.2f}s wall)\n"
        )
    assert warm_s < cold_s, (
        f"warm cache ({warm_s:.2f}s) not faster than cold ({cold_s:.2f}s)"
    )
