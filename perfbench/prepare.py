"""One-time preparation: the coverage sets every workload needs.

The two default rule engines read four coverage point clouds (the
standard sqrt(iSWAP) set up to K=3 for ``baseline``; the parallel-drive
iSWAP K=1 and sqrt(iSWAP) K=1/K=2 regions for ``parallel``).  Built cold
they take minutes, so they are built once per checkout into
``perfbench/.cache/coverage`` and every timed run points
``REPRO_CACHE_DIR`` there.  The sets are built in parallel, one child
process per set (at most ``nproc`` at a time), each into its own store,
and then merged into one.  The children are plain ``python3
perfbench/prepare.py BASIS KMAX PARALLEL DIR`` subprocesses, each waited
for (and killed on failure), so preparation leaves no helper process
behind.

    python3 perfbench/prepare.py sqrt_iSWAP 2 1 DIR   # build one set
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import NPROC, SRC_DIR, STATE_DIR, log, program_env

COVERAGE_DIR = STATE_DIR / "coverage"
MARKER = COVERAGE_DIR / "prepared.json"

#: ``coverage_for_basis`` arguments of the sets the rule engines load,
#: slowest first so the parallel build finishes early.
COVERAGE_SPECS = (
    ("sqrt_iSWAP", 2, True),
    ("sqrt_iSWAP", 3, False),
    ("iSWAP", 1, True),
    ("sqrt_iSWAP", 1, True),
)


def source_fingerprint() -> str:
    """Hash of the program's sources: a store built by other code is stale."""
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _build_one(basis: str, kmax: int, parallel: bool) -> float:
    """Child process body: build one coverage set into ``REPRO_CACHE_DIR``."""
    from repro.core.decomposition_rules import coverage_for_basis

    start = time.perf_counter()
    coverage_for_basis(basis, kmax=kmax, parallel=parallel)
    return time.perf_counter() - start


def _build_all(parts: list[Path]) -> list[float]:
    """Build every set into its part directory, ``NPROC`` children at a time.

    Returns the per-set build seconds in ``COVERAGE_SPECS`` order.  On any
    failure or interruption the running children are killed; every child
    is waited for before this returns or raises.
    """
    pending = list(enumerate(zip(COVERAGE_SPECS, parts)))
    running: dict[int, subprocess.Popen] = {}
    seconds: list[float] = [0.0] * len(COVERAGE_SPECS)
    try:
        while pending or running:
            while pending and len(running) < NPROC:
                index, ((basis, kmax, parallel), part) = pending.pop(0)
                running[index] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), basis,
                     str(kmax), str(int(parallel)), str(part)],
                    env=program_env({"REPRO_CACHE_DIR": str(part)}),
                    stdout=subprocess.PIPE,
                    text=True,
                )
            done = [i for i, c in running.items() if c.poll() is not None]
            if not done:
                time.sleep(0.2)
            for index in done:
                child = running.pop(index)
                out, _ = child.communicate()
                if child.returncode != 0:
                    raise RuntimeError(
                        f"building coverage set {COVERAGE_SPECS[index]} "
                        f"failed with exit code {child.returncode}"
                    )
                seconds[index] = float(out.strip().splitlines()[-1])
    finally:
        for child in running.values():
            child.kill()
        for child in running.values():
            child.wait()
    return seconds


def is_prepared() -> bool:
    """Whether the prepared store exists and matches the sources."""
    try:
        marker = json.loads(MARKER.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return (
        marker.get("fingerprint") == source_fingerprint()
        and marker.get("specs") == [list(spec) for spec in COVERAGE_SPECS]
        and (COVERAGE_DIR / "coverage.sqlite").is_file()
    )


def prepare() -> Path:
    """Build the prepared store unless a matching one exists; its dir."""
    if is_prepared():
        return COVERAGE_DIR
    log("preparing coverage sets (one-time, a few minutes)")
    staging = STATE_DIR / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    parts = [staging / f"part{index}" for index in range(len(COVERAGE_SPECS))]
    for part in parts:
        part.mkdir(parents=True)
    started = time.perf_counter()
    seconds = _build_all(parts)
    from repro.service.coverage_store import CoverageStore

    merged = CoverageStore(path=staging / "coverage.sqlite")
    try:
        for part in parts:
            merged.merge(part / "coverage.sqlite")
        entries = merged.disk_entries()
    finally:
        merged.close()
    if entries < len(COVERAGE_SPECS):
        raise RuntimeError(
            f"prepared coverage store holds {entries} clouds, expected "
            f"{len(COVERAGE_SPECS)}"
        )
    for part in parts:
        shutil.rmtree(part)
    (staging / "prepared.json").write_text(
        json.dumps(
            {
                "fingerprint": source_fingerprint(),
                "specs": [list(spec) for spec in COVERAGE_SPECS],
                "build_seconds": seconds,
                "wall_seconds": time.perf_counter() - started,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    shutil.rmtree(COVERAGE_DIR, ignore_errors=True)
    staging.rename(COVERAGE_DIR)
    log(f"prepared coverage store in {time.perf_counter() - started:.1f}s")
    return COVERAGE_DIR


if __name__ == "__main__":
    basis, kmax, parallel, directory = sys.argv[1:5]
    os.environ["REPRO_CACHE_DIR"] = directory
    sys.path.insert(0, str(SRC_DIR))
    print(_build_one(basis, int(kmax), parallel == "1"))
