"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The first run in a checkout also prepares the coverage
store (see ``prepare.py``).  Exits non-zero without a result line when
the program's sources are not next to the benchmark.
"""

import time

STARTED = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    ROOT,
    RUNS_DIR,
    SRC_DIR,
    RunResult,
    log,
)

WORKLOADS = ("paper_suite", "service_sweep", "synth_multistart")

#: Program switches pinned so the environment cannot change what runs.
#: BLAS runs one thread per process: the program's own process pools
#: already use every core, and with OpenBLAS's default of one thread
#: per core the forked workers oversubscribe the machine — the same
#: 18-job batch then takes anywhere from 12 s to 84 s on 2 cores
#: instead of about 5 s (README, "Known defects").
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_TRACE": "0",
    "REPRO_PROFILE": "0",
    "REPRO_COVERAGE_CACHE": "1",
    "REPRO_ARRAY_BACKEND": "numpy",
    "REPRO_SERVICE_WORKER_DELAY": "0",
}


def _declared_names(trace: bool) -> list[str]:
    """Metric names ``BENCHMARK.json`` declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _module(workload: str):
    if workload == "paper_suite":
        import paper_suite as module
    elif workload == "service_sweep":
        import service_sweep as module
    else:
        import synth_multistart as module
    return module


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: measure set-up in this fresh process and exit",
    )
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        log(f"program sources not found at {SRC_DIR}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC_DIR))
    os.environ.update(PINNED_ENV)
    signal.signal(signal.SIGTERM, _on_sigterm)

    import prepare
    from runner import Clock

    clock = Clock(STARTED)
    module = _module(args.workload)
    if args.setup_probe:
        os.environ["REPRO_CACHE_DIR"] = str(prepare.COVERAGE_DIR)
        module.ready()
        print(json.dumps({"setup_s": clock.since_start()}))
        return 0

    began = time.perf_counter()
    os.environ["REPRO_CACHE_DIR"] = str(prepare.prepare())
    clock.prepare_s = time.perf_counter() - began
    declared = _declared_names(bool(args.trace))
    expected = list(PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    if sorted(declared) != sorted(expected):
        log("BENCHMARK.json metric names differ from the benchmark's")
        return 2

    scratch = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    # Stores the program would open by default land in the run's scratch.
    os.environ["REPRO_DECOMP_CACHE_DIR"] = str(scratch / "decomp-default")
    res = RunResult()
    try:
        module.run(
            args.seed, args.seconds, bool(args.trace), res, clock, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for note in res.notes[:20]:
        log(f"failed: {note}")
    print(res.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
