"""Traced-run launcher: ``repro`` CLI with the timing shims installed.

    python3 perfbench/launch.py serve --shards 2 ...

Installs the shims, then hands the arguments to ``repro.cli.main``.
Shard servers and their per-job workers are forked from this process,
so they inherit the shims, and their spans come back to the client on
the service's own result-freight channel.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

if __name__ == "__main__":
    import shims
    from repro.cli import main

    shims.install()
    sys.exit(main(sys.argv[1:]))
