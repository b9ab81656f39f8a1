"""Seeded input generators: the only thing the program sees.

Each generator maps ``(seed, size)`` to a job list with no hidden state:
the same seed always gives the same jobs, a different seed different
ones.  Draws are stratified — every run holds the same *kinds* of
inputs in the same proportions and only their values move with the
seed — so run-to-run spread measures the program, not the luck of the
draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from common import samples_needed

#: Paper Table VII workloads (Fig. 3b order).
TABLE7_WORKLOADS = (
    "quantum_volume",
    "vqe_linear",
    "ghz",
    "hlf",
    "qft",
    "adder",
    "qaoa",
    "vqe_full",
    "multiplier",
)
RULE_ENGINES = ("baseline", "parallel")

#: The service traffic's new batches, in submission order: parameter
#: sweeps (``kind="sweep"``) and one-off circuits, each on a fixed width
#: and routed preset topology.  For sweeps the seed draws the
#: speed-limit variant, the workload seeds and the compile seed; the
#: one-offs are the same jobs in every run; the seed also draws the
#: replays.  (Width, topology and compile seed decide whether a job's
#: blocks need coverage — about 5 s per job at the seed commit — so
#: drawing them for single jobs would swing a run's wall time by a
#: third; see README.)
SERVICE_BATCHES = (
    ("sweep", "qaoa", 12, "heavy_hex_16"),
    ("one_off", "qft", 12, "line_16"),
    ("sweep", "vqe_linear", 16, "line_16"),
    ("one_off", "adder", 10, "heavy_hex_16"),
    ("sweep", "quantum_volume", 8, "snail_4x4"),
    ("one_off", "multiplier", 16, "heavy_hex_27"),
    ("sweep", "vqe_full", 10, "heavy_hex_27"),
    ("one_off", "ghz", 16, "snail_4x4"),
    ("sweep", "hlf", 14, "snail_4x4"),
)
SPEED_SUFFIXES = ("", "_fast", "_slow")
#: Jobs per sweep batch (distinct ``workload_seed`` values); even, so
#: each sweep splits evenly over the two shards.
SWEEP_SIZE = 4
#: Latency samples a service run must hold: p90 needs 10 beyond it.
SERVICE_MIN_JOBS = samples_needed(90)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# -- paper_suite --------------------------------------------------------------


def paper_suite_jobs(seed: int, compile_seeds: int) -> list:
    """Table VII (9 workloads x 2 rule engines, 16 qubits, snail_4x4,
    noise_aware, 10 trials) under ``compile_seeds`` drawn compile seeds."""
    from repro.service.jobs import CompileJob

    rng = _rng(seed, "paper_suite")
    seeds = rng.sample(range(1, 2**31), compile_seeds)
    return [
        CompileJob(
            workload=workload,
            num_qubits=16,
            rules=rules,
            trials=10,
            seed=compile_seed,
            target="snail_4x4",
            pipeline="noise_aware",
        )
        for compile_seed in seeds
        for workload in TABLE7_WORKLOADS
        for rules in RULE_ENGINES
    ]


# -- service_sweep ------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """One submission: its jobs and what kind of traffic it is."""

    kind: str  # "sweep" | "one_off" | "replay"
    jobs: tuple
    source: int = -1  # for replays: index of the batch replayed


def shard_of(job, shards: int = 2) -> int:
    """Which shard's digest range a job falls in (even prefix split)."""
    return int(job.identity_digest()[:4], 16) * shards // 0x10000


def service_batches(seed: int, min_jobs: int = SERVICE_MIN_JOBS) -> list[Batch]:
    """The service traffic: :data:`SERVICE_BATCHES`, then replays.

    Each new batch is followed by two exact replays of batches
    submitted so far; replays are appended until the run holds
    ``min_jobs`` jobs.  A sweep holds ``SWEEP_SIZE`` distinct workload
    seeds under one compile seed; a one-off one job.

    Each sweep's jobs split evenly between the two shards' digest
    ranges and the one-offs alternate (seeds are redrawn until a job
    lands on its shard): with one worker per shard and a few
    multi-second jobs per run, hash luck alone would otherwise swing a
    run's wall time by a third.
    """
    from repro.service.jobs import CompileJob

    rng = _rng(seed, "service_sweep")
    fixed = _rng(0, "service_one_offs")

    def balanced(make, shard, draw=rng):
        while True:
            job = make(_draw_seed(draw))
            if shard_of(job) == shard:
                return job

    batches: list[Batch] = []
    originals: list[int] = []
    one_offs = 0
    for kind, workload, width, topology in SERVICE_BATCHES:
        if kind == "sweep":
            target = topology + rng.choice(SPEED_SUFFIXES)
            compile_seed = _draw_seed(rng)
            jobs: list = []
            while len(jobs) < SWEEP_SIZE:
                job = balanced(
                    lambda s: CompileJob(
                        workload=workload,
                        num_qubits=width,
                        target=target,
                        seed=compile_seed,
                        workload_seed=s,
                    ),
                    len(jobs) % 2,
                )
                if job not in jobs:
                    jobs.append(job)
        else:
            jobs = [
                balanced(
                    lambda s: CompileJob(
                        workload=workload, num_qubits=width, target=topology,
                        seed=s,
                    ),
                    one_offs % 2,
                    draw=fixed,
                )
            ]
            one_offs += 1
        originals.append(len(batches))
        batches.append(Batch(kind, tuple(jobs)))
        for _ in range(2):
            source = rng.choice(originals)
            batches.append(Batch("replay", batches[source].jobs, source))
    while sum(len(b.jobs) for b in batches) < min_jobs:
        source = rng.choice(originals)
        batches.append(Batch("replay", batches[source].jobs, source))
    return batches


# -- synth_multistart ---------------------------------------------------------


@dataclass(frozen=True)
class SynthPair:
    """One synthesis request: a template shape and a target."""

    label: str
    basis: str  # basis pulse of the parallel-drive template
    repetitions: int  # template size K
    target: np.ndarray  # 4x4 target unitary
    seed: int  # multistart seed


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary (QR of a complex Ginibre matrix)."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z / np.sqrt(2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def named_unitary(name: str) -> np.ndarray:
    """Named two-qubit targets, written out here, not taken from the program."""
    s = 1 / np.sqrt(2)
    gates = {
        "CNOT": np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        ),
        "SWAP": np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        ),
        "iSWAP": np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]
        ),
        "sqrt_iSWAP": np.array(
            [[1, 0, 0, 0], [0, s, 1j * s, 0], [0, 1j * s, s, 0],
             [0, 0, 0, 1]]
        ),
    }
    if name == "B":
        # B = CAN(pi/2, pi/4, 0): exp(i/2 (pi/2 XX + pi/4 YY)).
        return canonical_unitary((np.pi / 2, np.pi / 4, 0.0))
    return gates[name].astype(complex)


def canonical_unitary(coords) -> np.ndarray:
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)) by eigendecomposition."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0 + 0j, -1.0])
    generator = sum(
        c * np.kron(p, p) for c, p in zip(coords, (x, y, z))
    ) / 2
    values, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


#: Named (target, basis pulse, K) pairs at template sizes that cover
#: the target (paper Table I).  iSWAP at K=1 is reachable (zero drive)
#: but never converges (README "Known failures").
NAMED_PAIRS = (
    ("CNOT", "iSWAP", 2),
    ("B", "iSWAP", 2),
    ("SWAP", "iSWAP", 3),
    ("sqrt_iSWAP", "sqrt_iSWAP", 1),
    ("iSWAP", "iSWAP", 1),
)
def synth_pairs(seed: int, haar: int) -> list[SynthPair]:
    """Every named pair plus ``haar`` Haar targets (at the K=3
    sqrt(iSWAP) size, which covers all), in seeded order.

    The named pairs use the same multistart seeds in every run (how
    many Nelder-Mead steps a start needs varies severalfold with its
    seed); the seed draws the Haar targets, their multistart seeds and
    the order.
    """
    rng = _rng(seed, "synth_multistart")
    fixed = _rng(0, "synth_named")
    unitary_rng = np.random.default_rng(_draw_seed(rng))
    pairs = [
        SynthPair(
            label=f"{name}@{basis}x{k}",
            basis=basis,
            repetitions=k,
            target=named_unitary(name),
            seed=_draw_seed(fixed),
        )
        for name, basis, k in NAMED_PAIRS
    ]
    for index in range(haar):
        pairs.append(
            SynthPair(
                label=f"haar{index}@sqrt_iSWAPx3",
                basis="sqrt_iSWAP",
                repetitions=3,
                target=haar_unitary(unitary_rng),
                seed=_draw_seed(rng),
            )
        )
    rng.shuffle(pairs)
    return pairs
