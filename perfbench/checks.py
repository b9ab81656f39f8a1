"""Output checks, written independently of the program's own code paths.

Compile jobs are checked against the documented uncached reference
(``execute_job(job, use_cache=False)``; :func:`reference` runs the same
facade call but keeps the compiled circuit), and the reference circuit
is checked by recomputations that share no code with the compiler: the
ASAP makespan, the coupling edge of every 2Q pulse, and the fidelity
range.  Synthesis results are checked by recomputing Makhlin invariants
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance of the makespan recomputation.
MAKESPAN_RTOL = 1e-9
#: Largest Makhlin-invariant distance of an accepted synthesis result.
MAKHLIN_TOL = 1e-6


@dataclass
class Reference:
    """What the uncached reference compile produced, and its problems."""

    digest: str
    duration: float
    problems: list = field(default_factory=list)


def makespan(circuit, edge_scale: dict) -> float:
    """ASAP critical path: each gate starts when all its qubits are free."""
    ready: dict[int, float] = {}
    for gate in circuit:
        duration = float(gate.duration or 0.0)
        if len(gate.qubits) == 2:
            duration *= edge_scale.get(tuple(sorted(gate.qubits)), 1.0)
        start = max((ready.get(q, 0.0) for q in gate.qubits), default=0.0)
        for q in gate.qubits:
            ready[q] = start + duration
    return max(ready.values(), default=0.0)


def circuit_problems(circuit, duration, fidelity, target) -> list[str]:
    """Independent checks of one compiled circuit on its target."""
    problems = []
    edges = {tuple(sorted(edge)) for edge in target.edges}
    scale = {
        tuple(sorted(edge)): props.speed_limit_scale
        for edge, props in target.edge_overrides
    }
    recomputed = makespan(circuit, scale)
    if not math.isclose(
        recomputed, duration, rel_tol=MAKESPAN_RTOL, abs_tol=1e-12
    ):
        problems.append(
            f"makespan {recomputed!r} != reported duration {duration!r}"
        )
    for gate in circuit:
        if gate.name == "pulse2q" and tuple(sorted(gate.qubits)) not in edges:
            problems.append(f"pulse2q on non-edge {gate.qubits}")
            break
    if not 0.0 < fidelity <= 1.0:
        problems.append(f"fidelity {fidelity!r} outside (0, 1]")
    return problems


def reference(job) -> Reference:
    """Uncached compile of ``job`` plus the independent circuit checks.

    The body of ``execute_job(job, use_cache=False)``, keeping the
    circuit the result record drops (tests pin the digests equal).
    Module-level so process pools can run it.
    """
    from repro.circuits.workloads import get_workload
    from repro.service.jobs import circuit_digest
    from repro.targets import get_target
    from repro.transpiler.compiler import compile as compile_circuit

    circuit = get_workload(job.workload, job.num_qubits, seed=job.workload_seed)
    result = compile_circuit(
        circuit, config=job.config, seed=job.seed, cache=None
    )
    fidelity = (
        result.estimated_fidelity
        if result.estimated_fidelity is not None
        else math.nan
    )
    return Reference(
        digest=circuit_digest(result.circuit),
        duration=result.duration,
        problems=circuit_problems(
            result.circuit,
            result.duration,
            fidelity,
            get_target(job.config.target),
        ),
    )


def result_problems(result, ref: Reference) -> tuple[list[str], bool]:
    """Problems of a served/batched result against its reference.

    Returns ``(problems, known)``: ``known`` is True when the only
    problem is the documented cache divergence — the cached compile
    produced a different but valid circuit than the uncached reference.
    That fails the job without making the output incorrect.
    """
    if not result.ok:
        return [f"job error: {(result.error or '').strip()[-200:]}"], False
    problems = [f"reference: {p}" for p in ref.problems]
    if not 0.0 < result.estimated_fidelity <= 1.0:
        problems.append(
            f"fidelity {result.estimated_fidelity!r} outside (0, 1]"
        )
    if not result.duration > 0:
        problems.append(f"duration {result.duration!r} not positive")
    sane = not problems
    if result.digest != ref.digest:
        problems.append(
            f"digest differs from uncached reference (duration "
            f"{result.duration!r} vs {ref.duration!r})"
        )
        return problems, sane
    if result.duration != ref.duration:
        problems.append(
            f"same digest but duration {result.duration!r} vs "
            f"{ref.duration!r}"
        )
    return problems, False


# -- synthesis ----------------------------------------------------------------

_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]
) / np.sqrt(2)


def makhlin(unitary: np.ndarray) -> np.ndarray:
    """(Re G1, Im G1, G2): the local invariants of a 4x4 unitary."""
    unitary = np.asarray(unitary, dtype=complex)
    special = unitary / np.linalg.det(unitary) ** 0.25
    m = _MAGIC.conj().T @ special @ _MAGIC
    gram = m.T @ m
    trace = np.trace(gram)
    g1 = trace * trace / 16.0
    g2 = (trace * trace - np.trace(gram @ gram)) / 4.0
    return np.array([g1.real, g1.imag, g2.real])


def makhlin_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between the invariants of two unitaries."""
    return float(np.linalg.norm(makhlin(a) - makhlin(b)))
