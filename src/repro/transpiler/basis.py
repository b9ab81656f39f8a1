"""Basis translation: 2Q blocks to priced pulse templates.

Consumes a routed, block-consolidated circuit and replaces every 2Q block
with its decomposition template (pulse gates carrying durations plus 1Q
layer placeholders).  Per the paper, the 1Q parameters themselves are not
solved — only durations matter for the decoherence fidelity model — so
layers are emitted as ``u1q`` placeholder gates of fixed duration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..core.decomposition_rules import (
    DecompositionRules,
    TemplateSpec,
    quantize_coordinates,
)
from ..kernels.weyl_batch import weyl_coordinates_many

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.cache import DecompositionCache

__all__ = ["translate_to_basis", "merge_adjacent_1q_placeholders"]


def _emit_layer(
    out: QuantumCircuit, qubits: tuple[int, ...], duration: float
) -> None:
    for qubit in qubits:
        out.append(Gate("u1q", (qubit,), duration=duration))


def translate_to_basis(
    circuit: QuantumCircuit,
    rules: DecompositionRules,
    cache: "DecompositionCache | None" = None,
) -> QuantumCircuit:
    """Replace every 2Q gate/block with its basis template.

    1Q gates become fixed-duration ``u1q`` placeholders; 2Q gates are
    classified by Weyl coordinates and templated via ``rules``.  Passing
    a :class:`~repro.service.cache.DecompositionCache` memoizes the
    coordinate-class -> template mapping across blocks, trials, worker
    processes, and runs; templates are pure functions of the
    (rules, coordinates) key, so cached runs are bit-identical to
    uncached ones.

    The hot path is batched per circuit, not per gate: all 2Q block
    matrices are stacked and classified with one
    :func:`repro.kernels.weyl_coordinates_many` call, templated with one
    :meth:`~repro.core.decomposition_rules.DecompositionRules.templates_for_many`
    (or, with a cache, one
    :meth:`~repro.service.cache.DecompositionCache.lookup_many` — a
    single disk round-trip and one write transaction per circuit).
    Both kernels are bit-identical to their scalar counterparts, so the
    emitted circuit matches the historical gate-at-a-time path exactly.

    Both paths classify the coordinates rounded to the cache's key grid
    (:func:`~repro.core.decomposition_rules.quantize_coordinates`), so
    every coordinate in one key bucket gets the same template whether
    or not a cache answers.
    """
    out = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_{rules.name}")
    one_q = rules.one_q_duration
    gates = list(circuit)
    matrices = []
    for gate in gates:
        if gate.num_qubits == 1:
            continue
        if gate.num_qubits != 2:
            raise ValueError(
                f"basis translation expects 1Q/2Q gates, got {gate.name}"
            )
        matrices.append(np.asarray(gate.to_matrix(), dtype=complex))
    specs: list[TemplateSpec] = []
    if matrices:
        coords = quantize_coordinates(weyl_coordinates_many(np.stack(matrices)))
        if cache is None:
            specs = rules.templates_for_many(coords)
        else:
            specs = cache.lookup_many(
                rules.cache_token, coords, rules.templates_for_many
            )
    next_spec = iter(specs)
    for gate in gates:
        if gate.num_qubits == 1:
            out.append(Gate("u1q", gate.qubits, duration=one_q))
            continue
        spec = next(next_spec)
        if spec.k == 0:
            # Identity-class block: it is purely local.
            if spec.layer_count:
                _emit_layer(out, gate.qubits, one_q)
            continue
        # Distribute layers: one before the first pulse, one after the
        # last, remaining layers between the leading pulses.
        interior_budget = max(spec.layer_count - 2, 0)
        leading = spec.layer_count >= 1
        trailing = spec.layer_count >= 2
        if leading:
            _emit_layer(out, gate.qubits, one_q)
        for index, pulse in enumerate(spec.pulses):
            out.append(
                Gate(
                    "pulse2q",
                    gate.qubits,
                    params=(float(pulse),),
                    duration=float(pulse),
                )
            )
            if index < len(spec.pulses) - 1 and interior_budget > 0:
                _emit_layer(out, gate.qubits, one_q)
                interior_budget -= 1
        if trailing:
            _emit_layer(out, gate.qubits, one_q)
    return out


def merge_adjacent_1q_placeholders(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse consecutive ``u1q`` placeholders per qubit into one.

    This is where a template's exterior layer merges with the circuit's
    own single-qubit gates and with the next template's leading layer
    (paper Sec. IV-B: they "naturally combine").
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    pending: dict[int, Gate] = {}

    def flush(qubit: int) -> None:
        gate = pending.pop(qubit, None)
        if gate is not None:
            out.append(gate)

    for gate in circuit:
        if gate.num_qubits == 1 and gate.name == "u1q":
            if gate.qubits[0] in pending:
                # Keep the wider duration: merged runs are one physical
                # 1Q gate (virtual-Z equalizes 1Q durations).
                existing = pending[gate.qubits[0]]
                duration = max(
                    existing.duration or 0.0, gate.duration or 0.0
                )
                pending[gate.qubits[0]] = Gate(
                    "u1q", gate.qubits, duration=duration
                )
            else:
                pending[gate.qubits[0]] = gate
            continue
        for qubit in gate.qubits:
            flush(qubit)
        out.append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    return out
