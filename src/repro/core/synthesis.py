"""Explicit two-qubit gate synthesis into basis-gate circuits.

The transpiler's duration study only needs template *shapes* (the paper
does the same), but a deployable compiler must emit concrete gates.
This module closes that gap: given a target 2Q unitary it produces an
executable :class:`~repro.circuits.circuit.QuantumCircuit` over
``{u3, sqrt_iswap-pulse}`` whose simulated unitary matches the target to
machine/optimizer precision.

Strategy:

* targets on the canonical rays are built analytically from the KAK
  decomposition (exact);
* generic targets run the Nelder–Mead template search in Makhlin space,
  then solve the exterior local gates in closed form via a final KAK of
  the residual (exact once the class matches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..quantum.euler import u3_angles
from ..quantum.gates import canonical_gate
from ..quantum.kak import kak_decompose
from ..quantum.linalg import (
    allclose_up_to_global_phase,
    dagger,
    kron_factor_4x4,
    unitary_infidelity,
)
from ..quantum.weyl import weyl_coordinates
from .parallel_drive import ParallelDriveTemplate, synthesize

__all__ = ["SynthesizedCircuit", "synthesize_circuit", "exterior_locals"]

_HALF_PI = np.pi / 2

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
#: Locals A, B with CAN(c1, c2, c3) = A CAN(pi - c1, c2, -c3) B up to
#: phase: XX shifts c1 by pi, Z on one qubit flips c1 and c2, X on one
#: qubit flips c2 and c3.
_MIRROR_LEFT = np.kron(_X, _X) @ np.kron(_Z @ _X, np.eye(2))
_MIRROR_RIGHT = np.kron(_X @ _Z, np.eye(2))


@dataclass(frozen=True)
class SynthesizedCircuit:
    """A concrete basis-gate circuit realizing a 2Q target."""

    circuit: QuantumCircuit
    target: np.ndarray
    infidelity: float
    pulse_count: int

    def verify(self, atol: float = 1e-6) -> bool:
        """Re-simulate and compare against the target."""
        from ..circuits.simulation import circuit_unitary

        return allclose_up_to_global_phase(
            circuit_unitary(self.circuit), self.target, atol=atol
        )


def exterior_locals(
    achieved: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the exterior 1Q gates mapping ``achieved`` onto ``target``.

    Both must be in the same local-equivalence class.  Returns
    ``(k1l, k2l, k1r, k2r)`` with
    ``target ~ (k1l ⊗ k2l) achieved (k1r ⊗ k2r)`` up to global phase.
    """
    kak_target = kak_decompose(target)
    kak_achieved = kak_decompose(achieved)
    left_achieved = kak_achieved.left_local
    right_achieved = kak_achieved.right_local
    c1, c2, c3 = kak_achieved.coordinates
    if not np.allclose(kak_target.coordinates, (c1, c2, c3), atol=1e-5):
        if not np.allclose(
            kak_target.coordinates, (np.pi - c1, c2, -c3), atol=1e-5
        ):
            raise ValueError(
                "achieved unitary is not locally equivalent to the target: "
                f"{kak_achieved.coordinates} vs {kak_target.coordinates}"
            )
        # The chamber halves meet on the c3 = 0 face: a target there
        # may be reached from the mirror half, CAN(c) = A CAN(m) B.
        left_achieved = left_achieved @ _MIRROR_LEFT
        right_achieved = _MIRROR_RIGHT @ right_achieved
    # target = Lt CAN Rt, achieved = La CAN Ra  =>
    # target = (Lt La†) achieved (Ra† Rt).
    left = kak_target.left_local @ dagger(left_achieved)
    right = dagger(right_achieved) @ kak_target.right_local
    _, k1l, k2l = kron_factor_4x4(left)
    _, k1r, k2r = kron_factor_4x4(right)
    return k1l, k2l, k1r, k2r


def _append_local_pair(
    circuit: QuantumCircuit, k1: np.ndarray, k2: np.ndarray
) -> None:
    for qubit, factor in enumerate((k1, k2)):
        theta, phi, lam = u3_angles(factor)
        circuit.u3(theta, phi, lam, qubit)


def _append_pulse(circuit: QuantumCircuit, fraction: float) -> None:
    """One conversion-only pulse of the given iSWAP fraction."""
    angle = fraction * _HALF_PI
    circuit.append(
        Gate(
            "can",
            (0, 1),
            params=(angle, angle, 0.0),
            duration=fraction,
        )
    )


def _analytic_iswap_family(target: np.ndarray) -> QuantumCircuit | None:
    """Exact synthesis for iSWAP-ray targets (fractional copies)."""
    coords = weyl_coordinates(target)
    if abs(coords[0] - coords[1]) > 1e-9 or coords[2] > 1e-9:
        return None
    fraction = coords[0] / _HALF_PI
    circuit = QuantumCircuit(2, "iswap_family")
    kak = kak_decompose(target)
    _append_local_pair(circuit, kak.k1r, kak.k2r)
    if fraction > 1e-9:
        _append_pulse(circuit, fraction)
    _append_local_pair(circuit, kak.k1l, kak.k2l)
    return circuit


def synthesize_circuit(
    target: np.ndarray,
    max_pulses: int = 3,
    seed: int = 11,
    tolerance: float = 1e-7,
) -> SynthesizedCircuit:
    """Synthesize a concrete sqrt(iSWAP)-pulse circuit for a 2Q target.

    Raises:
        RuntimeError: when no template of up to ``max_pulses`` half
            pulses converges to the target class.
    """
    target = np.asarray(target, dtype=complex)
    circuit = _analytic_iswap_family(target)
    if circuit is not None:
        pulses = sum(1 for g in circuit if g.name == "can")
        achieved = _simulate(circuit)
        return SynthesizedCircuit(
            circuit=circuit,
            target=target,
            infidelity=unitary_infidelity(achieved, target),
            pulse_count=pulses,
        )

    last_error: Exception | None = None
    for k in range(1, max_pulses + 1):
        template = ParallelDriveTemplate(
            gc=_HALF_PI,
            gg=0.0,
            pulse_duration=0.5,
            steps_per_pulse=2,
            repetitions=k,
            parallel=False,
        )
        result = synthesize(
            template,
            target,
            seed=seed,
            restarts=6,
            max_iterations=4000,
            tolerance=tolerance,
            record_history=False,
        )
        if not result.converged:
            continue
        try:
            return _assemble(template, result.parameters, target)
        except ValueError as error:  # residual class drift
            last_error = error
            continue
    raise RuntimeError(
        f"no sqrt(iSWAP) template with K <= {max_pulses} reached the "
        f"target class {np.round(weyl_coordinates(target), 4)}"
        + (f" ({last_error})" if last_error else "")
    )


def _assemble(
    template: ParallelDriveTemplate,
    parameters: np.ndarray,
    target: np.ndarray,
) -> SynthesizedCircuit:
    """Turn converged template parameters into an explicit circuit."""
    from ..quantum.gates import u3 as u3_matrix

    achieved = template.unitary(parameters)
    k1l, k2l, k1r, k2r = exterior_locals(achieved, target)
    _, locals_params = template.split_parameters(parameters)

    circuit = QuantumCircuit(2, "synthesized")
    _append_local_pair(circuit, k1r, k2r)
    for index in range(template.repetitions):
        _append_pulse(circuit, template.pulse_duration)
        if index < len(locals_params):
            angles = locals_params[index]
            circuit.u3(*angles[:3], 0)
            circuit.u3(*angles[3:], 1)
    _append_local_pair(circuit, k1l, k2l)

    simulated = _simulate(circuit)
    infidelity = unitary_infidelity(simulated, target)
    return SynthesizedCircuit(
        circuit=circuit,
        target=target,
        infidelity=infidelity,
        pulse_count=template.repetitions,
    )


def _simulate(circuit: QuantumCircuit) -> np.ndarray:
    from ..circuits.simulation import circuit_unitary

    return circuit_unitary(circuit)
