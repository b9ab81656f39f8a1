"""Tests for explicit circuit synthesis (beyond duration templates)."""

import numpy as np
import pytest

from repro.core.synthesis import exterior_locals, synthesize_circuit
from repro.quantum import gates
from repro.quantum.random import haar_unitary, random_local_pair
from repro.quantum.weyl import named_gate_coordinates


class TestExteriorLocals:
    def test_recovers_dressing(self, rng):
        base = gates.canonical_gate(0.8, 0.5, 0.2)
        left = random_local_pair(rng)
        right = random_local_pair(rng)
        target = left @ base @ right
        k1l, k2l, k1r, k2r = exterior_locals(base, target)
        rebuilt = np.kron(k1l, k2l) @ base @ np.kron(k1r, k2r)
        from repro.quantum.linalg import allclose_up_to_global_phase

        assert allclose_up_to_global_phase(rebuilt, target, atol=1e-6)

    def test_reaches_target_from_the_mirror_half(self, rng):
        """Near the c3 = 0 face, (pi - c1, c2, -c3) is the same class."""
        achieved = gates.canonical_gate(3 * np.pi / 4, 1.5e-7, 6.9e-9)
        target = (
            random_local_pair(rng)
            @ gates.canonical_gate(np.pi / 4, 0.0, 0.0)
            @ random_local_pair(rng)
        )
        k1l, k2l, k1r, k2r = exterior_locals(achieved, target)
        rebuilt = np.kron(k1l, k2l) @ achieved @ np.kron(k1r, k2r)
        from repro.quantum.linalg import unitary_infidelity

        assert unitary_infidelity(rebuilt, target) < 1e-10

    def test_rejects_different_class(self):
        with pytest.raises(ValueError):
            exterior_locals(gates.CNOT, gates.SWAP)


class TestAnalyticFamily:
    def test_iswap_target(self):
        result = synthesize_circuit(gates.ISWAP)
        assert result.pulse_count == 1
        assert result.verify(atol=1e-6)

    def test_sqrt_iswap_target(self):
        result = synthesize_circuit(gates.SQRT_ISWAP)
        assert result.pulse_count == 1
        assert result.verify(atol=1e-6)

    def test_local_gate_target(self, rng):
        result = synthesize_circuit(random_local_pair(rng))
        assert result.pulse_count == 0
        assert result.verify(atol=1e-6)

    def test_dcnot_is_iswap_family(self):
        result = synthesize_circuit(gates.DCNOT)
        assert result.pulse_count == 1
        assert result.verify(atol=1e-6)


@pytest.mark.slow
class TestNumericSynthesis:
    def test_cnot_two_pulses(self):
        result = synthesize_circuit(gates.CNOT, seed=3)
        assert result.pulse_count == 2
        assert result.infidelity < 1e-5
        assert result.verify(atol=1e-4)

    def test_swap_three_pulses(self):
        result = synthesize_circuit(gates.SWAP, seed=3)
        assert result.pulse_count == 3
        assert result.infidelity < 1e-5

    def test_random_targets(self, rng):
        for _ in range(3):
            target = haar_unitary(4, rng)
            result = synthesize_circuit(target, seed=5)
            assert result.pulse_count <= 3
            assert result.infidelity < 1e-4

    def test_emitted_circuit_vocabulary(self):
        result = synthesize_circuit(gates.CNOT, seed=3)
        names = {g.name for g in result.circuit}
        assert names <= {"u3", "can"}


@pytest.mark.slow
class TestRulesAgainstSynthesis:
    def test_transpiled_block_templates_are_achievable(self, baseline_rules):
        """Rule-assigned K values admit explicit K-pulse circuits.

        Routes a QFT, consolidates blocks, and for small-K blocks checks
        that an explicit synthesis with at most K pulses exists and
        simulates to the block unitary.
        """
        from repro.circuits import get_workload
        from repro.quantum.weyl import weyl_coordinates
        from repro.transpiler import (
            line_topology,
            route_circuit,
            trivial_layout,
        )
        from repro.transpiler.consolidate import (
            collect_2q_blocks,
            merge_1q_runs,
        )

        coupling = line_topology(6)
        circuit = get_workload("qft", 6)
        routed = route_circuit(
            circuit, coupling, trivial_layout(6, coupling), seed=1
        )
        blocked = collect_2q_blocks(merge_1q_runs(routed.circuit))
        checked = 0
        for gate in blocked:
            if gate.num_qubits != 2 or checked >= 3:
                continue
            coords = weyl_coordinates(gate.to_matrix())
            spec = baseline_rules.template_for(coords)
            if 0 < spec.k <= 2:
                result = synthesize_circuit(
                    gate.to_matrix(), max_pulses=spec.k, seed=3
                )
                assert result.pulse_count <= spec.k
                assert result.infidelity < 1e-4
                checked += 1
        assert checked >= 2
