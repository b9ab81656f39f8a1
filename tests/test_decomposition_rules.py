"""Tests for decomposition rules, including Table-I construction proofs."""

import numpy as np
import pytest

from repro.core.decomposition_rules import (
    BASIS_DRIVE_ANGLES,
    NAMED_GATE_COUNTS,
    BaselineSqrtISwapRules,
    ParallelSqrtISwapRules,
    TemplateSpec,
    quantize_coordinates,
)
from repro.core.parallel_drive import ParallelDriveTemplate, synthesize
from repro.quantum.gates import CNOT, SWAP, canonical_gate
from repro.quantum.linalg import allclose_up_to_global_phase
from repro.quantum.makhlin import locally_equivalent
from repro.quantum.weyl import named_gate_coordinates


class TestTemplateSpec:
    def test_duration_formula(self):
        spec = TemplateSpec(pulses=(0.5, 0.5), layer_count=3)
        assert spec.k == 2
        assert spec.duration(0.25) == pytest.approx(1.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemplateSpec(pulses=(0.0,), layer_count=1)
        with pytest.raises(ValueError):
            TemplateSpec(pulses=(0.5,), layer_count=-1)


class TestConstructionProofs:
    """Numerical proofs of the Table-I named gate counts."""

    def _standard_template(self, basis: str, k: int) -> ParallelDriveTemplate:
        theta_c, theta_g = BASIS_DRIVE_ANGLES[basis]
        duration = (theta_c + theta_g) / (np.pi / 2)
        return ParallelDriveTemplate(
            gc=theta_c / duration,
            gg=theta_g / duration,
            pulse_duration=duration,
            steps_per_pulse=1,
            repetitions=k,
            parallel=False,
        )

    @pytest.mark.parametrize(
        "basis", ["iSWAP", "sqrt_iSWAP", "CNOT", "B", "sqrt_B"]
    )
    def test_cnot_reachable_at_tabulated_k(self, basis):
        k = NAMED_GATE_COUNTS[basis]["CNOT"]
        template = self._standard_template(basis, k)
        result = synthesize(
            template, named_gate_coordinates("CNOT"), seed=6, restarts=6,
            max_iterations=3000,
        )
        assert result.converged, f"{basis}: CNOT not reached at K={k}"

    @pytest.mark.parametrize("basis", ["iSWAP", "sqrt_iSWAP", "B"])
    def test_swap_reachable_at_tabulated_k(self, basis):
        k = NAMED_GATE_COUNTS[basis]["SWAP"]
        template = self._standard_template(basis, k)
        result = synthesize(
            template, named_gate_coordinates("SWAP"), seed=6, restarts=8,
            max_iterations=5000,
        )
        assert result.converged, f"{basis}: SWAP not reached at K={k}"

    @pytest.mark.parametrize("basis", ["iSWAP", "sqrt_iSWAP", "CNOT", "B"])
    def test_cnot_unreachable_below_tabulated_k(self, basis):
        k = NAMED_GATE_COUNTS[basis]["CNOT"] - 1
        if k == 0:
            pytest.skip("K=1 is the minimum template")
        template = self._standard_template(basis, k)
        result = synthesize(
            template, named_gate_coordinates("CNOT"), seed=6, restarts=3,
            max_iterations=1500,
        )
        assert not result.converged

    def test_fractional_copy_identities(self):
        """sqrt-basis pulses compose exactly into the full gate.

        This provides the proof chain for the large-K entries (e.g.
        K[SWAP](sqrt_CNOT) = 6 = 3 CNOTs x 2 sqrt-pulses each).
        """
        for basis in ("iSWAP", "CNOT", "B"):
            theta_c, theta_g = BASIS_DRIVE_ANGLES[f"sqrt_{basis}"]
            half = canonical_gate(theta_c + theta_g, theta_c - theta_g, 0)
            full_coords = named_gate_coordinates(basis)
            assert locally_equivalent(
                half @ half, canonical_gate(*full_coords)
            )

    def test_swap_from_three_cnots_identity(self):
        from repro.quantum.gates import H

        cnot_reversed = np.kron(H, H) @ CNOT @ np.kron(H, H)
        assert allclose_up_to_global_phase(
            CNOT @ cnot_reversed @ CNOT, SWAP, atol=1e-9
        )


class TestBaselineRules:
    def test_identity_is_free_pulse(self, baseline_rules):
        spec = baseline_rules.template_for(np.zeros(3))
        assert spec.k == 0
        assert spec.duration(0.25) == pytest.approx(0.25)

    def test_basis_gate_single_pulse(self, baseline_rules):
        spec = baseline_rules.template_for(
            named_gate_coordinates("sqrt_iSWAP")
        )
        assert spec.k == 1
        assert spec.duration(0.25) == pytest.approx(1.0)

    def test_cnot_paper_duration(self, baseline_rules):
        # Table III: D[CNOT] = 1.75 for baseline sqrt(iSWAP).
        duration = baseline_rules.duration(named_gate_coordinates("CNOT"))
        assert duration == pytest.approx(1.75)

    def test_swap_paper_duration(self, baseline_rules):
        duration = baseline_rules.duration(named_gate_coordinates("SWAP"))
        assert duration == pytest.approx(2.5)

    def test_generic_target_k_bounded(self, baseline_rules, rng):
        from repro.core.coverage import haar_coordinate_samples

        for coords in haar_coordinate_samples(50, seed=31):
            spec = baseline_rules.template_for(coords)
            assert 2 <= spec.k <= 3
            assert spec.layer_count == spec.k + 1


class TestParallelRules:
    def test_key_rounded_cx_family_keeps_its_pulse(self, parallel_rules):
        """CNOT's c1 rounds up by 3.2e-9 on the key grid; the pulse
        quantum must not round that up to a fifth quarter pulse."""
        cnot = named_gate_coordinates("CNOT")
        assert quantize_coordinates(cnot)[0] > cnot[0]
        for name, total in (("CNOT", 1.0), ("sqrt_CNOT", 0.5)):
            rounded = quantize_coordinates(named_gate_coordinates(name))
            spec = parallel_rules.template_for(rounded)
            assert spec.pulses == (total,)
            assert parallel_rules.templates_for_many(rounded[None])[0] == spec

    def test_quantize_folds_negative_zero(self):
        rounded = quantize_coordinates(np.array([-1e-12, -0.0, 0.5]))
        assert np.signbit(rounded).tolist() == [False, False, False]

    def test_cnot_paper_duration(self, parallel_rules):
        # Table V: D[CNOT] = 1.5 with interior layers absorbed.
        duration = parallel_rules.duration(named_gate_coordinates("CNOT"))
        assert duration == pytest.approx(1.5)

    def test_swap_joint_rule(self, parallel_rules):
        # Fig. 11: iSWAP + sqrt(iSWAP), 2.25 total.
        spec = parallel_rules.template_for(named_gate_coordinates("SWAP"))
        assert spec.pulses == (1.0, 0.5)
        assert spec.duration(0.25) == pytest.approx(2.25)

    def test_iswap_fractional_copies(self, parallel_rules):
        spec = parallel_rules.template_for(named_gate_coordinates("iSWAP"))
        assert spec.total_pulse_duration == pytest.approx(1.0)
        assert spec.duration(0.25) == pytest.approx(1.5)

    def test_small_cphase_fractional_pulse(self, parallel_rules):
        # A QFT-style small controlled phase: CAN(pi/16, 0, 0) costs one
        # pulse quantum plus two layers — far below the baseline 1.75.
        coords = np.array([np.pi / 16, 0.0, 0.0])
        duration = parallel_rules.duration(coords)
        assert duration == pytest.approx(0.25 + 0.5)

    def test_quantization_rounds_up(self, parallel_rules):
        coords = np.array([0.3 * np.pi / 2, 0.0, 0.0])  # 0.3 pulse
        spec = parallel_rules.template_for(coords)
        assert spec.total_pulse_duration == pytest.approx(0.5)

    def test_generic_target_cheaper_than_baseline(
        self, baseline_rules, parallel_rules
    ):
        from repro.core.coverage import haar_coordinate_samples

        haar = haar_coordinate_samples(100, seed=37)
        baseline_total = sum(baseline_rules.duration(c) for c in haar)
        parallel_total = sum(parallel_rules.duration(c) for c in haar)
        assert parallel_total < baseline_total

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelSqrtISwapRules(pulse_quantum=0.0)
        with pytest.raises(ValueError):
            BaselineSqrtISwapRules(one_q_duration=-0.1)
