"""Tests for the pass-manager compiler API.

Covers the passes package (each stage in isolation, property-set
threading, per-pass profiling), the pipeline and selection registries,
``CompilerConfig`` + the ``repro.compile`` facade, and the digest-parity
guarantees: ``PassManager("paper")`` must reproduce legacy
``transpile()`` gate-for-gate, and the per-trial RNG streams spawned
from a job seed are pinned by exact circuit digests.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.workloads import get_workload
from repro.service.jobs import circuit_digest
from repro.transpiler.compiler import CompilerConfig
from repro.transpiler.coupling import line_topology, square_lattice
from repro.transpiler.layout import trivial_layout
from repro.transpiler.passes import (
    Collect2QBlocks,
    Merge1QRuns,
    MergePlaceholders,
    Pass,
    PassContext,
    PassManager,
    PassProfile,
    PipelineSpec,
    RandomLayout,
    Route,
    Schedule,
    SelectionStrategy,
    SetLayout,
    TranslateToBasis,
    TrivialLayout,
    get_pipeline,
    get_selection,
    known_pipelines,
    known_selections,
    register_pipeline,
    register_selection,
    spawn_trial_rngs,
)
from repro.transpiler.pipeline import transpile, transpile_once


@pytest.fixture(scope="module")
def lattice():
    return square_lattice(2, 4)


def _context(circuit, coupling, rules, seed=0, **kwargs):
    return PassContext(
        circuit=circuit,
        coupling=coupling,
        rules=rules,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestIndividualPasses:
    """Each stage runs in isolation on a hand-built circuit."""

    def test_layout_passes(self, baseline_rules):
        coupling = line_topology(4)
        circuit = QuantumCircuit(3).add("h", [0]).add("cx", [0, 2])
        ctx = _context(circuit, coupling, baseline_rules)
        TrivialLayout().run(ctx)
        assert [ctx.layout.physical(i) for i in range(3)] == [0, 1, 2]
        ctx = _context(circuit, coupling, baseline_rules, seed=3)
        RandomLayout().run(ctx)
        assert ctx.layout.num_logical == 3
        fixed = trivial_layout(3, coupling)
        ctx = _context(circuit, coupling, baseline_rules)
        SetLayout(fixed).run(ctx)
        assert ctx.layout.as_dict() == fixed.as_dict()
        assert ctx.layout is not fixed  # defensive copy

    def test_route_inserts_swaps_for_distant_pair(self, baseline_rules):
        coupling = line_topology(4)
        circuit = QuantumCircuit(4).add("cx", [0, 3])
        ctx = _context(circuit, coupling, baseline_rules)
        TrivialLayout().run(ctx)
        Route().run(ctx)
        assert ctx.routing is not None
        assert ctx.routing.swap_count == 2  # distance 3 -> two swaps
        assert ctx.circuit is ctx.routing.circuit

    def test_route_requires_layout(self, baseline_rules):
        circuit = QuantumCircuit(2).add("cx", [0, 1])
        ctx = _context(circuit, line_topology(2), baseline_rules)
        with pytest.raises(ValueError, match="no 'layout'"):
            Route().run(ctx)

    def test_route_adopts_preset_routing(self, baseline_rules):
        from repro.transpiler.routing import route_circuit

        coupling = line_topology(3)
        circuit = QuantumCircuit(3).add("cx", [0, 2])
        shared = route_circuit(
            circuit, coupling, trivial_layout(3, coupling), seed=5
        )
        ctx = _context(circuit, coupling, baseline_rules, routing=shared)
        Route().run(ctx)
        assert ctx.routing is shared
        assert ctx.circuit is shared.circuit

    def test_merge_1q_runs(self, baseline_rules):
        circuit = (
            QuantumCircuit(2)
            .add("h", [0]).add("h", [0]).add("h", [1]).add("cx", [0, 1])
        )
        ctx = _context(circuit, line_topology(2), baseline_rules)
        Merge1QRuns().run(ctx)
        names = [g.name for g in ctx.circuit]
        assert names == ["u1q", "u1q", "cx"]

    def test_collect_2q_blocks(self, baseline_rules):
        circuit = (
            QuantumCircuit(2)
            .add("cx", [0, 1]).add("h", [0]).add("cx", [0, 1])
        )
        ctx = _context(circuit, line_topology(2), baseline_rules)
        Collect2QBlocks().run(ctx)
        assert [g.name for g in ctx.circuit] == ["block"]

    def test_translate_and_merge_placeholders(self, baseline_rules):
        circuit = QuantumCircuit(2).add("h", [0]).add("cx", [0, 1])
        ctx = _context(circuit, line_topology(2), baseline_rules)
        TranslateToBasis().run(ctx)
        assert all(g.name in ("u1q", "pulse2q") for g in ctx.circuit)
        assert all(g.duration is not None for g in ctx.circuit)
        before = len(ctx.circuit)
        MergePlaceholders().run(ctx)
        assert len(ctx.circuit) <= before

    def test_schedule_pass(self, baseline_rules):
        circuit = QuantumCircuit(2).add("cx", [0, 1])
        ctx = _context(circuit, line_topology(2), baseline_rules)
        TranslateToBasis().run(ctx)
        Schedule("asap").run(ctx)
        asap_duration = ctx.schedule.total_duration
        Schedule("alap").run(ctx)
        assert ctx.schedule.total_duration == pytest.approx(asap_duration)

    def test_schedule_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Schedule("greedy")


class TestPassContext:
    def test_property_set_threading(self, baseline_rules, lattice):
        """User passes communicate via the free-form properties dict."""

        class CountPulses(Pass):
            def run(self, context: PassContext) -> None:
                context.properties["pulses"] = sum(
                    1 for g in context.circuit if g.name == "pulse2q"
                )

        class AssertCounted(Pass):
            def run(self, context: PassContext) -> None:
                context.properties["echo"] = context.properties["pulses"]

        circuit = get_workload("ghz", 4)
        manager = PassManager(
            [
                TrivialLayout(),
                Route(),
                TranslateToBasis(),
                CountPulses(),
                AssertCounted(),
                Schedule("asap"),
            ],
            name="counted",
        )
        ctx = manager.run_once(circuit, lattice, baseline_rules, seed=1)
        assert ctx.properties["pulses"] > 0
        assert ctx.properties["echo"] == ctx.properties["pulses"]

    def test_require_names_missing_field(self, baseline_rules):
        ctx = _context(QuantumCircuit(2), line_topology(2), baseline_rules)
        with pytest.raises(ValueError, match="no 'schedule'"):
            ctx.require("schedule")


class TestPassProfile:
    def test_records_every_pass_per_trial(self, baseline_rules, lattice):
        profile = PassProfile()
        manager = PassManager("paper", trials=3)
        manager.run(
            get_workload("ghz", 6), lattice, baseline_rules,
            seed=7, profile=profile,
        )
        # 7 stage passes per trial (layout + 6 pipeline stages).
        assert len(profile) == 3 * 7
        by_pass = profile.by_pass()
        assert by_pass["Route"]["calls"] == 3
        assert by_pass["TrivialLayout"]["calls"] == 1
        assert by_pass["RandomLayout"]["calls"] == 2
        assert by_pass["Schedule[asap]"]["calls"] == 3

    def test_timing_monotonicity(self, baseline_rules, lattice):
        """Wall times are non-negative and accumulate monotonically."""
        profile = PassProfile()
        PassManager("paper", trials=2).run(
            get_workload("ghz", 4), lattice, baseline_rules,
            seed=3, profile=profile,
        )
        assert all(r.wall_time_s >= 0.0 for r in profile.records)
        cumulative = 0.0
        for record in profile.records:
            new_total = cumulative + record.wall_time_s
            assert new_total >= cumulative
            cumulative = new_total
        assert profile.total_wall_time == pytest.approx(cumulative)

    def test_gate_count_deltas(self, baseline_rules, lattice):
        profile = PassProfile()
        PassManager("paper", trials=1).run(
            get_workload("qft", 4), lattice, baseline_rules,
            seed=3, profile=profile,
        )
        by_pass = profile.by_pass()
        # Translation expands blocks into pulse templates; the merge
        # pass only ever removes placeholders.
        assert (
            by_pass["TranslateToBasis"]["gates_out"]
            > by_pass["TranslateToBasis"]["gates_in"]
        )
        assert (
            by_pass["MergePlaceholders"]["gates_out"]
            <= by_pass["MergePlaceholders"]["gates_in"]
        )

    def test_round_trip_and_table(self, baseline_rules, lattice):
        profile = PassProfile()
        PassManager("paper", trials=1).run(
            get_workload("ghz", 4), lattice, baseline_rules,
            seed=3, profile=profile,
        )
        clone = PassProfile.from_dict(
            json.loads(json.dumps(profile.to_dict()))
        )
        assert clone.to_dict() == profile.to_dict()
        table = profile.format_table()
        assert "TranslateToBasis" in table
        assert "TOTAL" in table


class TestDigestParity:
    """PassManager('paper') == legacy transpile(), gate for gate."""

    @pytest.mark.parametrize("engine", ["baseline", "parallel"])
    def test_manager_reproduces_transpile(
        self, engine, baseline_rules, parallel_rules, lattice
    ):
        rules = baseline_rules if engine == "baseline" else parallel_rules
        circuit = get_workload("qft", 8)
        legacy = transpile(circuit, lattice, rules, trials=3, seed=7)
        managed = PassManager("paper", trials=3).run(
            circuit, lattice, rules, seed=7
        )
        assert circuit_digest(managed.circuit) == circuit_digest(
            legacy.circuit
        )
        assert managed.trial_index == legacy.trial_index
        assert managed.duration == pytest.approx(legacy.duration)

    def test_transpile_once_matches_run_once(self, baseline_rules, lattice):
        circuit = get_workload("ghz", 8)
        layout = trivial_layout(8, lattice)
        legacy = transpile_once(
            circuit, lattice, baseline_rules, layout, seed=5
        )
        ctx = PassManager("paper").run_once(
            circuit, lattice, baseline_rules, layout=layout, seed=5
        )
        assert circuit_digest(ctx.circuit) == circuit_digest(legacy.circuit)


class TestTrialStreams:
    """Per-trial RNG streams spawned from the job seed (SeedSequence)."""

    #: Exact digests for (workload, rules) at trials=3, seed=7 on the
    #: 2x4 lattice.  These pin the SeedSequence.spawn trial-stream
    #: derivation: any change to per-trial seeding, layout order, or
    #: routing tie-breaks shows up here first.
    PINNED = {
        ("ghz", "baseline"): (
            "f5b64634a6042fdcf7caca2fffc428a1d7e246f73ac31bd5fcdc741fcae593a3"
        ),
        ("ghz", "parallel"): (
            "4b4c91ebf810613a1345bea3d962b27e733f298f5444702f610639acace13cd0"
        ),
        ("qft", "baseline"): (
            "aec44036a15febf4ac19092f6e3dad42879bf8d20bd08f26b60ccc8a8074ae25"
        ),
        ("qft", "parallel"): (
            "957ff9fbeb65bd49b8937d3cfc5ddfdf4c72303e58a86223033728843a7b7361"
        ),
    }

    @pytest.mark.parametrize("workload", ["ghz", "qft"])
    @pytest.mark.parametrize("engine", ["baseline", "parallel"])
    def test_pinned_digests(
        self, workload, engine, baseline_rules, parallel_rules, lattice
    ):
        rules = baseline_rules if engine == "baseline" else parallel_rules
        result = transpile(
            get_workload(workload, 8), lattice, rules, trials=3, seed=7
        )
        assert circuit_digest(result.circuit) == self.PINNED[
            (workload, engine)
        ]

    def test_winning_trial_exercises_random_layout(
        self, parallel_rules, lattice
    ):
        """The qft pin covers a random-layout trial, not just trial 0."""
        result = transpile(
            get_workload("qft", 8), lattice, parallel_rules, trials=3, seed=7
        )
        assert result.trial_index > 0

    def test_each_trial_independently_reproducible(
        self, parallel_rules, lattice
    ):
        """Trial i can be re-run standalone from (seed, i) alone."""
        from repro.transpiler.layout import random_layout

        circuit = get_workload("qft", 8)
        manager = PassManager("paper", trials=3)
        best = manager.run(circuit, lattice, parallel_rules, seed=7)
        streams = spawn_trial_rngs(7, 3)
        rng = streams[best.trial_index]
        layout = (
            trivial_layout(8, lattice)
            if best.trial_index == 0
            else random_layout(8, lattice, rng)
        )
        ctx = manager.run_once(
            circuit, lattice, parallel_rules, layout=layout, seed=rng,
            trial_index=best.trial_index,
        )
        assert circuit_digest(ctx.circuit) == circuit_digest(best.circuit)

    def test_spawn_validates_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            spawn_trial_rngs(7, 0)

    def test_streams_differ_between_trials(self):
        a, b = spawn_trial_rngs(42, 2)
        assert a.random() != b.random()


class TestSelectionRegistry:
    def test_known_strategies(self):
        assert {"duration", "fidelity"} <= set(known_selections())
        assert get_selection("duration").name == "duration"
        assert get_selection("fidelity").requires_fidelity

    def test_unknown_selection(self):
        with pytest.raises(ValueError, match="unknown selection"):
            get_selection("coin_flip")

    def test_duplicate_registration_rejected(self):
        from repro.transpiler.passes.selection import DurationSelection

        with pytest.raises(ValueError, match="already registered"):
            register_selection(DurationSelection())

    def test_custom_strategy_drives_trial_choice(
        self, baseline_rules, lattice
    ):
        class MostSwaps(SelectionStrategy):
            name = "test_most_swaps"

            def better(self, candidate, incumbent):
                return candidate.swap_count > incumbent.swap_count

        register_selection(MostSwaps(), replace=True)
        circuit = get_workload("qft", 8)
        most = PassManager(
            "paper", trials=3, selection="test_most_swaps"
        ).run(circuit, lattice, baseline_rules, seed=7)
        least = PassManager("paper", trials=3).run(
            circuit, lattice, baseline_rules, seed=7
        )
        assert most.swap_count >= least.swap_count

    def test_fidelity_selection_needs_model(self, baseline_rules, lattice):
        with pytest.raises(ValueError, match="needs a fidelity_model"):
            PassManager("paper", trials=2, selection="fidelity").run(
                get_workload("ghz", 4), lattice, baseline_rules, seed=1
            )


class TestPipelineRegistry:
    def test_presets_registered(self):
        assert {"paper", "noise_aware", "fast"} <= set(known_pipelines())

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            get_pipeline("warp_speed")

    def test_paper_spec_shape(self):
        spec = get_pipeline("paper")
        assert (spec.scheduler, spec.selection, spec.trials) == (
            "asap", "duration", 10,
        )
        names = [type(p).__name__ for p in spec.build_passes()]
        assert names == [
            "Route", "Merge1QRuns", "Collect2QBlocks", "TranslateToBasis",
            "MergePlaceholders", "Schedule",
        ]

    def test_fast_skips_consolidation_single_trial(self):
        spec = get_pipeline("fast")
        assert spec.trials == 1
        assert not spec.randomize_layout
        names = [type(p).__name__ for p in spec.build_passes()]
        assert "Merge1QRuns" not in names
        assert "Collect2QBlocks" not in names

    def test_fast_pipeline_runs(self, baseline_rules, lattice):
        result = PassManager("fast").run(
            get_workload("ghz", 6), lattice, baseline_rules, seed=1
        )
        assert result.trial_index == 0
        assert result.duration > 0

    def test_register_custom_pipeline(self, baseline_rules, lattice):
        register_pipeline(
            PipelineSpec(
                name="test_alap_single",
                description="unit-test pipeline",
                scheduler="alap",
                trials=1,
            ),
            replace=True,
        )
        result = PassManager("test_alap_single").run(
            get_workload("ghz", 4), lattice, baseline_rules, seed=1
        )
        assert result.duration > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            PipelineSpec(name="x", description="", scheduler="greedy")
        with pytest.raises(ValueError, match="trials"):
            PipelineSpec(name="x", description="", trials=0)


class TestPassManagerConstruction:
    def test_explicit_sequence_rejects_scheduler_kwarg(self):
        with pytest.raises(ValueError, match="named pipelines"):
            PassManager([Route()], scheduler="alap")

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="at least one trial"):
            PassManager("paper", trials=0)

    def test_repr(self):
        text = repr(PassManager("paper"))
        assert "paper" in text and "trials=10" in text


class TestCompilerConfig:
    def test_json_round_trip(self):
        config = CompilerConfig(
            pipeline="noise_aware", rules="baseline", target="line_16",
            trials=4,
        )
        assert CompilerConfig.from_json(config.to_json()) == config

    def test_pipeline_default_resolution(self):
        config = CompilerConfig(pipeline="noise_aware")
        assert config.trials is None
        assert config.resolved_trials == 10
        assert config.resolved_scheduler == "alap"
        assert config.resolved_selection == "fidelity"
        explicit = CompilerConfig(pipeline="noise_aware", scheduler="asap")
        assert explicit.resolved_scheduler == "asap"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            CompilerConfig(pipeline="warp_speed")
        with pytest.raises(ValueError, match="unknown rules"):
            CompilerConfig(rules="nope")
        with pytest.raises(ValueError, match="unknown scheduler"):
            CompilerConfig(scheduler="greedy")
        with pytest.raises(ValueError, match="unknown selection"):
            CompilerConfig(selection="coin_flip")
        with pytest.raises(ValueError, match="trials"):
            CompilerConfig(trials=0)

    def test_with_overrides_ignores_none(self):
        config = CompilerConfig(trials=5)
        assert config.with_overrides(trials=None) is config
        assert config.with_overrides(trials=2).trials == 2

    def test_build_manager(self):
        manager = CompilerConfig(pipeline="fast").build_manager()
        assert manager.trials == 1


class TestCompileFacade:
    def test_facade_on_named_target(self):
        result = repro.compile(
            get_workload("ghz", 6),
            target="square_2x3",
            config=repro.CompilerConfig(trials=2),
            seed=7,
        )
        assert result.duration > 0
        assert 0.0 < result.estimated_fidelity <= 1.0

    def test_facade_accepts_target_object(self):
        from repro.targets import get_target

        target = get_target("square_2x3")
        result = repro.compile(
            get_workload("ghz", 6),
            target=target,
            config=repro.CompilerConfig(pipeline="fast"),
        )
        assert result.trial_index == 0

    def test_facade_collects_profile(self):
        profile = PassProfile()
        repro.compile(
            get_workload("ghz", 4),
            target="square_2x2",
            config=repro.CompilerConfig(pipeline="fast"),
            profile=profile,
        )
        assert len(profile) > 0

    def test_facade_matches_engine_digest(self):
        """repro.compile == BatchEngine's execute_job, byte for byte."""
        from repro.service.engine import execute_job
        from repro.service.jobs import CompileJob

        job = CompileJob(
            workload="ghz", num_qubits=6, trials=2, seed=7,
            target="square_2x3",
        )
        engine_result = execute_job(job, use_cache=False)
        assert engine_result.ok, engine_result.error
        facade = repro.compile(
            get_workload("ghz", 6, seed=job.workload_seed),
            config=job.config,
            seed=job.seed,
        )
        assert circuit_digest(facade.circuit) == engine_result.digest
