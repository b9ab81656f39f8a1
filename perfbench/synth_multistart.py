"""synth_multistart: ``SynthesisEngine.synthesize_multistart`` in-process.

Rank strategy, 16 starts, ``nproc`` refinements fanned over ``nproc``
workers, on every named (template size, target) pair plus Haar targets
(see :func:`inputs.synth_pairs`).  Each solve is one job.
"""

from __future__ import annotations

import numpy as np

import checks
import inputs
import shims
from common import NPROC, median, now
from runner import cpu_seconds_of, finish, probe_setups, traced_pass

STARTS = 16
#: Seconds of the ``--seconds`` budget one Haar-target solve is sized to.
SECONDS_PER_HAAR_TARGET = 5.0


def ready():
    """A synthesis user's process is ready once it holds an engine."""
    from repro.synthesis import SynthesisEngine

    return SynthesisEngine("piecewise", workers=NPROC)


def template_for(engine, pair):
    """Parallel-drive template of ``pair.repetitions`` basis pulses."""
    from repro.core.decomposition_rules import BASIS_DRIVE_ANGLES

    theta_c, theta_g = BASIS_DRIVE_ANGLES[pair.basis]
    duration = (theta_c + theta_g) / (np.pi / 2)
    return engine.template(
        gc=theta_c / duration,
        gg=theta_g / duration,
        pulse_duration=duration,
        repetitions=pair.repetitions,
        parallel=True,
    )


def solve_pass(engine, pairs) -> dict:
    """Solve every pair once; per-solve latency and output."""
    solved = []
    start = now()
    for pair in pairs:
        template = template_for(engine, pair)
        began = now()
        outcome = engine.synthesize_multistart(
            template,
            pair.target,
            starts=STARTS,
            refine=NPROC,
            seed=pair.seed,
            strategy="rank",
        )
        solved.append((pair, template, outcome, now() - began))
    return {"solved": solved, "wall": now() - start}


def check(res, solved) -> None:
    """Recompute the Makhlin invariants of every returned unitary.

    A solve that did not reach its target fails; it is a documented
    failure (not an incorrect output) when the program reported exactly
    that — its loss matches the recomputed distance and it did not
    claim convergence.
    """
    for pair, template, outcome, _ in solved:
        unitary = template.unitary(outcome.best.parameters)
        distance = checks.makhlin_distance(unitary, pair.target)
        honest = abs(distance - outcome.best.loss) <= checks.MAKHLIN_TOL
        problems = []
        if distance > checks.MAKHLIN_TOL:
            problems.append(f"invariant distance {distance:.3g} to target")
        if not honest:
            problems.append(
                f"reported loss {outcome.best.loss:.3g} != recomputed "
                f"{distance:.3g}"
            )
        if outcome.converged and distance > checks.MAKHLIN_TOL:
            problems.append("claims convergence")
        res.record(
            not problems,
            f"{pair.label}: {'; '.join(problems)}",
            known=len(problems) == 1 and honest,
        )


def run(seed: int, seconds: int, trace: bool, res, clock, scratch) -> None:
    engine = ready()
    main_setup = clock.since_start()
    pairs = inputs.synth_pairs(
        seed, max(1, round(seconds / SECONDS_PER_HAAR_TARGET))
    )
    untraced, cpu = cpu_seconds_of(lambda: solve_pass(engine, pairs))
    passes = [untraced]
    layers = {}
    if trace:
        traced, spans, counters = traced_pass(
            "synth_multistart", seed, lambda: solve_pass(engine, pairs),
            synthesis=True,
        )
        passes.append(traced)
        layers = shims.layer_metrics(spans, counters)
        layers["trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
        layers["process.cpu_utilization"] = cpu / (untraced["wall"] * NPROC)
        layers["synth.solve_latency_p50_s"] = median(
            seconds_ for *_, seconds_ in untraced["solved"]
        )
    for one in passes:
        check(res, one["solved"])
    finish(
        res,
        trace=trace,
        setup=lambda: [main_setup]
        + probe_setups("synth_multistart", 2),
        jobs=len(pairs),
        wall=untraced["wall"],
        layers=layers,
    )
