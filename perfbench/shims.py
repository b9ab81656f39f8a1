"""Timing shims for the traced run, and the per-layer metrics they feed.

:func:`install` wraps the program's public entry points behind every
per-layer metric so each call records a span through
:func:`repro.obs.span` (tracing off makes every shim a no-op span).  The
two per-evaluation hot calls of synthesis — a template's ``unitary`` and
``makhlin_invariants`` — run thousands of times per solve, so their
shims count calls and seconds in the metrics registry instead.  Spans
and counts cross process boundaries on the program's own freight
channels: ``BatchEngine`` workers, compile-service workers (shimmed via
``launch.py``, which forks them), and — for synthesis refinements —
a freight-capturing wrapper around ``fan_out``.

:func:`layer_metrics` turns the span list into per-layer numbers.
Every ``.s`` metric is a *self* time: span duration minus the part of
its interval covered by its child spans, so layers do not double-count
each other.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from common import PASS_NAMES

_INSTALLED = False


def _rows(value) -> int:
    try:
        shape = getattr(value, "shape", None)
        if shape is not None:
            return int(shape[0]) if len(shape) > 1 else 1
        return len(value)
    except TypeError:
        return 1


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def _span_function(name: str, rows_arg: int | None):
    from repro.obs import span

    def decorate(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = {}
            if rows_arg is not None and len(args) > rows_arg:
                attrs["rows"] = _rows(args[rows_arg])
            with span(name, **attrs):
                return original(*args, **kwargs)

        return wrapper

    return decorate


def _wrap_function(module, attr: str, name: str, rows_arg=None) -> None:
    original = getattr(module, attr)
    wrapper = _span_function(name, rows_arg)(original)
    _rebind(original, wrapper)


def _wrap_method(cls, attr: str, name: str, rows_arg=None) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, _span_function(name, rows_arg)(original))


def _counted(original, prefix: str):
    """Registry-counting shim for per-evaluation hot calls."""
    from repro.obs import metrics

    calls = metrics.counter(f"bench.{prefix}.calls")
    seconds = metrics.counter(f"bench.{prefix}.seconds")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            calls.inc()
            seconds.inc(time.perf_counter() - start)

    return wrapper


def _pass_shim(cls, name: str):
    from repro.obs import span

    original = cls.__dict__["run"]

    @functools.wraps(original)
    def run(self, context):
        with span(f"passes.{name}") as opened:
            original(self, context)
            attrs = {"gates_after": len(context.circuit)}
            if name == "Route" and context.routing is not None:
                attrs["swaps"] = int(context.routing.swap_count)
            opened.set(**attrs)

    cls.run = run


def _coverage_load_shim(original):
    from repro.obs import span

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = original.cache_info().misses
        with span("rules.coverage_for_basis") as opened:
            value = original(*args, **kwargs)
            opened.set(loaded=original.cache_info().misses > before)
        return value

    return wrapper


def _coverage_read_shim(original):
    from repro.obs import span

    @functools.wraps(original)
    def get_clouds(self, key, kmax):
        with span("coverage_store.read") as opened:
            clouds = original(self, key, kmax)
            opened.set(
                bytes=sum(int(c.nbytes) for c in clouds) if clouds else 0
            )
        return clouds

    return get_clouds


class _FreightTask:
    """Picklable wrapper running a fan-out task under freight capture."""

    def __init__(self, function):
        self.function = function

    def __call__(self, payload):
        from repro.obs import span
        from repro.service.engine import run_with_freight

        def body():
            start = time.perf_counter()
            with span("synth.refinement"):
                value = self.function(payload)
            return value, time.perf_counter() - start

        (value, seconds), freight = run_with_freight(body)
        return value, seconds, freight


def _fan_out_shim(original):
    """Ship pool-worker spans and counts home for synthesis refinements."""
    from repro.obs import metrics, span, trace

    @functools.wraps(original)
    def fan_out(function, payloads, workers):
        payloads = list(payloads)
        pool = max(1, min(workers, len(payloads)))
        pid = os.getpid()
        busy = 0.0
        start = time.perf_counter()
        with span("synth.fan_out", tasks=len(payloads)) as opened:
            for value, seconds, freight in original(
                _FreightTask(function), payloads, workers
            ):
                busy += seconds
                if freight.get("pid") != pid:
                    trace.TRACER.absorb(freight.get("spans", ()))
                    delta = freight.get("metrics")
                    if delta:
                        metrics.REGISTRY.merge_snapshot(delta)
                yield value
            wall = time.perf_counter() - start
            opened.set(overhead=max(0.0, wall - busy / pool))

    return fan_out


def install(synthesis: bool = False) -> None:
    """Install every shim (idempotent).  ``synthesis`` adds the
    ``fan_out`` freight wrapper the synthesis refinements need; compile
    pools already ship their own freight and must not be wrapped twice."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    import repro.core.decomposition_rules as rules_mod
    import repro.core.parallel_drive as drive_mod
    import repro.kernels.membership as membership_mod
    import repro.kernels.weyl_batch as weyl_mod
    import repro.quantum.makhlin as makhlin_mod
    import repro.service.cache as cache_mod
    import repro.service.client  # noqa: F401 - bind every service module
    import repro.service.coverage_store as store_mod
    import repro.service.engine as engine_mod
    import repro.service.router  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.synthesis.engine as synth_mod
    import repro.transpiler.basis  # noqa: F401
    import repro.transpiler.fidelity as fidelity_mod
    import repro.transpiler.passes.stages as stages_mod

    # repro.kernels
    _wrap_function(
        weyl_mod, "weyl_coordinates_many", "kernels.weyl_coordinates_many", 0
    )
    _wrap_function(
        membership_mod, "membership_matrix", "kernels.membership_matrix", 1
    )
    _wrap_function(membership_mod, "first_covering_k", "kernels.min_k", 1)
    # repro.service.cache
    _wrap_method(
        cache_mod.DecompositionCache, "lookup_many", "decomp.lookup_many", 2
    )
    # repro.core (rules + coverage loading)
    for cls in (rules_mod.BaselineSqrtISwapRules, rules_mod.ParallelSqrtISwapRules):
        _wrap_method(
            cls, "templates_for_many", "rules.templates_for_many", 1
        )
    original = rules_mod.coverage_for_basis
    _rebind(original, _coverage_load_shim(original))
    # repro.service.coverage_store
    store_mod.CoverageStore.get_clouds = _coverage_read_shim(
        store_mod.CoverageStore.__dict__["get_clouds"]
    )
    # repro.transpiler.passes
    for name in PASS_NAMES:
        _pass_shim(getattr(stages_mod, name), name)
    _wrap_method(
        fidelity_mod.HeterogeneousFidelityModel,
        "circuit_fidelity",
        "passes.fidelity",
    )
    # repro.service (batch engine)
    _wrap_method(engine_mod.BatchEngine, "run", "engine.batch", 1)
    # repro.synthesis
    _wrap_function(synth_mod, "batched_template_unitaries", "synth.price", 1)
    _wrap_method(
        synth_mod.SynthesisEngine, "synthesize_multistart", "synth.solve"
    )
    template = drive_mod.ParallelDriveTemplate
    template.unitary = _counted(template.__dict__["unitary"], "synth.unitary")
    original = makhlin_mod.makhlin_invariants
    _rebind(original, _counted(original, "quantum.makhlin"))
    if synthesis:
        original = engine_mod.fan_out
        _rebind(original, _fan_out_shim(original))


# -- analysis ------------------------------------------------------------------


def _covered(parent: dict, children: list[dict]) -> float:
    """Length of the union of child intervals clipped to the parent's."""
    lo, hi = parent["start"], parent["start"] + parent["duration"]
    intervals = sorted(
        (max(lo, c["start"]), min(hi, c["start"] + c["duration"]))
        for c in children
    )
    total, cursor = 0.0, lo
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """span_id -> duration minus time covered by its children."""
    children: dict[str, list[dict]] = {}
    for item in spans:
        parent = item.get("parent_id")
        if parent:
            children.setdefault(parent, []).append(item)
    return {
        item["span_id"]: max(
            0.0,
            item["duration"] - _covered(item, children.get(item["span_id"], [])),
        )
        for item in spans
    }


def span_dicts(spans) -> list[dict]:
    """Deduplicated plain-dict spans (freight can arrive twice)."""
    seen, out = set(), []
    for item in spans:
        item = item if isinstance(item, dict) else item.to_dict()
        key = (item["pid"], item["span_id"])
        if key in seen:
            continue
        seen.add(key)
        out.append(item)
    return out


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and counter deltas."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for item in spans:
        by_name.setdefault(item["name"], []).append(item)

    def count(name):
        return float(len(by_name.get(name, ())))

    def rows(name):
        return float(
            sum(s["attrs"].get("rows", 0) for s in by_name.get(name, ()))
        )

    def self_s(name, where=None):
        return float(
            sum(
                own[s["span_id"]]
                for s in by_name.get(name, ())
                if where is None or where(s)
            )
        )

    def attr_sum(name, key):
        return float(
            sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))
        )

    out: dict[str, float] = {}
    for name in PASS_NAMES:
        out[f"passes.{name}.s"] = self_s(f"passes.{name}")
    out["passes.fidelity.s"] = self_s("passes.fidelity")
    out["passes.trials"] = count("passes.Schedule")
    out["passes.gates_after_Route"] = attr_sum("passes.Route", "gates_after")
    out["passes.gates_after_TranslateToBasis"] = attr_sum(
        "passes.TranslateToBasis", "gates_after"
    )
    out["routing.swaps"] = attr_sum("passes.Route", "swaps")
    for kernel in ("weyl_coordinates_many", "min_k", "membership_matrix"):
        name = f"kernels.{kernel}"
        out[f"{name}.calls"] = count(name)
        out[f"{name}.rows"] = rows(name)
        out[f"{name}.s"] = self_s(name)
    hits = {
        tier: float(counters.get(f"repro.cache.decomp.{tier}", 0))
        for tier in ("memory_hits", "disk_hits", "misses", "puts")
    }
    lookups = hits["memory_hits"] + hits["disk_hits"] + hits["misses"]
    out["decomp.lookups"] = lookups
    out.update({f"decomp.{tier}": value for tier, value in hits.items()})
    out["decomp.hit_ratio"] = (
        (hits["memory_hits"] + hits["disk_hits"]) / lookups if lookups else 0.0
    )
    out["decomp.lookup_many_self_s"] = self_s("decomp.lookup_many")
    out["rules.templates_for_many.calls"] = count("rules.templates_for_many")
    out["rules.templates_for_many.rows"] = rows("rules.templates_for_many")
    out["rules.templates_for_many.s"] = self_s("rules.templates_for_many")
    loaded = lambda s: bool(s["attrs"].get("loaded"))  # noqa: E731
    out["rules.coverage_loads"] = float(
        sum(1 for s in by_name.get("rules.coverage_for_basis", ()) if loaded(s))
    )
    out["rules.coverage_load_s"] = self_s("rules.coverage_for_basis", loaded)
    out["coverage_store.reads"] = count("coverage_store.read")
    out["coverage_store.read_s"] = self_s("coverage_store.read")
    out["coverage_store.bytes_read"] = attr_sum("coverage_store.read", "bytes")
    solves = by_name.get("synth.solve", ())
    out["synth.price_s"] = self_s("synth.price")
    refine_total = sum(s["duration"] for s in by_name.get("synth.refinement", ()))
    unitary_s = float(counters.get("bench.synth.unitary.seconds", 0.0))
    makhlin_s = float(counters.get("bench.quantum.makhlin.seconds", 0.0))
    out["synth.refine_s"] = float(refine_total)
    out["synth.refinements"] = count("synth.refinement")
    out["synth.unitary_calls"] = float(
        counters.get("bench.synth.unitary.calls", 0)
    )
    out["synth.unitary_s"] = unitary_s
    out["synth.refine_win_ratio"] = (
        len(solves) / out["synth.refinements"]
        if out["synth.refinements"] else 0.0
    )
    out["synth.fan_out_overhead_s"] = attr_sum("synth.fan_out", "overhead")
    out["quantum.makhlin_s"] = makhlin_s
    return out
