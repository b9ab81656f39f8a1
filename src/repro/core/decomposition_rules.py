"""Decomposition rules: basis templates for target 2Q gates.

Two rule engines mirror the paper's transpilation flows:

* :class:`BaselineSqrtISwapRules` — the prior-work analytical sqrt(iSWAP)
  decomposition (paper ref. [24]): K pulses of 0.5 with all K+1
  interleaved 1Q layers present.
* :class:`ParallelSqrtISwapRules` — the paper's optimized flow (Sec. IV):
  a 0.25-duration calibrated pulse quantum (the 4th-root iSWAP),
  fractional CX-family pulses with parallel drive (Fig. 10), the
  iSWAP+sqrt(iSWAP) joint SWAP rule (Fig. 11), and extended-coverage
  lookups for generic targets.

The named gate counts of the paper's Table I are kept in
:data:`NAMED_GATE_COUNTS`; each entry is backed by an explicit
construction proof in ``tests/test_decomposition_rules.py`` (numerical
synthesis for small K, exact fractional-copy matrix identities for the
rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from uuid import uuid4

import numpy as np

from ..kernels.membership import membership_matrix
from ..quantum.weyl import named_gate_coordinates
from .conversion_gain import drive_angles_for_coordinates
from .coverage import FACET_BAND, CoverageSet, KCoverage

__all__ = [
    "TemplateSpec",
    "DecompositionRules",
    "BaselineSqrtISwapRules",
    "ParallelSqrtISwapRules",
    "NAMED_GATE_COUNTS",
    "RULE_ENGINES",
    "build_rules",
    "canonical_basis_name",
    "coverage_for_basis",
    "BASIS_DRIVE_ANGLES",
    "KEY_DECIMALS",
    "quantize_coordinates",
]

_TOL = 1e-6
_HALF_PI = np.pi / 2

#: Decimal grid coordinate classes are rounded to before any rule decides
#: on them (and the decomposition cache keys on), two orders of
#: magnitude finer than the 1e-6 rule tolerance.
KEY_DECIMALS = 8


def quantize_coordinates(coords: np.ndarray) -> np.ndarray:
    """Coordinates rounded to the :data:`KEY_DECIMALS` grid.

    Classifying the rounded rows makes a template a function of the
    cache key: cached and uncached compiles agree by construction.
    ``+ 0.0`` folds ``-0.0`` into ``0.0``.
    """
    return np.round(np.asarray(coords, dtype=float), KEY_DECIMALS) + 0.0

#: Paper Table I: gates (K) to reach named targets, per basis.  "haar"
#: entries are reproduced numerically, not tabulated here.
NAMED_GATE_COUNTS: dict[str, dict[str, int]] = {
    "iSWAP": {"CNOT": 2, "SWAP": 3},
    "sqrt_iSWAP": {"CNOT": 2, "SWAP": 3},
    "CNOT": {"CNOT": 1, "SWAP": 3},
    "sqrt_CNOT": {"CNOT": 2, "SWAP": 6},
    "B": {"CNOT": 2, "SWAP": 2},
    "sqrt_B": {"CNOT": 2, "SWAP": 4},
}

#: Per-pulse drive angles (theta_c, theta_g) of each named basis.
BASIS_DRIVE_ANGLES: dict[str, tuple[float, float]] = {
    name: drive_angles_for_coordinates(named_gate_coordinates(name))
    for name in NAMED_GATE_COUNTS
}


@dataclass(frozen=True)
class TemplateSpec:
    """A concrete decomposition template: pulses plus 1Q layers.

    ``pulses`` holds per-application 2Q pulse durations in normalized
    units; ``layer_count`` is the number of (parallel-on-both-qubits) 1Q
    layers the template needs.  The default interleaved form has
    ``layer_count == len(pulses) + 1`` (Eq. 7); parallel-drive rules
    absorb interior layers and carry fewer.
    """

    pulses: tuple[float, ...]
    layer_count: int
    description: str = ""

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.pulses):
            raise ValueError("pulse durations must be positive")
        if self.layer_count < 0:
            raise ValueError("layer count must be non-negative")

    @property
    def k(self) -> int:
        """Number of basis-pulse applications."""
        return len(self.pulses)

    @property
    def total_pulse_duration(self) -> float:
        """Summed 2Q pulse time."""
        return float(sum(self.pulses))

    def duration(self, one_q_duration: float) -> float:
        """Total template duration (generalized Eq. 7)."""
        return self.total_pulse_duration + self.layer_count * one_q_duration


def _is_identity_class(coords: np.ndarray) -> bool:
    return bool(np.all(np.abs(coords) < _TOL))


def _is_cx_family(coords: np.ndarray) -> bool:
    """CAN(a, 0, 0) for 0 < a <= pi/2 (controlled-phase family)."""
    return bool(
        coords[0] > _TOL
        and abs(coords[1]) < _TOL
        and abs(coords[2]) < _TOL
    )


def _is_iswap_family(coords: np.ndarray) -> bool:
    """CAN(a, a, 0): partial iSWAP ray."""
    return bool(
        coords[0] > _TOL
        and abs(coords[0] - coords[1]) < _TOL
        and abs(coords[2]) < _TOL
    )


def _is_swap(coords: np.ndarray) -> bool:
    return bool(np.all(np.abs(coords - _HALF_PI) < _TOL))


class DecompositionRules:
    """Interface of a basis-translation rule engine."""

    name = "abstract"

    def __init__(self, one_q_duration: float = 0.25):
        if one_q_duration < 0:
            raise ValueError("one_q_duration must be non-negative")
        self.one_q_duration = float(one_q_duration)

    def template_for(self, coords: np.ndarray) -> TemplateSpec:
        """Cheapest known template reaching the coordinate class."""
        raise NotImplementedError

    def templates_for_many(self, coords: np.ndarray) -> list[TemplateSpec]:
        """Templates for a stacked ``(N, 3)`` coordinate array.

        Row ``i`` of the result equals ``template_for(coords[i])``
        exactly; engines override this with a vectorized classification
        so a circuit's 2Q blocks are templated in one batched kernel
        call.  The base implementation is the scalar loop.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return [self.template_for(row) for row in coords]

    def duration(self, coords: np.ndarray) -> float:
        """Total decomposition duration for a target class."""
        return self.template_for(coords).duration(self.one_q_duration)

    def durations_many(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`duration` over stacked coordinate rows."""
        return np.array(
            [
                spec.duration(self.one_q_duration)
                for spec in self.templates_for_many(coords)
            ]
        )

    @property
    def cache_token(self) -> str:
        """Key prefix identifying this engine *and its parameters*.

        Decomposition caches must key on this, not ``name``: two
        instances of the same class with different durations or quanta
        produce different templates for the same coordinates.  The
        coverage membership band keys too: it decides which K an
        on-facet coordinate gets.  Subclasses append every constructor
        parameter that affects template selection.
        """
        return f"{self.name}|1q{self.one_q_duration!r}|band{FACET_BAND!r}"


#: Lowercase/underscore spellings hardware targets use for basis gates,
#: mapped onto the canonical table names above.
_BASIS_ALIASES: dict[str, str] = {
    name.lower(): name for name in NAMED_GATE_COUNTS
} | {"sqrt_iswap": "sqrt_iSWAP", "iswap": "iSWAP", "b": "B", "sqrt_b": "sqrt_B"}


def canonical_basis_name(name: str) -> str:
    """Resolve a basis-gate spelling (e.g. a target's ``sqrt_iswap``).

    Hardware targets store lowercase gate names; the coverage and
    drive-angle tables use the paper's spelling.  Raises ``KeyError``
    with the known vocabulary on an unknown gate.
    """
    if name in BASIS_DRIVE_ANGLES:
        return name
    try:
        return _BASIS_ALIASES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown 2Q basis gate {name!r}; known: "
            f"{sorted(BASIS_DRIVE_ANGLES)}"
        ) from None


@lru_cache(maxsize=32)
def coverage_for_basis(
    basis_name: str,
    kmax: int,
    parallel: bool,
    samples_per_k: int = 3000,
    seed: int = 20230302,
    steps_per_pulse: int = 4,
    pulse_duration: float | None = None,
    backend: str = "piecewise",
) -> CoverageSet:
    """Build (and memoize) the coverage set of a named basis gate.

    The per-pulse duration defaults to the linear-SLF normalized value:
    full-rotation gates take 1.0, square roots 0.5.  ``backend`` selects
    the synthesis-engine template family (a string so the memo stays
    hashable); the default rides the digest-stable piecewise engine.
    """
    from ..synthesis.engine import default_engine

    basis_name = canonical_basis_name(basis_name)
    theta_c, theta_g = BASIS_DRIVE_ANGLES[basis_name]
    if pulse_duration is None:
        pulse_duration = (theta_c + theta_g) / _HALF_PI
    return default_engine(backend).coverage_set(
        gc=theta_c / pulse_duration,
        gg=theta_g / pulse_duration,
        pulse_duration=pulse_duration,
        kmax=kmax,
        basis_name=basis_name,
        parallel=parallel,
        samples_per_k=samples_per_k,
        seed=seed,
        steps_per_pulse=max(1, round(steps_per_pulse * pulse_duration)),
    )


class BaselineSqrtISwapRules(DecompositionRules):
    """Prior-work analytical sqrt(iSWAP) templates (all 1Q layers kept)."""

    name = "baseline_sqrt_iswap"

    def __init__(
        self,
        one_q_duration: float = 0.25,
        pulse_duration: float = 0.5,
        coverage: CoverageSet | None = None,
    ):
        super().__init__(one_q_duration)
        self.pulse_duration = float(pulse_duration)
        self._coverage = coverage
        # Injected coverage sets have no stable identity, so instances
        # carrying one get a unique token: they memoize per instance but
        # never share (or poison) the persistent cross-run keyspace.
        self._coverage_token = "std" if coverage is None else uuid4().hex

    @property
    def cache_token(self) -> str:
        """Engine identity including the per-pulse duration."""
        return (
            f"{super().cache_token}|p{self.pulse_duration!r}"
            f"|c{self._coverage_token}"
        )

    @property
    def coverage(self) -> CoverageSet:
        """Standard-mode sqrt(iSWAP) coverage (built lazily)."""
        if self._coverage is None:
            self._coverage = coverage_for_basis(
                "sqrt_iSWAP", kmax=3, parallel=False
            )
        return self._coverage

    def template_for(self, coords: np.ndarray) -> TemplateSpec:
        coords = np.asarray(coords, dtype=float)
        if _is_identity_class(coords):
            return TemplateSpec((), 1, "local gate")
        sqrt_point = named_gate_coordinates("sqrt_iSWAP")
        if np.allclose(coords, sqrt_point, atol=_TOL):
            k = 1
        elif bool(self.coverage.coverage_for(2).contains(coords)[0]):
            k = 2
        else:
            k = 3
        return TemplateSpec(
            (self.pulse_duration,) * k, k + 1, f"{k}x sqrt(iSWAP)"
        )

    def templates_for_many(self, coords: np.ndarray) -> list[TemplateSpec]:
        """Batched :meth:`template_for`: one K=2 membership query for all
        generic rows instead of one per gate."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        count = len(coords)
        if count == 0:
            return []
        identity = np.all(np.abs(coords) < _TOL, axis=1)
        sqrt_point = named_gate_coordinates("sqrt_iSWAP")
        single = (
            np.isclose(coords, sqrt_point, atol=_TOL).all(axis=1)
            & ~identity
        )
        generic = ~identity & ~single
        in_k2 = np.zeros(count, dtype=bool)
        if generic.any():
            in_k2[generic] = self.coverage.coverage_for(2).contains(
                coords[generic]
            )
        specs: list[TemplateSpec] = []
        for index in range(count):
            if identity[index]:
                specs.append(TemplateSpec((), 1, "local gate"))
                continue
            k = 1 if single[index] else (2 if in_k2[index] else 3)
            specs.append(
                TemplateSpec(
                    (self.pulse_duration,) * k, k + 1, f"{k}x sqrt(iSWAP)"
                )
            )
        return specs


class ParallelSqrtISwapRules(DecompositionRules):
    """The paper's optimized flow: fractional pulses plus parallel drive.

    Pulse durations are quantized to the calibrated quantum (0.25, the
    4th-root iSWAP of Sec. IV).  Family shortcuts come first; generic
    targets fall back to extended-coverage membership, choosing the
    cheapest covering template.
    """

    name = "parallel_sqrt_iswap"

    def __init__(
        self,
        one_q_duration: float = 0.25,
        pulse_quantum: float = 0.25,
        iswap_parallel_k1: KCoverage | None = None,
        sqrt_parallel_k1: KCoverage | None = None,
        sqrt_parallel_k2: KCoverage | None = None,
    ):
        super().__init__(one_q_duration)
        if pulse_quantum <= 0:
            raise ValueError("pulse_quantum must be positive")
        self.pulse_quantum = float(pulse_quantum)
        self._iswap_k1 = iswap_parallel_k1
        self._sqrt_k1 = sqrt_parallel_k1
        self._sqrt_k2 = sqrt_parallel_k2
        injected = (iswap_parallel_k1, sqrt_parallel_k1, sqrt_parallel_k2)
        # As for the baseline rules: injected regions mean a private,
        # non-persistent keyspace rather than a silently shared one.
        self._coverage_token = (
            "std" if all(k is None for k in injected) else uuid4().hex
        )

    @property
    def cache_token(self) -> str:
        """Engine identity including the calibrated pulse quantum."""
        return (
            f"{super().cache_token}|q{self.pulse_quantum!r}"
            f"|c{self._coverage_token}"
        )

    # -- lazily built extended coverage regions ---------------------------

    @property
    def iswap_parallel_k1(self) -> KCoverage:
        """K=1 extended region of the parallel-driven full iSWAP pulse."""
        if self._iswap_k1 is None:
            self._iswap_k1 = coverage_for_basis(
                "iSWAP", kmax=1, parallel=True
            ).coverage_for(1)
        return self._iswap_k1

    @property
    def sqrt_parallel_k1(self) -> KCoverage:
        """K=1 extended region of the parallel-driven sqrt(iSWAP) pulse."""
        if self._sqrt_k1 is None:
            self._sqrt_k1 = coverage_for_basis(
                "sqrt_iSWAP", kmax=1, parallel=True
            ).coverage_for(1)
        return self._sqrt_k1

    @property
    def sqrt_parallel_k2(self) -> KCoverage:
        """K=2 extended region of parallel-driven sqrt(iSWAP) templates."""
        if self._sqrt_k2 is None:
            self._sqrt_k2 = coverage_for_basis(
                "sqrt_iSWAP", kmax=2, parallel=True
            ).coverage_for(2)
        return self._sqrt_k2

    # -- template selection -------------------------------------------------

    def _quantize(self, duration: float) -> float:
        """Round a pulse duration up to the calibrated quantum.

        Durations within :data:`_TOL` quanta above a whole number of
        quanta round down to it, so a key-rounded CX-family coordinate
        (CNOT's ``c1`` rounds up by 3.2e-9) keeps its pulse.
        """
        steps = max(1, int(np.ceil(duration / self.pulse_quantum - _TOL)))
        return steps * self.pulse_quantum

    def template_for(self, coords: np.ndarray) -> TemplateSpec:
        coords = np.asarray(coords, dtype=float)
        if _is_identity_class(coords):
            return TemplateSpec((), 1, "local gate")
        if _is_swap(coords):
            # Fig. 11: parallel-driven iSWAP then sqrt(iSWAP), interior
            # layers retained (paper keeps them pending a tighter fit).
            return TemplateSpec((1.0, 0.5), 3, "iSWAP + sqrt(iSWAP) joint")
        if _is_iswap_family(coords):
            # Fractional copies of the pulse itself: no interior layers.
            total = self._quantize(coords[0] / _HALF_PI)
            return TemplateSpec(
                (total,), 2, f"{total:.2f} direct partial iSWAP"
            )
        if _is_cx_family(coords):
            # Fig. 10 / Fig. 12: a partial iSWAP pulse of the same total
            # rotation with parallel drive realizes the partial CNOT; the
            # quantum-resource bound makes this duration optimal.
            total = self._quantize(coords[0] / _HALF_PI)
            return TemplateSpec(
                (total,), 2, f"{total:.2f} parallel-driven CX-family"
            )
        candidates: list[tuple[float, TemplateSpec]] = []
        if bool(self.sqrt_parallel_k1.contains(coords)[0]):
            spec = TemplateSpec((0.5,), 2, "1x parallel sqrt(iSWAP)")
            candidates.append((spec.duration(self.one_q_duration), spec))
        if bool(self.iswap_parallel_k1.contains(coords)[0]):
            spec = TemplateSpec((1.0,), 2, "1x parallel iSWAP")
            candidates.append((spec.duration(self.one_q_duration), spec))
        if bool(self.sqrt_parallel_k2.contains(coords)[0]):
            spec = TemplateSpec((0.5, 0.5), 3, "2x parallel sqrt(iSWAP)")
            candidates.append((spec.duration(self.one_q_duration), spec))
        if candidates:
            return min(candidates, key=lambda pair: pair[0])[1]
        # Full coverage backstop: three sqrt(iSWAP) pulses span everything.
        return TemplateSpec((0.5, 0.5, 0.5), 4, "3x sqrt(iSWAP)")

    def templates_for_many(self, coords: np.ndarray) -> list[TemplateSpec]:
        """Batched :meth:`template_for` over stacked coordinate rows.

        Family shortcuts are classified with vectorized masks (applied
        in the scalar method's priority order), and the three extended
        coverage regions each see one membership query for all generic
        rows.  Candidate selection replicates the scalar stable-min:
        regions are priced in the same order, and the first cheapest
        covering template wins.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        count = len(coords)
        if count == 0:
            return []
        c1, c2, c3 = coords[:, 0], coords[:, 1], coords[:, 2]
        identity = np.all(np.abs(coords) < _TOL, axis=1)
        swap = np.all(np.abs(coords - _HALF_PI) < _TOL, axis=1) & ~identity
        iswap_family = (
            (c1 > _TOL)
            & (np.abs(c1 - c2) < _TOL)
            & (np.abs(c3) < _TOL)
            & ~identity
            & ~swap
        )
        cx_family = (
            (c1 > _TOL)
            & (np.abs(c2) < _TOL)
            & (np.abs(c3) < _TOL)
            & ~identity
            & ~swap
            & ~iswap_family
        )
        generic = ~(identity | swap | iswap_family | cx_family)

        # Fractional-family pulse totals, quantized like _quantize.
        steps = np.maximum(
            1, np.ceil(c1 / _HALF_PI / self.pulse_quantum - _TOL).astype(int)
        )
        totals = steps * self.pulse_quantum

        # Generic rows: one batched membership query per extended region,
        # in the scalar candidate order (sqrt K=1, iSWAP K=1, sqrt K=2).
        region_specs = (
            TemplateSpec((0.5,), 2, "1x parallel sqrt(iSWAP)"),
            TemplateSpec((1.0,), 2, "1x parallel iSWAP"),
            TemplateSpec((0.5, 0.5), 3, "2x parallel sqrt(iSWAP)"),
        )
        choice = np.full(count, -1, dtype=int)
        if generic.any():
            regions = (
                self.sqrt_parallel_k1,
                self.iswap_parallel_k1,
                self.sqrt_parallel_k2,
            )
            member = membership_matrix(regions, coords[generic])
            prices = np.array(
                [spec.duration(self.one_q_duration) for spec in region_specs]
            )
            priced = np.where(member.T, prices[None, :], np.inf)
            picks = np.argmin(priced, axis=1)  # first-cheapest, like min()
            picks[~member.any(axis=0)] = -1
            choice[generic] = picks

        backstop = TemplateSpec((0.5, 0.5, 0.5), 4, "3x sqrt(iSWAP)")
        specs: list[TemplateSpec] = []
        for index in range(count):
            if identity[index]:
                specs.append(TemplateSpec((), 1, "local gate"))
            elif swap[index]:
                specs.append(
                    TemplateSpec(
                        (1.0, 0.5), 3, "iSWAP + sqrt(iSWAP) joint"
                    )
                )
            elif iswap_family[index]:
                total = float(totals[index])
                specs.append(
                    TemplateSpec(
                        (total,), 2, f"{total:.2f} direct partial iSWAP"
                    )
                )
            elif cx_family[index]:
                total = float(totals[index])
                specs.append(
                    TemplateSpec(
                        (total,), 2, f"{total:.2f} parallel-driven CX-family"
                    )
                )
            elif choice[index] >= 0:
                specs.append(region_specs[choice[index]])
            else:
                specs.append(backstop)
        return specs


#: Rule-engine names resolvable by :func:`build_rules` (the vocabulary
#: jobs and hardware targets share).
RULE_ENGINES = ("baseline", "parallel")


def build_rules(name: str, one_q_duration: float = 0.25) -> DecompositionRules:
    """Construct a rule engine by suite name.

    The single factory behind ``CompileJob.rules`` validation, the batch
    engine's coverage warming, and hardware targets' device-specific
    engines — one place to extend when a new engine lands.
    """
    if name == "baseline":
        return BaselineSqrtISwapRules(one_q_duration=one_q_duration)
    if name == "parallel":
        return ParallelSqrtISwapRules(one_q_duration=one_q_duration)
    raise ValueError(f"unknown rules {name!r}; known: {RULE_ENGINES}")
