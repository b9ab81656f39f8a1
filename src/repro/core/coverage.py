"""Coverage sets: which gates a K-template spans (paper Figs. 4, 9; Alg. 2).

A coverage set records, for each template size K, the region of the Weyl
chamber reachable by K applications of a basis gate with interleaved
(and optionally parallel-driven) 1Q gates.  Regions are estimated
numerically, exactly as the paper's Algorithm 2:

1. sample many random template instantiations and collect coordinates;
2. run the Nelder–Mead synthesizer toward exterior targets
   (I, CNOT, iSWAP, SWAP) and keep every coordinate along the training
   path;
3. split points into the left/right chamber halves (``c1 <= pi/2``) to
   preserve convexity and take convex hulls;
4. score membership with the hulls' facet halfspaces: a point is inside
   when every facet margin ``A·x + b`` is at most :data:`FACET_BAND`
   (with dimension fallback for degenerate regions such as iSWAP's K=2
   base plane).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..kernels.membership import first_covering_k
from ..quantum.random import as_rng, haar_unitaries_batch
from ..quantum.weyl import batched_weyl_coordinates

__all__ = [
    "RegionHull",
    "KCoverage",
    "CoverageSet",
    "build_coverage_set",
    "coverage_cache_key",
    "haar_coordinate_samples",
    "expected_cost",
    "cache_enabled",
    "default_cache_dir",
    "FACET_BAND",
]


def default_cache_dir() -> Path:
    """Directory for persisted coverage point clouds.

    Overridable via ``REPRO_CACHE_DIR``; defaults to
    ``~/.cache/repro-coverage``.  The sqlite-backed
    :class:`~repro.service.coverage_store.CoverageStore` lives here (as
    did the legacy per-key ``.npz`` archives it migrates from).  The
    clouds skip the minutes-long Algorithm-2 sampling; assembling their
    hulls (SVD plus one ``ConvexHull`` per region) takes a fraction of
    a second, so a fresh process loads a set without re-sampling.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    base = Path(override) if override else Path.home() / ".cache" / "repro-coverage"
    base.mkdir(parents=True, exist_ok=True)
    return base


def cache_enabled() -> bool:
    """Whether the on-disk point-cloud cache is active.

    Setting ``REPRO_COVERAGE_CACHE`` to any of ``0`` / ``false`` /
    ``off`` / ``no`` (case-insensitive, surrounding whitespace ignored)
    disables reads and writes (CI uses this to force cold builds); any
    other value, or unset, leaves it on.
    """
    value = os.environ.get("REPRO_COVERAGE_CACHE")
    if value is None:
        return True
    return value.strip().lower() not in {"0", "false", "off", "no"}

_HALF_PI = np.pi / 2
#: Synthesis anchors for hull boosting: the paper's four exterior points
#: plus boundary gates random sampling reaches only asymptotically (B, the
#: CNOT-SWAP edge midpoint and its right-half mirror, and sqrt(SWAP)).
_EXTERIOR_TARGETS: tuple[tuple[str, tuple[float, float, float]], ...] = (
    ("I", (0.0, 0.0, 0.0)),
    ("CNOT", (_HALF_PI, 0.0, 0.0)),
    ("iSWAP", (_HALF_PI, _HALF_PI, 0.0)),
    ("SWAP", (_HALF_PI, _HALF_PI, _HALF_PI)),
    ("B", (_HALF_PI, np.pi / 4, 0.0)),
    ("CNOT-SWAP-mid", (_HALF_PI, np.pi / 4, np.pi / 4)),
    ("mirror-mid", (3 * np.pi / 4, np.pi / 4, np.pi / 4)),
    ("sqrt_SWAP", (np.pi / 4, np.pi / 4, np.pi / 4)),
)


#: Inclusive band of the facet rule: a point belongs to a region when no
#: facet margin ``A·x + b`` exceeds it.  It sits above the shift of the
#: 1e-8 key grid the decomposition cache quantizes coordinates on
#: (rounded CNOT, B, iSWAP and SWAP land 3.2-3.9e-9 outside facets they
#: lie on exactly) and far below both the 1e-6 rule tolerance and the
#: nearest Haar sample seen (1.7e-7 from a facet).
FACET_BAND = 5e-8

#: Elements per block of the (rows x facets) margin array.
_MARGIN_BLOCK = 1 << 20


def _rowwise_matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix.T`` summed column by column in a fixed order.

    Only elementwise operations, never BLAS: every output row is rounded
    exactly as it would be alone, so no answer depends on the rest of
    its batch.
    """
    out = rows[:, :1] * matrix[:, 0]
    for axis in range(1, rows.shape[1]):
        out = out + rows[:, axis : axis + 1] * matrix[:, axis]
    return out


def _hull_facets(projected: np.ndarray) -> np.ndarray | None:
    """Unique outward facet equations ``[A | b]`` of a point cloud.

    Retries with joggled input for tough clouds; ``None`` when qhull
    cannot build a hull in this dimension at all.
    """
    for options in (None, "QJ"):
        try:
            return np.unique(
                ConvexHull(projected, qhull_options=options).equations,
                axis=0,
            )
        except QhullError:
            continue
    return None


class RegionHull:
    """Point-cloud convex hull with degenerate-dimension fallback.

    Supports full 3-D regions, planar regions (e.g. the chamber base
    plane), line segments (e.g. the CNOT family), and single points.
    Full and planar regions decide membership from their facets: a
    point is inside exactly when every margin ``A·x + b`` of the hull's
    facet equations is at most :data:`FACET_BAND`.
    """

    def __init__(self, points: np.ndarray, tol: float = 1e-4):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("expected an (N, 3) coordinate array")
        if len(points) == 0:
            raise ValueError("region needs at least one point")
        self.tol = tol
        self.centroid = points.mean(axis=0)
        centered = points - self.centroid
        # Rank-reveal the point cloud to pick the right hull dimension.
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        self.rank = int(np.sum(singular > tol * max(1.0, singular[0])))
        self.basis = vt[: self.rank] if self.rank else np.zeros((0, 3))
        self._interval: tuple[float, float] | None = None
        self._facets: np.ndarray | None = None
        if self.rank >= 2:
            self._facets = _hull_facets(centered @ self.basis.T)
            if self._facets is None:
                # Nearly degenerate cloud: retreat one dimension.
                self.rank -= 1
                self.basis = self.basis[: self.rank]
                if self.rank == 2:
                    self._facets = _hull_facets(centered @ self.basis.T)
        if self.rank == 1:
            line = centered @ self.basis[0]
            self._interval = (float(line.min()), float(line.max()))

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership test; accepts shape (3,) or (N, 3).

        Every row is decided on its own (see :func:`_rowwise_matmul`),
        so a batch answers exactly as the same rows queried one by one.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        centered = coords - self.centroid
        if self.rank == 0:
            inside = np.ones(len(coords), dtype=bool)
        else:
            projected = _rowwise_matmul(centered, self.basis)
            if self.rank == 1:
                low, high = self._interval  # type: ignore[misc]
                inside = (projected[:, 0] >= low - self.tol) & (
                    projected[:, 0] <= high + self.tol
                )
            elif self._facets is not None:
                inside = self._within_facets(projected)
            else:  # pragma: no cover - exhausted fallbacks
                inside = np.zeros(len(coords), dtype=bool)
        if self.rank < 3:
            # Off-subspace displacement must vanish for membership.
            residual = centered
            if self.rank:
                residual = centered - _rowwise_matmul(projected, self.basis.T)
            inside &= np.linalg.norm(residual, axis=1) <= self.tol
        return inside

    def _within_facets(self, projected: np.ndarray) -> np.ndarray:
        """Rows whose every facet margin is at most :data:`FACET_BAND`."""
        facets = self._facets
        normals, offsets = facets[:, :-1], facets[:, -1]
        inside = np.empty(len(projected), dtype=bool)
        step = max(1, _MARGIN_BLOCK // len(facets))
        for start in range(0, len(projected), step):
            margins = _rowwise_matmul(projected[start : start + step], normals)
            inside[start : start + step] = np.all(
                margins + offsets <= FACET_BAND, axis=1
            )
        return inside

    @property
    def is_full_dimensional(self) -> bool:
        """True when the region has nonzero 3-D volume."""
        return self.rank == 3


@dataclass(frozen=True)
class KCoverage:
    """Reachable region for one template size K (both chamber halves)."""

    k: int
    left: RegionHull
    right: RegionHull | None
    num_points: int

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership across both chamber halves.

        Rows within :data:`FACET_BAND` of the ``c1 = pi/2`` plane count
        as left-half rows, so a coordinate on the plane keeps its side
        under the decomposition cache's 1e-8 key rounding.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        result = np.zeros(len(coords), dtype=bool)
        on_left = coords[:, 0] <= _HALF_PI + FACET_BAND
        if on_left.any():
            result[on_left] = self.left.contains(coords[on_left])
        on_right = ~on_left
        if on_right.any() and self.right is not None:
            result[on_right] = self.right.contains(coords[on_right])
        return result


@dataclass(frozen=True)
class CoverageSet:
    """Coverage regions of a basis template for K = 1..kmax."""

    basis_name: str
    parallel: bool
    coverages: tuple[KCoverage, ...]

    @property
    def kmax(self) -> int:
        """Largest template size with a computed region."""
        return len(self.coverages)

    def coverage_for(self, k: int) -> KCoverage:
        """Region for template size ``k`` (1-based)."""
        if not 1 <= k <= self.kmax:
            raise ValueError(f"k={k} outside computed range 1..{self.kmax}")
        return self.coverages[k - 1]

    def min_k(self, coords: np.ndarray) -> np.ndarray:
        """Smallest covering K per coordinate row (``kmax + 1`` if none).

        One narrowing membership sweep over the K-polytopes: every point
        is tested against each region at most once, in a single
        vectorized ``contains`` call per region (see
        :func:`repro.kernels.first_covering_k`).
        """
        return first_covering_k(self.coverages, coords)

    def expected_haar_k(
        self, samples: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Haar-expected template size and per-K fractions.

        ``samples`` are Haar coordinate rows (see
        :func:`haar_coordinate_samples`).  Uncovered samples are priced at
        ``kmax + 1``, which surfaces insufficient ``kmax`` rather than
        silently clipping.
        """
        ks = self.min_k(samples)
        counts = np.bincount(ks, minlength=self.kmax + 2)
        fractions = counts[1 : self.kmax + 2] / len(ks)
        return float(ks.mean()), fractions


def haar_coordinate_samples(
    count: int, seed: int | np.random.Generator | None = None
) -> np.ndarray:
    """Weyl coordinates of Haar-random two-qubit unitaries."""
    rng = as_rng(seed)
    return batched_weyl_coordinates(haar_unitaries_batch(4, count, rng))


def _split_halves(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition coordinates at the c1 = pi/2 plane (boundary in both)."""
    on_left = points[:, 0] <= _HALF_PI + 1e-9
    on_right = points[:, 0] >= _HALF_PI - 1e-9
    return points[on_left], points[on_right]


def coverage_cache_key(
    gc: float,
    gg: float,
    pulse_duration: float,
    kmax: int,
    basis_name: str,
    parallel: bool,
    samples_per_k: int,
    steps_per_pulse: int,
    seed: int | np.random.Generator | None,
    boost_targets: bool,
    synthesis_restarts: int,
    synthesis_iterations: int,
    backend: str = "piecewise",
    backend_options: dict | None = None,
) -> str:
    """Stable text key of one coverage build (the store's keyspace).

    Encodes the backend family, its factory options, every
    geometry-affecting parameter, and the sampling seed — the same
    discipline as the decomposition cache's ``cache_token``.  The
    default-configuration piecewise key matches the legacy ``.npz``
    file stem exactly, so
    :class:`~repro.service.coverage_store.CoverageStore` migration maps
    one-to-one.  ``steps_per_pulse`` only keys for families that take
    it (``0`` otherwise), so backends that ignore the knob do not split
    identical clouds across rows.
    """
    seed_token = seed if isinstance(seed, int) else "rng"
    key = (
        f"{basis_name}_gc{gc:.6f}_gg{gg:.6f}_d{pulse_duration:.4f}"
        f"_k{kmax}_n{samples_per_k}_s{steps_per_pulse}"
        f"_{'par' if parallel else 'std'}_b{int(boost_targets)}"
        f"_r{synthesis_restarts}_i{synthesis_iterations}_seed{seed_token}"
        "_v2"
    )
    if backend != "piecewise":
        key += f"_be-{backend}"
    if backend_options:
        options = "_".join(
            f"{name}-{backend_options[name]!r}"
            for name in sorted(backend_options)
        )
        key += f"_bo-{options}"
    return key


def build_coverage_set(
    gc: float,
    gg: float,
    pulse_duration: float,
    kmax: int,
    basis_name: str = "basis",
    parallel: bool = False,
    samples_per_k: int = 3000,
    steps_per_pulse: int = 4,
    seed: int | np.random.Generator | None = 0,
    boost_targets: bool = True,
    synthesis_restarts: int = 3,
    synthesis_iterations: int = 1200,
    cache: bool = True,
    engine=None,
    store=None,
) -> CoverageSet:
    """Estimate coverage regions for a conversion–gain basis (Alg. 2).

    Args:
        gc, gg: pump strengths of one application, pre-scaled so that the
            pulse realizes the basis gate in ``pulse_duration``.
        parallel: include the Eq. 9 1Q drives as free template variables.
        boost_targets: run the synthesizer toward the chamber's exterior
            points and fold its training path into the point cloud —
            random sampling alone under-fills hull corners.
        cache: persist/reuse the sampled point clouds through the
            coverage store.
        engine: the :class:`~repro.synthesis.SynthesisEngine` supplying
            the template family and training path (``None`` = the
            process-default piecewise engine — the digest-stable paper
            configuration).
        store: explicit :class:`~repro.service.coverage_store.
            CoverageStore`; ``None`` uses the engine's store, falling
            back to the process default for the current cache dir.
            The ``REPRO_COVERAGE_CACHE`` kill-switch governs only that
            default resolution — a store passed explicitly (here or on
            the engine) is a deliberate opt-in and is used regardless.
    """
    from ..synthesis.engine import default_engine

    from ..synthesis.backends import backend_accepts

    if engine is None:
        engine = default_engine()
    if store is None:
        store = getattr(engine, "store", None)
    # The per-pulse step count only shapes families whose factory takes
    # it; others must neither receive the knob nor key on it.
    takes_steps = backend_accepts(engine.backend, "steps_per_pulse")
    use_cache = cache and (store is not None or cache_enabled())
    key: str | None = None
    if use_cache:
        if store is None:
            from ..service.coverage_store import default_coverage_store

            store = default_coverage_store()
        key = coverage_cache_key(
            gc, gg, pulse_duration, kmax, basis_name, parallel,
            samples_per_k, steps_per_pulse if takes_steps else 0, seed,
            boost_targets, synthesis_restarts, synthesis_iterations,
            backend=engine.backend,
            backend_options=getattr(engine, "backend_options", None),
        )
        assembled = store.get_set(key)
        if assembled is not None:
            return assembled
        cached_clouds = store.get_clouds(key, kmax)
        if cached_clouds is not None:
            assembled = _assemble_coverage(
                basis_name, parallel, cached_clouds
            )
            store.remember_set(key, assembled)
            return assembled

    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace

    obs_metrics.counter("repro.coverage.builds").inc()
    rng = as_rng(seed)
    clouds: list[np.ndarray] = []
    template_overrides = (
        {"steps_per_pulse": steps_per_pulse} if takes_steps else {}
    )
    with obs_trace.span(
        "coverage.build", basis=basis_name, kmax=kmax, parallel=parallel
    ):
        built = _build_clouds(
            engine, gc, gg, pulse_duration, kmax, parallel,
            template_overrides, samples_per_k, rng, boost_targets,
            synthesis_restarts, synthesis_iterations,
        )
    clouds.extend(built)
    assembled = _assemble_coverage(basis_name, parallel, clouds)
    if key is not None and store is not None:
        store.put_clouds(key, clouds)
        store.remember_set(key, assembled)
    return assembled


def _build_clouds(
    engine,
    gc: float,
    gg: float,
    pulse_duration: float,
    kmax: int,
    parallel: bool,
    template_overrides: dict,
    samples_per_k: int,
    rng,
    boost_targets: bool,
    synthesis_restarts: int,
    synthesis_iterations: int,
) -> list[np.ndarray]:
    """Sample/boost the per-K point clouds (Alg. 2's expensive loop)."""
    clouds: list[np.ndarray] = []
    for k in range(1, kmax + 1):
        template = engine.template(
            gc=gc,
            gg=gg,
            pulse_duration=pulse_duration,
            repetitions=k,
            parallel=parallel,
            **template_overrides,
        )
        points = engine.sample_coordinates(template, samples_per_k, rng)
        # Anchor exactly-known reachable points: the undriven template
        # with identity interiors realizes the k-fold basis power, whose
        # coordinates random local sampling only approaches (e.g. the
        # iSWAP corner of the K=1 parallel-iSWAP region).
        anchor = template.coordinates(
            np.zeros(template.num_parameters)
        )
        points = np.vstack([points, anchor[None, :]])
        if boost_targets:
            for _, target_coords in _EXTERIOR_TARGETS:
                target = np.asarray(target_coords, dtype=float)
                result = engine.synthesize(
                    template,
                    target,
                    seed=rng,
                    restarts=synthesis_restarts,
                    max_iterations=synthesis_iterations,
                    record_history=True,
                )
                if result.coordinate_history:
                    points = np.vstack([points, result.coordinate_history])
                if result.converged:
                    points = np.vstack([points, target[None, :]])
        clouds.append(points)
    return clouds


def _assemble_coverage(
    basis_name: str, parallel: bool, clouds: list[np.ndarray]
) -> CoverageSet:
    """Build hull structures from per-K point clouds (SVD + qhull)."""
    from ..obs import metrics as obs_metrics

    obs_metrics.counter("repro.coverage.assemblies").inc()
    coverages = []
    for k, points in enumerate(clouds, start=1):
        left_pts, right_pts = _split_halves(points)
        left = RegionHull(left_pts if len(left_pts) else points)
        right = RegionHull(right_pts) if len(right_pts) >= 4 else None
        coverages.append(
            KCoverage(k=k, left=left, right=right, num_points=len(points))
        )
    return CoverageSet(
        basis_name=basis_name,
        parallel=parallel,
        coverages=tuple(coverages),
    )


def expected_cost(
    candidates: list[tuple[KCoverage, float]],
    samples: np.ndarray,
    fallback_cost: float | None = None,
) -> float:
    """Haar-expected cost choosing the cheapest covering candidate.

    Implements the paper's "joint spanning region" scoring (Table V): each
    candidate pairs a reachable region with the duration of its template;
    every Haar sample is priced at the cheapest region containing it.

    Args:
        fallback_cost: price for samples no candidate covers; ``None``
            raises if any sample is uncovered.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    costs = np.full(len(samples), np.inf)
    for region, cost in candidates:
        hit = region.contains(samples)
        costs[hit] = np.minimum(costs[hit], cost)
    uncovered = ~np.isfinite(costs)
    if uncovered.any():
        if fallback_cost is None:
            raise ValueError(
                f"{int(uncovered.sum())} samples not covered by any candidate"
            )
        costs[uncovered] = fallback_cost
    return float(costs.mean())
