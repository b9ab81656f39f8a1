"""Tests for coverage sets (paper Alg. 2, Figs. 4/7/9)."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import (
    FACET_BAND,
    KCoverage,
    RegionHull,
    build_coverage_set,
    cache_enabled,
    expected_cost,
    haar_coordinate_samples,
)

_HALF_PI = np.pi / 2


class TestRegionHull:
    def test_full_dimensional_cube(self, rng):
        points = rng.uniform(0, 1, size=(200, 3))
        hull = RegionHull(points)
        assert hull.is_full_dimensional
        assert hull.contains(np.array([0.5, 0.5, 0.5]))[0]
        assert not hull.contains(np.array([2.0, 2.0, 2.0]))[0]

    def test_planar_region(self, rng):
        points = np.column_stack(
            [rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)]
        )
        hull = RegionHull(points)
        assert hull.rank == 2
        assert hull.contains(np.array([0.5, 0.5, 0.0]))[0]
        assert not hull.contains(np.array([0.5, 0.5, 0.3]))[0]

    def test_line_segment(self):
        points = np.outer(np.linspace(0, 1, 20), np.array([1.0, 1.0, 0.0]))
        hull = RegionHull(points)
        assert hull.rank == 1
        assert hull.contains(np.array([0.5, 0.5, 0.0]))[0]
        assert not hull.contains(np.array([2.0, 2.0, 0.0]))[0]
        assert not hull.contains(np.array([0.5, 0.4, 0.0]))[0]

    def test_single_point(self):
        hull = RegionHull(np.tile([0.1, 0.2, 0.3], (5, 1)))
        assert hull.rank == 0
        assert hull.contains(np.array([0.1, 0.2, 0.3]))[0]
        assert not hull.contains(np.array([0.1, 0.2, 0.4]))[0]

    def test_vectorized_membership(self, rng):
        points = rng.uniform(0, 1, size=(100, 3))
        hull = RegionHull(points)
        queries = rng.uniform(-0.5, 1.5, size=(50, 3))
        results = hull.contains(queries)
        assert results.shape == (50,)

    def test_facet_band_is_inclusive(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            dtype=float,
        )
        hull = RegionHull(corners)
        face = np.array([0.5, 0.5, 1.0])
        assert hull.contains(face)[0]
        assert hull.contains(face + [0, 0, 0.5 * FACET_BAND])[0]
        assert not hull.contains(face + [0, 0, 2 * FACET_BAND])[0]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        planar=st.booleans(),
    )
    def test_batch_answers_as_rows_alone(self, seed, planar):
        gen = np.random.default_rng(seed)
        points = gen.uniform(0, 1, size=(60, 3))
        if planar:
            points[:, 2] = 0.0
        hull = RegionHull(points)
        # Cloud points lie on facets; the rest straddle the boundary.
        queries = np.vstack([points, gen.uniform(-0.2, 1.2, size=(60, 3))])
        solo = np.array([hull.contains(row)[0] for row in queries])
        assert np.array_equal(hull.contains(queries), solo)
        assert hull.contains(points).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionHull(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            RegionHull(np.zeros((5, 2)))


class TestKCoverageHalves:
    def test_plane_rows_within_band_count_as_left(self, rng):
        left_points = rng.uniform(0, 1, size=(80, 3)) * [_HALF_PI, 1, 1]
        left_points[0, 0] = _HALF_PI
        region = KCoverage(
            k=1, left=RegionHull(left_points), right=None, num_points=80
        )
        on_plane = left_points[0].copy()
        on_plane[0] += 0.5 * FACET_BAND  # e.g. rounded to the key grid
        assert region.contains(on_plane)[0]
        on_plane[0] = _HALF_PI + 1e-3
        assert not region.contains(on_plane)[0]


class TestCoverageSets:
    @pytest.fixture(scope="class")
    def sqrt_iswap_coverage(self):
        return build_coverage_set(
            gc=np.pi / 2, gg=0.0, pulse_duration=0.5, kmax=3,
            basis_name="sqrt_iswap_test", parallel=False,
            samples_per_k=1500, seed=8, steps_per_pulse=2, cache=False,
            synthesis_restarts=2, synthesis_iterations=800,
        )

    def test_min_k_monotone_against_membership(self, sqrt_iswap_coverage):
        haar = haar_coordinate_samples(500, seed=12)
        ks = sqrt_iswap_coverage.min_k(haar)
        for coords, k in zip(haar, ks):
            if k <= sqrt_iswap_coverage.kmax:
                region = sqrt_iswap_coverage.coverage_for(int(k))
                assert region.contains(coords)[0]

    def test_known_haar_fraction(self, sqrt_iswap_coverage):
        # ~79% of Haar gates fit in two sqrt(iSWAP) applications.
        haar = haar_coordinate_samples(2000, seed=13)
        fraction = sqrt_iswap_coverage.coverage_for(2).contains(haar).mean()
        assert 0.70 < fraction < 0.88

    def test_k3_covers_chamber(self, sqrt_iswap_coverage):
        haar = haar_coordinate_samples(2000, seed=14)
        fraction = sqrt_iswap_coverage.coverage_for(3).contains(haar).mean()
        assert fraction > 0.98

    def test_coverage_for_bounds(self, sqrt_iswap_coverage):
        with pytest.raises(ValueError):
            sqrt_iswap_coverage.coverage_for(0)
        with pytest.raises(ValueError):
            sqrt_iswap_coverage.coverage_for(7)

    def test_expected_haar_k(self, sqrt_iswap_coverage):
        haar = haar_coordinate_samples(2000, seed=15)
        expected, fractions = sqrt_iswap_coverage.expected_haar_k(haar)
        assert 2.1 < expected < 2.35  # paper: 2.21
        assert fractions.sum() == pytest.approx(1.0)


class TestCaching:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_COVERAGE_CACHE", raising=False)
        kwargs = dict(
            gc=np.pi / 2, gg=0.0, pulse_duration=1.0, kmax=1,
            basis_name="cache_test", parallel=False, samples_per_k=200,
            seed=3, boost_targets=False,
        )
        first = build_coverage_set(**kwargs)
        # Clouds persist in the sqlite-backed CoverageStore (the legacy
        # per-key .npz layout is read-only migration now).
        assert (tmp_path / "coverage.sqlite").exists()
        assert len(list(tmp_path.glob("*.npz"))) == 0
        second = build_coverage_set(**kwargs)
        haar = haar_coordinate_samples(300, seed=4)
        assert np.array_equal(
            first.min_k(haar), second.min_k(haar)
        )

    def test_cache_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_COVERAGE_CACHE", "off")
        build_coverage_set(
            gc=np.pi / 2, gg=0.0, pulse_duration=1.0, kmax=1,
            basis_name="cache_off_test", parallel=False,
            samples_per_k=150, seed=3, boost_targets=False,
        )
        assert not (tmp_path / "coverage.sqlite").exists()

    @pytest.mark.parametrize(
        "value",
        ["0", "false", "off", "no", "FALSE", "Off", "NO", " 0 ", "\tOff\n"],
    )
    def test_cache_disabled_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_COVERAGE_CACHE", value)
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "", "anything"])
    def test_cache_enabled_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_COVERAGE_CACHE", value)
        assert cache_enabled()

    def test_cache_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COVERAGE_CACHE", raising=False)
        assert cache_enabled()


class TestExpectedCost:
    def test_cheapest_candidate_wins(self):
        def cube(low: float, high: float) -> np.ndarray:
            axis = np.array([low, high])
            grid = np.meshgrid(axis, axis, axis, indexing="ij")
            return np.column_stack([g.ravel() for g in grid])

        big = RegionHull(cube(0.0, 1.0))
        small = RegionHull(cube(0.4, 0.6))
        big_region = KCoverage(k=1, left=big, right=None, num_points=8)
        small_region = KCoverage(k=1, left=small, right=None, num_points=8)
        samples = np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])
        cost = expected_cost(
            [(big_region, 2.0), (small_region, 1.0)], samples
        )
        # Center point priced at 1.0, outer point at 2.0.
        assert cost == pytest.approx(1.5)

    def test_uncovered_raises_without_fallback(self, rng):
        region = KCoverage(
            k=1,
            left=RegionHull(rng.uniform(0, 0.1, (50, 3))),
            right=None,
            num_points=50,
        )
        with pytest.raises(ValueError):
            expected_cost([(region, 1.0)], np.array([[0.9, 0.9, 0.9]]))

    def test_fallback_cost_applied(self, rng):
        region = KCoverage(
            k=1,
            left=RegionHull(rng.uniform(0, 0.1, (50, 3))),
            right=None,
            num_points=50,
        )
        cost = expected_cost(
            [(region, 1.0)], np.array([[0.9, 0.9, 0.9]]), fallback_cost=5.0
        )
        assert cost == pytest.approx(5.0)
