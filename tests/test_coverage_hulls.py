"""Coverage regions decided by facet halfspaces, and the cloud store.

``RegionHull.contains`` decides membership from the hull's facet
equations: a point is inside exactly when every margin ``A·x + b`` is at
most ``FACET_BAND``.  These tests pin what that rule decides on the
rule engines' four sets — every cloud point inside its own region, the
on-facet chamber landmarks, the Haar K fractions — that a batch answers
as its rows queried one by one, and that the coverage store (schema v3,
clouds only) loads a set that answers exactly as the one it built.
"""

from __future__ import annotations

import io
import sqlite3
import threading
import time

import numpy as np
import pytest

import test_passes
from repro.circuits.workloads import get_workload
from repro.cli import main
from repro.core.coverage import (
    _assemble_coverage,
    build_coverage_set,
    cache_enabled,
    coverage_cache_key,
    default_cache_dir,
    haar_coordinate_samples,
)
from repro.core.decomposition_rules import (
    BaselineSqrtISwapRules,
    ParallelSqrtISwapRules,
    coverage_for_basis,
)
from repro.obs import metrics
from repro.quantum.weyl import named_gate_coordinates
from repro.service.coverage_store import CoverageStore, _encode_clouds
from repro.service.jobs import circuit_digest
from repro.synthesis.engine import default_engine
from repro.transpiler.coupling import square_lattice
from repro.transpiler.pipeline import transpile

#: ``coverage_for_basis`` arguments of the rule engines' four sets.
DEFAULT_SPECS = (
    ("sqrt_iSWAP", 3, False),
    ("iSWAP", 1, True),
    ("sqrt_iSWAP", 1, True),
    ("sqrt_iSWAP", 2, True),
)

#: Chamber landmarks; most sit exactly on a coverage-hull facet.
LANDMARK_NAMES = (
    "I", "CNOT", "sqrt_CNOT", "B", "iSWAP", "sqrt_iSWAP", "sqrt_SWAP", "SWAP",
)
LANDMARKS = {name: named_gate_coordinates(name) for name in LANDMARK_NAMES}
LANDMARKS["(1.2,0,0)"] = np.array([1.2, 0.0, 0.0])

#: Landmarks inside each (set, K) region.
_BASELINE_K2 = {"I", "CNOT", "sqrt_CNOT", "B", "iSWAP", "sqrt_iSWAP", "(1.2,0,0)"}
LANDMARK_MEMBERS = {
    (DEFAULT_SPECS[0], 1): {"sqrt_iSWAP"},
    (DEFAULT_SPECS[0], 2): _BASELINE_K2,
    (DEFAULT_SPECS[0], 3): _BASELINE_K2 | {"sqrt_SWAP", "SWAP"},
    (DEFAULT_SPECS[1], 1): _BASELINE_K2,
    (DEFAULT_SPECS[2], 1): {"I", "sqrt_iSWAP"},
    (DEFAULT_SPECS[3], 1): {"I", "sqrt_iSWAP"},
    (DEFAULT_SPECS[3], 2): {"iSWAP"},
}

#: Smallest covering K of 20k Haar samples (seed 99), counted per K =
#: 0..kmax+1.
HAAR_K_COUNTS = {
    "small": [0, 0, 0, 20000],
    DEFAULT_SPECS[0]: [0, 0, 15818, 4182, 0],
    DEFAULT_SPECS[1]: [0, 15818, 4182],
    DEFAULT_SPECS[2]: [0, 152, 19848],
    DEFAULT_SPECS[3]: [0, 152, 17600, 2248],
}

#: Small preset: seconds to build, two K.
SMALL = dict(
    gc=np.pi / 2, gg=0.0, pulse_duration=1.0, kmax=2,
    basis_name="hull_test", parallel=False, samples_per_k=150,
    seed=3, boost_targets=False,
)
SMALL_KEY = coverage_cache_key(
    gc=np.pi / 2, gg=0.0, pulse_duration=1.0, kmax=2,
    basis_name="hull_test", parallel=False, samples_per_k=150,
    steps_per_pulse=4, seed=3, boost_targets=False,
    synthesis_restarts=3, synthesis_iterations=1200,
)


def _same_membership(first, second, coords) -> None:
    for k in range(1, first.kmax + 1):
        assert np.array_equal(
            first.coverage_for(k).contains(coords),
            second.coverage_for(k).contains(coords),
        ), f"K={k} membership diverged"


def _columns(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        return {row[1] for row in conn.execute("PRAGMA table_info(clouds)")}
    finally:
        conn.close()


def _schema(path) -> str:
    conn = sqlite3.connect(path)
    try:
        (schema,) = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
    finally:
        conn.close()
    return schema


class TestCloudTier:
    def test_fresh_instance_assembles_from_clouds(self, tmp_path):
        path = tmp_path / "coverage.sqlite"
        builds = metrics.counter("repro.coverage.builds")
        cold_store = CoverageStore(path=path)
        cold = build_coverage_set(store=cold_store, **SMALL)
        assert cold_store.stats.misses == 1

        built_before = builds.value
        warm_store = CoverageStore(path=path)
        warm = build_coverage_set(store=warm_store, **SMALL)
        assert warm_store.stats.disk_hits == 1
        assert warm_store.stats.misses == 0
        assert builds.value == built_before  # never re-sampled
        _same_membership(cold, warm, haar_coordinate_samples(500, seed=4))
        usage = warm_store.disk_usage()
        assert usage["clouds"] == 1 and usage["cloud_bytes"] > 0
        assert _columns(path) == {"key", "kmax", "payload"}
        assert _schema(path) == "3"

    def test_payload_is_pickle_free_clouds(self, tmp_path):
        path = tmp_path / "coverage.sqlite"
        build_coverage_set(store=CoverageStore(path=path), **SMALL)
        conn = sqlite3.connect(path)
        try:
            (payload,) = conn.execute(
                "SELECT payload FROM clouds WHERE key = ?", (SMALL_KEY,)
            ).fetchone()
        finally:
            conn.close()
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            assert sorted(data.files) == ["k1", "k2"]
            assert all(data[name].dtype == np.float64 for name in data.files)

    def test_stats_mirror_into_registry(self):
        from repro.obs import REGISTRY
        from repro.service.coverage_store import CoverageStoreStats

        before = REGISTRY.snapshot()["counters"]
        stats = CoverageStoreStats()
        stats.disk_hits += 2
        stats.misses += 1
        after = REGISTRY.snapshot()["counters"]
        for name, delta in (("disk_hits", 2), ("misses", 1)):
            key = f"repro.cache.coverage.{name}"
            assert after[key] - before.get(key, 0) == delta
        assert stats.as_dict() == {
            "memory_hits": 0, "disk_hits": 2, "misses": 1, "puts": 0,
        }

    def test_memory_only_store_reports_no_disk(self):
        store = CoverageStore(persistent=False)
        build_coverage_set(store=store, **SMALL)
        assert store.stats.misses == 1
        assert store.disk_usage() == {"clouds": 0, "cloud_bytes": 0}


def _v1_store(path, clouds) -> None:
    """A coverage database exactly as schema v1 wrote it."""
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO meta VALUES ('schema', '1')")
        conn.execute(
            "CREATE TABLE clouds (key TEXT PRIMARY KEY,"
            " kmax INTEGER NOT NULL, payload BLOB NOT NULL)"
        )
        conn.execute(
            "INSERT INTO clouds VALUES (?, ?, ?)",
            ("v1-key", len(clouds), _encode_clouds(clouds)),
        )
        conn.commit()
    finally:
        conn.close()


def _v2_store(path, clouds) -> None:
    """A schema v2 database: the v1 layout plus a filled ``hulls`` column."""
    _v1_store(path, clouds)
    conn = sqlite3.connect(path)
    try:
        conn.execute("ALTER TABLE clouds ADD COLUMN hulls BLOB")
        conn.execute("UPDATE clouds SET hulls = ?", (b"PK\x03\x04 stale",))
        conn.execute("UPDATE meta SET value = '2' WHERE key = 'schema'")
        conn.commit()
    finally:
        conn.close()


def _assert_same_clouds(original, restored) -> None:
    assert restored is not None
    for before, after in zip(original, restored):
        assert np.array_equal(before, after)


class TestSchemaMigration:
    def _clouds(self, rng):
        return [rng.uniform(0, 1, (40, 3)), rng.uniform(0, 1, (50, 3))]

    def test_v1_store_upgrades_in_place(self, tmp_path, rng):
        path = tmp_path / "coverage.sqlite"
        clouds = self._clouds(rng)
        _v1_store(path, clouds)
        store = CoverageStore(path=path)
        loaded = store.get_clouds("v1-key", 2)
        assert store.persistent  # migrated, not degraded
        _assert_same_clouds(clouds, loaded)
        store.close()
        assert _schema(path) == "3"
        assert _columns(path) == {"key", "kmax", "payload"}

    def test_concurrent_open_of_v1_store(self, tmp_path, rng):
        """A second process opening the store mid-migration stays persistent."""
        path = tmp_path / "coverage.sqlite"
        clouds = self._clouds(rng)
        _v1_store(path, clouds)
        other = sqlite3.connect(path, isolation_level=None)
        other.execute("PRAGMA journal_mode=WAL")
        # The other opener holds the write lock, about to restamp.
        other.execute("BEGIN IMMEDIATE")
        seen = {}

        def open_store():
            store = CoverageStore(path=path)
            seen["clouds"] = store.get_clouds("v1-key", 2)
            seen["persistent"] = store.persistent
            store.close()

        thread = threading.Thread(target=open_store)
        thread.start()
        time.sleep(0.5)  # let the store reach the migration
        other.execute("UPDATE meta SET value = '3' WHERE key = 'schema'")
        other.execute("COMMIT")
        other.close()
        thread.join(timeout=60)
        assert seen["persistent"]  # not degraded to memory-only
        _assert_same_clouds(clouds, seen["clouds"])
        assert _schema(path) == "3"

    def test_v1_store_merges_via_cli(self, tmp_path, rng, capsys):
        source = tmp_path / "v1.sqlite"
        clouds = self._clouds(rng)
        _v1_store(source, clouds)
        # Stats read a v1 store without migrating it.
        assert main(["store", "stats", str(source)]) == 0
        out = capsys.readouterr().out
        assert "coverage store (coverage), 1 row(s)" in out
        assert "1 cloud row(s)" in out
        assert _schema(source) == "1"

        dest = tmp_path / "merged.sqlite"
        assert main(["store", "merge", "--into", str(dest), str(source)]) == 0
        assert "absorbed 1 row(s)" in capsys.readouterr().out
        merged = CoverageStore(path=dest)
        _assert_same_clouds(clouds, merged.get_clouds("v1-key", 2))

    def test_v2_store_opens_and_merges_without_hulls(
        self, tmp_path, rng, capsys
    ):
        source = tmp_path / "v2.sqlite"
        clouds = self._clouds(rng)
        _v2_store(source, clouds)
        store = CoverageStore(path=source)
        _assert_same_clouds(clouds, store.get_clouds("v1-key", 2))
        assert store.persistent
        # Writes into a v2 store stay readable by it.
        store.put_clouds("new-key", clouds)
        _assert_same_clouds(clouds, store.get_clouds("new-key", 2))
        store.close()
        assert _schema(source) == "2"

        dest = tmp_path / "merged.sqlite"
        assert main(["store", "merge", "--into", str(dest), str(source)]) == 0
        assert "absorbed 2 row(s)" in capsys.readouterr().out
        assert _columns(dest) == {"key", "kmax", "payload"}
        merged = CoverageStore(path=dest)
        _assert_same_clouds(clouds, merged.get_clouds("v1-key", 2))
        assert main(["store", "stats", str(dest)]) == 0
        assert "2 cloud row(s)" in capsys.readouterr().out


class _KeyRecordingStore(CoverageStore):
    """Coverage store that remembers the keys its cloud tier was asked for."""

    def __init__(self, path):
        super().__init__(path=path)
        self.keys: list[str] = []

    def get_clouds(self, key, kmax):
        self.keys.append(key)
        return super().get_clouds(key, kmax)


@pytest.fixture(scope="module")
def default_store_path(tmp_path_factory):
    """Store holding the rule engines' sets (built cold if caching is off)."""
    if cache_enabled():
        return default_cache_dir() / "coverage.sqlite"
    return tmp_path_factory.mktemp("cloud-store") / "coverage.sqlite"


def _load_from_store(spec, path):
    """``coverage_for_basis(*spec)`` as a fresh process loads it.

    A first pass makes sure the row exists (cold build when missing); a
    fresh store instance then must answer from its clouds.  Returns the
    loaded set, the store that served it, and the row key.
    """
    engine = default_engine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "store", CoverageStore(path=path))
        coverage_for_basis.__wrapped__(*spec)
        store = _KeyRecordingStore(path)
        patch.setattr(engine, "store", store)
        loaded = coverage_for_basis.__wrapped__(*spec)
    assert store.stats.disk_hits == 1 and store.stats.misses == 0
    (key,) = store.keys
    return loaded, store, key


@pytest.fixture(scope="module")
def round_trips(default_store_path, tmp_path_factory):
    """(loaded from the store, independently assembled, clouds) per subject.

    ``"small"`` compares a warm load against its cold build; the rule
    engines' default sets need ~3 min of cold sampling when the coverage
    cache is off, so their tests are marked slow.
    """
    made = {}

    def get(subject):
        if subject not in made:
            if subject == "small":
                path = tmp_path_factory.mktemp("small-clouds") / "c.sqlite"
                fresh = build_coverage_set(store=CoverageStore(path=path), **SMALL)
                store = CoverageStore(path=path)
                loaded = build_coverage_set(store=store, **SMALL)
                assert store.stats.disk_hits == 1
                clouds = store.get_clouds(SMALL_KEY, SMALL["kmax"])
            else:
                loaded, store, key = _load_from_store(
                    subject, default_store_path
                )
                basis, kmax, parallel = subject
                clouds = store.get_clouds(key, kmax)
                fresh = _assemble_coverage(basis, parallel, clouds)
            assert clouds is not None
            made[subject] = (loaded, fresh, clouds)
        return made[subject]

    return get


SUBJECTS = [pytest.param("small", id="small")] + [
    pytest.param(spec, id="-".join(map(str, spec)), marks=pytest.mark.slow)
    for spec in DEFAULT_SPECS
]


@pytest.fixture(scope="module", params=SUBJECTS)
def subject(request):
    return request.param


@pytest.fixture(scope="module")
def loaded_and_fresh(subject, round_trips):
    return round_trips(subject)


def _geometry(coverage) -> list[tuple[str, np.ndarray]]:
    """Every array that decides a set's membership, by name."""
    out = []
    for region in coverage.coverages:
        for side, hull in (("left", region.left), ("right", region.right)):
            if hull is None:
                continue
            for name in ("centroid", "basis", "rank", "_interval", "_facets"):
                value = getattr(hull, name)
                if value is not None:
                    out.append((f"K{region.k}.{side}.{name}", np.asarray(value)))
    return out


class TestLoadedHullParity:
    """Facet decisions of sets as a fresh process loads them."""

    def test_landmarks_batched_and_solo(self, loaded_and_fresh):
        loaded, fresh, _ = loaded_and_fresh
        landmarks = np.array(list(LANDMARKS.values()))
        filler = np.random.default_rng(9).uniform(0, 1.6, size=(40, 3))
        batch = np.vstack([filler, landmarks, filler[::-1], landmarks])
        for k in range(1, loaded.kmax + 1):
            region = loaded.coverage_for(k)
            batched = region.contains(batch)
            solo = np.array([region.contains(row)[0] for row in batch])
            assert np.array_equal(batched, solo), f"K={k}"
        _same_membership(loaded, fresh, landmarks)

    def test_haar_samples(self, subject, loaded_and_fresh):
        loaded, fresh, _ = loaded_and_fresh
        haar = haar_coordinate_samples(20000, seed=99)
        ks = loaded.min_k(haar)
        counts = np.bincount(ks, minlength=loaded.kmax + 2).tolist()
        assert counts == HAAR_K_COUNTS[subject]
        assert np.array_equal(ks, fresh.min_k(haar))

    def test_cloud_points(self, loaded_and_fresh):
        """Every cloud point, the basis-power anchor included, is inside."""
        loaded, _, clouds = loaded_and_fresh
        for k, cloud in enumerate(clouds, start=1):
            inside = loaded.coverage_for(k).contains(cloud)
            assert inside.all(), f"K={k}: {np.flatnonzero(~inside)[:10]}"

    def test_hull_state_round_trips_exactly(self, loaded_and_fresh):
        """A loaded set's hull geometry is bitwise the assembled one's."""
        loaded, fresh, _ = loaded_and_fresh
        ours, theirs = _geometry(loaded), _geometry(fresh)
        assert [name for name, _ in ours] == [name for name, _ in theirs]
        for (name, mine), (_, other) in zip(ours, theirs):
            assert mine.dtype == other.dtype and np.array_equal(mine, other), name


def _members(region) -> set[str]:
    return {
        name for name, coords in LANDMARKS.items() if region.contains(coords)[0]
    }


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec", DEFAULT_SPECS, ids=["-".join(map(str, s)) for s in DEFAULT_SPECS]
)
def test_landmark_decisions(spec, round_trips):
    """On-facet landmarks are inside, exactly or rounded to the key grid."""
    loaded, _, _ = round_trips(spec)
    for k in range(1, loaded.kmax + 1):
        region = loaded.coverage_for(k)
        assert _members(region) == LANDMARK_MEMBERS[(spec, k)], f"K={k}"
        for name, coords in LANDMARKS.items():
            rounded = np.round(coords, 8) + 0.0
            assert region.contains(rounded)[0] == (
                name in LANDMARK_MEMBERS[(spec, k)]
            ), (name, k)


@pytest.mark.slow
def test_baseline_facet_decisions_survive_reload(round_trips):
    """CNOT is in the baseline K=2 and K=3 regions, sqrt(CNOT) in K=2."""
    loaded, _, _ = round_trips(DEFAULT_SPECS[0])
    cnot = named_gate_coordinates("CNOT")
    sqrt_cnot = named_gate_coordinates("sqrt_CNOT")
    assert loaded.coverage_for(2).contains(cnot)[0]
    assert loaded.coverage_for(2).contains(sqrt_cnot)[0]
    assert loaded.coverage_for(3).contains(cnot)[0]


@pytest.mark.slow
def test_baseline_landmark_decisions_monotone_in_k(round_trips):
    """A landmark inside the baseline K region stays inside at K+1."""
    loaded, _, _ = round_trips(DEFAULT_SPECS[0])
    chain = [_members(region) for region in loaded.coverages]
    for k, (low, high) in enumerate(zip(chain, chain[1:]), start=1):
        assert low <= high, f"K={k} -> {k + 1} drops {sorted(low - high)}"


@pytest.fixture(scope="module")
def warm_rules(round_trips):
    """Both default rule engines over sets loaded from the store."""
    sets = {spec: round_trips(spec)[0] for spec in DEFAULT_SPECS}
    baseline = BaselineSqrtISwapRules(coverage=sets[DEFAULT_SPECS[0]])
    parallel = ParallelSqrtISwapRules(
        iswap_parallel_k1=sets[DEFAULT_SPECS[1]].coverage_for(1),
        sqrt_parallel_k1=sets[DEFAULT_SPECS[2]].coverage_for(1),
        sqrt_parallel_k2=sets[DEFAULT_SPECS[3]].coverage_for(2),
    )
    return {"baseline": baseline, "parallel": parallel}


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["ghz", "qft"])
@pytest.mark.parametrize("engine", ["baseline", "parallel"])
def test_pinned_digests_on_warm_hull_store(workload, engine, warm_rules):
    """The trial-stream digest pins hold with every set loaded warm."""
    result = transpile(
        get_workload(workload, 8), square_lattice(2, 4), warm_rules[engine],
        trials=3, seed=7,
    )
    assert circuit_digest(result.circuit) == (
        test_passes.TestTrialStreams.PINNED[(workload, engine)]
    )
