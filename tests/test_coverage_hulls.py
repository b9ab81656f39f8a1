"""Persisted coverage hulls: schema migration, stale payloads, and parity.

The coverage store keeps each assembled set's exact hull state (the
``RegionHull`` projections and facets plus the ``Delaunay`` arrays) next
to its point clouds, so fresh processes skip re-triangulation.  These
tests pin the contract that makes that safe: a loaded hull answers every
membership query exactly as a freshly assembled one — including the
on-facet chamber landmarks whose decisions the paper values depend on —
and any payload this build cannot trust falls back to re-assembly.
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
    RegionHull,
    _assemble_coverage,
    _hull_state,
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
from repro.quantum.weyl import named_gate_coordinates
from repro.service.coverage_store import (
    _HULL_FORMAT,
    CoverageStore,
    _encode_clouds,
)
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
LANDMARKS = np.array(
    [
        named_gate_coordinates("CNOT"),
        named_gate_coordinates("sqrt_CNOT"),
        [1.2, 0.0, 0.0],
        named_gate_coordinates("B"),
        named_gate_coordinates("iSWAP"),
        named_gate_coordinates("sqrt_SWAP"),
        named_gate_coordinates("SWAP"),
    ]
)

#: Small preset: seconds to build, two K so short payloads can occur.
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


def _hull_payload(path) -> bytes | None:
    conn = sqlite3.connect(path)
    try:
        (payload,) = conn.execute(
            "SELECT hulls FROM clouds WHERE key = ?", (SMALL_KEY,)
        ).fetchone()
    finally:
        conn.close()
    return payload


def _set_hull_payload(path, payload: bytes) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "UPDATE clouds SET hulls = ? WHERE key = ?", (payload, SMALL_KEY)
        )
        conn.commit()
    finally:
        conn.close()


class TestHullTier:
    def test_fresh_instance_loads_hulls_without_reassembly(self, tmp_path):
        path = tmp_path / "coverage.sqlite"
        cold_store = CoverageStore(path=path)
        cold = build_coverage_set(store=cold_store, **SMALL)
        assert cold_store.stats.misses == 1
        assert cold_store.stats.hull_misses == 1

        warm_store = CoverageStore(path=path)
        warm = build_coverage_set(store=warm_store, **SMALL)
        assert warm_store.stats.hull_hits == 1
        assert warm_store.stats.hull_misses == 0
        assert warm_store.stats.disk_hits == 0  # clouds never decoded
        _same_membership(cold, warm, haar_coordinate_samples(500, seed=4))
        usage = warm_store.disk_usage()
        assert usage["clouds"] == usage["hulls"] == 1
        assert usage["hull_bytes"] > usage["cloud_bytes"] > 0

    def test_payload_is_stamped_and_pickle_free(self, tmp_path):
        path = tmp_path / "coverage.sqlite"
        build_coverage_set(store=CoverageStore(path=path), **SMALL)
        with np.load(io.BytesIO(_hull_payload(path)), allow_pickle=False) as data:
            assert str(data["format"]) == _HULL_FORMAT
            assert int(data["kmax"]) == 2
            assert not any(data[name].dtype.hasobject for name in data.files)
            # The lazily computed barycentric transform is never stored.
            assert not any(name.endswith("._transform") for name in data.files)

    def test_new_clouds_drop_stale_hulls(self, tmp_path, rng):
        path = tmp_path / "coverage.sqlite"
        store = CoverageStore(path=path)
        build_coverage_set(store=store, **SMALL)
        store.put_clouds(SMALL_KEY, [rng.uniform(0, 1, (40, 3))] * 2)
        assert store.disk_usage()["hulls"] == 0

    def test_memory_only_store_misses_hull_tier(self):
        store = CoverageStore(persistent=False)
        build_coverage_set(store=store, **SMALL)
        assert store.stats.hull_misses == 1
        assert store.disk_usage()["hulls"] == 0

    def test_hull_stats_mirror_into_registry(self):
        from repro.obs import REGISTRY
        from repro.service.coverage_store import CoverageStoreStats

        before = REGISTRY.snapshot()["counters"]
        stats = CoverageStoreStats()
        stats.hull_hits += 2
        stats.hull_misses += 1
        after = REGISTRY.snapshot()["counters"]
        for name, delta in (("hull_hits", 2), ("hull_misses", 1)):
            key = f"repro.cache.coverage.{name}"
            assert after[key] - before.get(key, 0) == delta
        assert stats.as_dict()["hull_hits"] == 2


def _stale_token(path) -> None:
    with np.load(io.BytesIO(_hull_payload(path)), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["format"] = np.array("hulls-v1|scipy-0.0.0|numpy-0.0.0")
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _set_hull_payload(path, buffer.getvalue())


def _undecodable(path) -> None:
    _set_hull_payload(path, b"PK\x03\x04 truncated, not an npz archive")


def _out_of_range_simplices(path) -> None:
    """A payload whose Delaunay points past the end of its point array."""
    with np.load(io.BytesIO(_hull_payload(path)), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    name = next(n for n in arrays if n.endswith(".delaunay.simplices"))
    arrays[name] = arrays[name].copy()
    arrays[name][0, 0] = 1 << 30
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _set_hull_payload(path, buffer.getvalue())


def _fewer_k(path) -> None:
    store = CoverageStore(path=path)
    clouds = store.get_clouds(SMALL_KEY, 2)
    one_k = _assemble_coverage("hull_test", False, clouds[:1])
    store.put_hulls(SMALL_KEY, 1, _hull_state(one_k))
    store.close()


class TestStaleHullsFallBack:
    @pytest.mark.parametrize(
        "damage", [_stale_token, _undecodable, _fewer_k, _out_of_range_simplices],
        ids=["token-mismatch", "undecodable", "fewer-k", "bad-simplices"],
    )
    def test_reassembles_and_overwrites(self, tmp_path, damage):
        path = tmp_path / "coverage.sqlite"
        cold = build_coverage_set(store=CoverageStore(path=path), **SMALL)
        damage(path)

        store = CoverageStore(path=path)
        rebuilt = build_coverage_set(store=store, **SMALL)
        assert store.stats.hull_misses == 1
        assert store.stats.disk_hits == 1  # re-assembled from clouds
        assert store.stats.misses == 0  # never re-sampled
        with np.load(io.BytesIO(_hull_payload(path)), allow_pickle=False) as data:
            assert str(data["format"]) == _HULL_FORMAT
            assert int(data["kmax"]) == 2

        reloaded_store = CoverageStore(path=path)
        reloaded = build_coverage_set(store=reloaded_store, **SMALL)
        assert reloaded_store.stats.hull_hits == 1
        haar = haar_coordinate_samples(500, seed=5)
        _same_membership(cold, rebuilt, haar)
        _same_membership(cold, reloaded, haar)


def _set(name, value):
    return lambda state: state.__setitem__(name, value(state))


def _shifted(name, delta):
    return _set(name, lambda state: state[name] + np.asarray(delta, state[name].dtype))


def _poke(name, index, value):
    def corrupt(state):
        array = state[name].copy()
        array[index] = value
        state[name] = array

    return corrupt


#: Tampered hull states that from_state must refuse before scipy sees them.
CORRUPTIONS = {
    "simplex-past-points": _poke("delaunay.simplices", (3, 2), 10**6),
    "negative-simplex": _poke("delaunay.simplices", (0, 0), -1),
    "neighbor-past-simplices": _set(
        "delaunay.neighbors", lambda s: np.full_like(s["delaunay.neighbors"], 10**6)
    ),
    "neighbor-below-minus-one": _poke("delaunay.neighbors", (1, 1), -2),
    "coplanar-past-points": _set(
        "delaunay.coplanar",
        lambda s: np.array([[10**6, 0, 0]], s["delaunay.coplanar"].dtype),
    ),
    "npoints-too-large": _shifted("delaunay.npoints", 1),
    "nsimplex-too-large": _shifted("delaunay.nsimplex", 1),
    "ndim-off-rank": _shifted("delaunay.ndim", -1),
    "wrong-dtype": _set(
        "delaunay.simplices", lambda s: s["delaunay.simplices"].astype(np.int64)
    ),
    "unknown-field": _set("delaunay.extra", lambda s: np.zeros(3)),
    "lazy-field-stored": _set(
        "delaunay._transform", lambda s: np.zeros((1, 4, 3))
    ),
    "missing-field": lambda state: state.pop("delaunay.neighbors"),
    "facets-off-rank": _set("facets", lambda s: s["facets"][:, :-1]),
}


class TestHullStateValidation:
    @pytest.fixture(scope="class")
    def state(self):
        points = np.random.default_rng(11).uniform(0, 1, (300, 3))
        return RegionHull(points).state()

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_tampered_state_is_refused(self, state, corrupt):
        tampered = dict(state)
        corrupt(tampered)
        with pytest.raises(ValueError):
            RegionHull.from_state(tampered)


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
        assert loaded is not None
        for original, restored in zip(clouds, loaded):
            assert np.array_equal(original, restored)
        store.close()
        conn = sqlite3.connect(path)
        try:
            (schema,) = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(clouds)")
            }
        finally:
            conn.close()
        assert schema == "2"
        assert "hulls" in columns

    def test_concurrent_open_of_v1_store(self, tmp_path, rng):
        """A second process opening the store mid-migration stays persistent."""
        path = tmp_path / "coverage.sqlite"
        clouds = self._clouds(rng)
        _v1_store(path, clouds)
        other = sqlite3.connect(path, isolation_level=None)
        other.execute("PRAGMA journal_mode=WAL")
        # The other opener holds the write lock, about to add the column.
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
        other.execute("ALTER TABLE clouds ADD COLUMN hulls BLOB")
        other.execute("UPDATE meta SET value = '2' WHERE key = 'schema'")
        other.execute("COMMIT")
        other.close()
        thread.join(timeout=60)
        assert seen["persistent"]  # not degraded to memory-only
        for original, restored in zip(clouds, seen["clouds"]):
            assert np.array_equal(original, restored)

    def test_v1_store_merges_via_cli(self, tmp_path, rng, capsys):
        source = tmp_path / "v1.sqlite"
        clouds = self._clouds(rng)
        _v1_store(source, clouds)
        # Stats read a v1 store without migrating it.
        assert main(["store", "stats", str(source)]) == 0
        out = capsys.readouterr().out
        assert "coverage store (coverage), 1 row(s)" in out
        assert "hull state on 0 row(s)" in out

        dest = tmp_path / "merged.sqlite"
        assert main(["store", "merge", "--into", str(dest), str(source)]) == 0
        assert "absorbed 1 row(s)" in capsys.readouterr().out
        merged = CoverageStore(path=dest)
        loaded = merged.get_clouds("v1-key", 2)
        assert loaded is not None
        for original, restored in zip(clouds, loaded):
            assert np.array_equal(original, restored)

    def test_merge_carries_hull_state(self, tmp_path, capsys):
        source = tmp_path / "part.sqlite"
        build_coverage_set(store=CoverageStore(path=source), **SMALL)
        dest = tmp_path / "merged.sqlite"
        assert main(["store", "merge", "--into", str(dest), str(source)]) == 0
        capsys.readouterr()
        store = CoverageStore(path=dest)
        build_coverage_set(store=store, **SMALL)
        assert store.stats.hull_hits == 1
        assert main(["store", "stats", str(dest)]) == 0
        assert "hull state on 1 row(s)" in capsys.readouterr().out


class _KeyRecordingStore(CoverageStore):
    """Coverage store that remembers the keys its hull tier was asked for."""

    def __init__(self, path):
        super().__init__(path=path)
        self.keys: list[str] = []

    def get_hulls(self, key, kmax, rehydrate):
        self.keys.append(key)
        return super().get_hulls(key, kmax, rehydrate)


@pytest.fixture(scope="module")
def default_store_path(tmp_path_factory):
    """Store holding the rule engines' sets (built cold if caching is off)."""
    if cache_enabled():
        return default_cache_dir() / "coverage.sqlite"
    return tmp_path_factory.mktemp("hull-store") / "coverage.sqlite"


def _load_through_hull_tier(spec, path):
    """``coverage_for_basis(*spec)`` answered by the persisted hull tier.

    A first pass makes sure the row carries current hull state (cold
    build, or re-assembly of a row written before the hull tier); a
    fresh store instance then must load it.  Returns the loaded set, the
    store that served it, and the row key.
    """
    engine = default_engine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "store", CoverageStore(path=path))
        coverage_for_basis.__wrapped__(*spec)
        store = _KeyRecordingStore(path)
        patch.setattr(engine, "store", store)
        loaded = coverage_for_basis.__wrapped__(*spec)
    assert store.stats.hull_hits == 1 and store.stats.hull_misses == 0
    (key,) = store.keys
    return loaded, store, key


@pytest.fixture(scope="module")
def round_trips(default_store_path, tmp_path_factory):
    """(loaded-from-hulls, freshly assembled, clouds) per parity subject.

    Each subject is loaded and re-assembled once and shared by every
    test of the module.  ``"small"`` is the seconds-cheap preset; the
    rule engines' default sets need ~3 min of cold sampling when the
    coverage cache is off, so their tests are marked slow.
    """
    made = {}

    def get(subject):
        if subject not in made:
            if subject == "small":
                path = tmp_path_factory.mktemp("small-hulls") / "c.sqlite"
                build_coverage_set(store=CoverageStore(path=path), **SMALL)
                store = CoverageStore(path=path)
                loaded = build_coverage_set(store=store, **SMALL)
                assert store.stats.hull_hits == 1
                key, basis, kmax, parallel = SMALL_KEY, "hull_test", 2, False
            else:
                loaded, store, key = _load_through_hull_tier(
                    subject, default_store_path
                )
                basis, kmax, parallel = subject
            clouds = store.get_clouds(key, kmax)
            assert clouds is not None
            fresh = _assemble_coverage(basis, parallel, clouds)
            made[subject] = (loaded, fresh, clouds)
        return made[subject]

    return get


PARITY_SUBJECTS = [pytest.param("small", id="small")] + [
    pytest.param(spec, id="-".join(map(str, spec)), marks=pytest.mark.slow)
    for spec in DEFAULT_SPECS
]


@pytest.fixture(scope="module", params=PARITY_SUBJECTS)
def loaded_and_fresh(request, round_trips):
    return round_trips(request.param)


class TestLoadedHullParity:
    def test_landmarks_batched_and_solo(self, loaded_and_fresh):
        loaded, fresh, _ = loaded_and_fresh
        _same_membership(loaded, fresh, LANDMARKS)
        for point in LANDMARKS:
            _same_membership(loaded, fresh, point)

    def test_haar_samples(self, loaded_and_fresh):
        loaded, fresh, _ = loaded_and_fresh
        haar = haar_coordinate_samples(3000, seed=99)
        _same_membership(loaded, fresh, haar)
        assert np.array_equal(loaded.min_k(haar), fresh.min_k(haar))

    def test_cloud_points(self, loaded_and_fresh):
        loaded, fresh, clouds = loaded_and_fresh
        for cloud in clouds:
            _same_membership(loaded, fresh, cloud[::6])

    def test_hull_state_round_trips_exactly(self, loaded_and_fresh):
        loaded, fresh, _ = loaded_and_fresh
        ours, theirs = _hull_state(loaded), _hull_state(fresh)
        assert ours.keys() == theirs.keys()
        for name in ours:
            assert np.asarray(ours[name]).dtype == np.asarray(theirs[name]).dtype
            assert np.array_equal(ours[name], theirs[name]), name


@pytest.mark.slow
def test_baseline_facet_decisions_survive_reload(round_trips):
    """The non-monotone on-facet decisions a facet test would lose."""
    loaded, _, _ = round_trips(DEFAULT_SPECS[0])
    cnot = named_gate_coordinates("CNOT")
    sqrt_cnot = named_gate_coordinates("sqrt_CNOT")
    assert loaded.coverage_for(2).contains(cnot)[0]
    assert not loaded.coverage_for(2).contains(sqrt_cnot)[0]
    assert not loaded.coverage_for(3).contains(cnot)[0]


@pytest.fixture(scope="module")
def warm_hull_rules(round_trips):
    """Both default rule engines over sets loaded from the hull tier."""
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
def test_pinned_digests_on_warm_hull_store(workload, engine, warm_hull_rules):
    """The trial-stream digest pins hold with every set loaded from hulls."""
    result = transpile(
        get_workload(workload, 8), square_lattice(2, 4), warm_hull_rules[engine],
        trials=3, seed=7,
    )
    assert circuit_digest(result.circuit) == (
        test_passes.TestTrialStreams.PINNED[(workload, engine)]
    )
