"""Tests for the cross-experiment GraphStore cache service (ISSUE-4).

Covers the acceptance criteria: with a run-wide store, a two-experiment
sweep over the same ``(family, n, seed)`` instances performs zero graph
rebuilds and zero repeat BFS sweeps in the second experiment
(counting-oracle test), the disk spill round-trips exactly and rejects
content-fingerprint mismatches, and ``--jobs N`` with the cache on stays
bitwise-identical to a serial sweep without it.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import render_markdown, run_all
from repro.graphs import generators
from repro.graphs.oracle import DistanceOracle
from repro.graphs.store import (
    SPILL_SCHEMA_VERSION,
    GraphStore,
    graph_fingerprint,
    load_oracle_spill,
    process_store,
    read_spill_header,
    write_oracle_spill,
)

TINY = ExperimentConfig(sizes=[48, 96], num_pairs=3, trials=3, seed=7)


class _RecordingFactory:
    """Oracle factory keeping every oracle it built (for hit/miss counting)."""

    def __init__(self):
        self.oracles = []

    def __call__(self, graph):
        oracle = DistanceOracle(graph)
        self.oracles.append(oracle)
        return oracle

    @property
    def total_misses(self):
        return sum(o.misses for o in self.oracles)

    @property
    def total_hits(self):
        return sum(o.hits for o in self.oracles)


def _ring(n, seed):
    return generators.cycle_graph(n)


class TestFingerprint:
    def test_structure_sensitive_name_insensitive(self):
        a = generators.cycle_graph(32)
        b = generators.cycle_graph(32).with_name("other-name")
        c = generators.path_graph(32)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)


class TestInstanceRegistry:
    def test_memoises_by_key(self):
        store = GraphStore()
        e1 = store.instance("ring", 64, 7, _ring)
        e2 = store.instance("ring", 64, 7, _ring)
        assert e1 is e2
        assert store.stats()["graph_builds"] == 1
        assert store.stats()["graph_hits"] == 1

    def test_distinct_keys_are_distinct_instances(self):
        store = GraphStore()
        base = store.instance("ring", 64, 7, _ring)
        assert store.instance("ring", 64, 8, _ring) is not base
        assert store.instance("ring", 48, 7, _ring) is not base
        assert store.instance("path", 64, 7, lambda n, s: generators.path_graph(n)) is not base
        assert store.stats()["graph_builds"] == 4

    def test_factory_extras_and_memoised_extra(self):
        store = GraphStore()
        entry = store.instance(
            "x", 16, 0, lambda n, s: (generators.path_graph(n), {"payload": 42})
        )
        assert entry.extras["payload"] == 42
        calls = []
        assert entry.extra("derived", lambda: calls.append(1) or "built") == "built"
        assert entry.extra("derived", lambda: calls.append(1) or "rebuilt") == "built"
        assert len(calls) == 1

    def test_oracle_factory_hook(self):
        factory = _RecordingFactory()
        store = GraphStore(oracle_factory=factory)
        entry = store.instance("ring", 32, 1, _ring)
        assert entry.oracle is factory.oracles[0]


class TestDiskSpill:
    def test_round_trip_serves_bfs_without_recompute(self, tmp_path):
        writer = GraphStore(spill_dir=tmp_path)
        entry = writer.instance("ring", 64, 7, _ring)
        entry.oracle.prefetch([1, 2, 3])
        entry.oracle.next_local_to_many([2])
        assert writer.spill() == 1
        assert writer.spill() == 0  # unchanged oracle: no rewrite

        # A fresh store (≈ another worker process) absorbs the arrays.
        reader = GraphStore(spill_dir=tmp_path)
        loaded = reader.instance("ring", 64, 7, _ring)
        assert reader.stats()["spill_loads"] == 1
        assert loaded.oracle.preloaded == 3  # distance rows only
        np.testing.assert_array_equal(
            loaded.oracle.distances_from(2), entry.oracle.distances_from(2)
        )
        np.testing.assert_array_equal(
            loaded.oracle.next_local_to_many([2]), entry.oracle.next_local_to_many([2])
        )
        assert loaded.oracle.misses == 0  # zero BFS repeated, hop table included

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        writer = GraphStore(spill_dir=tmp_path)
        entry = writer.instance("ring", 64, 7, _ring)
        entry.oracle.prefetch([1, 2])
        writer.spill()

        # Same (family, n, seed) key, different generator: the spilled arrays
        # describe another graph and must NOT be absorbed.
        liar = GraphStore(spill_dir=tmp_path)
        other = liar.instance("ring", 64, 7, lambda n, s: generators.path_graph(n))
        assert liar.stats()["spill_rejected"] == 1
        assert liar.stats()["spill_loads"] == 0
        assert other.oracle.preloaded == 0
        # ... and the oracle still computes correct (fresh) distances.
        assert other.oracle(0, 63) == 63

    def test_corrupt_spill_rejected(self, tmp_path):
        writer = GraphStore(spill_dir=tmp_path)
        entry = writer.instance("ring", 64, 7, _ring)
        entry.oracle.prefetch([1])
        writer.spill()
        for path in tmp_path.glob("*.spill"):
            path.write_bytes(b"this is not a spill file")
        reader = GraphStore(spill_dir=tmp_path)
        loaded = reader.instance("ring", 64, 7, _ring)
        assert reader.stats()["spill_rejected"] == 1
        assert loaded.oracle.preloaded == 0

    def test_schema_version_stamped(self, tmp_path):
        store = GraphStore(spill_dir=tmp_path)
        entry = store.instance("ring", 32, 1, _ring)
        entry.oracle.prefetch([0])
        store.spill()
        (path,) = tmp_path.glob("*.spill")
        header, data_offset = read_spill_header(path)
        assert header["schema_version"] == SPILL_SCHEMA_VERSION
        assert header["fingerprint"] == entry.fingerprint
        assert data_offset % 64 == 0  # rows start page/cache-line aligned


class TestProcessStore:
    def test_singleton_per_spill_dir(self, tmp_path):
        a = process_store(tmp_path)
        b = process_store(tmp_path)
        other = process_store(tmp_path / "elsewhere")
        assert a is b
        assert a is not other
        assert process_store() is process_store()


class TestCrossExperimentReuse:
    """The tentpole acceptance: second experiment = zero builds, zero BFS."""

    def test_second_experiment_zero_graph_builds_zero_bfs(self):
        factory = _RecordingFactory()
        store = GraphStore(oracle_factory=factory)

        # First experiment (EXP-6: ball + uniform over the standard families)
        # populates the store.
        run_all(TINY, only=["EXP-6"], store=store)
        builds_after_first = store.stats()["graph_builds"]
        misses_after_first = factory.total_misses
        assert builds_after_first > 0 and misses_after_first > 0

        # Second experiment (EXP-1: uniform over the SAME families/sizes):
        # every instance is a store hit and every BFS query — pair sampling,
        # routing targets, hop tables — is served from the warmed oracles.
        run_all(TINY, only=["EXP-1"], store=store)
        assert store.stats()["graph_builds"] == builds_after_first
        assert factory.total_misses == misses_after_first
        assert factory.total_hits > 0

    def test_full_sweep_shares_instances_across_experiments(self):
        factory = _RecordingFactory()
        store = GraphStore(oracle_factory=factory)
        stats = {}
        run_all(TINY, store=store, stats=stats)
        cells = len(stats["executed"])
        # Strictly fewer instances than cells: experiments pooled graphs.
        assert 0 < stats["store"]["graph_builds"] < cells
        assert stats["store"]["graph_hits"] > 0
        assert stats["store"]["bfs_hits"] > 0

    def test_store_on_vs_off_identical_markdown(self):
        baseline = run_all(TINY, only=["EXP-1", "EXP-6"])
        shared = run_all(TINY, only=["EXP-1", "EXP-6"], store=GraphStore())
        assert render_markdown(shared) == render_markdown(baseline)


class TestJobsParityWithCache:
    def test_jobs_with_graph_cache_bitwise_identical_to_serial(self, tmp_path):
        config = TINY.scaled(sizes=[48])
        serial = run_all(config, only=["EXP-1", "EXP-8"], jobs=1)
        parallel = run_all(
            config,
            only=["EXP-1", "EXP-8"],
            jobs=2,
            graph_cache=tmp_path / "cache",
        )
        assert render_markdown(parallel) == render_markdown(serial)
        # The workers spilled their warmed instances for later runs.
        assert list((tmp_path / "cache").glob("*.spill"))

    def test_serial_graph_cache_spills_and_reloads(self, tmp_path):
        cache = tmp_path / "cache"
        stats1 = {}
        first = run_all(TINY, only=["EXP-1"], graph_cache=cache, stats=stats1)
        assert stats1["store"]["spill_saves"] > 0

        stats2 = {}
        second = run_all(TINY, only=["EXP-1"], graph_cache=cache, stats=stats2)
        assert render_markdown(second) == render_markdown(first)
        # The second run loaded every instance's BFS arrays from the spill
        # instead of recomputing them.
        assert stats2["store"]["spill_loads"] == stats2["store"]["graph_builds"]
        assert stats2["store"]["bfs_preloaded"] > 0
        assert stats2["store"]["bfs_misses"] == 0


class TestRawSpillFormat:
    """The v3 raw memmap spill layout (write/read/load round trip)."""

    def _warmed_state(self, n=64, sources=(1, 2, 5), tables=(2,)):
        graph = generators.cycle_graph(n)
        oracle = DistanceOracle(graph)
        oracle.prefetch(sources)
        oracle.next_local_to_many(tables)  # pooled hop tables are not spilled
        return graph, oracle, oracle.export_state()

    def test_memmap_round_trip_bitwise(self, tmp_path):
        graph, oracle, state = self._warmed_state()
        path = tmp_path / "x.spill"
        write_oracle_spill(path, state, fingerprint=graph_fingerprint(graph), n=64)
        loaded = load_oracle_spill(path, verify=True)
        np.testing.assert_array_equal(loaded["dist_sources"], state["dist_sources"])
        np.testing.assert_array_equal(loaded["dist_block"], state["dist_block"])
        # The blocks really are memmap-backed shared views, not copies.
        assert isinstance(loaded["dist_block"], np.memmap)
        assert not loaded["dist_block"].flags.writeable

    def test_absorbed_memmap_rows_are_budget_exempt(self, tmp_path):
        graph, oracle, state = self._warmed_state(sources=(1, 2, 5, 9))
        path = tmp_path / "x.spill"
        write_oracle_spill(path, state, fingerprint=graph_fingerprint(graph), n=64)
        row = oracle.distances_from(1).nbytes
        tight = DistanceOracle(graph, max_bytes=row)  # < the absorbed rows
        tight.absorb_state(load_oracle_spill(path), copy=False)
        assert tight.preloaded == 4
        # Mapped rows do not count against (or trip) the byte budget.
        assert tight.resident_bytes() == 0
        assert tight.cold_spills == 0
        assert tight.memory_stats()["mapped_bytes"] > 0
        np.testing.assert_array_equal(
            tight.distances_from(2), oracle.distances_from(2)
        )
        assert tight.misses == 0

    def test_truncated_file_rejected_and_recomputed(self, tmp_path):
        writer = GraphStore(spill_dir=tmp_path)
        entry = writer.instance("ring", 64, 7, _ring)
        entry.oracle.prefetch([1, 2])
        writer.spill()
        (path,) = tmp_path.glob("*.spill")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])  # chop the data section
        reader = GraphStore(spill_dir=tmp_path)
        loaded = reader.instance("ring", 64, 7, _ring)
        assert reader.stats()["spill_rejected"] == 1
        assert loaded.oracle.preloaded == 0
        assert loaded.oracle(0, 32) == 32  # recomputed, still correct

    def test_flipped_data_caught_by_verify(self, tmp_path):
        graph, oracle, state = self._warmed_state()
        path = tmp_path / "x.spill"
        write_oracle_spill(path, state, fingerprint=graph_fingerprint(graph), n=64)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip bits inside the data section, size unchanged
        path.write_bytes(bytes(data))
        load_oracle_spill(path)  # size/fingerprint checks alone cannot see it
        with pytest.raises(ValueError):
            load_oracle_spill(path, verify=True)

    def test_foreign_header_values_rejected(self, tmp_path):
        graph, oracle, state = self._warmed_state()
        path = tmp_path / "x.spill"
        write_oracle_spill(path, state, fingerprint="deadbeef", n=64)
        with pytest.raises(ValueError):
            load_oracle_spill(path, expected_fingerprint="cafebabe")
        with pytest.raises(ValueError):
            load_oracle_spill(path, expected_n=65)

    def test_empty_state_round_trips(self, tmp_path):
        graph = generators.cycle_graph(16)
        state = DistanceOracle(graph).export_state()
        path = tmp_path / "empty.spill"
        write_oracle_spill(path, state, fingerprint=graph_fingerprint(graph), n=16)
        loaded = load_oracle_spill(path, verify=True)
        assert loaded["dist_block"].shape == (0, 16)
