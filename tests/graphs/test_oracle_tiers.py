"""Byte-budgeted oracle tiers: spill, promotion, exact accounting.

The ``max_bytes=`` budget turns the :class:`DistanceOracle` into a two-tier
cache — dense hot rows, memory-mapped cold rows.  These tests pin the tier
mechanics (spill on budget pressure, promotion on access, counters) and the
invariant the sweep pipeline depends on: *values and hit/miss accounting are
identical to the unbounded oracle* — the budget changes where rows live,
never what a query returns or how it is counted.
"""

import gc
import warnings

import numpy as np
import pytest

from repro.core.uniform import UniformScheme
from repro.graphs import generators
from repro.graphs.oracle import DistanceOracle
from repro.graphs.store import GraphStore
from repro.routing.simulator import estimate_expected_steps


def row_bytes(graph):
    """Bytes of one cached oracle row for *graph*."""
    return DistanceOracle(graph).distances_from(0).nbytes


@pytest.fixture
def cycle():
    return generators.cycle_graph(64)


class TestBudgetValidation:
    def test_max_bytes_must_be_positive(self, cycle):
        with pytest.raises(ValueError):
            DistanceOracle(cycle, max_bytes=0)
        with pytest.raises(ValueError):
            DistanceOracle(cycle, max_bytes=-5)

    def test_none_is_unbounded(self, cycle):
        oracle = DistanceOracle(cycle)
        assert oracle.max_bytes is None
        for s in range(20):
            oracle.distances_from(s)
        assert oracle.cold_spills == 0
        assert oracle.cache_size() == 20


class TestSpillAndPromotion:
    def test_budget_bounds_resident_bytes(self, cycle):
        budget = 3 * row_bytes(cycle)
        oracle = DistanceOracle(cycle, max_bytes=budget)
        for s in range(16):
            oracle.distances_from(s)
        assert oracle.resident_bytes() <= budget
        assert oracle.cold_spills >= 13
        stats = oracle.memory_stats()
        assert stats["cold_entries"] == oracle.cold_spills - oracle.cold_promotions
        assert stats["max_bytes"] == budget

    def test_values_identical_to_unbounded(self, cycle):
        tight = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        loose = DistanceOracle(cycle)
        for s in list(range(12)) + [3, 0, 7, 11, 2]:
            np.testing.assert_array_equal(
                tight.distances_from(s), loose.distances_from(s)
            )
            np.testing.assert_array_equal(
                tight.next_local_to_many([s]), loose.next_local_to_many([s])
            )

    def test_cold_hit_is_an_accounted_hit(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        for s in range(6):
            oracle.distances_from(s)
        assert (oracle.hits, oracle.misses) == (0, 6)
        spilled = oracle.cold_spills
        assert spilled > 0
        # Source 0 was evicted to cold long ago; re-reading it is a *hit*.
        oracle.distances_from(0)
        assert (oracle.hits, oracle.misses) == (1, 6)
        assert oracle.cold_hits == 1
        assert oracle.cold_promotions == 1

    def test_accounting_matches_unbounded_oracle(self, cycle):
        """Same query trace → same hit/miss/preloaded counts, any budget."""
        trace = [0, 1, 2, 3, 4, 0, 2, 5, 1, 6, 6, 0]
        tight = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        loose = DistanceOracle(cycle)
        for s in trace:
            tight.distances_from(s)
            loose.distances_from(s)
        assert (tight.hits, tight.misses) == (loose.hits, loose.misses)

    def test_prefetch_promotes_silently(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        for s in range(8):
            oracle.distances_from(s)
        hits, misses = oracle.hits, oracle.misses
        promotions = oracle.cold_promotions
        oracle.prefetch([0, 1, 2])  # all cold or hot: no BFS, no accounting
        assert (oracle.hits, oracle.misses) == (hits, misses)
        assert oracle.cold_promotions > promotions

    def test_hop_tables_stay_exact_while_rows_spill(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        tables = {t: oracle.next_local_to_many([t])[0].copy() for t in range(8)}
        assert oracle.cold_spills > 0
        for t, expected in tables.items():
            np.testing.assert_array_equal(oracle.next_local_to_many([t])[0], expected)

    def test_routing_blocks_under_budget(self, cycle):
        budget = 8 * row_bytes(cycle) + 4 * 2 * cycle.num_nodes * 8
        oracle = DistanceOracle(cycle, max_bytes=budget)
        loose = DistanceOracle(cycle)
        d1, n1, _ = oracle.routing_blocks((1, 9, 17, 33))
        d2, n2, _ = loose.routing_blocks((1, 9, 17, 33))
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(n1, n2)
        assert oracle.resident_bytes() <= budget

    def test_block_pool_starts_over_at_the_budget(self, cycle):
        pool_bytes = 4 * 2 * cycle.num_nodes * 8  # four pooled targets
        budget = 2 * pool_bytes + 2 * row_bytes(cycle)  # the pool gets half
        oracle = DistanceOracle(cycle, max_bytes=budget)
        for first in range(0, 24, 2):
            oracle.routing_blocks((first, first + 1))
            assert oracle.memory_stats()["block_bytes"] <= pool_bytes
            assert oracle.memory_stats()["block_bytes"] <= budget // 2
            assert oracle.resident_bytes() <= budget
        assert oracle.block_resets == 5  # 12 calls of 2 targets, 4 per pool

    def test_block_pool_leaves_half_the_budget_to_rows(self):
        # A pool allowed the whole budget would push every distance row out
        # to the cold tier, so each fresh row would come back as a promotion.
        ring = generators.cycle_graph(4096)
        budget = 1 << 20
        oracle = DistanceOracle(ring, max_bytes=budget)
        scheme = UniformScheme(ring, seed=3)
        for i in range(16):
            pairs = [
                (97 * (4 * i + j) % 4096, (97 * (4 * i + j) + 2048) % 4096)
                for j in range(4)
            ]
            estimate_expected_steps(ring, scheme, pairs, trials=2, seed=i, oracle=oracle)
            assert oracle.memory_stats()["block_bytes"] <= budget // 2
        assert oracle.cold_promotions == 0


class TestExportWithColdTier:
    def test_export_includes_spilled_rows(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        for s in range(10):
            oracle.distances_from(s)
        state = oracle.export_state()
        assert set(state["dist_sources"].tolist()) == set(range(10))
        fresh = DistanceOracle(cycle)
        fresh.absorb_state(state)
        assert fresh.preloaded == 10
        assert fresh.misses == 0
        reference = DistanceOracle(cycle)
        for s in range(10):
            np.testing.assert_array_equal(
                fresh.distances_from(s), reference.distances_from(s)
            )
        assert fresh.misses == 0  # every row really was preloaded

    def test_absorb_skips_rows_already_spilled(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        oracle.prefetch(range(6))
        assert oracle.memory_stats()["cold_entries"] == 4  # rows 0..3 went cold
        donor = DistanceOracle(cycle)
        donor.prefetch([0])
        oracle.absorb_state(donor.export_state())
        sources = oracle.export_state()["dist_sources"].tolist()
        assert sorted(sources) == list(range(6))  # row 0 held once, not twice
        assert oracle.preloaded == 0
        oracle.clear()

    def test_clear_resets_tiers_but_keeps_counters(self, cycle):
        oracle = DistanceOracle(cycle, max_bytes=2 * row_bytes(cycle))
        for s in range(8):
            oracle.distances_from(s)
        spills = oracle.cold_spills
        assert spills > 0
        oracle.clear()
        assert oracle.resident_bytes() == 0
        assert oracle.memory_stats()["cold_entries"] == 0
        assert oracle.cold_spills == spills  # counters survive clear()
        np.testing.assert_array_equal(
            oracle.distances_from(3), DistanceOracle(cycle).distances_from(3)
        )


class TestColdTierFile:
    """A dropped oracle closes its cold-tier file without an explicit clear()."""

    def _assert_no_unclosed_file(self, build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()  # everything it makes is dropped on return
            gc.collect()
        unclosed = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert unclosed == []

    def test_dropped_oracle_closes_its_cold_tier(self):
        def build():
            oracle = DistanceOracle(generators.torus_graph([32, 32]), max_bytes=64 * 1024)
            oracle.prefetch(range(240))
            assert oracle.memory_stats()["cold_entries"] > 0

        self._assert_no_unclosed_file(build)

    def test_dropped_store_closes_its_oracles_cold_tier(self):
        def build():
            store = GraphStore(oracle_max_bytes=64 * 1024)
            entry = store.instance(
                "torus", 1024, 0, lambda n, s: generators.torus_graph([32, 32])
            )
            entry.oracle.prefetch(range(240))
            assert entry.oracle.memory_stats()["cold_entries"] > 0

        self._assert_no_unclosed_file(build)
