"""Unit tests for the shared, byte-budgeted DistanceOracle."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.distances import UNREACHABLE, bfs_distances
from repro.graphs.oracle import DistanceOracle, next_local_pointers


def _rows(graph, count):
    """A byte budget of *count* cached rows of *graph*."""
    return count * DistanceOracle(graph).distances_from(0).nbytes


def _spilled(oracle):
    """Sources of the distance rows in the cold tier."""
    cold = oracle._cold_tier
    return sorted(cold._slots) if cold is not None else []


class TestBasicQueries:
    def test_distances_match_bfs(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        for source in range(grid4x4.num_nodes):
            np.testing.assert_array_equal(
                oracle.distances_from(source), bfs_distances(grid4x4, source)
            )

    def test_distances_to_aliases_from(self, cycle12):
        oracle = DistanceOracle(cycle12)
        assert oracle.distances_to(3) is oracle.distances_from(3)

    def test_callable_pairwise(self, path8):
        oracle = DistanceOracle(path8)
        assert oracle(0, 7) == 7
        assert oracle(4, 4) == 0

    def test_unreachable_pairs(self):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        oracle = DistanceOracle(g)
        assert oracle(0, 3) == UNREACHABLE

    def test_cached_arrays_are_read_only(self, cycle12):
        oracle = DistanceOracle(cycle12)
        arr = oracle.distances_from(0)
        with pytest.raises(ValueError):
            arr[0] = 99


class TestCachePolicy:
    def test_repeat_queries_hit_cache(self, cycle12):
        oracle = DistanceOracle(cycle12)
        a = oracle.distances_from(5)
        b = oracle.distances_from(5)
        assert a is b
        assert oracle.hits == 1 and oracle.misses == 1
        assert oracle.cache_size() == 1

    def test_lru_eviction(self, cycle12):
        oracle = DistanceOracle(cycle12, max_bytes=_rows(cycle12, 2))
        oracle.distances_from(0)
        oracle.distances_from(1)
        oracle.distances_from(0)  # refresh 0 -> 1 is now least recent
        oracle.distances_from(2)  # spills 1
        assert oracle.cache_size() == 2
        assert _spilled(oracle) == [1]
        misses = oracle.misses
        oracle.distances_from(1)  # promoted back from the cold tier, no BFS
        assert oracle.misses == misses
        assert oracle.cold_hits == 1

    def test_clear(self, cycle12):
        oracle = DistanceOracle(cycle12)
        oracle.distances_from(0)
        oracle.clear()
        assert oracle.cache_size() == 0


class TestPrefetch:
    def test_prefetch_fills_cache_batched(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.prefetch([0, 5, 10, 5, 0])
        assert oracle.cache_size() == 3
        hits = oracle.hits
        for s in (0, 5, 10):
            np.testing.assert_array_equal(
                oracle.distances_from(s), bfs_distances(grid4x4, s)
            )
        assert oracle.hits == hits + 3

    def test_prefetch_skips_cached(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.distances_from(0)
        misses = oracle.misses
        oracle.prefetch([0])
        assert oracle.misses == misses

    def test_prefetch_respects_cap(self, cycle12):
        budget = _rows(cycle12, 3)
        oracle = DistanceOracle(cycle12, max_bytes=budget)
        oracle.prefetch(range(10))
        assert oracle.cache_size() == 3
        assert oracle.resident_bytes() <= budget
        assert _spilled(oracle) == list(range(7))  # oldest first out


class TestSharedAcrossSubsystems:
    def test_decomposition_import_is_shared_class(self):
        from repro.decomposition.bags import DistanceOracle as BagsOracle

        assert BagsOracle is DistanceOracle

    def test_ball_scheme_uses_injected_oracle(self, cycle12):
        from repro.core.ball_scheme import BallScheme

        oracle = DistanceOracle(cycle12)
        scheme = BallScheme(cycle12, seed=0, oracle=oracle)
        assert scheme.oracle is oracle
        scheme.sample_contacts(np.array([0, 3, 3, 0, 7]))
        scheme.contact_distribution(3)
        # One batched sweep for the three distinct nodes, then cache hits.
        assert (oracle.misses, oracle.cache_size()) == (3, 3)

    def test_ball_scheme_rejects_foreign_oracle(self, cycle12, path8):
        from repro.core.ball_scheme import BallScheme

        with pytest.raises(ValueError):
            BallScheme(cycle12, seed=0, oracle=DistanceOracle(path8))


def _brute_force_next_local(graph, dist):
    """Reference: replay greedy_route's strict-< local scan for every node."""
    out = np.full(graph.num_nodes, -1, dtype=np.int64)
    for u in range(graph.num_nodes):
        best_dist = dist[u]
        if best_dist == UNREACHABLE:
            continue
        best = -1
        for v in graph.neighbors(u):
            dv = dist[v]
            if dv != UNREACHABLE and dv < best_dist:
                best_dist = dv
                best = int(v)
        out[u] = best
    return out


class TestNextLocal:
    def _portfolio(self):
        from repro.graphs.graph import Graph

        two_cycles = Graph.from_edges(
            23,
            [(i, (i + 1) % 14) for i in range(14)]
            + [(14 + i, 14 + (i + 1) % 9) for i in range(9)],
            name="two-cycles",
        )
        return [
            generators.grid_graph([6, 7]),
            generators.cycle_graph(24),  # even ring: antipodal tie nodes
            generators.random_tree(40, seed=9),
            generators.lollipop_graph(6, 20),
            two_cycles,
        ]

    def test_matches_greedy_local_scan(self):
        for g in self._portfolio():
            oracle = DistanceOracle(g)
            targets = list(range(0, g.num_nodes, max(1, g.num_nodes // 5)))
            block = oracle.next_local_to_many(targets)
            for row, target in enumerate(targets):
                expected = _brute_force_next_local(g, oracle.distances_to(target))
                np.testing.assert_array_equal(block[row], expected)

    def test_tree_fast_path_matches_argmin(self):
        # A tree takes the same pointer pass as any other graph; it must
        # agree with the brute-force scan (the improving neighbour is unique
        # there, so any tie-break coincides).
        g = generators.random_tree(60, seed=3)
        assert g.num_edges == g.num_nodes - 1
        oracle = DistanceOracle(g)
        table = oracle.next_local_to_many([17])[0]
        np.testing.assert_array_equal(
            table, _brute_force_next_local(g, oracle.distances_to(17))
        )
        # The build also warmed the distance cache.
        assert oracle.cache_size() == 1

    def test_tree_edge_count_but_disconnected_falls_back(self):
        # n-1 edges without connectivity (triangle + isolated node): the
        # table comes from the distances, not from the edge count.
        from repro.graphs.graph import Graph

        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)], name="triangle+isolated")
        assert g.num_edges == g.num_nodes - 1
        oracle = DistanceOracle(g)
        table = oracle.next_local_to_many([0])[0]
        np.testing.assert_array_equal(
            table, _brute_force_next_local(g, oracle.distances_to(0))
        )
        assert table[3] == -1  # isolated node has no hop

    def test_cached_and_read_only(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        first = oracle.next_local_to_many([5])
        traffic = (oracle.hits, oracle.misses)
        first[0, :] = 0  # the gathered block is the caller's own copy
        again = oracle.next_local_to_many([5])
        assert (oracle.hits, oracle.misses) == traffic  # the pooled table is reused
        np.testing.assert_array_equal(
            again[0], next_local_pointers(grid4x4, oracle.distances_to(5))
        )
        _, pooled, rows = oracle.routing_blocks([5])
        with pytest.raises(ValueError):
            pooled[rows[0], 0] = 0

    def test_lru_cap_applies(self, cycle12):
        # The pool may take half the budget: one target's two int64 rows.
        # The distance rows share the other half, four of them, and every
        # older row spills.
        budget = 32 * cycle12.num_nodes
        oracle = DistanceOracle(cycle12, max_bytes=budget)
        reference = DistanceOracle(cycle12)
        for t in range(8):
            table = oracle.next_local_to_many([t])[0]
            np.testing.assert_array_equal(
                table, next_local_pointers(cycle12, reference.distances_to(t))
            )
            assert oracle.resident_bytes() <= budget
        assert oracle.block_targets == (7,)
        assert list(oracle._cache) == [4, 5, 6, 7]
        assert _spilled(oracle) == [0, 1, 2, 3]

    def test_clear_drops_tables(self, cycle12):
        oracle = DistanceOracle(cycle12)
        table = oracle.next_local_to_many([3])
        oracle.clear()
        assert oracle.block_targets == () and oracle.cache_size() == 0
        misses = oracle.misses
        np.testing.assert_array_equal(oracle.next_local_to_many([3]), table)
        assert oracle.misses == misses + 1  # rebuilt from a fresh BFS


class TestDistancesToMany:
    def test_block_matches_rows(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        targets = [3, 9, 3, 0]
        block = oracle.distances_to_many(targets)
        assert block.shape == (4, grid4x4.num_nodes)
        for row, t in enumerate(targets):
            np.testing.assert_array_equal(block[row], bfs_distances(grid4x4, t))

    def test_block_is_writable_copy(self, cycle12):
        oracle = DistanceOracle(cycle12)
        block = oracle.distances_to_many([4])
        block[0, 0] = -99  # must not corrupt the cached read-only row
        assert oracle.distances_to(4)[0] == bfs_distances(cycle12, 4)[0]

    def test_empty_targets(self, cycle12):
        oracle = DistanceOracle(cycle12)
        assert oracle.distances_to_many([]).shape == (0, cycle12.num_nodes)

    def test_prefetch_batches_misses(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.distances_to_many([1, 2, 3])
        misses_after = oracle.misses
        oracle.distances_to_many([1, 2, 3])
        assert oracle.misses == misses_after  # second call fully cached


class TestNextLocalMany:
    """The batched multi-target hop-table builder (ISSUE-4 tentpole)."""

    def _portfolio(self):
        from repro.graphs.graph import Graph

        disconnected = Graph.from_edges(
            30,
            [(i, i + 1) for i in range(11)] + [(15 + i, 15 + (i + 1) % 8) for i in range(8)],
            name="path+ring+isolated",
        )
        return [
            generators.grid_graph([6, 7]),
            generators.cycle_graph(24),
            generators.random_tree(40, seed=9),
            disconnected,
            # The BFS engine refuses to pad this tree: the per-target pass runs.
            generators.random_tree(1024, seed=1),
        ]

    def test_exact_equality_with_per_target_loop(self):
        # grid / ring / tree / disconnected: every row of the batched block
        # must be bit-for-bit the per-target reference table.
        for g in self._portfolio():
            batched = DistanceOracle(g)
            loop = DistanceOracle(g)
            targets = list(range(0, g.num_nodes, max(1, g.num_nodes // 7)))
            block = batched.next_local_to_many(targets)
            assert block.shape == (len(targets), g.num_nodes)
            for row, t in enumerate(targets):
                np.testing.assert_array_equal(
                    block[row], next_local_pointers(g, loop.distances_to(t))
                )

    def test_pointer_pass_matches_reference(self):
        from repro.graphs.oracle import next_local_pointers_many

        for g in self._portfolio():
            oracle = DistanceOracle(g)
            targets = list(range(0, g.num_nodes, max(1, g.num_nodes // 5)))
            dist_block = oracle.distances_to_many(targets)
            many = next_local_pointers_many(g, dist_block)
            for row in range(len(targets)):
                np.testing.assert_array_equal(
                    many[row], next_local_pointers(g, dist_block[row])
                )

    def test_hub_graph_uses_fallback_and_matches(self):
        # A star's padded adjacency would blow up n x (n-1); the builder must
        # reject padding and still produce exact tables via the fallback.
        from repro.graphs.frontier import padded_neighbors
        from repro.graphs.graph import Graph

        star = Graph.from_edges(1200, [(0, i) for i in range(1, 1200)])
        assert padded_neighbors(star) is None
        batched = DistanceOracle(star)
        loop = DistanceOracle(star)
        block = batched.next_local_to_many([0, 5, 11])
        for row, t in enumerate([0, 5, 11]):
            np.testing.assert_array_equal(
                block[row], next_local_pointers(star, loop.distances_to(t))
            )

    def test_forced_padding_on_a_star_matches_reference(self, monkeypatch):
        # Padding forced onto a hub graph: every leaf column is one real
        # neighbour and n - 2 self slots, whose own key must never win.
        from repro.graphs import frontier
        from repro.graphs.oracle import next_local_pointers_many

        monkeypatch.setattr(frontier, "_PAD_SLOT_BLOWUP", 1e9)
        star = generators.star_graph(300)
        assert frontier.padded_neighbors(star) is not None
        targets = [0, 1, 7, 299]
        dist_block = DistanceOracle(star).distances_to_many(targets)
        many = next_local_pointers_many(star, dist_block)
        for row in range(len(targets)):
            np.testing.assert_array_equal(many[row], next_local_pointers(star, dist_block[row]))

    def test_duplicates_and_cached_rows(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.next_local_to_many([3])  # pre-warm one row on its own
        block = oracle.next_local_to_many([3, 7, 3])
        np.testing.assert_array_equal(block[0], block[2])
        np.testing.assert_array_equal(
            block[1], DistanceOracle(grid4x4).next_local_to_many([7])[0]
        )

    def test_warms_distance_cache_and_is_memoised(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.next_local_to_many([1, 5, 9])
        misses = oracle.misses
        oracle.next_local_to_many([1, 5, 9])  # fully cached second time
        assert oracle.misses == misses
        oracle.distances_to_many([1, 5, 9])  # distance rows were cached too
        assert oracle.misses == misses

    def test_lru_cap_respected(self, cycle12):
        # The pool takes the batch's four hop tables; the distance rows get
        # what is left of the budget, and the ones over it spill, never drop.
        budget = _rows(cycle12, 2) + 4 * 16 * cycle12.num_nodes
        oracle = DistanceOracle(cycle12, max_bytes=budget)
        block = oracle.next_local_to_many([1, 2, 3, 4])
        reference = DistanceOracle(cycle12)
        for row, t in enumerate([1, 2, 3, 4]):
            np.testing.assert_array_equal(
                block[row], next_local_pointers(cycle12, reference.distances_to(t))
            )
        assert oracle.resident_bytes() <= budget
        assert sorted(list(oracle._cache) + _spilled(oracle)) == [1, 2, 3, 4]
        assert _spilled(oracle)

    def test_empty_targets(self, cycle12):
        oracle = DistanceOracle(cycle12)
        assert oracle.next_local_to_many([]).shape == (0, cycle12.num_nodes)


class TestSpillState:
    """export_state / absorb_state: the GraphStore's oracle round-trip."""

    def test_round_trip_is_bitwise_and_bfs_free(self, grid4x4):
        warm = DistanceOracle(grid4x4)
        warm.prefetch([0, 5, 9])
        warm.next_local_to_many([5])
        cold = DistanceOracle(grid4x4)
        cold.absorb_state(warm.export_state())
        assert cold.misses == 0 and cold.preloaded == 3
        np.testing.assert_array_equal(cold.distances_from(9), warm.distances_from(9))
        np.testing.assert_array_equal(
            cold.next_local_to_many([5]), warm.next_local_to_many([5])
        )
        assert cold.misses == 0  # every query above was absorbed, not recomputed

    def test_absorb_keeps_existing_entries(self, cycle12):
        a = DistanceOracle(cycle12)
        own = a.distances_from(3)
        donor = DistanceOracle(cycle12)
        donor.prefetch([3, 4])
        a.absorb_state(donor.export_state())
        assert a.distances_from(3) is own  # not replaced
        assert a.preloaded == 1  # only the genuinely new row (4)

    def test_absorb_rejects_wrong_shape(self, cycle12, path8):
        donor = DistanceOracle(path8)
        donor.prefetch([0, 1])
        with pytest.raises(ValueError):
            DistanceOracle(cycle12).absorb_state(donor.export_state())

    def test_empty_state_round_trips(self, cycle12):
        cold = DistanceOracle(cycle12)
        cold.absorb_state(DistanceOracle(cycle12).export_state())
        assert cold.preloaded == 0 and cold.cache_size() == 0


class TestNextLocalAccounting:
    """Regression: the hop-table build must use the *accounted* cache lookup.

    A hop-table build once peeked at ``self._cache`` with a bare ``.get``,
    so serving a hop table from a cached distance array neither counted a
    hit (``--stats`` under-reported) nor refreshed the LRU position (the
    eviction order deviated from true LRU).
    """

    def test_cached_distance_row_counts_a_hit(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.distances_from(3)
        assert (oracle.hits, oracle.misses) == (0, 1)
        oracle.next_local_to_many([3])  # consumes the cached array -> a real hit
        assert (oracle.hits, oracle.misses) == (1, 1)
        oracle.next_local_to_many([3])  # pooled table: no distance-cache traffic
        assert (oracle.hits, oracle.misses) == (1, 1)

    def test_uncached_target_counts_a_miss_once(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.next_local_to_many([7])  # one BFS, then the pool reads the row
        assert (oracle.hits, oracle.misses) == (1, 1)

    def test_lookup_refreshes_lru_position(self, cycle12):
        # Two distance rows fit next to a one-target block pool.
        budget = _rows(cycle12, 2) + 16 * cycle12.num_nodes
        oracle = DistanceOracle(cycle12, max_bytes=budget)
        oracle.distances_from(0)
        oracle.distances_from(1)  # LRU order: 0 (oldest), 1
        oracle.routing_blocks([0])  # must refresh 0 -> 1 is now the oldest
        oracle.distances_from(2)  # spills 1, keeps 0
        assert _spilled(oracle) == [1]  # 1 was the eviction victim

    def test_tree_fast_path_still_counts_one_miss(self, tree15):
        # A tree target takes the same accounted lookup as any other: one
        # BFS miss, then one hit when the pool reads the fresh row.
        oracle = DistanceOracle(tree15)
        oracle.next_local_to_many([4])
        assert (oracle.hits, oracle.misses) == (1, 1)
        oracle.next_local_to_many([4])
        assert (oracle.hits, oracle.misses) == (1, 1)


class TestRoutingBlocksReuse:
    """routing_blocks serves rows out of one append-only per-target pool."""

    def _reference_blocks(self, graph, targets):
        from repro.graphs.oracle import FAR_DISTANCE

        ref = DistanceOracle(graph)
        # int64 like the engine-facing blocks: the FAR_DISTANCE sentinel is
        # deliberately larger than any narrow cached-row dtype can hold.
        dist = np.stack([ref.distances_to(t).copy() for t in targets]).astype(np.int64)
        dist[dist == UNREACHABLE] = FAR_DISTANCE
        nl = np.stack([next_local_pointers(graph, ref.distances_to(t)) for t in targets])
        return dist, nl

    def _assert_rows_match(self, graph, blocks, targets):
        dist_block, nl_block, rows = blocks
        ref_dist, ref_nl = self._reference_blocks(graph, targets)
        np.testing.assert_array_equal(dist_block[rows], ref_dist)
        np.testing.assert_array_equal(nl_block[rows], ref_nl)

    def test_content_matches_reference(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        targets = (3, 9, 12)
        blocks = oracle.routing_blocks(targets)
        self._assert_rows_match(grid4x4, blocks, targets)
        dist_block, nl_block, _ = blocks
        assert not dist_block.flags.writeable and not nl_block.flags.writeable
        with pytest.raises(ValueError):
            dist_block[0, 0] = 1

    def test_rows_map_duplicate_and_unsorted_targets(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        targets = (12, 3, 12, 9, 3)
        blocks = oracle.routing_blocks(targets)
        assert blocks[2].tolist() == [2, 0, 2, 1, 0]
        assert oracle.block_targets == (3, 9, 12)  # one row each, sorted
        self._assert_rows_match(grid4x4, blocks, targets)

    def test_repeat_call_makes_no_cache_traffic(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        first = oracle.routing_blocks((1, 5))
        traffic = (oracle.hits, oracle.misses)
        again = oracle.routing_blocks((5, 1, 5))
        assert (oracle.hits, oracle.misses) == traffic
        assert again[0].base is first[0].base  # same pool buffer, no re-stack
        assert again[2].tolist() == [1, 0, 1]

    def test_new_target_costs_one_miss_and_keeps_old_rows(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        first = [block.copy() for block in oracle.routing_blocks((2, 7))[:2]]
        hits_before, misses_before = oracle.hits, oracle.misses
        second = oracle.routing_blocks((2, 11))
        # Only the new target cost anything: one BFS, and one accounted read
        # of its fresh array (it feeds both the hop-table pass and the row
        # copy).  The pooled target 2 produced zero cache traffic.
        assert oracle.misses == misses_before + 1
        assert oracle.hits == hits_before + 1
        assert oracle.block_targets == (2, 7, 11)
        np.testing.assert_array_equal(second[0][:2], first[0])
        np.testing.assert_array_equal(second[1][:2], first[1])
        self._assert_rows_match(grid4x4, second, (2, 11))

    def test_pool_holds_the_only_hop_tables(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        targets = (3, 9, 12)
        oracle.routing_blocks(targets)
        # Hot bytes are the targets' distance rows alone: no second copy of
        # the hop tables outside the pool.
        row = oracle.distances_from(3).nbytes
        assert oracle.memory_stats()["hot_bytes"] == len(targets) * row

    def test_growth_keeps_every_row(self, grid4x4):
        oracle = DistanceOracle(grid4x4)
        oracle.routing_blocks((1,))
        oracle.routing_blocks((2, 3))
        blocks = oracle.routing_blocks((4, 5, 6, 7, 8))
        assert blocks[0].shape == (8, grid4x4.num_nodes)
        assert oracle.block_targets == tuple(range(1, 9))
        everything = oracle.routing_blocks(range(1, 9))
        assert everything[2].tolist() == list(range(8))
        self._assert_rows_match(grid4x4, everything, tuple(range(1, 9)))

    def test_pool_resets_at_capacity(self, grid4x4, monkeypatch):
        import repro.graphs.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "_MAX_BLOCK_TARGETS", 4)
        oracle = DistanceOracle(grid4x4)
        oracle.routing_blocks((1, 2))
        oracle.routing_blocks((3, 4))
        assert oracle.block_resets == 0 and oracle.block_targets == (1, 2, 3, 4)
        blocks = oracle.routing_blocks((5, 2))  # a fifth distinct target
        assert oracle.block_resets == 1
        assert oracle.block_targets == (2, 5)  # this call's targets only
        self._assert_rows_match(grid4x4, blocks, (5, 2))

    @pytest.mark.parametrize("bad", [(16,), (-1,), (0, 16)])
    def test_out_of_range_targets_raise(self, grid4x4, bad):
        oracle = DistanceOracle(grid4x4)
        with pytest.raises(ValueError, match="out of range"):
            oracle.routing_blocks(bad)
        assert oracle.block_targets == ()

    def test_unreachable_masked_with_sentinel(self):
        from repro.graphs.graph import Graph
        from repro.graphs.oracle import FAR_DISTANCE

        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        oracle = DistanceOracle(g)
        dist_block, _, _ = oracle.routing_blocks((0,))
        assert dist_block[0, 3] == FAR_DISTANCE and dist_block[0, 4] == FAR_DISTANCE
        assert dist_block[0, 2] == 2

    def test_clear_drops_the_pool(self, cycle12):
        oracle = DistanceOracle(cycle12)
        first = oracle.routing_blocks((1, 2))
        oracle.clear()
        assert oracle.block_targets == ()
        assert oracle.memory_stats()["block_bytes"] == 0
        second = oracle.routing_blocks((2, 1))
        assert oracle.block_targets == (1, 2)
        assert second[0].base is not first[0].base
        self._assert_rows_match(cycle12, second, (2, 1))
