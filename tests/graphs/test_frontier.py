"""Property tests: the vectorized frontier BFS engine is element-wise
identical to the legacy deque BFS on every graph family we can throw at it.

The engine (``repro.graphs.frontier``) is the hot core every distance,
ball and routing computation now runs on; these tests pin it to the readable
reference implementation (``legacy_bfs_distances``) on random graphs, trees,
grids and disconnected graphs, for single-source, cutoff, multi-source and
batched variants.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import frontier as frontier_module
from repro.graphs import generators, kernels
from repro.graphs.distances import UNREACHABLE, bfs_distances, multi_source_bfs
from repro.graphs.frontier import (
    bfs_distances_many,
    frontier_bfs,
    frontier_multi_source_bfs,
)
from repro.graphs.graph import Graph
from tests.graphs.bfs_reference import legacy_bfs_distances

#: Knob settings that force each of the direction-optimizing engine's
#: kernels onto (almost) every level, so the bitwise-equality tests pin all
#: of them individually — not just whichever the heuristics would pick.
KERNEL_CONFIGS = {
    "padded": {"_PAD_SLOT_BLOWUP": 1e9, "_SPARSE_FRONTIER": 0, "_BOTTOM_UP_RATIO": 0},
    "csr": {"_PAD_SLOT_BLOWUP": -1.0, "_SPARSE_FRONTIER": 0, "_BOTTOM_UP_RATIO": 0},
    "sparse": {"_SPARSE_FRONTIER": 10**9, "_BOTTOM_UP_RATIO": 0},
    "bottom_up_padded": {
        "_PAD_SLOT_BLOWUP": 1e9, "_BOTTOM_UP_RATIO": 10**9, "_BOTTOM_UP_MIN_SHIFT": 63,
    },
    "bottom_up_csr": {
        "_PAD_SLOT_BLOWUP": -1.0, "_BOTTOM_UP_RATIO": 10**9, "_BOTTOM_UP_MIN_SHIFT": 63,
    },
    # A low scalar-run threshold with the default direction switch: sweeps on
    # grids, tori, the lollipop and the star enter and leave scalar runs
    # mid-sweep, handing off to and from both top-down kernels and bottom-up.
    "scalar_handoff": {"_SPARSE_FRONTIER": 6},
}


class _forced_kernel:
    """Context manager pinning the engine's per-level choice to one kernel."""

    def __init__(self, name):
        self.overrides = KERNEL_CONFIGS[name]
        self.saved = {}

    def __enter__(self):
        for attr, value in self.overrides.items():
            self.saved[attr] = getattr(frontier_module, attr)
            setattr(frontier_module, attr, value)

    def __exit__(self, *exc):
        for attr, value in self.saved.items():
            setattr(frontier_module, attr, value)


def legacy_multi_source(graph, sources):
    """Reference multi-source BFS: min over per-source legacy BFS arrays."""
    dists = np.stack([legacy_bfs_distances(graph, s) for s in sources])
    masked = np.where(dists == UNREACHABLE, np.iinfo(np.int64).max, dists)
    best = masked.min(axis=0)
    return np.where(best == np.iinfo(np.int64).max, UNREACHABLE, best)


@st.composite
def random_graphs(draw):
    """Random simple graphs, including disconnected ones and isolated nodes."""
    n = draw(st.integers(min_value=1, max_value=40))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=80)) if possible else []
    return Graph.from_edges(n, edges, name=f"hyp-{n}")


def graph_portfolio():
    return [
        generators.path_graph(17),
        generators.cycle_graph(24),
        generators.grid_graph([5, 7]),
        generators.grid_graph([3, 4, 5]),
        generators.torus_graph([6, 7]),
        generators.lollipop_graph(8, 20),
        generators.binary_tree(31),
        generators.random_tree(64, seed=11),
        generators.star_graph(20),
        generators.erdos_renyi_graph(80, 0.05, seed=5, connect=False),
        generators.erdos_renyi_graph(60, 0.02, seed=9, connect=False),
        Graph.from_edges(9, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)], name="three-components"),
        Graph.empty(6),
    ]


class TestSingleSourceEquivalence:
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_matches_legacy_on_portfolio(self, graph):
        for source in range(graph.num_nodes):
            expected = legacy_bfs_distances(graph, source)
            np.testing.assert_array_equal(frontier_bfs(graph, source), expected)

    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_cutoff_matches_legacy(self, graph):
        for source in range(0, graph.num_nodes, 2):
            for cutoff in (0, 1, 2, 5):
                expected = legacy_bfs_distances(graph, source, cutoff=cutoff)
                got = frontier_bfs(graph, source, cutoff=cutoff)
                np.testing.assert_array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=random_graphs())
    def test_random_graphs_property(self, data, graph):
        source = data.draw(st.integers(0, graph.num_nodes - 1))
        cutoff = data.draw(st.one_of(st.none(), st.integers(0, 8)))
        expected = legacy_bfs_distances(graph, source, cutoff=cutoff)
        np.testing.assert_array_equal(frontier_bfs(graph, source, cutoff=cutoff), expected)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            frontier_bfs(generators.path_graph(4), 0, cutoff=-1)

    def test_bad_source_rejected(self):
        with pytest.raises((IndexError, ValueError)):
            frontier_bfs(generators.path_graph(4), 99)


class TestMultiSourceEquivalence:
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_matches_per_source_minimum(self, graph):
        if graph.num_nodes < 3:
            pytest.skip("needs at least three nodes")
        sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
        expected = legacy_multi_source(graph, sources)
        np.testing.assert_array_equal(frontier_multi_source_bfs(graph, sources), expected)
        np.testing.assert_array_equal(multi_source_bfs(graph, sources), expected)

    def test_no_sources_all_unreachable(self):
        g = generators.path_graph(5)
        assert np.all(frontier_multi_source_bfs(g, []) == UNREACHABLE)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=random_graphs())
    def test_random_graphs_property(self, data, graph):
        sources = data.draw(
            st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=5)
        )
        expected = legacy_multi_source(graph, sources)
        np.testing.assert_array_equal(frontier_multi_source_bfs(graph, sources), expected)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_each_row_matches_legacy(self, graph):
        sources = list(range(graph.num_nodes))
        block = bfs_distances_many(graph, sources)
        assert block.shape == (graph.num_nodes, graph.num_nodes)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(block[row], legacy_bfs_distances(graph, source))

    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_cutoff_rows_match_legacy(self, graph):
        sources = list(range(0, graph.num_nodes, 2))
        if not sources:
            pytest.skip("empty graph")
        block = bfs_distances_many(graph, sources, cutoff=3)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(
                block[row], legacy_bfs_distances(graph, source, cutoff=3)
            )

    def test_duplicate_sources_are_independent_rows(self):
        g = generators.grid_graph([4, 5])
        block = bfs_distances_many(g, [3, 3, 7])
        np.testing.assert_array_equal(block[0], block[1])
        np.testing.assert_array_equal(block[0], legacy_bfs_distances(g, 3))
        np.testing.assert_array_equal(block[2], legacy_bfs_distances(g, 7))

    def test_empty_batch(self):
        g = generators.path_graph(4)
        block = bfs_distances_many(g, [])
        assert block.shape == (0, 4)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=random_graphs())
    def test_random_graphs_property(self, data, graph):
        sources = data.draw(
            st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=6)
        )
        cutoff = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        block = bfs_distances_many(graph, sources, cutoff=cutoff)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(
                block[row], legacy_bfs_distances(graph, source, cutoff=cutoff)
            )


class TestDirectionOptimizedKernels:
    """Every kernel of the per-level switch is bitwise-equal to the legacy BFS.

    The engine picks top-down (sparse scalar / padded lean / CSR gather) or
    bottom-up per level; distances are intra-level order-independent, so all
    kernels must produce identical arrays.  These tests force each kernel via
    the module knobs and pin it to ``legacy_bfs_distances`` across the whole
    graph portfolio, including cutoff truncation and duplicate batched
    sources.  The padded-adjacency memo is cleared per configuration so a
    table built under one knob setting never leaks into another.
    """

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_batched_rows_match_legacy(self, kernel, graph):
        sources = list(range(graph.num_nodes)) + [0, graph.num_nodes - 1] if graph.num_nodes else []
        if not sources:
            return
        graph.derived_cache().clear()
        with _forced_kernel(kernel):
            block = bfs_distances_many(graph, sources)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(block[row], legacy_bfs_distances(graph, source))

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_cutoff_matches_legacy(self, kernel, graph):
        sources = list(range(0, graph.num_nodes, 3))
        if not sources:
            return
        for cutoff in (0, 1, 2, 4):
            graph.derived_cache().clear()
            with _forced_kernel(kernel):
                block = bfs_distances_many(graph, sources, cutoff=cutoff)
            for row, source in enumerate(sources):
                np.testing.assert_array_equal(
                    block[row], legacy_bfs_distances(graph, source, cutoff=cutoff)
                )

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
    def test_high_diameter_batched(self, kernel):
        for graph in (generators.cycle_graph(300), generators.path_graph(301)):
            sources = list(range(0, graph.num_nodes, 37))
            graph.derived_cache().clear()
            with _forced_kernel(kernel):
                block = bfs_distances_many(graph, sources)
            for row, source in enumerate(sources):
                np.testing.assert_array_equal(block[row], legacy_bfs_distances(graph, source))

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
    def test_multi_source_matches_reference(self, kernel):
        for graph in graph_portfolio():
            if graph.num_nodes < 3:
                continue
            sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
            graph.derived_cache().clear()
            with _forced_kernel(kernel):
                got = frontier_multi_source_bfs(graph, sources)
            np.testing.assert_array_equal(got, legacy_multi_source(graph, sources))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=random_graphs())
    def test_random_graphs_all_kernels_property(self, data, graph):
        kernel = data.draw(st.sampled_from(sorted(KERNEL_CONFIGS)))
        sources = data.draw(
            st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=6)
        )
        cutoff = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        graph.derived_cache().clear()
        with _forced_kernel(kernel):
            block = bfs_distances_many(graph, sources, cutoff=cutoff)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(
                block[row], legacy_bfs_distances(graph, source, cutoff=cutoff)
            )

    def test_duplicate_sources_under_forced_bottom_up(self):
        graph = generators.grid_graph([5, 6])
        with _forced_kernel("bottom_up_padded"):
            block = bfs_distances_many(graph, [3, 3, 17, 3])
        np.testing.assert_array_equal(block[0], block[1])
        np.testing.assert_array_equal(block[0], block[3])
        np.testing.assert_array_equal(block[0], legacy_bfs_distances(graph, 3))
        np.testing.assert_array_equal(block[2], legacy_bfs_distances(graph, 17))

    def test_heuristic_choice_equals_forced_reference(self):
        # Whatever mix of kernels the real heuristics pick, the output must
        # equal the pure-CSR reference (the pre-direction-optimizing engine).
        for graph in (
            generators.cycle_graph(400),
            generators.erdos_renyi_graph(300, 0.02, seed=7, connect=False),
            generators.grid_graph([12, 13]),
        ):
            sources = list(range(0, graph.num_nodes, 11))
            auto = bfs_distances_many(graph, sources)
            graph.derived_cache().clear()
            with _forced_kernel("csr"):
                reference = bfs_distances_many(graph, sources)
            np.testing.assert_array_equal(auto, reference)

    def test_padded_adjacency_memoised_and_unpickled_lazily(self):
        import pickle

        graph = generators.cycle_graph(64)
        bfs_distances_many(graph, [0, 5])  # builds + memoises the pad
        assert frontier_module._PAD_CACHE_KEY in graph.derived_cache()
        clone = pickle.loads(pickle.dumps(graph))
        # The derived cache is scratch state, not value: it must not travel.
        assert clone.derived_cache() == {}
        np.testing.assert_array_equal(
            bfs_distances_many(clone, [0, 5]), bfs_distances_many(graph, [0, 5])
        )

    def test_hub_graph_rejects_padding(self):
        graph = generators.star_graph(400)
        graph.derived_cache().clear()
        np.testing.assert_array_equal(
            frontier_bfs(graph, 3), legacy_bfs_distances(graph, 3)
        )
        assert graph.derived_cache()[frontier_module._PAD_CACHE_KEY] is None


class TestPublicWrappers:
    def test_bfs_distances_is_frontier_backed(self):
        g = generators.grid_graph([6, 6])
        np.testing.assert_array_equal(bfs_distances(g, 0), frontier_bfs(g, 0))

    def test_sparse_and_vector_paths_agree(self):
        # A star's frontier jumps 1 -> n-1, crossing the sparse/vector switch
        # both ways on consecutive levels.
        g = generators.star_graph(200)
        for source in (0, 1, 150):
            np.testing.assert_array_equal(
                frontier_bfs(g, source), legacy_bfs_distances(g, source)
            )


class _forced_int64:
    """Context manager pinning the engine's state dtype to the int64 path."""

    def __enter__(self):
        self.saved = frontier_module._FORCE_INT64
        frontier_module._FORCE_INT64 = True

    def __exit__(self, *exc):
        frontier_module._FORCE_INT64 = self.saved


class TestDtypeParity:
    """int32 state (the default below 2**31 keys) is bitwise-identical to the
    int64 reference path, per kernel, across the whole portfolio."""

    def test_bfs_dtype_selection(self):
        assert frontier_module.bfs_dtype(10**6) == np.dtype(np.int32)
        assert frontier_module.bfs_dtype(np.iinfo(np.int32).max) == np.dtype(np.int32)
        assert frontier_module.bfs_dtype(np.iinfo(np.int32).max + 1) == np.dtype(np.int64)
        with _forced_int64():
            assert frontier_module.bfs_dtype(8) == np.dtype(np.int64)

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
    def test_kernel_values_match_int64_reference(self, kernel):
        for graph in graph_portfolio():
            if graph.num_nodes == 0:
                continue
            sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
            graph.derived_cache().clear()
            with _forced_kernel(kernel):
                narrow = bfs_distances_many(graph, sources)
                graph.derived_cache().clear()
                with _forced_int64():
                    wide = bfs_distances_many(graph, sources)
            assert narrow.dtype == np.dtype(np.int32), graph.name
            assert wide.dtype == np.dtype(np.int64), graph.name
            np.testing.assert_array_equal(narrow, wide, err_msg=graph.name)

    def test_tree_parents_match_int64_reference(self):
        from repro.graphs.frontier import frontier_bfs_tree

        for graph in graph_portfolio():
            if graph.num_nodes == 0:
                continue
            dist32, parent32 = frontier_bfs_tree(graph, 0)
            with _forced_int64():
                dist64, parent64 = frontier_bfs_tree(graph, 0)
            assert dist32.dtype == np.dtype(np.int32)
            assert dist64.dtype == np.dtype(np.int64)
            np.testing.assert_array_equal(dist32, dist64, err_msg=graph.name)
            np.testing.assert_array_equal(parent32, parent64, err_msg=graph.name)

    def test_cutoff_and_multi_source_parity(self):
        graph = generators.grid_graph([9, 9])
        for cutoff in (0, 1, 3):
            narrow = frontier_bfs(graph, 0, cutoff=cutoff)
            with _forced_int64():
                wide = frontier_bfs(graph, 0, cutoff=cutoff)
            np.testing.assert_array_equal(narrow, wide)
        narrow = frontier_multi_source_bfs(graph, [0, 40, 80])
        with _forced_int64():
            wide = frontier_multi_source_bfs(graph, [0, 40, 80])
        np.testing.assert_array_equal(narrow, wide)


class _recording:
    """Context manager wrapping a frontier-module function to log its calls."""

    def __init__(self, name, record):
        self.name = name
        self.record = record

    def __enter__(self):
        self.saved = getattr(frontier_module, self.name)
        saved, record = self.saved, self.record

        def wrapper(*args, **kwargs):
            out = saved(*args, **kwargs)
            record(args, out)
            return out

        setattr(frontier_module, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(frontier_module, self.name, self.saved)


class TestScalarRun:
    """Narrow levels run as one scalar loop that hands wide levels back.

    A run stays in Python across consecutive levels whose frontier is at or
    below the sparse threshold, and returns to the numpy kernels when the
    frontier widens, when the bottom-up trigger fires, at the cutoff and at
    the end of the sweep.  These tests pin each exit and the run's stamps.

    The run is the numpy backend's narrow-level path (a compiled backend
    expands every level in its own typed loop and never gathers through
    ``_gather_neighbors``), so the class pins that backend: the tests that
    record the numpy gather's calls would see none under ``numba``.
    """

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        with kernels.use_backend("numpy"):
            yield

    def test_cutoff_inside_run_with_duplicate_sources(self):
        # Four rows of two keys each stay under the padded threshold, so the
        # whole sweep is one run and every cutoff lands inside it.
        graph = generators.cycle_graph(300)
        sources = [5, 5, 150, 5]
        for cutoff in (1, 2, 3, 40, 149, 151):
            block = bfs_distances_many(graph, sources, cutoff=cutoff)
            np.testing.assert_array_equal(block[0], block[1])
            np.testing.assert_array_equal(block[0], block[3])
            for row, source in enumerate(sources):
                np.testing.assert_array_equal(
                    block[row], legacy_bfs_distances(graph, source, cutoff=cutoff)
                )

    def test_cutoff_inside_run_after_handoff(self):
        # From a lollipop's clique the first level is wide (one numpy level
        # between two runs) and the rest walk the tail, so every cutoff past
        # level 2 lands in the second run.
        graph = generators.lollipop_graph(8, 40)
        sources = [0, 0, 7]
        for cutoff in (3, 10, 30):
            widths = []
            with _forced_kernel("scalar_handoff"):
                with _recording("_gather_neighbors", lambda args, out: widths.append(args[2].size)):
                    block = bfs_distances_many(graph, sources, cutoff=cutoff)
            assert widths == [22]
            for row, source in enumerate(sources):
                np.testing.assert_array_equal(
                    block[row], legacy_bfs_distances(graph, source, cutoff=cutoff)
                )

    @pytest.mark.parametrize(
        "graph",
        [generators.cycle_graph(257), generators.path_graph(200), generators.random_tree(150, seed=3)],
        ids=lambda g: g.name,
    )
    def test_int64_state_through_the_run(self, graph):
        sources = [0, graph.num_nodes // 2, graph.num_nodes // 2]
        with _forced_int64():
            single = frontier_bfs(graph, sources[1])
            block = bfs_distances_many(graph, sources)
            cut = bfs_distances_many(graph, sources, cutoff=7)
        assert single.dtype == block.dtype == np.dtype(np.int64)
        np.testing.assert_array_equal(single, legacy_bfs_distances(graph, sources[1]))
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(block[row], legacy_bfs_distances(graph, source))
            np.testing.assert_array_equal(
                cut[row], legacy_bfs_distances(graph, source, cutoff=7)
            )
        np.testing.assert_array_equal(block, bfs_distances_many(graph, sources))

    def test_wide_levels_leave_the_run(self):
        # With the CSR kernel and no bottom-up, the numpy gather must see
        # exactly the frontiers wider than the threshold: every narrow level
        # stays in a run, and every wide one leaves it.
        graph = generators.grid_graph([12, 13])
        expected = legacy_bfs_distances(graph, 0)
        level_sizes = np.bincount(expected)
        seen = []
        graph.derived_cache().clear()
        with _forced_kernel("csr"), _forced_kernel("scalar_handoff"):
            with _recording("_gather_neighbors", lambda args, out: seen.append(args[2].size)):
                got = frontier_bfs(graph, 0)
        np.testing.assert_array_equal(got, expected)
        assert seen == [int(size) for size in level_sizes if size > 6]
        assert seen, "the sweep never widened past the threshold"

    def test_bottom_up_trigger_fires_inside_a_run(self):
        # A path into a triangle and one last node: from node 0 every level
        # is narrow, and after the triangle (3 keys, 1 unvisited) the
        # trigger fires, so the bottom-up kernel finds node 13.
        edges = [(i, i + 1) for i in range(9)]
        edges += [(9, 10), (9, 11), (9, 12), (10, 11), (11, 12), (10, 12), (12, 13)]
        graph = Graph.from_edges(14, edges, name="path-into-triangle")
        found = []
        with _recording("_bottom_up_level", lambda args, out: found.append((args[5], out[0].tolist()))):
            got = frontier_bfs(graph, 0)
        np.testing.assert_array_equal(got, legacy_bfs_distances(graph, 0))
        assert found and found[0] == (11, [13])

    def test_sweep_adds_only_the_padded_table_to_the_derived_cache(self):
        for graph in (generators.cycle_graph(500), generators.star_graph(50)):
            graph.derived_cache().clear()
            frontier_bfs(graph, 3)
            bfs_distances_many(graph, [0, 1, 1], cutoff=5)
            assert set(graph.derived_cache()) == {frontier_module._PAD_CACHE_KEY}
        graph = generators.path_graph(300)
        graph.derived_cache().clear()
        from repro.graphs.frontier import frontier_bfs_tree

        frontier_bfs_tree(graph, 150)
        assert graph.derived_cache() == {}

    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_tree_parents_across_run_handoffs(self, graph, monkeypatch):
        # A threshold of 2 makes tree sweeps leave and re-enter their scalar
        # runs; parents must stay the deque's first discoverers.
        from repro.graphs.frontier import frontier_bfs_tree
        from tests.graphs.bfs_reference import legacy_bfs_tree

        monkeypatch.setattr(frontier_module, "_SPARSE_FRONTIER", 2)
        for source in range(0, graph.num_nodes, 5):
            dist, parent = frontier_bfs_tree(graph, source)
            dist_ref, parent_ref = legacy_bfs_tree(graph, source)
            np.testing.assert_array_equal(dist, dist_ref)
            np.testing.assert_array_equal(parent, parent_ref)
