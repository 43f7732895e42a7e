"""Unit tests for BFS distances, eccentricities and diameters (networkx as oracle)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.conversion import to_networkx
from repro.graphs.distances import (
    UNREACHABLE,
    bfs_distances,
    bfs_tree,
    diameter,
    distance_matrix,
    double_sweep_diameter_lower_bound,
    eccentricity,
    farthest_node,
    multi_source_bfs,
)
from repro.graphs.graph import Graph

nx = pytest.importorskip("networkx")


class TestBfs:
    def test_path_distances(self):
        g = generators.path_graph(6)
        dist = bfs_distances(g, 0)
        assert list(dist) == [0, 1, 2, 3, 4, 5]

    def test_cycle_distances(self):
        g = generators.cycle_graph(8)
        dist = bfs_distances(g, 0)
        assert dist[4] == 4
        assert dist[7] == 1

    def test_matches_networkx_on_portfolio(self, small_graphs):
        for g in small_graphs:
            nxg = to_networkx(g)
            for source in range(0, g.num_nodes, 3):
                expected = nx.single_source_shortest_path_length(nxg, source)
                dist = bfs_distances(g, source)
                for v, d in expected.items():
                    assert dist[v] == d

    def test_unreachable_marked(self):
        g = Graph.from_edges(4, [(0, 1)])
        dist = bfs_distances(g, 0)
        assert dist[2] == UNREACHABLE and dist[3] == UNREACHABLE

    def test_cutoff_truncates(self):
        g = generators.path_graph(10)
        dist = bfs_distances(g, 0, cutoff=3)
        assert dist[3] == 3
        assert dist[4] == UNREACHABLE

    def test_cutoff_zero(self):
        g = generators.path_graph(5)
        dist = bfs_distances(g, 2, cutoff=0)
        assert dist[2] == 0
        assert np.count_nonzero(dist != UNREACHABLE) == 1

    def test_negative_cutoff_rejected(self):
        g = generators.path_graph(5)
        with pytest.raises(ValueError):
            bfs_distances(g, 0, cutoff=-1)

    def test_bfs_tree_parents(self):
        g = generators.path_graph(5)
        dist, parent = bfs_tree(g, 2)
        assert parent[2] == 2
        assert parent[0] == 1 and parent[1] == 2
        assert parent[4] == 3
        assert list(dist) == [2, 1, 0, 1, 2]

    def test_multi_source(self):
        g = generators.path_graph(9)
        dist = multi_source_bfs(g, [0, 8])
        assert dist[4] == 4
        assert dist[1] == 1
        assert dist[7] == 1


class TestAggregates:
    def test_distance_matrix_symmetry(self, cycle12):
        mat = distance_matrix(cycle12)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)

    def test_eccentricity_and_diameter(self):
        g = generators.path_graph(7)
        assert eccentricity(g, 0) == 6
        assert eccentricity(g, 3) == 3
        assert diameter(g) == 6

    def test_diameter_matches_networkx(self, small_graphs):
        for g in small_graphs:
            assert diameter(g) == nx.diameter(to_networkx(g))

    def test_eccentricity_disconnected_raises(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            eccentricity(g, 0)

    def test_diameter_disconnected_raises(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            diameter(g)

    def test_farthest_node(self):
        g = generators.path_graph(10)
        node, dist = farthest_node(g, 0)
        assert node == 9 and dist == 9

    def test_double_sweep_exact_on_trees(self, random_tree_64):
        _, _, d = double_sweep_diameter_lower_bound(random_tree_64)
        assert d == diameter(random_tree_64)

    def test_double_sweep_is_lower_bound(self, small_graphs):
        for g in small_graphs:
            _, _, d = double_sweep_diameter_lower_bound(g)
            assert d <= diameter(g)

    def test_inexact_diameter_uses_double_sweep(self, grid4x4):
        assert diameter(grid4x4, exact=False) <= diameter(grid4x4)

    def test_inexact_diameter_disconnected_raises(self):
        # Regression: exact=False used to silently return the within-component
        # sweep while exact=True raised; both modes now raise.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(ValueError):
            diameter(g, exact=False)
        with pytest.raises(ValueError):
            diameter(g, exact=True)

    def test_double_sweep_is_component_restricted(self):
        # Documented contract: the heuristic stays inside the start component.
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
        a, b, d = double_sweep_diameter_lower_bound(g, start=1)
        assert {a, b} <= {0, 1, 2, 3}
        assert d == 3
        a, b, d = double_sweep_diameter_lower_bound(g, start=4)
        assert {a, b} <= {4, 5}
        assert d == 1

    def test_double_sweep_isolated_start_degenerates(self):
        g = Graph.from_edges(4, [(0, 1)])
        a, b, d = double_sweep_diameter_lower_bound(g, start=3)
        assert (a, b, d) == (3, 3, 0)


class TestLegacyReference:
    def test_legacy_matches_engine(self, small_graphs):
        from tests.graphs.bfs_reference import legacy_bfs_distances

        for g in small_graphs:
            for source in range(0, g.num_nodes, 2):
                np.testing.assert_array_equal(
                    bfs_distances(g, source), legacy_bfs_distances(g, source)
                )

    def test_distance_matrix_batches_match_single_rows(self, small_graphs):
        for g in small_graphs:
            mat = distance_matrix(g)
            for u in range(g.num_nodes):
                np.testing.assert_array_equal(mat[u], bfs_distances(g, u))


class TestBfsTreeEngine:
    """The vectorized bfs_tree must be bitwise identical to the deque loop."""

    def _portfolio(self):
        graphs = [
            generators.path_graph(17),
            generators.cycle_graph(30),
            generators.grid_graph([7, 9]),
            generators.random_tree(120, seed=2),
            generators.erdos_renyi_graph(150, 0.03, seed=4, connect=False),
            generators.lollipop_graph(8, 40),
        ]
        # Disconnected union: ring + isolated nodes.
        ring = generators.cycle_graph(12)
        graphs.append(
            Graph.from_edges(
                16, [(int(u), int(v)) for u in ring.nodes() for v in ring.neighbors(u) if u < v]
            )
        )
        return graphs

    def test_matches_legacy_on_portfolio(self):
        from tests.graphs.bfs_reference import legacy_bfs_tree

        for g in self._portfolio():
            for source in range(0, g.num_nodes, max(1, g.num_nodes // 7)):
                dist_fast, parent_fast = bfs_tree(g, source)
                dist_ref, parent_ref = legacy_bfs_tree(g, source)
                np.testing.assert_array_equal(dist_fast, dist_ref)
                np.testing.assert_array_equal(parent_fast, parent_ref)

    def test_wide_frontier_takes_vectorized_path(self):
        # A star's first frontier has n-1 nodes, well past the sparse cutoff.
        from tests.graphs.bfs_reference import legacy_bfs_tree

        g = generators.star_graph(200)
        dist_fast, parent_fast = bfs_tree(g, 0)
        dist_ref, parent_ref = legacy_bfs_tree(g, 0)
        np.testing.assert_array_equal(dist_fast, dist_ref)
        np.testing.assert_array_equal(parent_fast, parent_ref)

    def test_parent_is_closer_neighbor(self):
        g = generators.grid_graph([6, 6])
        dist, parent = bfs_tree(g, 13)
        for v in range(g.num_nodes):
            if v == 13:
                assert parent[v] == v
            else:
                assert parent[v] in g.neighbors(v)
                assert dist[parent[v]] == dist[v] - 1
