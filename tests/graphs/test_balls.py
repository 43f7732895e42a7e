"""Unit tests for ball computation (the Theorem-4 substrate)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.balls import (
    ball,
    ball_ranks,
    ball_sizes,
    growth_function,
    rows_by_node,
    shell_members,
    shell_sizes,
)
from repro.graphs.distances import bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle


class TestBalls:
    def test_ball_on_path(self):
        g = generators.path_graph(10)
        members = ball(g, 5, 2)
        assert list(members) == [3, 4, 5, 6, 7]

    def test_ball_radius_zero(self):
        g = generators.cycle_graph(6)
        assert list(ball(g, 2, 0)) == [2]

    def test_ball_negative_radius_rejected(self):
        g = generators.cycle_graph(6)
        with pytest.raises(ValueError):
            ball(g, 0, -1)

    def test_ball_covers_whole_graph_at_diameter(self):
        g = generators.cycle_graph(9)
        assert len(ball(g, 0, 5)) == 9

    def test_ball_sizes_consistent_with_ball(self):
        g = generators.grid_graph([5, 5])
        sizes = ball_sizes(g, 12, [0, 1, 2, 3])
        for r, size in sizes.items():
            assert size == len(ball(g, 12, r))

    def test_ball_sizes_empty_radii(self):
        g = generators.path_graph(4)
        assert ball_sizes(g, 0, []) == {}

    def test_growth_function_monotone(self):
        g = generators.grid_graph([4, 4])
        growth = growth_function(g, 0)
        assert growth[0] == 1
        assert growth[-1] == 16
        assert np.all(np.diff(growth) >= 0)

    def test_ball_ranks_definition(self):
        g = generators.path_graph(40)
        num_levels = 5
        ranks = ball_ranks(g, 0, num_levels=num_levels)
        dist = bfs_distances(g, 0)
        for v in range(40):
            if dist[v] == 0:
                assert ranks[v] == 1
            elif dist[v] <= 2 ** num_levels:
                # r(v) is the smallest k with dist <= 2^k.
                k = ranks[v]
                assert dist[v] <= 2 ** k
                assert k == 1 or dist[v] > 2 ** (k - 1)
            else:
                assert ranks[v] == num_levels + 1

    def test_ball_ranks_requires_positive_levels(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError):
            ball_ranks(g, 0, num_levels=0)


class TestShells:
    """The stateless shell primitive the distance-based schemes sample with."""

    def _path_plus_isolated(self):
        return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_shell_sizes_skip_unreachable(self):
        row = bfs_distances(self._path_plus_isolated(), 2)
        assert shell_sizes(row).tolist() == [1, 2, 2]
        assert shell_sizes(bfs_distances(self._path_plus_isolated(), 5)).tolist() == [1]

    def test_shell_sizes_empty_when_nothing_reachable(self):
        row = np.full(4, -1, dtype=np.int32)
        assert shell_sizes(row).size == 0

    def test_cumulative_shell_sizes_are_ball_sizes(self):
        g = generators.grid_graph([5, 5])
        cumulative = np.cumsum(shell_sizes(bfs_distances(g, 12)))
        assert cumulative.tolist() == growth_function(g, 12).tolist()

    def test_shell_members_in_id_order(self):
        row = bfs_distances(generators.cycle_graph(8), 0)  # shells 1: {1, 7}, 2: {2, 6}
        members = shell_members(row, np.array([1, 1, 2, 2, 0]), np.array([0, 1, 0, 1, 0]))
        assert members.tolist() == [1, 7, 2, 6, 0]

    def test_rows_by_node_groups_lanes_per_distinct_node(self):
        g = generators.cycle_graph(8)
        oracle = DistanceOracle(g)
        got = list(rows_by_node(oracle, np.array([3, 1, 3, 5, 1])))
        assert [(node, lanes.tolist()) for node, _, lanes in got] == [
            (1, [1, 4]),
            (3, [0, 2]),
            (5, [3]),
        ]
        for node, row, _ in got:
            np.testing.assert_array_equal(row, bfs_distances(g, node))
        assert oracle.misses == 3  # one row per distinct node, all from the provider
