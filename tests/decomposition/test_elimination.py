"""Unit tests for elimination orderings and the induced tree decompositions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition.elimination import (
    min_degree_ordering,
    min_fill_ordering,
    tree_decomposition_from_ordering,
    treewidth_upper_bound,
)
from repro.graphs import generators
from repro.graphs.graph import Graph
from tests.decomposition.elimination_reference import reference_min_fill_ordering


class TestOrderings:
    def test_min_degree_is_permutation(self, grid4x4):
        order = min_degree_ordering(grid4x4)
        assert sorted(order) == list(range(16))

    def test_min_fill_is_permutation(self, cycle12):
        order = min_fill_ordering(cycle12)
        assert sorted(order) == list(range(12))

    def test_orderings_on_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert sorted(min_degree_ordering(g)) == [0, 1]
        assert sorted(min_fill_ordering(g)) == [0, 1]


class TestDecompositionFromOrdering:
    @pytest.mark.parametrize("strategy", ["min_degree", "min_fill"])
    def test_valid_on_portfolio(self, small_graphs, strategy):
        for g in small_graphs:
            width, td = treewidth_upper_bound(g, strategy=strategy)
            assert td.is_valid_for(g), td.violations(g)
            assert width == td.width()

    def test_tree_has_width_one(self, random_tree_64):
        width, td = treewidth_upper_bound(random_tree_64)
        assert width == 1
        assert td.is_valid_for(random_tree_64)

    def test_cycle_has_width_two(self):
        g = generators.cycle_graph(10)
        width, _ = treewidth_upper_bound(g, strategy="min_fill")
        assert width == 2

    def test_complete_graph_width(self):
        g = generators.complete_graph(6)
        width, td = treewidth_upper_bound(g)
        assert width == 5
        assert td.is_valid_for(g)

    def test_grid_width_bounded(self):
        g = generators.grid_graph([4, 4])
        width, _ = treewidth_upper_bound(g, strategy="min_fill")
        # tw(4x4 grid) = 4; heuristics may be slightly worse but not wildly.
        assert 4 <= width <= 6

    def test_ordering_must_be_permutation(self, path8):
        with pytest.raises(ValueError):
            tree_decomposition_from_ordering(path8, [0, 0, 1, 2, 3, 4, 5, 6])

    def test_unknown_strategy(self, path8):
        with pytest.raises(ValueError):
            treewidth_upper_bound(path8, strategy="magic")

    def test_disconnected_graph_supported(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        td = tree_decomposition_from_ordering(g, min_degree_ordering(g))
        assert td.is_valid_for(g)


@st.composite
def random_graphs(draw):
    """Random simple graphs on 1..40 nodes, any density, often disconnected."""
    n = draw(st.integers(min_value=1, max_value=40))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=4 * n, unique=True)) if possible else []
    return Graph.from_edges(n, edges)


class TestMinFillMatchesReference:
    """The incremental ordering equals the full-rescan reference, step for step."""

    def test_small_graph_portfolio(self, small_graphs):
        for g in small_graphs:
            assert min_fill_ordering(g) == reference_min_fill_ordering(g), g.name

    @pytest.mark.parametrize(
        "graph",
        [
            Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (4, 5)]),
            Graph.empty(5),
            generators.complete_graph(9),
            generators.star_graph(17),
            generators.torus_graph([4, 4, 4]),
            generators.torus_graph([16, 16]),
            generators.caterpillar_graph(30, 2),
            generators.spider_graph(4, 12),
            generators.lollipop_graph(8, 12),
        ],
        ids=lambda g: g.name,
    )
    def test_structured_graphs(self, graph):
        assert min_fill_ordering(graph) == reference_min_fill_ordering(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_interval_graphs(self, seed):
        graph, _ = generators.random_interval_graph(60, seed=seed)
        assert min_fill_ordering(graph) == reference_min_fill_ordering(graph)

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, graph):
        assert min_fill_ordering(graph) == reference_min_fill_ordering(graph)
