"""Unit tests for pathshape estimation."""

import math

import pytest

from repro.decomposition.exact import path_decomposition_of_interval_graph
from repro.decomposition.pathshape import estimate_pathshape
from repro.graphs import generators


class TestEstimatePathshape:
    def test_path_has_pathshape_one(self):
        est = estimate_pathshape(generators.path_graph(40))
        assert est.shape == 1
        assert est.decomposition.is_valid_for(generators.path_graph(40))

    def test_caterpillar_small_pathshape(self):
        g = generators.caterpillar_graph(20, 1)
        est = estimate_pathshape(g)
        assert est.shape <= 2

    def test_tree_logarithmic_pathshape(self):
        g = generators.binary_tree(127)
        est = estimate_pathshape(g)
        assert est.shape <= 2 * (math.log2(127) + 1)
        assert est.decomposition.is_valid_for(g)

    def test_cycle_constant_pathshape(self):
        g = generators.cycle_graph(30)
        est = estimate_pathshape(g)
        assert est.shape <= 3

    def test_torus_large_pathshape(self):
        g = generators.torus_graph([8, 8])
        est = estimate_pathshape(g)
        # The 2-D torus has pathwidth Theta(sqrt(n)); the witnessed shape must
        # reflect that (no strategy should report a tiny value).
        assert est.shape >= 4

    def test_external_decomposition_wins_when_better(self):
        graph, intervals = generators.random_interval_graph(40, seed=1)
        exact = path_decomposition_of_interval_graph(intervals)
        est = estimate_pathshape(
            graph, compute_length=True, external={"interval_model": exact}
        )
        assert est.shape <= 2

    def test_candidates_recorded(self, grid4x4):
        est = estimate_pathshape(grid4x4)
        assert "min_degree" in est.candidates
        assert est.strategy in est.candidates

    def test_path_and_caterpillar_stop_at_the_provable_best(self):
        # (shape, width) = (1, 1) cannot be beaten on a graph with an edge,
        # so the exact construction wins and the heuristics are not built.
        path = estimate_pathshape(generators.path_graph(40))
        assert (path.strategy, path.candidates) == ("path", {"path": 1})
        assert path.skipped == ("cycle", "caterpillar", "tree", "min_degree", "min_fill")
        cat = estimate_pathshape(generators.caterpillar_graph(20, 1))
        assert (cat.strategy, cat.shape, cat.width) == ("caterpillar", 1, 1)
        assert cat.skipped == ("tree", "min_degree", "min_fill")

    def test_stop_skips_external_decompositions_too(self):
        g = generators.path_graph(12)
        est = estimate_pathshape(g, external={"other": estimate_pathshape(g).decomposition})
        assert est.strategy == "path"
        assert est.skipped[-1] == "other"

    def test_no_stop_without_a_unit_candidate(self, grid4x4):
        assert estimate_pathshape(grid4x4).skipped == ()
        assert estimate_pathshape(generators.cycle_graph(12)).skipped == ()
        # Without an edge (1, 1) is no bound: every strategy is still tried.
        single = estimate_pathshape(generators.path_graph(1))
        assert single.skipped == () and "min_fill" in single.candidates

    def test_empty_graph_rejected(self):
        from repro.graphs.graph import Graph

        with pytest.raises(ValueError):
            estimate_pathshape(Graph.empty(0))

    def test_compute_length_never_increases_shape(self):
        g = generators.cycle_graph(16)
        width_only = estimate_pathshape(g, compute_length=False)
        with_length = estimate_pathshape(g, compute_length=True)
        assert with_length.shape <= width_only.shape
