"""Unit tests for the Monte-Carlo routing simulator."""

import numpy as np
import pytest

from repro.core.base import NO_CONTACT
from repro.core.uniform import UniformScheme
from repro.core.ball_scheme import BallScheme
from repro.graphs import generators
from repro.graphs.distances import diameter
from repro.routing.simulator import estimate_expected_steps, estimate_greedy_diameter


class TestEstimateExpectedSteps:
    def test_basic_estimate_structure(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_expected_steps(cycle12, scheme, [(0, 6), (3, 9)], trials=8, seed=1)
        assert len(estimate.pairs) == 2
        assert estimate.trials == 8
        assert estimate.diameter >= estimate.pairs[0].mean or estimate.diameter >= estimate.pairs[1].mean
        assert 0.0 <= estimate.long_link_fraction <= 1.0

    def test_steps_bounded_by_graph_distance(self, grid4x4):
        scheme = UniformScheme(grid4x4, seed=0)
        estimate = estimate_expected_steps(grid4x4, scheme, [(0, 15)], trials=16, seed=2)
        pair = estimate.pairs[0]
        assert pair.graph_distance == 6
        assert pair.stats.maximum <= 6
        assert pair.mean <= 6

    def test_deterministic_given_seed(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        a = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3)
        b = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3)
        assert a.mean == b.mean
        assert a.diameter == b.diameter

    def test_different_seeds_differ(self):
        g = generators.cycle_graph(128)
        scheme = UniformScheme(g, seed=0)
        a = estimate_expected_steps(g, scheme, [(0, 64)], trials=8, seed=3)
        b = estimate_expected_steps(g, scheme, [(0, 64)], trials=8, seed=4)
        assert a.mean != b.mean

    def test_empty_pairs_rejected(self, cycle12):
        with pytest.raises(ValueError):
            estimate_expected_steps(cycle12, UniformScheme(cycle12), [], trials=4)

    def test_scheme_graph_mismatch_rejected(self, cycle12, path8):
        scheme = UniformScheme(path8, seed=0)
        with pytest.raises(ValueError):
            estimate_expected_steps(cycle12, scheme, [(0, 5)], trials=2)

    def test_mean_consistent_with_pairs(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_expected_steps(cycle12, scheme, [(0, 6), (1, 7)], trials=4, seed=5)
        assert estimate.diameter == pytest.approx(max(p.mean for p in estimate.pairs))
        assert estimate.max_pair is not None
        assert estimate.max_pair.mean == estimate.diameter

    def test_as_dict(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=2, seed=0)
        d = estimate.as_dict()
        assert d["num_pairs"] == 1
        assert d["trials"] == 2


class _NoLinksScheme(UniformScheme):
    """Scheme without long-range links: greedy = deterministic shortest path."""

    def sample_contacts_from_uniforms(self, nodes, uniforms):
        return np.full(len(nodes), NO_CONTACT, dtype=np.int64)


class TestFailedTrials:
    def test_all_trials_truncated_raises(self):
        # Without long links every route on a path takes exactly dist steps,
        # so a max_steps budget below that truncates every trial and the
        # pair's expected cost cannot be estimated.
        g = generators.path_graph(30)
        scheme = _NoLinksScheme(g, seed=0)
        with pytest.raises(ValueError):
            estimate_expected_steps(g, scheme, [(0, 29)], trials=4, seed=1, max_steps=3)

    def test_failed_trials_field_zero_without_budget(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=4, seed=1)
        assert estimate.failed_trials == 0
        assert all(p.failed_trials == 0 for p in estimate.pairs)
        assert "failed_trials" in estimate.as_dict()

    def test_mixed_success_excludes_failures_from_mean(self):
        # On a ring with uniform long links, some trials shortcut under the
        # budget and others exceed it; the mean must be over successes only.
        g = generators.cycle_graph(64)
        scheme = UniformScheme(g, seed=0)
        budget = 10
        estimate = estimate_expected_steps(
            g, scheme, [(0, 32)], trials=64, seed=5, max_steps=budget
        )
        pair = estimate.pairs[0]
        assert estimate.failed_trials > 0
        assert pair.failed_trials == estimate.failed_trials
        assert pair.stats.count + pair.failed_trials == 64
        assert pair.stats.maximum <= budget


class TestSharedOracle:
    def test_oracle_serves_target_distances(self, cycle12):
        from repro.graphs.oracle import DistanceOracle

        oracle = DistanceOracle(cycle12)
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_expected_steps(
            cycle12, scheme, [(0, 6), (3, 6), (1, 9)], trials=4, seed=1, oracle=oracle
        )
        assert len(estimate.pairs) == 3
        # One BFS per distinct target, served through the shared oracle.
        assert oracle.cache_size() == 2
        assert oracle.hits >= 1

    def test_oracle_reused_across_calls_matches_fresh(self, cycle12):
        from repro.graphs.oracle import DistanceOracle

        scheme = UniformScheme(cycle12, seed=0)
        oracle = DistanceOracle(cycle12)
        a = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3, oracle=oracle)
        b = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3, oracle=oracle)
        c = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3)
        assert a.mean == b.mean == c.mean

    def test_foreign_oracle_rejected(self, cycle12, path8):
        from repro.graphs.oracle import DistanceOracle

        scheme = UniformScheme(cycle12, seed=0)
        with pytest.raises(ValueError):
            estimate_expected_steps(
                cycle12, scheme, [(0, 6)], trials=2, oracle=DistanceOracle(path8)
            )


class TestEstimateGreedyDiameter:
    def test_extremal_strategy(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_greedy_diameter(cycle12, scheme, num_pairs=4, trials=4, seed=1)
        assert len(estimate.pairs) == 4
        assert estimate.diameter <= diameter(cycle12)

    def test_uniform_strategy(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        estimate = estimate_greedy_diameter(
            cycle12, scheme, num_pairs=4, trials=4, seed=1, pair_strategy="uniform"
        )
        assert len(estimate.pairs) == 4

    def test_unknown_strategy_rejected(self, cycle12):
        with pytest.raises(ValueError):
            estimate_greedy_diameter(
                cycle12, UniformScheme(cycle12), num_pairs=2, trials=2, pair_strategy="bogus"
            )

    def test_long_links_actually_used_on_large_ring(self):
        g = generators.cycle_graph(256)
        scheme = UniformScheme(g, seed=0)
        estimate = estimate_greedy_diameter(g, scheme, num_pairs=4, trials=6, seed=2)
        assert estimate.long_link_fraction > 0.0
        # The augmentation must beat plain shortest-path routing on a big ring.
        assert estimate.diameter < 128

    def test_ball_scheme_beats_no_augmentation(self):
        g = generators.cycle_graph(256)
        scheme = BallScheme(g, seed=0)
        estimate = estimate_greedy_diameter(g, scheme, num_pairs=4, trials=6, seed=2)
        assert estimate.diameter < 128
