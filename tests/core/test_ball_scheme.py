"""Unit tests for the Theorem-4 ball scheme."""

import math

import numpy as np
import pytest

from repro.core.ball_scheme import BallScheme
from repro.graphs import generators
from repro.graphs.distances import bfs_distances


class TestBallScheme:
    def test_default_levels_is_ceil_log2(self):
        for n, expected in ((8, 3), (9, 4), (100, 7), (1024, 10)):
            g = generators.cycle_graph(n)
            assert BallScheme(g).num_levels == expected

    def test_num_levels_override(self, cycle12):
        assert BallScheme(cycle12, num_levels=2).num_levels == 2
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=0)

    def test_level_distribution_default_uniform(self, cycle12):
        scheme = BallScheme(cycle12)
        probs = scheme.level_probabilities
        assert np.allclose(probs, 1.0 / scheme.num_levels)

    def test_level_distribution_custom(self, cycle12):
        scheme = BallScheme(cycle12, num_levels=3, radius_distribution=[0.5, 0.25, 0.25])
        assert np.allclose(scheme.level_probabilities, [0.5, 0.25, 0.25])

    def test_level_distribution_validated(self, cycle12):
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=2, radius_distribution=[0.5, 0.2])
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=2, radius_distribution=[0.5])

    def test_level_uniform_bounds_contact_radius(self):
        # uniforms[0] picks the level k by inverse CDF over the level
        # distribution; the contact then lies in B(u, 2^k).
        g = generators.path_graph(64)
        scheme = BallScheme(g, num_levels=4, radius_distribution=[0.4, 0.3, 0.2, 0.1])
        dist = bfs_distances(g, 30)
        level_u = np.linspace(0.0, 0.999, 50)
        uniforms = np.vstack([level_u, np.linspace(0.999, 0.0, 50)])
        contacts = scheme.sample_contacts_from_uniforms(np.full(50, 30), uniforms)
        levels = np.searchsorted(np.cumsum([0.4, 0.3, 0.2, 0.1]), level_u, side="right") + 1
        assert set(levels.tolist()) == {1, 2, 3, 4}
        assert np.all(dist[contacts] <= 2 ** levels)

    def test_contact_within_largest_ball(self, rng):
        g = generators.path_graph(64)
        scheme = BallScheme(g, seed=0)
        dist = bfs_distances(g, 10)
        max_radius = 2 ** scheme.num_levels
        for _ in range(100):
            c = scheme.sample_contact(10, rng)
            assert c is not None
            assert dist[c] <= max_radius

    def test_distribution_closed_form_matches_direct_computation(self):
        g = generators.path_graph(20)
        scheme = BallScheme(g)
        u = 5
        probs = scheme.contact_distribution(u)
        # Recompute from the definition: phi_u(v) = (1/L) sum_{k >= r(v)} 1/|B_k(u)|.
        dist = bfs_distances(g, u)
        L = scheme.num_levels
        expected = np.zeros(20)
        for v in range(20):
            mass = 0.0
            for k in range(1, L + 1):
                if dist[v] <= 2 ** k:
                    mass += 1.0 / (L * np.count_nonzero(dist <= 2 ** k))
            expected[v] = mass
        assert np.allclose(probs, expected)

    def test_distribution_sums_to_one_when_balls_cover_graph(self, cycle12):
        # With ceil(log n) levels the largest ball always covers a connected graph.
        scheme = BallScheme(cycle12)
        for u in (0, 5, 11):
            assert np.isclose(scheme.contact_distribution(u).sum(), 1.0)

    def test_distribution_monotone_in_distance(self):
        g = generators.path_graph(40)
        scheme = BallScheme(g)
        probs = scheme.contact_distribution(0)
        dist = bfs_distances(g, 0)
        order = np.argsort(dist)
        sorted_probs = probs[order]
        assert np.all(np.diff(sorted_probs) <= 1e-12)

    def test_sampler_matches_distribution(self):
        g = generators.cycle_graph(16)
        scheme = BallScheme(g)
        probs = scheme.contact_distribution(3)
        rng = np.random.default_rng(0)
        counts = np.zeros(16)
        samples = 8000
        for _ in range(samples):
            counts[scheme.sample_contact(3, rng)] += 1
        assert np.all(np.abs(counts / samples - probs) < 0.03)

    def test_cache_grows_and_resets(self, cycle12, rng):
        scheme = BallScheme(cycle12)
        scheme.sample_contact(0, rng)
        scheme.sample_contact(5, rng)
        assert scheme.cache_size() == 2
        scheme.reset_cache()
        assert scheme.cache_size() == 0

    def test_describe(self, cycle12):
        assert "ball scheme" in BallScheme(cycle12).describe()
