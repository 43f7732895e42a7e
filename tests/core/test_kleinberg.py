"""Unit tests for the distance-power (Kleinberg) scheme."""

import numpy as np
import pytest

from repro.core.base import NO_CONTACT
from repro.core.kleinberg import DistancePowerScheme
from repro.graphs import generators
from repro.graphs.distances import bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.landmark import LandmarkOracle
from repro.graphs.oracle import DistanceOracle


class TestDistancePowerScheme:
    def test_distribution_proportional_to_inverse_distance(self):
        g = generators.path_graph(9)
        scheme = DistancePowerScheme(g, 1.0)
        probs = scheme.contact_distribution(0)
        dist = bfs_distances(g, 0).astype(float)
        expected = np.zeros(9)
        expected[1:] = 1.0 / dist[1:]
        expected /= expected.sum()
        assert np.allclose(probs, expected)

    def test_distribution_sums_to_one(self, grid4x4):
        for r in (0.0, 1.0, 2.0, 3.5):
            scheme = DistancePowerScheme(grid4x4, r)
            assert np.isclose(scheme.contact_distribution(5).sum(), 1.0)

    def test_zero_exponent_is_uniform_over_others(self, cycle12):
        scheme = DistancePowerScheme(cycle12, 0.0)
        probs = scheme.contact_distribution(4)
        assert probs[4] == 0.0
        assert np.allclose(probs[probs > 0], 1.0 / 11)

    def test_never_samples_self(self, cycle12, rng):
        scheme = DistancePowerScheme(cycle12, 2.0)
        assert all(scheme.sample_contact(7, rng) != 7 for _ in range(100))

    def test_large_exponent_prefers_neighbours(self, rng):
        g = generators.path_graph(30)
        scheme = DistancePowerScheme(g, 6.0)
        samples = [scheme.sample_contact(15, rng) for _ in range(300)]
        dist = bfs_distances(g, 15)
        assert np.mean([dist[s] for s in samples]) < 2.0

    def test_negative_exponent_rejected(self, path8):
        with pytest.raises(ValueError):
            DistancePowerScheme(path8, -1.0)

    def test_exponent_property_and_describe(self, path8):
        scheme = DistancePowerScheme(path8, 2.5)
        assert scheme.exponent == 2.5
        assert "2.5" in scheme.describe()

    def test_empirical_frequencies_match_distribution(self):
        g = generators.cycle_graph(10)
        scheme = DistancePowerScheme(g, 1.0)
        probs = scheme.contact_distribution(0)
        rng = np.random.default_rng(1)
        counts = np.zeros(10)
        samples = 5000
        for _ in range(samples):
            counts[scheme.sample_contact(0, rng)] += 1
        assert np.all(np.abs(counts / samples - probs) < 0.05)


def _disconnected():
    """A path, a ring and an isolated node (12)."""
    edges = [(i, i + 1) for i in range(4)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    return Graph.from_edges(13, edges, name="path+ring+isolated")


class TestShellSampling:
    """Shell draw ∝ |S_d|·d^-r, then a uniform member, off the provider's rows."""

    @pytest.mark.parametrize("exponent", [0.0, 2.0, 6.0])
    def test_frequencies_match_distribution_on_disconnected_graph(self, exponent):
        graph = _disconnected()
        oracle = DistanceOracle(graph)
        scheme = DistancePowerScheme(graph, exponent, seed=3, oracle=oracle)
        draws = 4000
        rng = np.random.default_rng(7)
        for node in (0, 2, 8):
            exact = scheme.contact_distribution(node)
            assert exact.sum() == pytest.approx(1.0)
            samples = scheme.sample_contacts(np.full(draws, node), rng)
            assert np.all(samples != NO_CONTACT)
            assert np.all(exact[samples] > 0.0)
            counts = np.bincount(samples, minlength=graph.num_nodes)
            np.testing.assert_allclose(counts / draws, exact, atol=0.035)
        # The isolated node has no other reachable node: no long-range link.
        assert scheme.contact_distribution(12).sum() == 0.0
        isolated = scheme.sample_contacts(np.full(50, 12), rng)
        assert np.all(isolated == NO_CONTACT)
        # Every row came from the injected provider.
        assert oracle.cache_size() == 4

    def test_default_provider_is_private_exact_oracle(self, cycle12):
        scheme = DistancePowerScheme(cycle12, 2.0)
        assert isinstance(scheme.oracle, DistanceOracle)
        assert scheme.oracle.mode == "exact"

    def test_rejects_foreign_oracle(self, cycle12, path8):
        with pytest.raises(ValueError):
            DistancePowerScheme(cycle12, 2.0, oracle=DistanceOracle(path8))

    @pytest.mark.parametrize("exponent", [0.0, 2.0])
    def test_sketch_rows_never_draw_the_source(self, exponent):
        """A non-pivot's sketch row puts it at est(u, u) > 0, yet u is never drawn."""
        graph = generators.cycle_graph(24)
        oracle = LandmarkOracle(graph, num_landmarks=2, seed=5)
        scheme = DistancePowerScheme(graph, exponent, oracle=oracle)
        node = next(u for u in range(24) if u not in set(oracle.landmarks.tolist()))
        row = oracle.query_distances_from(node)
        assert row[node] > 0
        exact = scheme.contact_distribution(node)
        assert exact[node] == 0.0
        assert exact.sum() == pytest.approx(1.0)
        draws = 4000
        samples = scheme.sample_contacts(np.full(draws, node), np.random.default_rng(11))
        assert not np.any(samples == node)
        counts = np.bincount(samples, minlength=graph.num_nodes)
        np.testing.assert_allclose(counts / draws, exact, atol=0.035)
        # The provider's cached row is read, never edited.
        assert oracle.query_distances_from(node)[node] == row[node]
