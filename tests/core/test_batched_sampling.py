"""Tests for the batched ``sample_contacts`` API across every scheme.

The contract: each entry of the returned array is one independent draw from
``φ_{nodes[i]}`` (``NO_CONTACT`` for "no link"), duplicates allowed.  The
distributional checks compare support and empirical frequencies against
``contact_distribution``; the derivation checks pin ``sample_contacts`` and
``sample_contact`` bitwise to the one primitive,
``sample_contacts_from_uniforms``, fed the generator's uniforms.
"""

import numpy as np
import pytest

from repro.core.ball_scheme import BallScheme
from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.core.kleinberg import DistancePowerScheme
from repro.core.matrix import MatrixScheme, uniform_matrix
from repro.core.matrix_label import Theorem2Scheme
from repro.core.uniform import UniformScheme
from repro.graphs import generators
from repro.graphs.graph import Graph

SCHEME_NAMES = ["uniform", "uniform-noself", "ball", "theorem2", "kleinberg", "matrix"]


def _scheme_for(name: str, graph: Graph):
    if name == "uniform":
        return UniformScheme(graph, seed=1)
    if name == "uniform-noself":
        return UniformScheme(graph, exclude_self=True, seed=1)
    if name == "ball":
        return BallScheme(graph, seed=1)
    if name == "theorem2":
        return Theorem2Scheme(graph, seed=1)
    if name == "kleinberg":
        return DistancePowerScheme(graph, 2.0, seed=1)
    if name == "matrix":
        return MatrixScheme(graph, uniform_matrix(graph.num_nodes), seed=1)
    raise AssertionError(name)


@pytest.fixture
def tree20() -> Graph:
    return generators.random_tree(20, seed=5)


class TestBatchedDistribution:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_empirical_frequencies_match_distribution(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        node = 4
        draws = 4000
        exact = scheme.contact_distribution(node)
        rng = np.random.default_rng(7)
        samples = scheme.sample_contacts(np.full(draws, node), rng)
        assert samples.shape == (draws,)
        linked = samples[samples != NO_CONTACT]
        # Support: every sampled contact carries positive probability.
        assert np.all(exact[linked] > 0.0)
        # Frequencies: within a loose Monte-Carlo tolerance of the exact φ_u.
        counts = np.bincount(linked, minlength=tree20.num_nodes)
        np.testing.assert_allclose(counts / draws, exact, atol=0.035)
        # Residual mass = probability of drawing no link.
        no_link = np.count_nonzero(samples == NO_CONTACT) / draws
        assert no_link == pytest.approx(1.0 - exact.sum(), abs=0.035)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_mixed_batch_with_duplicates(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        nodes = np.array([0, 7, 7, 3, 0, 19, 7])
        rng = np.random.default_rng(11)
        samples = scheme.sample_contacts(nodes, rng)
        assert samples.shape == nodes.shape
        for i, u in enumerate(nodes):
            if samples[i] != NO_CONTACT:
                assert scheme.contact_distribution(int(u))[samples[i]] > 0.0

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_two_dimensional_batch_preserves_shape(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        nodes = np.arange(20).reshape(4, 5)
        samples = scheme.sample_contacts(nodes, np.random.default_rng(2))
        assert samples.shape == (4, 5)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_out_of_range_nodes_rejected(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        for nodes in ([0, 20], [-1, 0]):
            with pytest.raises((IndexError, ValueError)):
                scheme.sample_contacts(np.array(nodes), np.random.default_rng(0))

    def test_empty_batch(self, tree20):
        for name in SCHEME_NAMES:
            scheme = _scheme_for(name, tree20)
            out = scheme.sample_contacts(np.empty(0, dtype=np.int64), np.random.default_rng(0))
            assert out.shape == (0,)


class TestDerivedSamplers:
    """sample_contacts and sample_contact are the primitive on generator uniforms."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_sample_contacts_is_primitive_on_generator_uniforms(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        nodes = np.array([3, 3, 9, 0, 19, 7, 3])
        rows = type(scheme).uniforms_per_contact
        for seed in (0, 21, 99):
            batched = scheme.sample_contacts(nodes, np.random.default_rng(seed))
            uniforms = np.random.default_rng(seed).random((rows, nodes.size))
            expected = scheme.sample_contacts_from_uniforms(nodes, uniforms)
            np.testing.assert_array_equal(batched, expected)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_sample_contact_is_a_one_entry_batch(self, scheme_name, tree20):
        scheme = _scheme_for(scheme_name, tree20)
        for seed in range(10):
            contact = scheme.sample_contact(4, np.random.default_rng(seed))
            batch = scheme.sample_contacts(np.array([4]), np.random.default_rng(seed))
            assert (NO_CONTACT if contact is None else contact) == batch[0]

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_each_scheme_has_one_sampling_body(self, scheme_name, tree20):
        cls = type(_scheme_for(scheme_name, tree20))
        assert "sample_contacts_from_uniforms" in vars(cls)
        assert vars(cls)["sample_contacts"] is AugmentationScheme.sample_contacts
        assert "sample_contact" not in vars(cls)


class TestStatelessDistanceSchemes:
    """Ball and Kleinberg keep no per-node state: every row lives in the provider."""

    @pytest.mark.parametrize("scheme_name", ["ball", "kleinberg"])
    def test_sampling_leaves_no_per_node_state(self, scheme_name):
        g = generators.cycle_graph(32)
        scheme = _scheme_for(scheme_name, g)

        def arrays():
            return {k: v.copy() for k, v in vars(scheme).items() if isinstance(v, np.ndarray)}

        before = arrays()
        scheme.sample_contacts(np.arange(32), np.random.default_rng(0))
        scheme.contact_distribution(5)
        assert not [k for k, v in vars(scheme).items() if isinstance(v, (dict, list, set))]
        after = arrays()
        assert after.keys() == before.keys()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)
        assert scheme.oracle.cache_size() == 32
