"""Unit tests for the scheme base classes and AugmentedGraph."""

import numpy as np
import pytest

from repro.core.base import NO_CONTACT, AugmentationScheme, AugmentedGraph
from repro.core.uniform import UniformScheme
from repro.graphs import generators
from repro.graphs.graph import Graph


class TestAugmentationSchemeBase:
    def test_requires_non_empty_graph(self):
        with pytest.raises(ValueError):
            UniformScheme(Graph.empty(0))

    def test_sample_all_contacts_shape(self, cycle12):
        scheme = UniformScheme(cycle12, seed=1)
        contacts = scheme.sample_all_contacts()
        assert contacts.shape == (12,)
        assert np.all((contacts >= 0) & (contacts < 12))

    def test_sample_all_contacts_deterministic_with_rng(self, cycle12):
        scheme = UniformScheme(cycle12, seed=1)
        a = scheme.sample_all_contacts(np.random.default_rng(5))
        b = scheme.sample_all_contacts(np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_describe_mentions_graph(self, path8):
        scheme = UniformScheme(path8)
        assert "path" in scheme.describe()

    def test_contact_distribution_default_not_implemented(self, path8):
        from repro.core.base import AugmentationScheme

        class Dummy(AugmentationScheme):
            scheme_name = "dummy"

            def sample_contacts_from_uniforms(self, nodes, uniforms):
                return np.full(len(nodes), NO_CONTACT, dtype=np.int64)

        with pytest.raises(NotImplementedError):
            Dummy(path8).contact_distribution(0)


class TestAugmentedGraph:
    def test_from_scheme(self, cycle12):
        scheme = UniformScheme(cycle12, seed=3)
        aug = AugmentedGraph.from_scheme(scheme, rng=7)
        assert aug.graph is cycle12
        assert aug.contacts.shape == (12,)

    def test_contact_lookup(self, path8):
        contacts = np.array([1, 2, 3, 4, 5, 6, 7, NO_CONTACT])
        aug = AugmentedGraph(path8, contacts)
        assert aug.contact(0) == 1
        assert aug.contact(7) is None

    def test_out_degree(self, path8):
        contacts = np.full(8, NO_CONTACT)
        contacts[0] = 5
        aug = AugmentedGraph(path8, contacts)
        assert aug.out_degree(0) == 2  # one local neighbour + long link
        assert aug.out_degree(3) == 2  # two local neighbours, no long link

    def test_long_range_edges(self, path8):
        contacts = np.full(8, NO_CONTACT)
        contacts[2] = 6
        aug = AugmentedGraph(path8, contacts)
        assert aug.long_range_edges() == {2: 6}

    def test_contacts_validated(self, path8):
        with pytest.raises(ValueError):
            AugmentedGraph(path8, np.array([99] * 8))

    def test_contacts_shape_validated(self, path8):
        with pytest.raises(ValueError):
            AugmentedGraph(path8, np.array([0, 1]))

    def test_contacts_read_only(self, path8):
        aug = AugmentedGraph(path8, np.zeros(8, dtype=np.int64))
        with pytest.raises(ValueError):
            aug.contacts[0] = 3


class TestSampleAllContactsDelegation:
    """Every spelling derives from the one primitive, sample_contacts_from_uniforms."""

    class HalfScheme(AugmentationScheme):
        """No link with probability 1/2, else a uniform node (two uniforms)."""

        scheme_name = "half"
        uniforms_per_contact = 2
        primitive_calls = 0

        def sample_contacts_from_uniforms(self, nodes, uniforms):
            type(self).primitive_calls += 1
            nodes = self._coerce_batch(nodes)
            uniforms = self._coerce_uniforms(nodes, uniforms)
            draws = (uniforms[1] * self._graph.num_nodes).astype(np.int64)
            return np.where(uniforms[0] < 0.5, NO_CONTACT, draws)

    def test_sample_all_contacts_is_one_primitive_call(self, cycle12):
        scheme = self.HalfScheme(cycle12, seed=0)
        before = self.HalfScheme.primitive_calls
        got = scheme.sample_all_contacts(np.random.default_rng(11))
        assert self.HalfScheme.primitive_calls == before + 1
        n = cycle12.num_nodes
        expected = scheme.sample_contacts_from_uniforms(
            np.arange(n), np.random.default_rng(11).random((2, n))
        )
        np.testing.assert_array_equal(got, expected)

    def test_primitive_is_abstract(self, cycle12):
        class Incomplete(AugmentationScheme):
            scheme_name = "incomplete"

        with pytest.raises(TypeError):
            Incomplete(cycle12)

    def test_from_scheme_valid_contacts_for_all_builtin_schemes(self, cycle12):
        from repro.core.registry import available_schemes, make_scheme

        for name in available_schemes():
            scheme = make_scheme(name, cycle12, seed=5)
            aug = AugmentedGraph.from_scheme(scheme, rng=6)
            contacts = aug.contacts
            assert contacts.shape == (cycle12.num_nodes,)
            linked = contacts[contacts != NO_CONTACT]
            assert np.all((linked >= 0) & (linked < cycle12.num_nodes))
