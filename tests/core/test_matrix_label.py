"""Unit tests for the Theorem-2 (M, L) scheme and its explicit matrices."""

import math

import numpy as np
import pytest

from repro.core.matrix import MatrixScheme
from repro.core.matrix_label import Theorem2Scheme
from repro.decomposition.exact import path_decomposition_of_path
from repro.decomposition.labeling import integer_ancestors
from repro.graphs import generators
from tests.core.theorem2_reference import ancestor_matrix, theorem2_matrix


class TestExplicitMatrices:
    def test_ancestor_matrix_entries(self):
        n = 8
        m = ancestor_matrix(n)
        denom = 1.0 + math.log2(n)
        for i in range(1, n + 1):
            ancestors = set(integer_ancestors(i, max_value=n))
            for j in range(1, n + 1):
                expected = 1.0 / denom if j in ancestors else 0.0
                assert m.probability(i - 1, j - 1) == pytest.approx(expected)

    def test_ancestor_matrix_rows_sub_stochastic(self):
        for n in (4, 16, 33, 100):
            m = ancestor_matrix(n)
            assert np.all(m.entries.sum(axis=1) <= 1.0 + 1e-9)

    def test_theorem2_matrix_is_average(self):
        n = 16
        a = ancestor_matrix(n).entries
        m = theorem2_matrix(n).entries
        assert np.allclose(m, (a + 1.0 / n) / 2.0)

    def test_theorem2_matrix_valid_augmentation_matrix(self):
        m = theorem2_matrix(32)
        assert np.all(m.entries.sum(axis=1) <= 1.0 + 1e-9)


class TestTheorem2Scheme:
    def test_distribution_sums_at_most_one(self, cycle12):
        scheme = Theorem2Scheme(cycle12, seed=0)
        for u in range(12):
            total = scheme.contact_distribution(u).sum()
            assert total <= 1.0 + 1e-9
            assert total >= 0.5 - 1e-9  # at least the uniform half is always present

    def test_labels_match_decomposition_bag_count(self):
        g = generators.path_graph(32)
        scheme = Theorem2Scheme(g)
        assert scheme.labels.min() >= 1
        assert scheme.labels.max() <= scheme.decomposition.num_bags

    def test_explicit_decomposition_accepted(self):
        g = generators.path_graph(16)
        pd = path_decomposition_of_path(g)
        scheme = Theorem2Scheme(g, pd)
        assert scheme.decomposition.num_bags == pd.num_bags

    def test_implicit_sampler_matches_explicit_ancestor_matrix(self):
        """The implicit scheme must equal ½·(uniform over nodes) + ½·(A applied via labels).

        The paper applies the uniform component U *name-independently* (a
        uniform node, regardless of shared labels) and the ancestor component
        A through the labeling L — so the reference distribution combines the
        plain uniform vector with Definition 1 applied to the explicit
        ancestor matrix.
        """
        g = generators.path_graph(12)
        pd = path_decomposition_of_path(g)
        scheme = Theorem2Scheme(g, pd, seed=0)
        ancestor_part = MatrixScheme(g, ancestor_matrix(12), labels=scheme.labels, seed=0)
        for u in (0, 3, 7, 11):
            expected = 0.5 / 12 + 0.5 * ancestor_part.contact_distribution(u)
            assert np.allclose(scheme.contact_distribution(u), expected, atol=1e-12)

    def test_sampler_matches_distribution_empirically(self):
        g = generators.path_graph(10)
        scheme = Theorem2Scheme(g, seed=0)
        probs = scheme.contact_distribution(4)
        rng = np.random.default_rng(3)
        counts = np.zeros(10)
        samples = 8000
        none_count = 0
        for _ in range(samples):
            c = scheme.sample_contact(4, rng)
            if c is None:
                none_count += 1
            else:
                counts[c] += 1
        assert np.all(np.abs(counts / samples - probs) < 0.03)
        assert abs(none_count / samples - (1.0 - probs.sum())) < 0.03

    def test_uniform_mixture_zero_is_pure_ancestor(self):
        g = generators.path_graph(16)
        scheme = Theorem2Scheme(g, uniform_mixture=0.0, seed=0)
        probs = scheme.contact_distribution(5)
        # Mass only on nodes whose label is an ancestor of node 5's label.
        label = int(scheme.labels[5])
        allowed_labels = set(integer_ancestors(label, max_value=16))
        for v in range(16):
            if probs[v] > 0:
                assert int(scheme.labels[v]) in allowed_labels

    def test_uniform_mixture_one_is_uniform(self, cycle12):
        scheme = Theorem2Scheme(cycle12, uniform_mixture=1.0, seed=0)
        assert np.allclose(scheme.contact_distribution(3), 1.0 / 12)

    def test_invalid_mixture_rejected(self, path8):
        with pytest.raises(ValueError):
            Theorem2Scheme(path8, uniform_mixture=1.5)

    def test_witnessed_shape_on_path(self):
        g = generators.path_graph(64)
        scheme = Theorem2Scheme(g)
        assert scheme.witnessed_shape() == 1

    def test_pathshape_estimate_exposed_when_automatic(self, cycle12):
        scheme = Theorem2Scheme(cycle12)
        assert scheme.pathshape_estimate is not None
        g = generators.path_graph(8)
        explicit = Theorem2Scheme(g, path_decomposition_of_path(g))
        assert explicit.pathshape_estimate is None
