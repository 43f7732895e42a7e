"""The label-group index and Theorem 2's bit-derived ancestor draw.

Both label schemes pick Definition 1's uniform member of a label group
through :class:`repro.core.matrix.LabelGroups`, and Theorem 2 derives its
ancestor labels per batch from the label's bits.  Their samplers and
contact distributions must equal the per-label loops kept in
``tests/core/theorem2_reference.py`` bitwise, on the same uniforms.
"""

import numpy as np
import pytest

from repro.core.base import NO_CONTACT
from repro.core.matrix import AugmentationMatrix, LabelGroups, MatrixScheme, uniform_matrix
from repro.core.matrix_label import Theorem2Scheme, _ancestor_labels
from repro.decomposition.labeling import integer_ancestors
from repro.graphs import generators
from tests.core.theorem2_reference import (
    reference_matrix_distribution,
    reference_matrix_sample,
    reference_theorem2_distribution,
    reference_theorem2_sample,
)

#: Sizes around powers of two, and the smallest graphs.
SIZES = (1, 2, 3, 7, 8, 9, 31, 32, 33, 127, 128, 129, 255, 256, 257)

#: The largest double below one: ``⌊u·size⌋`` must still land in the group.
BELOW_ONE = np.nextafter(1.0, 0.0)


def _uniforms(rows: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random uniforms with exact 0 and just-below-1 entries mixed in."""
    uniforms = rng.random((rows, m))
    edges = rng.random((rows, m))
    uniforms[edges < 0.1] = 0.0
    uniforms[edges > 0.9] = BELOW_ONE
    return uniforms


def _graphs():
    for n in SIZES:
        yield generators.path_graph(n)
        if n >= 3:
            yield generators.cycle_graph(n)
        yield generators.random_tree(n, seed=n)
    yield generators.caterpillar_graph(20, 3)
    yield generators.path_graph(1023)
    yield generators.path_graph(1024)


class TestLabelGroups:
    def test_members_in_id_order_and_unused_labels_empty(self):
        groups = LabelGroups(np.array([3, 1, 3, 1, 5, 3]), 6)
        assert groups.members(1).tolist() == [1, 3]
        assert groups.members(3).tolist() == [0, 2, 5]
        assert groups.members(5).tolist() == [4]
        for unused in (0, 2, 4, 6, 7, -1):
            assert groups.members(unused).tolist() == []

    def test_pick_is_the_floor_indexed_member(self):
        groups = LabelGroups(np.array([3, 1, 3, 1, 5, 3]), 6)
        labels = np.array([3, 3, 3, 1, 1, 5, 5])
        uniforms = np.array([0.0, 0.5, BELOW_ONE, 0.0, BELOW_ONE, 0.0, BELOW_ONE])
        assert groups.pick(labels, uniforms).tolist() == [0, 2, 5, 1, 3, 4, 4]

    def test_pick_gives_no_contact_for_label_zero_and_unused_labels(self):
        groups = LabelGroups(np.array([3, 1, 3, 1, 5, 3]), 6)
        labels = np.array([0, 2, 4, 6, 1, 0])
        uniforms = np.array([0.5, 0.0, 0.5, BELOW_ONE, 0.5, 0.0])
        assert groups.pick(labels, uniforms).tolist() == [NO_CONTACT] * 4 + [3, NO_CONTACT]

    def test_pick_matches_the_matrix_scheme_groups(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(1, 40, size=300)
        groups = LabelGroups(labels, 50)
        targets = rng.integers(0, 51, size=2000)
        uniforms = _uniforms(1, 2000, rng)[0]
        picked = groups.pick(targets, uniforms)
        for label, u, got in zip(targets.tolist(), uniforms.tolist(), picked.tolist()):
            members = np.flatnonzero(labels == label) if label else np.empty(0, np.int64)
            expected = members[int(u * members.size)] if members.size else NO_CONTACT
            assert got == expected


class TestAncestorDraw:
    def test_equals_integer_ancestors_for_every_label_and_index(self):
        for n in range(1, 301):
            labels = np.arange(1, n + 1, dtype=np.int64)
            width = n.bit_length() + 3  # past the last ancestor of every label
            index = np.tile(np.arange(width, dtype=np.int64), n)
            got = _ancestor_labels(np.repeat(labels, width), index, n).reshape(n, width)
            for x in range(1, n + 1):
                ancestors = integer_ancestors(x, max_value=n)
                expected = ancestors + [0] * (width - len(ancestors))
                assert got[x - 1].tolist() == expected, (n, x)


class TestSchemeParity:
    @pytest.mark.parametrize("mixture", [0.0, 0.5, 1.0])
    def test_theorem2_sampler_and_distribution_match_reference(self, mixture):
        rng = np.random.default_rng(int(mixture * 10) + 1)
        for graph in _graphs():
            scheme = Theorem2Scheme(graph, uniform_mixture=mixture, seed=0)
            n = graph.num_nodes
            nodes = np.concatenate([np.arange(n), rng.integers(0, n, size=3 * n)])
            uniforms = _uniforms(3, nodes.size, rng)
            np.testing.assert_array_equal(
                scheme.sample_contacts_from_uniforms(nodes, uniforms),
                reference_theorem2_sample(scheme, nodes, uniforms),
            )
            for u in {0, n // 2, n - 1}:
                np.testing.assert_array_equal(
                    scheme.contact_distribution(u), reference_theorem2_distribution(scheme, u)
                )

    def test_matrix_sampler_and_distribution_match_reference(self):
        rng = np.random.default_rng(7)
        for graph in _graphs():
            n = graph.num_nodes
            k = n + int(rng.integers(0, 4))
            entries = rng.random((k, k)) * (rng.random((k, k)) < 0.5)
            entries /= np.maximum(entries.sum(axis=1, keepdims=True), 1e-12)
            entries *= rng.choice([1.0, 0.6, 0.0], size=(k, 1))  # sub-stochastic and empty rows
            # Shared labels, and labels no node carries (the ones above the draw).
            labels = rng.integers(1, max(1, k // 2) + 1, size=n)
            for scheme in (
                MatrixScheme(graph, AugmentationMatrix(entries), labels=labels, seed=0),
                MatrixScheme(graph, uniform_matrix(k), seed=0),
            ):
                nodes = np.concatenate([np.arange(n), rng.integers(0, n, size=3 * n)])
                uniforms = _uniforms(2, nodes.size, rng)
                np.testing.assert_array_equal(
                    scheme.sample_contacts_from_uniforms(nodes, uniforms),
                    reference_matrix_sample(scheme, nodes, uniforms),
                )
                for u in {0, n // 2, n - 1}:
                    np.testing.assert_array_equal(
                        scheme.contact_distribution(u), reference_matrix_distribution(scheme, u)
                    )
