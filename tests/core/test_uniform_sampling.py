"""Tests for ``sample_contacts_from_uniforms`` across every scheme.

The contract behind the serve layer's batch invariance: entry ``i`` of the
returned contact array is a **pure function** of ``(nodes[i],
uniforms[:, i])`` — same node and same uniform column, same contact, no
matter what else is in the batch.  Distributional correctness (the contact
law matching ``contact_distribution``) is checked per scheme over uniforms
drawn i.i.d., mirroring ``test_batched_sampling``'s checks for the
generator-driven API.
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


def _uniforms(scheme: AugmentationScheme, count: int, seed: int) -> np.ndarray:
    rows = type(scheme).uniforms_per_contact
    return np.random.default_rng(seed).random((rows, count))


@pytest.fixture
def cycle30() -> Graph:
    return generators.cycle_graph(30)


class TestEntryPurity:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_entry_is_pure_in_node_and_uniform_column(self, scheme_name, cycle30):
        scheme = _scheme_for(scheme_name, cycle30)
        nodes = np.array([4, 17, 4, 9, 22, 17], dtype=np.int64)
        uniforms = _uniforms(scheme, nodes.size, seed=7)
        uniforms[:, 2] = uniforms[:, 0]  # same node AND same column as entry 0
        batch = scheme.sample_contacts_from_uniforms(nodes, uniforms)
        assert batch[2] == batch[0]
        # Entry-wise recomputation in arbitrary sub-batches changes nothing.
        for i in np.argsort(nodes):
            solo = scheme.sample_contacts_from_uniforms(
                nodes[i : i + 1], uniforms[:, i : i + 1]
            )
            assert solo[0] == batch[i]

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_deterministic_replay(self, scheme_name, cycle30):
        scheme = _scheme_for(scheme_name, cycle30)
        nodes = np.arange(30, dtype=np.int64)
        uniforms = _uniforms(scheme, 30, seed=3)
        a = scheme.sample_contacts_from_uniforms(nodes, uniforms)
        b = scheme.sample_contacts_from_uniforms(nodes, uniforms)
        np.testing.assert_array_equal(a, b)


class TestDistribution:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_support_matches_contact_distribution(self, scheme_name, cycle30):
        scheme = _scheme_for(scheme_name, cycle30)
        node = 13
        distribution = np.asarray(scheme.contact_distribution(node))
        support = set(np.flatnonzero(distribution > 0).tolist())
        nodes = np.full(4000, node, dtype=np.int64)
        draws = scheme.sample_contacts_from_uniforms(nodes, _uniforms(scheme, 4000, 11))
        observed = set(int(c) for c in draws)
        assert observed <= (support | {NO_CONTACT})

    def test_uniform_frequencies_are_uniform(self, cycle30):
        scheme = UniformScheme(cycle30, seed=1)
        nodes = np.full(30_000, 7, dtype=np.int64)
        draws = scheme.sample_contacts_from_uniforms(nodes, _uniforms(scheme, 30_000, 13))
        counts = np.bincount(draws, minlength=30)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 1.35

    def test_exclude_self_never_draws_self(self, cycle30):
        scheme = UniformScheme(cycle30, exclude_self=True, seed=1)
        nodes = np.full(5000, 11, dtype=np.int64)
        draws = scheme.sample_contacts_from_uniforms(nodes, _uniforms(scheme, 5000, 17))
        assert 11 not in set(int(c) for c in draws)
        assert set(int(c) for c in draws) == set(range(30)) - {11}


class TestValidation:
    def test_wrong_row_count_rejected(self, cycle30):
        scheme = BallScheme(cycle30, seed=1)  # uniforms_per_contact == 2
        nodes = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="uniforms"):
            scheme.sample_contacts_from_uniforms(nodes, np.random.random((1, 2)))

    def test_wrong_width_rejected(self, cycle30):
        scheme = UniformScheme(cycle30, seed=1)
        nodes = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="uniforms"):
            scheme.sample_contacts_from_uniforms(nodes, np.random.random((1, 2)))

    def test_non_1d_nodes_rejected(self, cycle30):
        scheme = UniformScheme(cycle30, seed=1)
        with pytest.raises(ValueError, match="1-D node batch"):
            scheme.sample_contacts_from_uniforms(
                np.array([[1, 2]], dtype=np.int64), np.random.random((1, 2))
            )


class TestSubclassContract:
    def test_overriding_the_primitive_changes_every_spelling(self, cycle30):
        class OddScheme(UniformScheme):
            """Overrides the primitive: every derived sampler must follow."""

            def sample_contacts_from_uniforms(self, nodes, uniforms):
                nodes = self._coerce_batch(nodes)
                return (nodes + 1) % self.graph.num_nodes

        scheme = OddScheme(cycle30, seed=1)
        nodes = np.array([0, 5, 29], dtype=np.int64)
        draws = scheme.sample_contacts_from_uniforms(nodes, _uniforms(scheme, 3, 19))
        np.testing.assert_array_equal(draws, [1, 6, 0])
        np.testing.assert_array_equal(
            scheme.sample_contacts(nodes, np.random.default_rng(0)), [1, 6, 0]
        )
        assert scheme.sample_contact(29) == 0
