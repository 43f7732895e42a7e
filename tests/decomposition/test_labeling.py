"""Unit tests for the integer level hierarchy and the Theorem-2 labeling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition.exact import path_decomposition_of_path, path_decomposition_of_tree
from repro.decomposition.labeling import (
    integer_ancestors,
    integer_level,
    is_ancestor,
    max_level_in_range,
    theorem2_labeling,
)
from repro.decomposition.path_decomposition import PathDecomposition
from repro.graphs import generators


class TestIntegerLevel:
    def test_odd_numbers_have_level_zero(self):
        for x in (1, 3, 5, 7, 99, 1023):
            assert integer_level(x) == 0

    def test_powers_of_two(self):
        for k in range(10):
            assert integer_level(1 << k) == k

    def test_examples_from_paper_structure(self):
        assert integer_level(6) == 1  # 110b
        assert integer_level(12) == 2  # 1100b
        assert integer_level(40) == 3  # 101000b

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            integer_level(0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_level_divides(self, x):
        k = integer_level(x)
        assert x % (1 << k) == 0
        assert (x // (1 << k)) % 2 == 1


class TestIntegerAncestors:
    def test_ancestors_of_six(self):
        # x = 6 = 2^1 + 2^2: y(0)=6, y(1)=4, y(2)=8, y(3)=16 ...
        assert integer_ancestors(6, max_value=16) == [6, 4, 8, 16]

    def test_ancestors_of_odd(self):
        # x = 5 = 101b: y(0)=5, y(1)=6, y(2)=4, y(3)=8
        assert integer_ancestors(5, max_value=8) == [5, 6, 4, 8]

    def test_ancestors_include_self(self):
        for x in range(1, 40):
            assert x in integer_ancestors(x, max_value=64)

    def test_ancestors_filtered_to_range(self):
        assert all(1 <= a <= 10 for a in integer_ancestors(7, max_value=10))

    def test_ancestor_count_bounded_by_log(self):
        n = 1000
        for x in range(1, n + 1):
            ancestors = integer_ancestors(x, max_value=n)
            assert len(ancestors) <= int(np.log2(n)) + 2

    def test_levels_increase_along_ancestors(self):
        for x in (3, 6, 20, 37):
            ancestors = integer_ancestors(x, max_value=64)
            levels = [integer_level(a) for a in ancestors]
            assert levels == sorted(levels)
            assert len(set(levels)) == len(levels)

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=100, deadline=None)
    def test_ancestor_relation_is_chain(self, x):
        # Each ancestor's own ancestor set is a suffix of the original chain.
        ancestors = integer_ancestors(x, max_value=8192)
        for j, a in enumerate(ancestors):
            assert integer_ancestors(a, max_value=8192) == ancestors[j:]

    def test_is_ancestor(self):
        assert is_ancestor(4, 6)
        assert is_ancestor(6, 6)
        assert not is_ancestor(3, 6)


class TestMaxLevelInRange:
    def test_simple_ranges(self):
        assert max_level_in_range(1, 1) == 1
        assert max_level_in_range(3, 5) == 4
        assert max_level_in_range(5, 7) == 6
        assert max_level_in_range(1, 100) == 64

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            max_level_in_range(5, 4)

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_result_has_max_level_and_is_unique(self, lo, width):
        hi = lo + width
        best = max_level_in_range(lo, hi)
        assert lo <= best <= hi
        best_level = integer_level(best)
        others = [x for x in range(lo, hi + 1) if x != best]
        assert all(integer_level(x) < best_level for x in others)


class TestTheorem2Labeling:
    def test_path_labeling_values_in_range(self):
        g = generators.path_graph(16)
        pd = path_decomposition_of_path(g)
        labels = theorem2_labeling(pd, 16)
        assert labels.shape == (16,)
        assert labels.min() >= 1
        assert labels.max() <= pd.num_bags

    def test_label_is_in_nodes_interval(self):
        g = generators.path_graph(20)
        pd = path_decomposition_of_path(g)
        labels = theorem2_labeling(pd, 20)
        intervals = pd.node_intervals()
        for node, (lo, hi) in intervals.items():
            assert lo + 1 <= labels[node] <= hi + 1

    def test_label_has_max_level_in_interval(self):
        g = generators.binary_tree(63)
        pd = path_decomposition_of_tree(g)
        labels = theorem2_labeling(pd, 63)
        intervals = pd.node_intervals()
        for node, (lo, hi) in intervals.items():
            label = int(labels[node])
            lvl = integer_level(label)
            for other in range(lo + 1, hi + 2):
                assert integer_level(other) <= lvl

    def test_rejects_oversized_decomposition(self):
        pd = PathDecomposition([{0}, {1}, {0, 1}])
        with pytest.raises(ValueError):
            theorem2_labeling(pd, 2)

    def test_rejects_uncovered_nodes(self):
        pd = PathDecomposition([{0, 1}])
        with pytest.raises(ValueError):
            theorem2_labeling(pd, 4)
