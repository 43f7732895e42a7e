"""Unit tests for rng helpers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_from_int(self):
        a = ensure_rng(7)
        b = ensure_rng(7)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_from_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not a seed")
