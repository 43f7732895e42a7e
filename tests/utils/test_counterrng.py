"""Counter-based lane RNG tests: determinism, independence, distribution."""

import numpy as np
import pytest

from repro.utils.counterrng import MAX_UNIFORM_ROWS, lane_seeds, lane_step_uniforms, mix64


class TestMix64:
    def test_deterministic_and_dtype_preserving(self):
        x = np.arange(8, dtype=np.uint64)
        assert mix64(x).dtype == np.uint64
        assert np.array_equal(mix64(x), mix64(x))

    def test_scrambles_consecutive_inputs(self):
        hashed = mix64(np.arange(1024, dtype=np.uint64))
        assert len(np.unique(hashed)) == 1024
        # Avalanche sanity: roughly half the bits set on average.
        bits = np.unpackbits(hashed.view(np.uint8)).mean()
        assert 0.45 < bits < 0.55


class TestLaneStepUniforms:
    def test_pure_function_of_seed_and_step(self):
        seeds = np.array([7, 7, 9], dtype=np.uint64)
        steps = np.array([0, 0, 4], dtype=np.int64)
        a = lane_step_uniforms(seeds, steps, 3)
        b = lane_step_uniforms(seeds, steps, 3)
        assert np.array_equal(a, b)
        # Equal (seed, step) pairs get equal uniforms regardless of position.
        assert np.array_equal(a[:, 0], a[:, 1])

    def test_shape_and_range(self):
        seeds = np.arange(100, dtype=np.uint64)
        steps = np.zeros(100, dtype=np.int64)
        out = lane_step_uniforms(seeds, steps, MAX_UNIFORM_ROWS)
        assert out.shape == (MAX_UNIFORM_ROWS, 100)
        assert out.dtype == np.float64
        assert (out >= 0.0).all() and (out < 1.0).all()

    def test_rows_steps_and_seeds_are_independent_streams(self):
        seeds = np.array([42], dtype=np.uint64)
        base = lane_step_uniforms(seeds, np.array([0]), 4)
        next_step = lane_step_uniforms(seeds, np.array([1]), 4)
        other_seed = lane_step_uniforms(np.array([43], dtype=np.uint64), np.array([0]), 4)
        values = set(base.ravel()) | set(next_step.ravel()) | set(other_seed.ravel())
        assert len(values) == 12  # no collisions across rows, steps or seeds

    def test_lane_subset_invariance(self):
        """A lane's draws don't depend on which other lanes share the batch."""
        seeds = np.array([3, 11, 27, 99], dtype=np.uint64)
        steps = np.array([5, 2, 0, 8], dtype=np.int64)
        full = lane_step_uniforms(seeds, steps, 2)
        solo = lane_step_uniforms(seeds[2:3], steps[2:3], 2)
        assert np.array_equal(full[:, 2:3], solo)

    def test_uniformity_is_plausible(self):
        seeds = np.arange(20_000, dtype=np.uint64)
        out = lane_step_uniforms(seeds, np.zeros(20_000, dtype=np.int64), 1)
        assert abs(out.mean() - 0.5) < 0.01
        assert abs(np.percentile(out, 25) - 0.25) < 0.02

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [1, 16])
    @pytest.mark.parametrize("first", [0, 250, 2**32 - 8])
    def test_step_block_equals_per_step_calls(self, rows, length, first):
        """A ``(B, 1)`` step column gives each step's per-lane call bitwise."""
        seeds = lane_seeds(3, 37)
        steps = np.arange(first, first + length, dtype=np.int64)
        block = lane_step_uniforms(seeds, steps[:, None], rows)
        assert block.shape == (rows, length, seeds.size)
        for b, step in enumerate(steps):
            per_step = lane_step_uniforms(seeds, np.full(seeds.size, step), rows)
            assert np.array_equal(block[:, b].view(np.uint64), per_step.view(np.uint64))

    @pytest.mark.parametrize("rows", [0, 5])
    def test_row_bounds_enforced(self, rows):
        with pytest.raises(ValueError, match="rows"):
            lane_step_uniforms(np.array([1], dtype=np.uint64), np.array([0]), rows)


class TestLaneSeeds:
    def test_prefix_of_a_longer_run(self):
        """Lane l's seed depends on (seed, l) only, not on the lane count."""
        assert np.array_equal(lane_seeds(5, 40)[:7], lane_seeds(5, 7))

    def test_distinct_lanes_and_seeds(self):
        seeds = lane_seeds(5, 4096)
        assert seeds.dtype == np.uint64
        assert len(np.unique(seeds)) == 4096
        assert not np.array_equal(lane_seeds(6, 16), seeds[:16])

    def test_seed_taken_modulo_two_to_the_64(self):
        assert np.array_equal(lane_seeds(2**64 + 3, 8), lane_seeds(3, 8))
        assert lane_seeds(9, 0).shape == (0,)
