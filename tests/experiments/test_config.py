"""Unit tests for ExperimentConfig."""

import pytest

from repro.experiments.config import ExperimentConfig


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.sizes[-1] == 4096
        assert cfg.trials > 0

    def test_effective_sizes_with_cap(self):
        cfg = ExperimentConfig(sizes=[128, 256, 512], max_size=256)
        assert cfg.effective_sizes() == [128, 256]

    def test_effective_sizes_cap_below_minimum(self):
        cfg = ExperimentConfig(sizes=[128, 256], max_size=64)
        assert cfg.effective_sizes() == [128]

    def test_scaled_copy(self):
        cfg = ExperimentConfig().scaled(trials=3)
        assert cfg.trials == 3
        assert cfg.sizes == ExperimentConfig().sizes

    def test_quick_is_smaller_than_full(self):
        quick, full = ExperimentConfig.quick(), ExperimentConfig.full()
        assert max(quick.sizes) < max(full.sizes)
        assert quick.trials <= full.trials

    def test_fingerprint_roundtrips(self):
        cfg = ExperimentConfig(sizes=[64, 128], num_pairs=3, trials=5, seed=9)
        fp = cfg.fingerprint()
        assert ExperimentConfig(**fp) == cfg
        assert fp == cfg.fingerprint()

    def test_fingerprint_distinguishes_configs(self):
        cfg = ExperimentConfig()
        assert cfg.fingerprint() != cfg.scaled(trials=cfg.trials + 1).fingerprint()

    def test_engine_is_not_a_config_field(self):
        # One routing path: the fingerprint carries no engine, and a stale
        # fingerprint that still does cannot be rebuilt into a config.
        cfg = ExperimentConfig()
        assert "engine" not in cfg.fingerprint()
        with pytest.raises(TypeError):
            ExperimentConfig(**cfg.fingerprint(), engine="lane")
