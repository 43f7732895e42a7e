"""Experiment configuration shared by every experiment module."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling the size / statistical effort of an experiment.

    Attributes
    ----------
    sizes:
        Graph sizes ``n`` to sweep.
    num_pairs:
        Source/target pairs per (graph, scheme) point.
    trials:
        Long-link resamplings per pair.
    seed:
        Master seed; everything downstream is derived from it.
    pair_strategy:
        ``"extremal"`` (greedy-diameter biased) or ``"uniform"``.
    max_size:
        Optional cap applied to ``sizes`` (used by the quick benchmark runs).
    distance_mode:
        Distance provider every instance oracle uses: ``"exact"`` (default;
        plain BFS oracle) or ``"landmark"`` (pivot sketch for bulk queries,
        exact BFS for routing blocks).  Part of the fingerprint because the
        sketch changes sampled pairs and ball/Kleinberg contacts — landmark
        cells must never be resumed into an exact artifact (or vice versa).
    landmarks:
        Pivot count for ``distance_mode="landmark"``; fingerprinted for the
        same reason (ignored in exact mode but kept stable so exact
        fingerprints round-trip unchanged).
    """

    sizes: List[int] = field(default_factory=lambda: [256, 512, 1024, 2048, 4096])
    num_pairs: int = 8
    trials: int = 12
    seed: int = 20070610  # SPAA 2007 submission vintage
    pair_strategy: str = "extremal"
    max_size: Optional[int] = None
    distance_mode: str = "exact"
    landmarks: int = 16

    def effective_sizes(self) -> List[int]:
        """Sizes after applying ``max_size``."""
        if self.max_size is None:
            return list(self.sizes)
        return [n for n in self.sizes if n <= self.max_size] or [min(self.sizes)]

    def scaled(self, **changes) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def fingerprint(self) -> Dict[str, object]:
        """JSON-safe dict identifying this configuration.

        Stored inside every persisted sweep artifact and compared on
        ``--resume``: an artifact computed under a different fingerprint is
        recomputed rather than silently mixed into the report.  The dict
        round-trips through ``ExperimentConfig(**fingerprint)``.
        """
        return asdict(self)

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Small configuration used by the pytest benchmarks (seconds, not minutes)."""
        return cls(sizes=[128, 256, 512], num_pairs=4, trials=6)

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Full configuration used to produce the numbers in EXPERIMENTS.md."""
        return cls(sizes=[256, 512, 1024, 2048, 4096], num_pairs=8, trials=12)
