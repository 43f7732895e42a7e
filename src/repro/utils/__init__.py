"""Shared utilities: random-number handling and validation helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_probabilities,
    check_node_index,
    check_positive_int,
)

__all__ = [
    "ensure_rng",
    "check_probabilities",
    "check_node_index",
    "check_positive_int",
]
