"""Augmentation schemes — the paper's primary contribution.

An *augmented graph* is a pair ``(G, φ)`` where every node ``u`` draws one
extra "long range" link towards a contact ``v`` with probability ``φ_u(v)``.
This package implements every scheme the paper discusses:

* :class:`~repro.core.uniform.UniformScheme` — the name-independent uniform
  scheme, universal with greedy diameter ``O(√n)`` (Peleg's observation),
* :class:`~repro.core.kleinberg.DistancePowerScheme` — Kleinberg's harmonic
  family ``φ_u(v) ∝ dist(u, v)^{-r}`` used as a classical reference point,
* :class:`~repro.core.matrix.MatrixScheme` — schemes defined a priori by an
  augmentation matrix (Definition 1), optionally paired with a node labeling,
* :class:`~repro.core.matrix_label.Theorem2Scheme` — the (M, L) scheme of
  Theorem 2 with ``M = (A + U)/2`` (ancestor matrix + uniform matrix) and the
  labeling derived from a path decomposition; greedy diameter
  ``O(min{ps(G)·log² n, √n})``,
* :class:`~repro.core.ball_scheme.BallScheme` — the a-posteriori scheme of
  Theorem 4 (uniform level ``k``, contact uniform in ``B(u, 2^k)``), the
  paper's main result with greedy diameter ``Õ(n^{1/3})``,
* :mod:`~repro.core.adversarial` — the constructions behind the Ω(√n) and
  label-size lower bounds (Theorems 1 and 3).
"""

from repro.core.base import AugmentationScheme, AugmentedGraph
from repro.core.uniform import UniformScheme
from repro.core.kleinberg import DistancePowerScheme
from repro.core.matrix import AugmentationMatrix, MatrixScheme
from repro.core.matrix_label import Theorem2Scheme
from repro.core.ball_scheme import BallScheme
from repro.core.registry import make_scheme, available_schemes

__all__ = [
    "AugmentationScheme",
    "AugmentedGraph",
    "UniformScheme",
    "DistancePowerScheme",
    "AugmentationMatrix",
    "MatrixScheme",
    "Theorem2Scheme",
    "BallScheme",
    "make_scheme",
    "available_schemes",
]
