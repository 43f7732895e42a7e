"""The Õ(n^{1/3}) universal augmentation scheme of Theorem 4 — the paper's main result.

The scheme is defined *a posteriori* (it looks at the structure of the graph):

1. every node ``u`` independently picks an integer ``k`` uniformly in
   ``{1, …, ⌈log₂ n⌉}``,
2. its long-range contact is then drawn uniformly at random in the ball
   ``B_k(u) = B(u, 2^k)``.

Equivalently (this is the closed form used by the proof and exposed by
:meth:`BallScheme.contact_distribution`)

    ``φ_u(v) = (1 / ⌈log n⌉) · Σ_{k ≥ r(v)} 1 / |B_k(u)|``

where the *rank* ``r(v)`` of ``v`` is the smallest ``k`` with
``v ∈ B_k(u)``.

Theorem 4 proves greedy routing in ``(G, φ)`` takes ``Õ(n^{1/3})`` expected
steps on every ``n``-node graph, beating the ``√n`` barrier that Theorem 1
shows is unavoidable for name-independent (a-priori) schemes.

Implementation notes
--------------------
* The simulator only ever needs contacts of *visited* nodes, so the distance
  row from ``u`` required to enumerate ``B(u, 2^k)`` is fetched lazily through
  a :class:`repro.graphs.provider.DistanceProvider`'s **query tier** — pass
  the experiment's shared provider to pool those rows with the routing
  simulator's.  On an exact provider the query tier is the memoised BFS
  cache; on a landmark provider the balls ride the sketch (one tiny
  min-plus reduction per node instead of a full-graph BFS), which is where
  the bulk of landmark mode's BFS savings comes from.
* The scheme keeps no per-node state: a draw reads the row's shell sizes
  and scans one shell (:func:`repro.graphs.balls.shell_members`), so the
  provider's byte budget bounds all the memory sampling uses.
* ``radius_distribution`` lets experiments reweight the choice of ``k`` (the
  paper's ablation question: how much does the uniform-in-``k`` mixture
  matter?).  The default is the paper's uniform distribution.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.balls import rows_by_node, shell_members, shell_sizes
from repro.graphs.distances import UNREACHABLE
from repro.graphs.graph import Graph
from repro.graphs.provider import DistanceProvider, provider_for
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["BallScheme"]


def _level_radii(levels: np.ndarray) -> np.ndarray:
    """``2^k`` per level ``k``, clamped: any radius >= n covers the whole component."""
    return np.int64(1) << np.minimum(levels, 62).astype(np.int64)


class BallScheme(AugmentationScheme):
    """Theorem 4's ball-based universal augmentation scheme.

    Parameters
    ----------
    graph:
        Underlying connected graph.
    num_levels:
        Number of radius levels (defaults to ``⌈log₂ n⌉`` as in the paper).
    radius_distribution:
        Optional probability vector over levels ``1 … num_levels``; defaults
        to uniform.  Used by the ablation benchmarks.
    seed:
        Seed for the internal generator.
    oracle:
        Optional shared :class:`~repro.graphs.provider.DistanceProvider`.
        Pass the experiment-wide provider so the scheme's ball lookups reuse
        the distance arrays the routing simulator already computed (and vice
        versa); by default the scheme creates a private unbounded exact
        :class:`~repro.graphs.oracle.DistanceOracle`.
    """

    scheme_name = "ball"
    uniforms_per_contact = 2  # level draw + uniform ball-member pick

    def __init__(
        self,
        graph: Graph,
        *,
        num_levels: Optional[int] = None,
        radius_distribution: Optional[Sequence[float]] = None,
        seed: RngLike = None,
        oracle: Optional[DistanceProvider] = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        n = graph.num_nodes
        default_levels = max(1, int(math.ceil(math.log2(n)))) if n > 1 else 1
        self._num_levels = int(num_levels) if num_levels is not None else default_levels
        if self._num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        if radius_distribution is None:
            self._level_probs = np.full(self._num_levels, 1.0 / self._num_levels)
        else:
            probs = np.asarray(list(radius_distribution), dtype=float)
            if probs.shape != (self._num_levels,):
                raise ValueError(
                    f"radius_distribution must have length num_levels={self._num_levels}"
                )
            if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
                raise ValueError("radius_distribution must be a probability vector")
            self._level_probs = probs
        self._level_cumulative = np.cumsum(self._level_probs)
        self._oracle = provider_for(graph, oracle)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_levels(self) -> int:
        """Number of radius levels ``⌈log₂ n⌉`` (or the override)."""
        return self._num_levels

    @property
    def level_probabilities(self) -> np.ndarray:
        """Distribution over the level ``k`` (read-only copy)."""
        return self._level_probs.copy()

    def describe(self) -> str:
        return (
            f"ball scheme (levels={self._num_levels}) on {self.graph.name} "
            f"(n={self.graph.num_nodes})"
        )

    @property
    def oracle(self) -> DistanceProvider:
        """The distance provider backing the scheme's ball lookups."""
        return self._oracle

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure ball sampling: ``uniforms[0]`` → level, ``uniforms[1]`` → member.

        The distinct nodes of the batch are prefetched through the provider's
        query tier in one batched frontier sweep (instead of one BFS per
        first visit).  Each entry then draws its level ``k`` by inverse CDF
        and the position ``⌊u · |B(node, 2^k)|⌋`` of the ball's ``(distance,
        id)`` order, which its shell's member scan resolves to a node.  Each
        entry consumes only its own two uniforms (the batch-invariance
        contract).
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        levels = np.searchsorted(self._level_cumulative, uniforms[0], side="right") + 1
        radii = _level_radii(levels)
        for _, row, lanes in rows_by_node(self._oracle, nodes):
            sizes = shell_sizes(row)
            if sizes.size == 0:
                continue  # nothing reachable (a sketch row with no pivot)
            cumulative = sizes.cumsum()
            # |B(node, 2^k)|: a radius past the eccentricity reads the last entry.
            ball = cumulative.take(radii[lanes], mode="clip")
            positions = (uniforms[1, lanes] * ball).astype(np.int64)
            shells = cumulative.searchsorted(positions, side="right")
            members = shell_members(row, shells, positions - (cumulative - sizes)[shells])
            # An empty ball (sketch rows only: est(u, u) > 0) draws no link.
            out[lanes] = np.where(ball > 0, members, NO_CONTACT)
        return out

    def contact_distribution(self, node: int) -> np.ndarray:
        """Exact ``φ_u`` from the closed form ``(1/⌈log n⌉)·Σ_{k ≥ r(v)} 1/|B_k(u)|``."""
        node = check_node_index(node, self._graph.num_nodes)
        row = self._oracle.query_distances_from(node)
        sizes = shell_sizes(row)
        if sizes.size == 0:
            return np.zeros(self._graph.num_nodes)
        radii = _level_radii(np.arange(1, self._num_levels + 1))
        # An empty B_k holds no node, so no node's suffix sum reads its term.
        terms = self._level_probs / np.maximum(sizes.cumsum().take(radii, mode="clip"), 1)
        # suffix[i] sums terms[i:], the levels k >= i + 1.  Index r(v) - 1 is
        # the first level whose radius reaches v; num_levels reads the zero.
        suffix = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
        probs = suffix[np.searchsorted(radii, row, side="left")]
        probs[row == UNREACHABLE] = 0.0
        return probs
