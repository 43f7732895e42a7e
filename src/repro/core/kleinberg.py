"""Kleinberg-style distance-power augmentation schemes.

Kleinberg's small-world construction (STOC 2000, reference [13] of the paper)
augments the ``d``-dimensional mesh with links drawn with probability
proportional to ``dist(u, v)^{-r}``.  At the critical exponent ``r = d``
greedy routing takes ``O(log² n)`` steps, whereas any other exponent yields a
polynomial number of steps.  The paper cites this as the prototypical
*class-specific* (non-universal) scheme; EXP-7 reproduces the exponent
sensitivity curve as a sanity check of the routing engine.

The implementation works on arbitrary graphs using the graph metric: one BFS
per visited node (cached) yields the distance profile, and the contact is
drawn with ``φ_u(v) ∝ dist(u, v)^{-r}`` for ``v ≠ u``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.distances import UNREACHABLE, bfs_distances
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["DistancePowerScheme"]


class DistancePowerScheme(AugmentationScheme):
    """``φ_u(v) ∝ dist_G(u, v)^{-exponent}`` for ``v ≠ u``.

    ``exponent = 0`` degenerates to the uniform distribution over the other
    nodes; large exponents concentrate the link on the immediate
    neighbourhood.
    """

    scheme_name = "distance_power"

    def __init__(self, graph: Graph, exponent: float, *, seed: RngLike = None) -> None:
        super().__init__(graph, seed=seed)
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self._exponent = float(exponent)
        self._cache: Dict[int, np.ndarray] = {}
        self._cumulative: Dict[int, np.ndarray] = {}

    @property
    def exponent(self) -> float:
        """The distance-power exponent ``r``."""
        return self._exponent

    def describe(self) -> str:
        return f"distance_power(r={self._exponent:g}) on {self.graph.name}"

    def reset_cache(self) -> None:
        self._cache.clear()
        self._cumulative.clear()

    def _probabilities(self, node: int) -> np.ndarray:
        probs = self._cache.get(node)
        if probs is not None:
            return probs
        dist = bfs_distances(self._graph, node).astype(float)
        weights = np.zeros(self._graph.num_nodes)
        reachable = (dist > 0) & (dist != UNREACHABLE)
        weights[reachable] = dist[reachable] ** (-self._exponent)
        total = weights.sum()
        probs = weights / total if total > 0 else weights
        self._cache[node] = probs
        return probs

    def _cumulative_probabilities(self, node: int) -> np.ndarray:
        cumulative = self._cumulative.get(node)
        if cumulative is None:
            cumulative = np.cumsum(self._probabilities(node))
            self._cumulative[node] = cumulative
        return cumulative

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure inverse-CDF sampling over the cached per-node distributions.

        One ``searchsorted`` into the node's cumulative distribution per group
        of entries sharing a node; entry ``i``'s pick is a pure function of
        ``(nodes[i], uniforms[0, i])``.  Isolated nodes (zero total mass)
        draw ``NO_CONTACT``.
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        n = self._graph.num_nodes
        out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        uniq, inverse = np.unique(nodes, return_inverse=True)
        for j, node in enumerate(uniq.tolist()):
            lanes = np.nonzero(inverse == j)[0]
            cumulative = self._cumulative_probabilities(int(node))
            total = float(cumulative[-1]) if cumulative.size else 0.0
            if total <= 0.0:
                continue
            picks = np.searchsorted(cumulative, uniforms[0, lanes] * total, side="right")
            out[lanes] = np.minimum(picks, n - 1)
        return out

    def contact_distribution(self, node: int) -> np.ndarray:
        node = check_node_index(node, self._graph.num_nodes)
        return self._probabilities(node).copy()
