"""The uniform (name-independent) augmentation scheme.

Every node draws its long-range contact uniformly at random among all ``n``
nodes.  Peleg observed (as recalled in the paper's introduction) that this
simple universal scheme already guarantees greedy diameter ``O(√n)`` on every
graph: the ball ``B`` of the ``√n`` closest nodes to the target is hit by the
current node's long-range link with probability ``≥ √n / n``, so after an
expected ``√n`` steps the route enters ``B``, from which at most ``√n`` local
steps remain.

Theorem 1 proves this is *optimal* among name-independent matrix schemes, and
Theorem 4's ball scheme is the paper's answer for beating it.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["UniformScheme"]


class UniformScheme(AugmentationScheme):
    """Uniform long-range links: ``φ_u(v) = 1/n`` for every ``v``.

    Parameters
    ----------
    graph:
        Underlying graph.
    exclude_self:
        When true the contact is drawn uniformly among the other ``n - 1``
        nodes.  The paper's uniform matrix has ``u_{i,j} = 1/n`` including the
        diagonal; the default (``False``) follows the paper (a self-link is
        simply useless for routing).
    seed:
        Seed for the scheme's internal generator (used when no generator is
        supplied to :meth:`sample_contacts`).
    """

    scheme_name = "uniform"

    def __init__(self, graph: Graph, *, exclude_self: bool = False, seed: RngLike = None) -> None:
        super().__init__(graph, seed=seed)
        self._exclude_self = bool(exclude_self)

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF of the uniform draw: ``⌊u·n⌋`` (entry-pure, see base).

        With ``exclude_self`` the draw is ``⌊u·(n-1)⌋``, shifted past the
        excluded source index.
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        n = self._graph.num_nodes
        if self._exclude_self:
            if n == 1:
                return np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
            draws = (uniforms[0] * (n - 1)).astype(np.int64)
            return draws + (draws >= nodes)
        return (uniforms[0] * n).astype(np.int64)

    def contact_distribution(self, node: int) -> np.ndarray:
        node = check_node_index(node, self._graph.num_nodes)
        n = self._graph.num_nodes
        if self._exclude_self:
            if n == 1:
                return np.zeros(1)
            probs = np.full(n, 1.0 / (n - 1))
            probs[node] = 0.0
            return probs
        return np.full(n, 1.0 / n)
