"""Kleinberg-style distance-power augmentation schemes.

Kleinberg's small-world construction (STOC 2000, reference [13] of the paper)
augments the ``d``-dimensional mesh with links drawn with probability
proportional to ``dist(u, v)^{-r}``.  At the critical exponent ``r = d``
greedy routing takes ``O(log² n)`` steps, whereas any other exponent yields a
polynomial number of steps.  The paper cites this as the prototypical
*class-specific* (non-universal) scheme; EXP-7 reproduces the exponent
sensitivity curve as a sanity check of the routing engine.

The implementation works on arbitrary graphs using the graph metric: a
contact of ``u`` is a distance shell ``d ≥ 1`` drawn with probability
``∝ |S_d| · d^{-r}``, then a uniform member of it, which is exactly
``φ_u(v) ∝ dist(u, v)^{-r}`` for ``v ≠ u``.  Like the Theorem-4 ball scheme
it reads the distance row from ``u`` on a provider's query tier and keeps
no per-node state.  On a landmark provider that row is the sketch's
estimate, so ``dist`` above is the estimate, and ``u`` is still never its
own contact.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.balls import rows_by_node, shell_members, shell_sizes
from repro.graphs.distances import UNREACHABLE

# Not called here: perfbench/tracer.py wraps this module's ``bfs_distances``
# as its ``frontier.bfs_distances`` span, which should count zero calls.
from repro.graphs.distances import bfs_distances  # noqa: F401
from repro.graphs.graph import Graph
from repro.graphs.provider import DistanceProvider, provider_for
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["DistancePowerScheme"]


class DistancePowerScheme(AugmentationScheme):
    """``φ_u(v) ∝ dist_G(u, v)^{-exponent}`` for ``v ≠ u``.

    ``exponent = 0`` degenerates to the uniform distribution over the other
    nodes; large exponents concentrate the link on the immediate
    neighbourhood.  Pass the experiment's shared provider as ``oracle=`` so
    the distance rows pool with the routing simulator's (and honour its
    byte budget and distance mode); by default the scheme creates a private
    unbounded exact :class:`~repro.graphs.oracle.DistanceOracle`.
    """

    scheme_name = "distance_power"
    uniforms_per_contact = 2  # shell draw + uniform shell-member pick

    def __init__(
        self,
        graph: Graph,
        exponent: float,
        *,
        seed: RngLike = None,
        oracle: Optional[DistanceProvider] = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self._exponent = float(exponent)
        self._oracle = provider_for(graph, oracle)

    @property
    def exponent(self) -> float:
        """The distance-power exponent ``r``."""
        return self._exponent

    @property
    def oracle(self) -> DistanceProvider:
        """The distance provider backing the scheme's shell lookups."""
        return self._oracle

    def describe(self) -> str:
        return f"distance_power(r={self._exponent:g}) on {self.graph.name}"

    def _shells(self, node: int, row: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, |S_d|, d^{-r})`` for draws from *node*, shells ``d = 0 … ecc``.

        Shell 0 weighs 0, and *node* itself is never drawn: a sketch row puts
        it at ``est(u, u) = 2·min_p d(p, u) > 0`` instead of in shell 0, so
        the returned row (a copy then) marks it unreachable.
        """
        if row[node] != 0:
            row = row.copy()
            row[node] = UNREACHABLE
        sizes = shell_sizes(row)
        per_node = np.zeros(sizes.size)
        per_node[1:] = np.arange(1, sizes.size, dtype=np.float64) ** -self._exponent
        return row, sizes, per_node

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure sampling: ``uniforms[0]`` → shell, ``uniforms[1]`` → member.

        The distinct nodes of the batch are prefetched through the provider's
        query tier in one batched sweep.  Each entry then draws its shell by
        inverse CDF over the ``|S_d| · d^{-r}`` weights (a cumsum over the
        diameter, not over ``n``) and a uniform member of it.  Nodes with no
        other reachable node (zero total weight) draw ``NO_CONTACT``.
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        for node, row, lanes in rows_by_node(self._oracle, nodes):
            row, sizes, per_node = self._shells(node, row)
            cumulative = (sizes * per_node).cumsum()
            if cumulative.size == 0 or cumulative[-1] <= 0.0:
                continue
            # side="right" skips zero-weight shells: the drawn shell's
            # cumulative weight strictly exceeds the draw.
            shells = cumulative.searchsorted(uniforms[0, lanes] * cumulative[-1], side="right")
            ranks = (uniforms[1, lanes] * sizes[shells]).astype(np.int64)
            out[lanes] = shell_members(row, shells, ranks)
        return out

    def contact_distribution(self, node: int) -> np.ndarray:
        node = check_node_index(node, self._graph.num_nodes)
        row, sizes, per_node = self._shells(node, self._oracle.query_distances_from(node))
        probs = np.zeros(self._graph.num_nodes)
        total = float(sizes @ per_node)
        if total > 0.0:
            reachable = row != UNREACHABLE
            probs[reachable] = per_node[row[reachable]] / total
        return probs
