"""Balls ``B(u, r)`` and related machinery.

The Õ(n^{1/3}) scheme of Theorem 4 is defined directly in terms of balls:
every node picks ``k`` uniformly in ``{1, …, ⌈log n⌉}`` and a long-range
contact uniform in ``B(u, 2^k)``.  The proof additionally uses the *rank*
``r(v)`` of a node (smallest ``k`` with ``v ∈ B_k(u)``), which
:func:`ball_ranks` exposes.

The graph-level functions run on the vectorized frontier BFS engine
(:mod:`repro.graphs.frontier`, via :func:`repro.graphs.distances.bfs_distances`);
truncated searches (``ball``, ``ball_sizes``) cost ``O(|B(center, r)|)`` edge
scans.  :func:`shell_sizes` and :func:`shell_members` are the stateless shell
primitive of the distance-based schemes: the shell ``S_d`` of a distance row
is the set of nodes at distance ``d``, and a ball's ``(distance, id)`` order
is its shells in turn, each in id order.  :func:`rows_by_node` hands those
schemes the rows of a batch from a provider's query tier, which caches them;
nothing here keeps state.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.graphs.distances import UNREACHABLE, bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.provider import DistanceProvider
from repro.utils.validation import check_node_index

__all__ = [
    "ball",
    "ball_sizes",
    "ball_ranks",
    "growth_function",
    "rows_by_node",
    "shell_members",
    "shell_sizes",
]


def ball(graph: Graph, center: int, radius: int) -> np.ndarray:
    """Sorted array of nodes at distance at most *radius* from *center*."""
    center = check_node_index(center, graph.num_nodes, "center")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dist = bfs_distances(graph, center, cutoff=radius)
    members = np.nonzero((dist != UNREACHABLE) & (dist <= radius))[0]
    return members


def ball_sizes(graph: Graph, center: int, radii: List[int]) -> Dict[int, int]:
    """Sizes of ``B(center, r)`` for each requested radius.

    A single BFS (to the largest radius) serves every query.
    """
    center = check_node_index(center, graph.num_nodes, "center")
    if not radii:
        return {}
    max_radius = max(radii)
    if max_radius < 0:
        raise ValueError("radii must be non-negative")
    dist = bfs_distances(graph, center, cutoff=max_radius)
    reachable = dist[dist != UNREACHABLE]
    return {int(r): int(np.count_nonzero(reachable <= r)) for r in radii}


def ball_ranks(graph: Graph, center: int, *, num_levels: int) -> np.ndarray:
    """Rank ``r(v)`` of every node with respect to *center* (Theorem 4).

    ``r(v)`` is the smallest ``k ≥ 1`` such that ``v ∈ B(center, 2^k)``, i.e.
    ``r(v) = max(1, ⌈log2 dist(center, v)⌉)``; nodes farther than
    ``2^num_levels`` (or unreachable) get rank ``num_levels + 1`` meaning they
    can never be chosen as a contact of *center*.
    """
    center = check_node_index(center, graph.num_nodes, "center")
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    dist = bfs_distances(graph, center)
    ranks = np.full(graph.num_nodes, num_levels + 1, dtype=np.int64)
    reachable = dist != UNREACHABLE
    near = reachable & (dist <= 2)
    ranks[near] = 1
    far = reachable & (dist > 2)
    if np.any(far):
        far_ranks = np.ceil(np.log2(dist[far])).astype(np.int64)
        ranks[far] = np.minimum(far_ranks, num_levels + 1)
    return ranks


def growth_function(graph: Graph, center: int) -> np.ndarray:
    """Array ``g`` with ``g[r] = |B(center, r)|`` for ``r = 0 … ecc(center)``."""
    center = check_node_index(center, graph.num_nodes, "center")
    dist = bfs_distances(graph, center)
    finite = dist[dist != UNREACHABLE]
    ecc = int(finite.max()) if finite.size else 0
    counts = np.bincount(finite, minlength=ecc + 1)
    return np.cumsum(counts)


def shell_sizes(row: np.ndarray) -> np.ndarray:
    """``sizes[d] = |S_d|``, the number of nodes at distance ``d`` in *row*.

    *row* is a distance row; the result runs from ``d = 0`` to the largest
    finite distance, so its cumulative sum is ``|B(u, d)|``, and it is empty
    when nothing is reachable.
    """
    # ``row + 1`` moves UNREACHABLE (-1) into bin 0, which is dropped.
    return np.bincount(row + 1)[1:]


def shell_members(row: np.ndarray, shells: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """``out[i]`` is the ``ranks[i]``-th node, in id order, at distance ``shells[i]``.

    One scan of *row* per distinct shell, no sort: a uniform member of
    ``S_d`` is one uniform rank away, and position ``p`` of a ball's
    ``(distance, id)`` order is rank ``p − |B(u, d − 1)|`` of the shell
    ``d`` holding it.  Every rank must lie in ``[0, |S_d|)``.
    """
    out = np.empty(shells.shape, dtype=np.int64)
    for d in set(shells.tolist()):
        lanes = shells == d
        out[lanes] = (row == d).nonzero()[0][ranks[lanes]]
    return out


def rows_by_node(
    provider: DistanceProvider, nodes: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(node, row, lanes)`` once per distinct entry of *nodes*.

    ``row`` is ``provider.query_distances_from(node)`` and ``lanes`` the
    ascending positions of *nodes* equal to ``node``.  The distinct nodes are
    prefetched first, so the provider computes the missing rows in one
    batched frontier sweep instead of one BFS per node.
    """
    uniq, inverse, counts = np.unique(nodes, return_inverse=True, return_counts=True)
    provider.prefetch_query(uniq.tolist())
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    for node, lanes in zip(uniq.tolist(), groups):
        yield node, provider.query_distances_from(node), lanes
