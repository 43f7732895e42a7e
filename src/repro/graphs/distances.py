"""Shortest-path distances (BFS) for unweighted graphs.

Greedy routing only ever needs the distance *to a fixed target*, so the basic
primitive is a single-source BFS returning a distance array; everything else
(APSP matrices, eccentricities, diameters) is layered on top of it.

The public functions here are thin wrappers over :mod:`repro.graphs.frontier`,
the vectorized level-synchronous BFS core: ``bfs_distances`` and
``multi_source_bfs`` delegate to single-frontier sweeps and
``distance_matrix`` fills its rows in batches through
:func:`repro.graphs.frontier.bfs_distances_many`.  The pure-Python ``deque``
traversal the engine must equal lives with the tests
(``tests/graphs/bfs_reference.py``).

Distance rows come back in the engine's dtype
(:func:`repro.graphs.frontier.bfs_dtype`: ``int32`` below ``2**31`` keys;
:func:`distance_matrix` fills ``int64``), with ``UNREACHABLE`` (-1) marking
nodes outside the source's connected component.

Disconnected-graph contract
---------------------------
``eccentricity`` and ``diameter`` (both ``exact=True`` and ``exact=False``)
raise ``ValueError`` on disconnected graphs — the quantities are undefined
there and silently returning a within-component value proved error-prone.
``double_sweep_diameter_lower_bound`` is the one deliberate exception: it is
*documented* to operate within the start node's component (the pair samplers
rely on that to find hard pairs without a connectivity precheck).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graphs.frontier import (
    UNREACHABLE,
    bfs_distances_many,
    frontier_bfs,
    frontier_bfs_tree,
    frontier_multi_source_bfs,
)
from repro.graphs.graph import Graph

__all__ = [
    "UNREACHABLE",
    "bfs_distances",
    "bfs_tree",
    "multi_source_bfs",
    "distance_matrix",
    "eccentricity",
    "diameter",
    "farthest_node",
    "double_sweep_diameter_lower_bound",
]

#: Row-batch size used by :func:`distance_matrix`; bounds the flat frontier
#: buffer at ``_BATCH_ROWS * n`` int64 entries regardless of ``n``.
_BATCH_ROWS: int = 64


def bfs_distances(graph: Graph, source: int, *, cutoff: Optional[int] = None) -> np.ndarray:
    """Distances from *source* to every node (``UNREACHABLE`` if disconnected).

    Parameters
    ----------
    graph:
        The graph to search.
    source:
        Start node.
    cutoff:
        Optional radius; nodes strictly beyond it keep ``UNREACHABLE``.
        A truncated BFS costs only ``O(|B(source, cutoff)|)`` edge scans,
        which the Theorem-4 ball scheme relies on.
    """
    return frontier_bfs(graph, source, cutoff=cutoff)


def bfs_tree(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS distances and parent pointers from *source*.

    Returns ``(dist, parent)`` where ``parent[source] == source`` and
    ``parent[v] == -1`` for unreachable nodes.

    Runs on the vectorized frontier engine
    (:func:`repro.graphs.frontier.frontier_bfs_tree`), whose discovery-order
    expansion reproduces the classic queue traversal's parent assignment
    bitwise (the property tests compare against the deque reference).
    """
    return frontier_bfs_tree(graph, source)


def multi_source_bfs(graph: Graph, sources: Iterable[int]) -> np.ndarray:
    """Distance from each node to the *nearest* of the given sources."""
    return frontier_multi_source_bfs(graph, sources)


def distance_matrix(graph: Graph) -> np.ndarray:
    """All-pairs shortest-path matrix, ``shape (n, n)``.

    Rows are filled in batches of ``_BATCH_ROWS`` sources through the
    frontier engine's :func:`~repro.graphs.frontier.bfs_distances_many`, so
    the cost per row is a share of one level-synchronous sweep rather than a
    full Python BFS.
    """
    n = graph.num_nodes
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for lo in range(0, n, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, n)
        out[lo:hi] = bfs_distances_many(graph, range(lo, hi))
    return out


def eccentricity(graph: Graph, node: int) -> int:
    """Eccentricity of *node* (max distance to any reachable node).

    Raises ``ValueError`` if the graph is disconnected from *node*.
    """
    dist = bfs_distances(graph, node)
    if np.any(dist == UNREACHABLE):
        raise ValueError("graph is not connected; eccentricity undefined")
    return int(dist.max())


def farthest_node(graph: Graph, node: int) -> Tuple[int, int]:
    """Return ``(v, d)`` where *v* is a node at maximum distance *d* from *node*."""
    dist = bfs_distances(graph, node)
    reachable = np.where(dist >= 0, dist, -1)
    v = int(np.argmax(reachable))
    return v, int(reachable[v])


def double_sweep_diameter_lower_bound(graph: Graph, start: int = 0) -> Tuple[int, int, int]:
    """Classic double-sweep heuristic: BFS from *start*, then from the farthest node.

    Returns ``(u, v, d)`` — a pair of nodes at distance *d*, a lower bound on
    the diameter that is exact on trees.  Used by the pair samplers to find
    "hard" source/target pairs without computing full APSP.

    On a disconnected graph the sweep deliberately stays inside *start*'s
    component and bounds that component's diameter; if *start* is isolated the
    result degenerates to ``(start, start, 0)``.  Callers that need the whole
    graph's diameter must use :func:`diameter`, which enforces connectivity.
    """
    a, _ = farthest_node(graph, start)
    b, d = farthest_node(graph, a)
    return a, b, d


def diameter(graph: Graph, *, exact: bool = True) -> int:
    """Graph diameter.

    With ``exact=True`` (default) runs a batched BFS from every node (O(nm));
    otherwise returns the double-sweep lower bound.  Both modes raise
    ``ValueError`` on disconnected graphs — the diameter is infinite there,
    and the previously silent within-component answer of ``exact=False``
    masked sampling bugs.
    """
    n = graph.num_nodes
    if n == 0:
        return 0
    if not exact:
        # Inline double sweep so the second sweep's distance array doubles as
        # the connectivity check (no third BFS).
        a, _ = farthest_node(graph, 0)
        dist = bfs_distances(graph, a)
        if np.any(dist == UNREACHABLE):
            raise ValueError("graph is not connected; diameter undefined")
        return int(dist.max())
    best = 0
    for lo in range(0, n, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, n)
        block = bfs_distances_many(graph, range(lo, hi))
        if np.any(block == UNREACHABLE):
            raise ValueError("graph is not connected; diameter undefined")
        best = max(best, int(block.max()))
    return best
