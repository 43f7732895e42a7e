"""Queue-based BFS: the reference every frontier-engine path must equal.

The plain ``deque`` traversal the library used before the frontier engine.
It is far too slow for the library but obviously right, so the property
tests in ``tests/graphs/`` pin the engine's distances and parent pointers to
it bitwise, and ``benchmarks/test_bench_bfs_engine.py`` times the engine
against it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

import numpy as np

from repro.graphs.frontier import UNREACHABLE
from repro.graphs.graph import Graph
from repro.utils.validation import check_node_index


def legacy_bfs_distances(
    graph: Graph, source: int, *, cutoff: Optional[int] = None
) -> np.ndarray:
    """Distances from *source* by a queue BFS (``UNREACHABLE`` past *cutoff*)."""
    source = check_node_index(source, graph.num_nodes, "source")
    indptr = graph.indptr
    indices = graph.indices
    dist = np.full(graph.num_nodes, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            continue
        for v in indices[indptr[u]: indptr[u + 1]]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(int(v))
    return dist


def legacy_bfs_tree(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and parent pointers from *source* by a queue BFS.

    The parent of a node is the first node popped that reaches it, so the
    array depends on the intra-level visit order; the engine's ``bfs_tree``
    must reproduce this order exactly.
    """
    source = check_node_index(source, graph.num_nodes, "source")
    indptr = graph.indptr
    indices = graph.indices
    dist = np.full(graph.num_nodes, UNREACHABLE, dtype=np.int64)
    parent = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in indices[indptr[u]: indptr[u + 1]]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                parent[v] = u
                queue.append(int(v))
    return dist, parent
