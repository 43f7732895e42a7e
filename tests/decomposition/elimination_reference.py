"""Full-rescan min-fill ordering: the reference the incremental one must equal.

Every step recomputes the fill count of every live vertex and takes
``min(live, key=(fill, degree, id))``: O(n²·d²) pure Python, too slow for the
library but obviously right.  ``tests/decomposition/test_elimination.py``
checks :func:`repro.decomposition.elimination.min_fill_ordering` against it,
and ``benchmarks/test_bench_decomposition.py`` times the two side by side.
"""

from __future__ import annotations

from typing import List, Set

from repro.graphs.graph import Graph


def reference_min_fill_ordering(graph: Graph) -> List[int]:
    """Min-fill elimination ordering by a full rescan at every step."""
    n = graph.num_nodes
    adj: List[Set[int]] = graph.adjacency_sets()
    alive: Set[int] = set(range(n))
    order: List[int] = []

    def fill_count(v: int) -> int:
        nbrs = [u for u in adj[v] if u in alive]
        missing = 0
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    missing += 1
        return missing

    while alive:
        v = min(alive, key=lambda u: (fill_count(u), len(adj[u]), u))
        order.append(v)
        alive.discard(v)
        nbrs = [u for u in adj[v] if u in alive]
        for i, a in enumerate(nbrs):
            adj[a].discard(v)
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
    return order
