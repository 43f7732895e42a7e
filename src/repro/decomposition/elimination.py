"""Tree decompositions from elimination orderings.

Exact treewidth is NP-hard; the classic practical route is to pick a vertex
elimination ordering (min-degree or min-fill heuristics), triangulate the
graph along it and read off one bag per vertex: ``X_v = {v} ∪ N⁺(v)`` where
``N⁺(v)`` are the neighbours of ``v`` (in the filled graph) eliminated later.
The decomposition tree attaches ``X_v`` to the bag of the earliest-eliminated
vertex of ``N⁺(v)``.

These heuristic decompositions feed :func:`repro.decomposition.tree_to_path.
tree_decomposition_to_path` to obtain path decompositions — and hence
pathshape upper bounds — for arbitrary graphs, which is exactly what the
universal statement of Theorem 2 needs.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.graphs.graph import Graph

__all__ = [
    "min_degree_ordering",
    "min_fill_ordering",
    "tree_decomposition_from_ordering",
    "treewidth_upper_bound",
]


def min_degree_ordering(graph: Graph) -> List[int]:
    """Elimination ordering choosing a minimum-degree vertex at every step.

    Runs on the *filled* graph (neighbours of an eliminated vertex are made
    into a clique before the next choice), using a lazy heap of degrees.
    """
    n = graph.num_nodes
    adj: List[Set[int]] = graph.adjacency_sets()
    eliminated = [False] * n
    heap: List[Tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            if not eliminated[v]:
                heapq.heappush(heap, (len(adj[v]), v))
            continue
        order.append(v)
        eliminated[v] = True
        nbrs = [u for u in adj[v] if not eliminated[u]]
        # Fill: make the remaining neighbourhood a clique.
        for i, a in enumerate(nbrs):
            adj[a].discard(v)
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (len(adj[a]), a))
    return order


def min_fill_ordering(graph: Graph) -> List[int]:
    """Elimination ordering choosing the vertex whose elimination adds the fewest fill edges.

    Ties go to the smaller degree, then the smaller id: every step takes
    ``min(live, key=(fill, degree, id))`` over the filled graph.  The keys
    sit in a lazy heap and stay exact through one incremental invariant:
    ``linked[u]`` counts the edges among ``u``'s live neighbours, so
    ``fill(u) = deg(u)·(deg(u) − 1)/2 − linked[u]``.  Eliminating ``v``
    makes its neighbourhood ``N`` a clique one fill edge ``(a, b)`` at a
    time, and each edge adds one to ``linked`` of every common neighbour of
    ``a`` and ``b`` and that many to ``a`` and ``b``; dropping ``v`` then
    takes ``|N| − 1`` from every member of ``N``.  A step therefore costs
    work around ``v`` (its neighbourhood plus one set intersection per fill
    edge) instead of a fill recount of every live vertex.
    """
    n = graph.num_nodes
    adj: List[Set[int]] = graph.adjacency_sets()
    linked = [sum(len(adj[a] & nbrs) for a in nbrs) // 2 for nbrs in adj]
    heap: List[Tuple[int, int, int]] = []
    for v in range(n):
        deg = len(adj[v])
        heap.append((deg * (deg - 1) // 2 - linked[v], deg, v))
    heapq.heapify(heap)
    alive = [True] * n
    order: List[int] = []
    while heap:
        fill, deg, v = heapq.heappop(heap)
        if not alive[v] or deg != len(adj[v]) or fill != deg * (deg - 1) // 2 - linked[v]:
            continue  # dead, or a stale key (the current one is queued)
        order.append(v)
        alive[v] = False
        nbrs = list(adj[v])  # a live vertex's set holds live vertices only
        touched = set(nbrs)
        for i, a in enumerate(nbrs):
            adj_a = adj[a]
            for b in nbrs[i + 1:]:
                if b not in adj_a:
                    adj_b = adj[b]
                    common = adj_a & adj_b  # holds v too, whose count is dead
                    linked[a] += len(common)
                    linked[b] += len(common)
                    for u in common:
                        linked[u] += 1
                    touched |= common
                    adj_a.add(b)
                    adj_b.add(a)
        # N is a clique now, so each member loses one linked edge per other member.
        for a in nbrs:
            adj[a].discard(v)
            linked[a] -= len(nbrs) - 1
        touched.discard(v)
        for u in touched:
            deg = len(adj[u])
            heapq.heappush(heap, (deg * (deg - 1) // 2 - linked[u], deg, u))
    return order


def tree_decomposition_from_ordering(graph: Graph, ordering: Sequence[int]) -> TreeDecomposition:
    """Tree decomposition induced by an elimination *ordering*.

    The ordering must be a permutation of the nodes.  The resulting
    decomposition has one bag per vertex and width equal to the largest
    higher-neighbourhood encountered during the triangulation.
    """
    n = graph.num_nodes
    ordering = [int(v) for v in ordering]
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of all nodes")
    if n == 0:
        return TreeDecomposition([], [])
    position = [0] * n
    for pos, v in enumerate(ordering):
        position[v] = pos
    adj: List[Set[int]] = graph.adjacency_sets()
    bags: List[Set[int]] = [set() for _ in range(n)]
    # Triangulate along the ordering, recording each vertex's higher neighbourhood.
    for v in ordering:
        higher = [u for u in adj[v] if position[u] > position[v]]
        bags[v] = {v, *higher}
        for i, a in enumerate(higher):
            for b in higher[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
    # Tree structure: bag(v) attaches to bag(parent) where parent is the
    # earliest-eliminated higher neighbour of v.
    edges: List[Tuple[int, int]] = []
    roots: List[int] = []
    bag_index = {v: i for i, v in enumerate(ordering)}
    ordered_bags = [bags[v] for v in ordering]
    for i, v in enumerate(ordering):
        higher = [u for u in bags[v] if u != v]
        if higher:
            parent = min(higher, key=lambda u: position[u])
            edges.append((i, bag_index[parent]))
        else:
            roots.append(i)
    # Link multiple roots (disconnected graphs) into a single tree.
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(ordered_bags, edges)


def treewidth_upper_bound(graph: Graph, *, strategy: str = "min_degree") -> Tuple[int, TreeDecomposition]:
    """Heuristic treewidth upper bound and its witnessing decomposition.

    *strategy* is ``"min_degree"`` (default) or ``"min_fill"`` (usually
    tighter).  Both keep lazy heaps over the filled graph and cost about the
    same; min-fill also updates its fill counts around each eliminated
    vertex.
    """
    if strategy == "min_degree":
        ordering = min_degree_ordering(graph)
    elif strategy == "min_fill":
        ordering = min_fill_ordering(graph)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    td = tree_decomposition_from_ordering(graph, ordering)
    return td.width(), td
