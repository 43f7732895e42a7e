"""Pathshape estimation.

``ps(G)`` (Definition 2) is the minimum, over all path decompositions of
``G``, of the maximum bag shape.  Computing it exactly is NP-hard (it
generalises pathwidth), but Theorem 2 only ever *uses* a concrete path
decomposition: the guarantee ``O(min{ps(G)·log² n, √n})`` holds with ``ps(G)``
replaced by the shape of whatever decomposition the labeling was built from.

:func:`estimate_pathshape` therefore tries a portfolio of constructions —
exact ones when the graph belongs to a recognised class (path, caterpillar,
tree), heuristic elimination-order + centroid-conversion otherwise — and
returns the best witnessed shape together with the winning decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.decomposition.bags import DistanceOracle
from repro.decomposition.elimination import (
    min_degree_ordering,
    min_fill_ordering,
    tree_decomposition_from_ordering,
)
from repro.decomposition.exact import (
    is_caterpillar,
    is_cycle_graph,
    is_path_graph,
    is_tree,
    path_decomposition_of_caterpillar,
    path_decomposition_of_cycle,
    path_decomposition_of_path,
    path_decomposition_of_tree,
)
from repro.decomposition.path_decomposition import PathDecomposition
from repro.decomposition.tree_to_path import tree_decomposition_to_path
from repro.graphs.graph import Graph

__all__ = ["PathshapeEstimate", "estimate_pathshape"]


@dataclass(frozen=True)
class PathshapeEstimate:
    """Result of :func:`estimate_pathshape`.

    Attributes
    ----------
    shape:
        The best (smallest) witnessed maximum bag shape — an upper bound on
        the true ``ps(G)``.
    width:
        Width of the winning decomposition (upper bound on pathwidth).
    decomposition:
        The winning path decomposition.
    strategy:
        Name of the construction that produced it.
    candidates:
        Shape witnessed by every strategy that was tried (for reporting).
    skipped:
        Strategies (and external decompositions) left untried, in portfolio
        order, because an earlier candidate reached the provable best.
    """

    shape: int
    width: int
    decomposition: PathDecomposition
    strategy: str
    candidates: Dict[str, int]
    skipped: Tuple[str, ...] = ()


def _construct(graph: Graph, strategy: str) -> Optional[PathDecomposition]:
    """*strategy*'s decomposition of *graph*, or ``None`` where it does not apply."""
    try:
        if strategy == "path" and is_path_graph(graph):
            return path_decomposition_of_path(graph)
        if strategy == "cycle" and is_cycle_graph(graph):
            return path_decomposition_of_cycle(graph)
        if strategy == "caterpillar" and is_caterpillar(graph):
            return path_decomposition_of_caterpillar(graph)
        if strategy == "tree" and is_tree(graph):
            return path_decomposition_of_tree(graph)
        if strategy == "min_degree":
            return tree_decomposition_to_path(
                tree_decomposition_from_ordering(graph, min_degree_ordering(graph))
            )
        if strategy == "min_fill":
            return tree_decomposition_to_path(
                tree_decomposition_from_ordering(graph, min_fill_ordering(graph))
            )
        if strategy == "trivial":
            return PathDecomposition.trivial(graph)
    except ValueError:
        pass
    return None


def estimate_pathshape(
    graph: Graph,
    *,
    strategies: Optional[Sequence[str]] = None,
    compute_length: bool = False,
    external: Optional[Dict[str, PathDecomposition]] = None,
) -> PathshapeEstimate:
    """Upper-bound the pathshape of *graph* with a portfolio of constructions.

    The candidates are built and scored one at a time, in portfolio order
    (the *strategies*, then the *external* decompositions); the smallest
    ``(shape, width)`` wins and ties keep the first.  On a graph with an
    edge no decomposition can beat ``(1, 1)`` — the bag covering that edge
    has width and length at least 1 — so the first candidate to reach it
    wins outright and the rest are skipped (listed in ``skipped``): exact
    path and caterpillar constructions never wait for the elimination
    heuristics.

    Parameters
    ----------
    graph:
        Connected graph to decompose.
    strategies:
        Which constructions to try; defaults to the exact path, cycle,
        caterpillar and tree constructions, then the min-degree and min-fill
        elimination heuristics, with min-fill left out above 2000 nodes.
    compute_length:
        When true, per-bag *length* is evaluated (one memoised BFS per
        distinct bag member), so the reported shape uses the full
        ``min(width, length)`` definition.  When false (default) only widths
        are used, which still upper-bounds the shape.
    external:
        Extra named decompositions to include in the portfolio (e.g. the
        exact clique-path decomposition of an interval graph built from its
        interval model).

    Returns
    -------
    PathshapeEstimate
    """
    if graph.num_nodes == 0:
        raise ValueError("cannot estimate the pathshape of the empty graph")
    if strategies is None:
        strategies = ["path", "cycle", "caterpillar", "tree", "min_degree"]
        if graph.num_nodes <= 2000:
            strategies.append("min_fill")
    oracle = DistanceOracle(graph) if compute_length else None

    def score(pd: PathDecomposition) -> Tuple[int, int]:
        return pd.shape(graph, oracle=oracle, width_only=not compute_length), pd.width()

    portfolio = list(strategies) + list(external or {})
    provable_best = (1, 1) if graph.num_edges > 0 else None
    scored: Dict[str, int] = {}
    skipped: Tuple[str, ...] = ()
    best: Optional[Tuple[Tuple[int, int], str, PathDecomposition]] = None
    for index, name in enumerate(portfolio):
        pd = _construct(graph, name) if index < len(strategies) else external[name]
        if pd is None:
            continue
        key = score(pd)
        scored[name] = key[0]
        if best is None or key < best[0]:
            best = (key, name, pd)
        if key == provable_best:
            skipped = tuple(portfolio[index + 1:])
            break
    if best is None:
        pd = PathDecomposition.trivial(graph)
        best = (score(pd), "trivial", pd)
        scored["trivial"] = best[0][0]
    (shape, width), name, pd = best
    return PathshapeEstimate(
        shape=max(shape, 1),
        width=width,
        decomposition=pd,
        strategy=name,
        candidates=scored,
        skipped=skipped,
    )
