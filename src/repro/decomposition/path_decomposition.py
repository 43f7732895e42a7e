"""Path decompositions (tree decompositions whose tree is a path).

The (M, L) scheme of Theorem 2 consumes a path decomposition: its bags are
labeled consecutively ``1 … b`` along the path and the node labeling ``L`` is
derived from the interval of bags containing each node.  The class therefore
also exposes :meth:`node_intervals` (the interval ``I_u`` of bag indices
containing node ``u``) and :meth:`reduced` (no bag contained in another),
which the paper uses to guarantee ``b ≤ n``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.decomposition.bags import DistanceOracle, bag_length, bag_shape, bag_width
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.graphs.graph import Graph

__all__ = ["PathDecomposition"]


class PathDecomposition:
    """An ordered sequence of bags forming a path decomposition.

    Parameters
    ----------
    bags:
        Bags in path order (bag ``i`` is adjacent to bags ``i ± 1``).
    """

    def __init__(self, bags: Sequence[Iterable[int]]) -> None:
        self._bags: List[FrozenSet[int]] = [frozenset(int(v) for v in bag) for bag in bags]
        if any(len(bag) == 0 for bag in self._bags):
            raise ValueError("bags must be non-empty")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def bags(self) -> List[FrozenSet[int]]:
        """Bags in path order."""
        return list(self._bags)

    @property
    def num_bags(self) -> int:
        return len(self._bags)

    def bag(self, i: int) -> FrozenSet[int]:
        return self._bags[i]

    def __len__(self) -> int:
        return len(self._bags)

    def __iter__(self):
        return iter(self._bags)

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #

    def width(self) -> int:
        """``max_i |X_i| - 1`` (pathwidth witnessed by this decomposition)."""
        if not self._bags:
            return -1
        return max(bag_width(bag) for bag in self._bags)

    def length(self, graph: Graph, *, oracle: Optional[DistanceOracle] = None) -> int:
        """``max_i length(X_i)`` (pathlength witnessed by this decomposition)."""
        if not self._bags:
            return 0
        oracle = oracle or DistanceOracle(graph)
        return max(bag_length(bag, oracle) for bag in self._bags)

    def shape(
        self,
        graph: Optional[Graph] = None,
        *,
        oracle: Optional[DistanceOracle] = None,
        width_only: bool = False,
    ) -> int:
        """``max_i shape(X_i)`` — the pathshape witnessed by this decomposition.

        Definition 2 of the paper; with ``width_only=True`` the per-bag length
        term is skipped and the result is an upper bound.
        """
        if not self._bags:
            return -1
        if not width_only and oracle is None and graph is not None:
            oracle = DistanceOracle(graph)
        return max(bag_shape(bag, oracle, width_only=width_only) for bag in self._bags)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def node_intervals(self) -> Dict[int, Tuple[int, int]]:
        """For each node ``u``, the interval ``I_u = [first, last]`` of bag indices (0-based) containing it.

        Raises ``ValueError`` if some node's bags are not consecutive (i.e.
        the sequence is not a valid path decomposition of any graph).
        """
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for i, bag in enumerate(self._bags):
            for v in bag:
                first.setdefault(v, i)
                last[v] = i
        intervals: Dict[int, Tuple[int, int]] = {}
        for v, lo in first.items():
            hi = last[v]
            count = sum(1 for i in range(lo, hi + 1) if v in self._bags[i])
            if count != hi - lo + 1:
                raise ValueError(f"node {v} appears in non-consecutive bags")
            intervals[v] = (lo, hi)
        return intervals

    def reduced(self) -> "PathDecomposition":
        """Remove bags contained in an adjacent bag, repeatedly.

        The paper restricts attention to *reduced* path decompositions, whose
        number of bags is at most ``max(1, n - 1)``; reducing never increases
        the shape because ``Y ⊆ Y'`` implies ``shape(Y) ≤ shape(Y')``.
        """
        # Single left-to-right pass with a stack: whenever the incoming bag
        # contains (or is contained in) its current neighbour, one of the two
        # is dropped.  This is equivalent to repeatedly removing a bag
        # contained in an adjacent bag.
        out: List[FrozenSet[int]] = []
        for bag in self._bags:
            while out and out[-1] <= bag:
                out.pop()
            if out and bag <= out[-1]:
                continue
            out.append(bag)
        if not out:
            out = [self._bags[0]] if self._bags else []
        return PathDecomposition(out)

    def to_tree_decomposition(self) -> TreeDecomposition:
        """View this path decomposition as a tree decomposition."""
        edges = [(i, i + 1) for i in range(len(self._bags) - 1)]
        return TreeDecomposition(self._bags, edges)

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #

    def is_valid_for(self, graph: Graph) -> bool:
        """Whether this is a valid path decomposition of *graph*."""
        return not self.violations(graph)

    def violations(self, graph: Graph) -> List[str]:
        """Human-readable list of validity violations (empty when valid)."""
        problems: List[str] = []
        n = graph.num_nodes
        covered: Set[int] = set()
        for bag in self._bags:
            for v in bag:
                if v < 0 or v >= n:
                    problems.append(f"bag contains out-of-range node {v}")
                covered.add(v)
        missing = set(range(n)) - covered
        if missing:
            problems.append(f"nodes not covered by any bag: {sorted(missing)[:10]}")
        for (u, v) in graph.edges():
            if not any(u in bag and v in bag for bag in self._bags):
                problems.append(f"edge ({u}, {v}) not contained in any bag")
                break
        try:
            self.node_intervals()
        except ValueError as exc:
            problems.append(str(exc))
        return problems

    # ------------------------------------------------------------------ #
    # Constructions
    # ------------------------------------------------------------------ #

    @classmethod
    def trivial(cls, graph: Graph) -> "PathDecomposition":
        """Single bag containing every node (width n-1, length diam(G))."""
        if graph.num_nodes == 0:
            raise ValueError("cannot decompose the empty graph")
        return cls([set(range(graph.num_nodes))])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathDecomposition(bags={self.num_bags}, width={self.width()})"
