"""A single greedy route through an augmented graph.

The routing decision at the current node ``u`` (Section 1 of the paper):

1. consider every local neighbour of ``u`` in ``G`` plus ``u``'s long-range
   contact (if any),
2. forward to the candidate closest to the target ``t`` according to
   ``dist_G(·, t)``.

Nodes know the distances of the *underlying* graph only; they are unaware of
other nodes' long-range links.  Because ``G`` is connected, some local
neighbour is strictly closer to ``t`` than ``u``, so the distance to the
target strictly decreases every step and the route always terminates within
``dist_G(s, t) ≤ n`` steps — the long-range links can only shorten it.

:func:`greedy_route` walks one route in plain Python.  Estimates and served
queries run on the vectorized lane engine instead
(:mod:`repro.routing.engine`); this function is its readable reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.graphs.distances import UNREACHABLE
from repro.graphs.graph import Graph
from repro.utils.validation import check_node_index

__all__ = ["RouteResult", "greedy_route", "ContactProvider"]

#: Callable returning the long-range contact of a node for the current trial
#: (or ``None`` when the node has no long-range link).
ContactProvider = Callable[[int], Optional[int]]


@dataclass
class RouteResult:
    """Outcome of one greedy route.

    Attributes
    ----------
    source, target:
        Endpoints of the route.
    steps:
        Number of edges traversed (local or long-range).
    path:
        The sequence of visited nodes, starting at *source* and ending at
        *target* when the route succeeded.
    long_links_used:
        How many steps used a long-range link.
    success:
        Whether the target was reached within the step budget.
    """

    source: int
    target: int
    steps: int
    path: List[int] = field(default_factory=list)
    long_links_used: int = 0
    success: bool = True

    @property
    def local_links_used(self) -> int:
        """Number of steps that used an edge of the underlying graph."""
        return self.steps - self.long_links_used


def greedy_route(
    graph: Graph,
    dist_to_target: np.ndarray,
    source: int,
    target: int,
    contact_of: ContactProvider,
    *,
    max_steps: Optional[int] = None,
    record_path: bool = False,
) -> RouteResult:
    """Route greedily from *source* to *target*.

    Parameters
    ----------
    graph:
        Underlying graph ``G``.
    dist_to_target:
        Distance array ``dist_G(·, target)`` (one BFS from the target),
        shared across every route towards the same target.
    source, target:
        Endpoints; *target* must be reachable from *source*.
    contact_of:
        Provider of long-range contacts for this trial, called once per step
        with the current node.  A provider that replays a lane's counter
        uniforms through ``scheme.sample_contacts_from_uniforms`` makes this
        route step-for-step the lane engine's
        (:func:`repro.routing.engine.route_lanes`).
    max_steps:
        Safety bound (default ``n``); exceeded only if the inputs are
        inconsistent.
    record_path:
        When true, the visited nodes are recorded in the result.
    """
    n = graph.num_nodes
    source = check_node_index(source, n, "source")
    target = check_node_index(target, n, "target")
    dist_to_target = np.asarray(dist_to_target)
    if dist_to_target.shape != (n,):
        raise ValueError("dist_to_target must have one entry per node")
    if dist_to_target[source] == UNREACHABLE:
        raise ValueError("target is not reachable from source")
    if max_steps is None:
        max_steps = n
    indptr = graph.indptr
    indices = graph.indices

    current = source
    steps = 0
    long_used = 0
    path: List[int] = [source] if record_path else []
    while current != target:
        if steps >= max_steps:
            return RouteResult(
                source=source,
                target=target,
                steps=steps,
                path=path,
                long_links_used=long_used,
                success=False,
            )
        current_dist = dist_to_target[current]
        best_node = -1
        best_dist = current_dist
        # Local neighbours.
        for v in indices[indptr[current]: indptr[current + 1]]:
            dv = dist_to_target[v]
            if dv != UNREACHABLE and dv < best_dist:
                best_dist = dv
                best_node = int(v)
        # Long-range contact: preferred on ties with the best local candidate
        # (at equal distance it makes no difference to the step count), but it
        # must still bring us strictly closer than the current node.
        contact = contact_of(current)
        used_long = False
        if contact is not None and contact != current:
            dc = dist_to_target[contact]
            if dc != UNREACHABLE and dc < current_dist and dc <= best_dist:
                best_dist = dc
                best_node = int(contact)
                used_long = True
        if best_node < 0:
            # Cannot make progress: only possible on inconsistent inputs.
            return RouteResult(
                source=source,
                target=target,
                steps=steps,
                path=path,
                long_links_used=long_used,
                success=False,
            )
        current = best_node
        steps += 1
        if used_long:
            long_used += 1
        if record_path:
            path.append(current)
    return RouteResult(
        source=source,
        target=target,
        steps=steps,
        path=path,
        long_links_used=long_used,
        success=True,
    )
