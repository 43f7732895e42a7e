"""Greedy routing engine and Monte-Carlo estimation of the greedy diameter.

Greedy routing (Kleinberg's decentralised search, as defined in Section 1 of
the paper) forwards a message at node ``u`` to the neighbour — among the local
neighbours of ``u`` *and* ``u``'s long-range contact — that is closest to the
target according to the distance in the underlying graph ``G``.

``E(φ, s, t)`` is the expected number of steps over the random long-range
links and ``diam(G, φ) = max_{s,t} E(φ, s, t)`` is the greedy diameter; the
simulator estimates both by Monte-Carlo over sampled pairs and trials, with
the long-range links re-sampled lazily per trial on the lane engine.
"""

from repro.routing.greedy import greedy_route, RouteResult
from repro.routing.engine import LaneBatchResult, route_lanes
from repro.routing.simulator import (
    estimate_expected_steps,
    estimate_greedy_diameter,
    PairEstimate,
    RoutingEstimate,
)
from repro.routing.sampling import uniform_pairs, extremal_pairs, all_pairs
from repro.routing.statistics import summarize, SummaryStats

__all__ = [
    "greedy_route",
    "RouteResult",
    "LaneBatchResult",
    "route_lanes",
    "estimate_expected_steps",
    "estimate_greedy_diameter",
    "PairEstimate",
    "RoutingEstimate",
    "uniform_pairs",
    "extremal_pairs",
    "all_pairs",
    "summarize",
    "SummaryStats",
]
