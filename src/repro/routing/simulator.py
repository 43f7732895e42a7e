"""Monte-Carlo estimation of ``E(φ, s, t)`` and of the greedy diameter.

For a fixed (source, target) pair the expected number of greedy steps is over
the randomness of the long-range links only (greedy routing itself is
deterministic).  The estimator therefore:

1. obtains ``dist_G(·, target)`` once per target from a shared
   :class:`~repro.graphs.oracle.DistanceOracle` (one vectorized BFS, memoised
   across pairs, trials and — when the caller passes its own oracle — across
   the whole experiment run),
2. samples long-range links only where routes actually travel: a node's
   contact is drawn when a route visits it — statistically identical to
   sampling all ``n`` links upfront because the links are independent,
3. averages the step counts over trials, and per experiment aggregates over a
   set of pairs (mean = average-case cost, max = greedy-diameter estimate).

Step 2 runs on the step-synchronous lane engine of
:mod:`repro.routing.engine`, the same path the serve layer's
:func:`route_queries` uses: every (pair, trial) is a lane with its own
counter-based seed, derived from the estimate's integer seed and the lane
index (:func:`repro.utils.counterrng.lane_seeds`).  Each lane's outcome is
thus a pure function of ``(graph, scheme, seed, lane index)`` — routing a
prefix of the pairs reproduces the first lanes of the full estimate.

Truncated trials (routes that hit ``max_steps`` before reaching the target)
are *excluded* from the step averages and counted in
``RoutingEstimate.failed_trials`` instead — averaging them in would bias the
mean downward, since a truncated route reports fewer steps than the route
actually needed.  Without a ``max_steps`` budget a failed route can only mean
inconsistent inputs, so it raises ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import AugmentationScheme
from repro.graphs.graph import Graph
from repro.graphs.oracle import FAR_DISTANCE, DistanceOracle
from repro.graphs.provider import DistanceProvider, provider_for
from repro.routing.engine import route_lanes
from repro.routing.sampling import extremal_pairs, uniform_pairs
from repro.routing.statistics import SummaryStats, summarize
from repro.utils.counterrng import lane_seeds
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "PairEstimate",
    "QueryOutcome",
    "RoutingEstimate",
    "estimate_expected_steps",
    "estimate_greedy_diameter",
    "route_queries",
]

@dataclass(frozen=True)
class PairEstimate:
    """Monte-Carlo estimate of ``E(φ, s, t)`` for one pair.

    ``stats`` summarises the *successful* trials only; ``failed_trials``
    counts routes truncated by the ``max_steps`` budget.
    """

    source: int
    target: int
    graph_distance: int
    stats: SummaryStats
    failed_trials: int = 0

    @property
    def mean(self) -> float:
        """Estimated expected number of greedy steps for this pair."""
        return self.stats.mean


@dataclass(frozen=True)
class RoutingEstimate:
    """Aggregate routing estimate over a set of pairs.

    Attributes
    ----------
    pairs:
        Per-pair estimates.
    mean:
        Mean number of steps over every *successful* (pair, trial) sample —
        the average-case routing cost.
    diameter:
        Maximum per-pair mean — the Monte-Carlo estimate of the greedy
        diameter ``max_{s,t} E(φ, s, t)`` restricted to the sampled pairs.
    trials:
        Trials per pair.
    long_link_fraction:
        Fraction of traversed edges that were long-range links (diagnostic).
    failed_trials:
        Total number of trials truncated by ``max_steps`` (0 when no budget
        is set; such trials are excluded from ``mean`` and ``diameter``).
    """

    pairs: List[PairEstimate] = field(default_factory=list)
    mean: float = 0.0
    diameter: float = 0.0
    trials: int = 0
    long_link_fraction: float = 0.0
    failed_trials: int = 0

    @property
    def max_pair(self) -> Optional[PairEstimate]:
        """The pair achieving the diameter estimate."""
        if not self.pairs:
            return None
        return max(self.pairs, key=lambda p: p.mean)

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "diameter": self.diameter,
            "trials": self.trials,
            "num_pairs": len(self.pairs),
            "long_link_fraction": self.long_link_fraction,
            "failed_trials": self.failed_trials,
        }


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one served ``(source, target, seed)`` route query.

    The trajectory behind ``steps``/``success``/``long_links`` is a pure
    function of ``(graph, scheme, seed)`` — counter-based lane sampling, see
    :func:`repro.routing.engine.route_lanes` — so the same query returns the
    same outcome no matter how it was batched.
    Malformed or unroutable queries set ``error`` instead of raising: a
    service must answer every query it accepted.
    """

    source: int
    target: int
    seed: int
    steps: int = 0
    success: bool = False
    long_links: int = 0
    graph_distance: int = -1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the query was routable (``error`` is ``None``)."""
        return self.error is None


def route_queries(
    graph: Graph,
    scheme: AugmentationScheme,
    queries: Sequence[Tuple[int, int, int]],
    *,
    oracle: Optional[DistanceProvider] = None,
    max_steps: Optional[int] = None,
    blocks: Optional[tuple] = None,
) -> List[QueryOutcome]:
    """Route a batch of ``(source, target, seed)`` queries, one trial each.

    The serve layer's workhorse: every query becomes one lane with its own
    counter-based seed, the whole batch advances in a single step-synchronous
    sweep, and each outcome is **identical to routing that query alone** with
    the same seed (the trajectory-identity contract).

    Per-query failures (out-of-range indices, unreachable targets) come back
    as :class:`QueryOutcome.error` strings rather than exceptions, so one bad
    query cannot poison a batch.  ``max_steps`` defaults to ``n`` — greedy
    routing strictly decreases the distance each step, so no consistent
    instance can exhaust that budget.

    *blocks* optionally supplies pre-pinned routing blocks as
    ``(dist_block, next_local_block, {target: row})`` — the
    :class:`repro.session.RoutingSession` path; by default the blocks are
    pulled from *oracle* (deduplicated by target).
    """
    if scheme.graph is not graph and not scheme.graph.same_structure(graph):
        raise ValueError("scheme was built for a different graph")
    n = graph.num_nodes
    queries = [(int(s), int(t), int(q)) for (s, t, q) in queries]
    outcomes: List[Optional[QueryOutcome]] = [None] * len(queries)
    valid: List[int] = []
    for i, (s, t, q) in enumerate(queries):
        if not (0 <= s < n):
            outcomes[i] = QueryOutcome(s, t, q, error="source index out of range")
        elif not (0 <= t < n):
            outcomes[i] = QueryOutcome(s, t, q, error="target index out of range")
        else:
            valid.append(i)
    if valid:
        if blocks is None:
            if oracle is None:
                oracle = DistanceOracle(graph)
            uniq, inverse = np.unique(
                np.asarray([queries[i][1] for i in valid], dtype=np.int64),
                return_inverse=True,
            )
            dist_block, next_local_block = oracle.routing_blocks(uniq)
            rows = {i: int(inverse[j]) for j, i in enumerate(valid)}
        else:
            dist_block, next_local_block, row_of = blocks
            rows = {i: int(row_of[queries[i][1]]) for i in valid}
        routable: List[int] = []
        for i in valid:
            s, t, q = queries[i]
            if dist_block[rows[i], s] == FAR_DISTANCE:
                outcomes[i] = QueryOutcome(
                    s, t, q, error="target is not reachable from source"
                )
            else:
                routable.append(i)
        if routable:
            pairs = [(queries[i][0], queries[i][1]) for i in routable]
            query_seeds = np.asarray(
                [queries[i][2] for i in routable], dtype=np.uint64
            )
            pair_rows = np.asarray([rows[i] for i in routable], dtype=np.int64)
            batch = route_lanes(
                graph,
                scheme,
                pairs,
                trials=1,
                max_steps=n if max_steps is None else max_steps,
                oracle=oracle,
                lane_seeds=query_seeds,
                blocks=(dist_block, next_local_block, pair_rows),
            )
            for lane, i in enumerate(routable):
                s, t, q = queries[i]
                outcomes[i] = QueryOutcome(
                    source=s,
                    target=t,
                    seed=q,
                    steps=int(batch.steps[lane]),
                    success=bool(batch.success[lane]),
                    long_links=int(batch.long_links[lane]),
                    graph_distance=int(dist_block[rows[i], s]),
                )
    return outcomes  # type: ignore[return-value]


def estimate_expected_steps(
    graph: Graph,
    scheme: AugmentationScheme,
    pairs: Sequence[Tuple[int, int]],
    *,
    trials: int = 16,
    seed: RngLike = None,
    max_steps: Optional[int] = None,
    oracle: Optional[DistanceProvider] = None,
) -> RoutingEstimate:
    """Estimate ``E(φ, s, t)`` for every pair in *pairs* and aggregate.

    Parameters
    ----------
    graph, scheme:
        The augmented-graph model ``(G, φ)``.
    pairs:
        Ordered (source, target) pairs to route.
    trials:
        Independent long-link samplings per pair.
    seed:
        Experiment-level seed.  Lane ``l`` (trial ``l % trials`` of pair
        ``l // trials``) routes with the counter seed
        ``lane_seeds(seed, ...)[l]``, a pure function of the integer seed
        and ``l``.  A generator or ``None`` first draws that integer.
    max_steps:
        Per-route step budget (default ``n``).  Trials that exhaust it are
        counted in ``failed_trials`` and excluded from the means; a pair
        whose trials *all* fail raises ``ValueError`` (its expected cost
        cannot be estimated from the budget).
    oracle:
        Optional shared :class:`~repro.graphs.provider.DistanceProvider`
        serving the per-target distance arrays (always from the exact tier —
        trajectories need genuine BFS rows).  Pass one provider across calls
        (and to :class:`~repro.core.ball_scheme.BallScheme`) to reuse BFS
        work for an entire experiment; by default a private exact oracle is
        created per call.
    """
    if scheme.graph is not graph and not scheme.graph.same_structure(graph):
        raise ValueError("scheme was built for a different graph")
    trials = check_positive_int(trials, "trials")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (source, target) pair")
    oracle = provider_for(graph, oracle)
    if not isinstance(seed, (int, np.integer)):
        seed = int(ensure_rng(seed).integers(0, 2**63))
    batch = route_lanes(
        graph,
        scheme,
        pairs,
        trials=trials,
        lane_seeds=lane_seeds(seed, len(pairs) * trials),
        max_steps=max_steps,
        oracle=oracle,
    )
    estimates: List[PairEstimate] = []
    all_steps: List[int] = []
    for i, (source, target) in enumerate(pairs):
        lanes = batch.pair_lanes(i)
        ok = batch.success[lanes]
        steps = batch.steps[lanes][ok].tolist()
        pair_failures = int(np.count_nonzero(~ok))
        if not steps:
            raise ValueError(
                f"all {trials} trials for pair ({source}, {target}) exceeded "
                f"max_steps={max_steps}; raise the budget to estimate this pair"
            )
        estimates.append(
            PairEstimate(
                source=source,
                target=target,
                graph_distance=int(oracle.distances_to(target)[source]),
                stats=summarize(steps),
                failed_trials=pair_failures,
            )
        )
        all_steps.extend(steps)
    overall = summarize(all_steps)
    total_links = int(batch.steps.sum())
    return RoutingEstimate(
        pairs=estimates,
        mean=overall.mean,
        diameter=max(p.mean for p in estimates),
        trials=trials,
        long_link_fraction=(int(batch.long_links.sum()) / total_links) if total_links else 0.0,
        failed_trials=int(np.count_nonzero(~batch.success)),
    )


def estimate_greedy_diameter(
    graph: Graph,
    scheme: AugmentationScheme,
    *,
    num_pairs: int = 16,
    trials: int = 16,
    seed: RngLike = None,
    pair_strategy: str = "extremal",
    max_steps: Optional[int] = None,
    oracle: Optional[DistanceProvider] = None,
    pair_seed: Optional[int] = None,
) -> RoutingEstimate:
    """Estimate the greedy diameter ``diam(G, φ)`` by sampling hard pairs.

    ``pair_strategy`` is ``"extremal"`` (default, diameter-biased pairs) or
    ``"uniform"``.  Because only a sample of pairs is routed the result is a
    lower estimate of the true maximum, which is the standard Monte-Carlo
    treatment for greedy diameters; the scaling exponents reported by the
    experiments are unaffected.  *oracle* is forwarded both to
    :func:`estimate_expected_steps` and to the extremal pair sampler, whose
    per-source BFS sweeps then double as the routing phase's target arrays.

    ``pair_seed`` pins the pair-sampling stream independently of the
    Monte-Carlo *seed*: callers that route several schemes — or several
    *experiments* — over one graph instance pass the same ``pair_seed`` so
    every estimate walks the identical pair set (turning its BFS sweeps into
    cache hits across the whole batch) while the trial randomness still
    varies with *seed*.  Left ``None``, both streams derive from *seed* as
    before.
    """
    rng = ensure_rng(seed)
    derived_pair_seed = int(rng.integers(0, 2**31 - 1))
    routing_seed = int(rng.integers(0, 2**31 - 1))
    if pair_seed is None:
        pair_seed = derived_pair_seed
    pair_seed = int(pair_seed)
    if pair_strategy == "extremal":
        if oracle is not None and oracle.graph is not graph and not oracle.graph.same_structure(graph):
            raise ValueError("oracle was built for a different graph")
        pairs = extremal_pairs(graph, num_pairs, seed=pair_seed, oracle=oracle)
    elif pair_strategy == "uniform":
        pairs = uniform_pairs(graph, num_pairs, seed=pair_seed)
    else:
        raise ValueError(f"unknown pair_strategy {pair_strategy!r}")
    return estimate_expected_steps(
        graph,
        scheme,
        pairs,
        trials=trials,
        seed=routing_seed,
        max_steps=max_steps,
        oracle=oracle,
    )
