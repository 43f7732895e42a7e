"""Step-synchronous lane engine for Monte-Carlo greedy routing.

Every (pair, trial) combination is a **lane** in flat numpy state arrays,
and one iteration of the engine advances *all* active lanes by one greedy
step — the level-synchronous trick of the frontier BFS, applied to the
routes themselves.  It is the one routing path: sweeps
(:func:`repro.routing.simulator.estimate_expected_steps`) and the serve
layer (:func:`repro.routing.simulator.route_queries`) both run it.

What makes the greedy step fully vectorizable is that, given the distance
array ``dist_G(·, t)``, the best *local* next hop of every node is
deterministic — it does not depend on the trial's random long-range links.
The per-target pointer table ``next_local[u]`` (first CSR-order neighbour of
``u`` at minimum distance, exactly the candidate ``greedy_route`` scans to)
is precomputed for *all* of a batch's targets in one transposed
composite-key pass (:meth:`DistanceOracle.next_local_to_many`, via
``routing_blocks``) and cached on the shared
:class:`~repro.graphs.oracle.DistanceOracle` — with the
:class:`~repro.graphs.store.GraphStore` threading one oracle through every
experiment that sweeps the instance, the tables are built once per graph,
not once per (experiment, scheme).  A lane step then reduces to elementwise
numpy arithmetic across thousands of lanes:

1. gather each active lane's current distance and precomputed local hop,
2. draw every lane's long-range contact in one batched call to the scheme's
   sampling primitive
   (:meth:`~repro.core.base.AugmentationScheme.sample_contacts_from_uniforms`),
   fed the lane's counter-based uniforms for this step,
3. compare the contact's distance against the local hop's (the long link is
   preferred on ties but must strictly improve on the current node — the same
   rule ``greedy_route`` documents),
4. advance, stamp arrivals, retire exhausted lanes.

Sampling correctness
--------------------
The paper's model draws each node's contact once per trial.  Greedy routing
strictly decreases the distance to the target at every step, so **a route
can never revisit a node** — within one trial each node's contact is drawn at
most once, and drawing a fresh contact per (lane, step) is *exactly* the same
distribution.

Randomness: lane ``l`` at step ``s`` consumes the uniforms
``lane_step_uniforms(lane_seeds[l], s)`` (:mod:`repro.utils.counterrng`), a
pure hash of its seed and step counter.  A lane's trajectory is therefore a
function of ``(graph, scheme, lane seed)`` alone — independent of batch
composition and of lane order.  ``greedy_route`` replaying the same uniforms
through a contact provider walks the identical route; the tests assert this
lane by lane for every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.graph import Graph
from repro.graphs.oracle import FAR_DISTANCE
from repro.graphs.provider import DistanceProvider, provider_for
from repro.utils.counterrng import lane_step_uniforms
from repro.utils.validation import check_positive_int

__all__ = ["LaneBatchResult", "route_lanes"]

#: The oracle's unreachable sentinel (larger than any real distance); the
#: routing blocks arrive already masked with it.
_FAR: int = FAR_DISTANCE


@dataclass(frozen=True)
class LaneBatchResult:
    """Outcome of one lane-engine batch: ``num_pairs x trials`` routes.

    Lane ``l`` is trial ``l % trials`` of pair ``l // trials``.  ``steps``
    counts edges traversed (partial for failed lanes, exactly like
    :class:`~repro.routing.greedy.RouteResult`), ``long_links`` how many of
    them used the long-range contact.
    """

    steps: np.ndarray
    success: np.ndarray
    long_links: np.ndarray
    pair_index: np.ndarray
    trials: int

    @property
    def num_lanes(self) -> int:
        return int(self.steps.size)

    def pair_lanes(self, pair: int) -> slice:
        """Slice selecting the lanes of *pair* (its trials, in order)."""
        return slice(pair * self.trials, (pair + 1) * self.trials)


def _as_pair_arrays(
    graph: Graph, pairs: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    n = graph.num_nodes
    sources = np.asarray([p[0] for p in pairs], dtype=np.int64)
    targets = np.asarray([p[1] for p in pairs], dtype=np.int64)
    for arr, what in ((sources, "source"), (targets, "target")):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"{what} index out of range")
    return sources, targets


def route_lanes(
    graph: Graph,
    scheme: AugmentationScheme,
    pairs: Sequence[Tuple[int, int]],
    *,
    trials: int,
    lane_seeds: np.ndarray,
    max_steps: Optional[int] = None,
    oracle: Optional[DistanceProvider] = None,
    blocks: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> LaneBatchResult:
    """Route ``len(pairs) * trials`` greedy lanes step-synchronously.

    Parameters
    ----------
    graph, scheme:
        The augmented-graph model ``(G, φ)``.
    pairs:
        Ordered (source, target) pairs; lane ``l`` routes pair
        ``l // trials``.
    trials:
        Independent long-link samplings per pair (lanes per pair).
    lane_seeds:
        ``uint64`` array of ``num_lanes`` per-lane seeds.  The contacts lane
        ``l`` draws at step ``s`` are a pure hash of ``(lane_seeds[l], s)``
        (:func:`repro.utils.counterrng.lane_step_uniforms` feeding
        :meth:`~repro.core.base.AugmentationScheme.sample_contacts_from_uniforms`),
        so the lane's trajectory depends only on ``(graph, scheme, seed)`` —
        **not** on which other lanes share the batch.
    max_steps:
        Per-route step budget, as in :func:`~repro.routing.greedy.greedy_route`
        (default ``n``).  Without an explicit budget a failed lane means
        inconsistent inputs and raises ``RuntimeError``.
    oracle:
        Shared :class:`~repro.graphs.provider.DistanceProvider`; the engine
        pulls one distance row and one ``next_local`` table per pair through
        its *exact tier* — greedy's strict-``<`` comparisons need genuine BFS
        rows in every ``distance_mode`` (a private exact oracle is created
        when omitted).
    blocks:
        Optional pre-resolved ``(dist_block, next_local_block, pair_rows)``
        triple: ``pair_rows[i]`` is the block row holding pair ``i``'s
        target, letting sessions that pin long-lived blocks bypass the
        oracle's single-slot cache.  By default the engine deduplicates the
        batch's targets and pulls one block row per *distinct* target from
        the oracle.
    """
    if scheme.graph is not graph and not scheme.graph.same_structure(graph):
        raise ValueError("scheme was built for a different graph")
    trials = check_positive_int(trials, "trials")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (source, target) pair")
    oracle = provider_for(graph, oracle)
    n = graph.num_nodes
    num_pairs = len(pairs)
    num_lanes = num_pairs * trials
    sources, targets = _as_pair_arrays(graph, pairs)
    seeds = np.ascontiguousarray(lane_seeds, dtype=np.uint64)
    if seeds.shape != (num_lanes,):
        raise ValueError(f"lane_seeds must have shape (num_lanes,) = ({num_lanes},)")
    uniform_rows = max(1, int(type(scheme).uniforms_per_contact))

    # Per-pair distance rows (sentinel-masked) and local-hop tables, all
    # through the shared oracle: one batched frontier sweep for the missing
    # targets, one cached argmin pass per distinct target, and a single-slot
    # block cache so repeated estimates over the same targets (e.g. every
    # scheme of an experiment cell) skip the stacking entirely.  The batch's
    # targets are deduplicated first — one block row per *distinct* target —
    # so serve batches full of repeated targets don't refill k near-identical
    # rows.  The blocks are consumed through flat ``row * n + node`` keys,
    # like the frontier engine's batched BFS.
    if blocks is None:
        uniq_targets, pair_rows = np.unique(targets, return_inverse=True)
        dist_block, next_local_block = oracle.routing_blocks(uniq_targets)
    else:
        dist_block, next_local_block, pair_rows = blocks
        pair_rows = np.ascontiguousarray(pair_rows, dtype=np.int64)
        if pair_rows.shape != (num_pairs,):
            raise ValueError(f"pair_rows must have shape (num_pairs,) = ({num_pairs},)")
        if dist_block.ndim != 2 or dist_block.shape[1] != n or (
            next_local_block.shape != dist_block.shape
        ):
            raise ValueError("blocks must be (k, n) dist/next_local stacks")
        if pair_rows.size and (
            pair_rows.min() < 0 or pair_rows.max() >= dist_block.shape[0]
        ):
            raise ValueError("pair_rows index out of range for the supplied blocks")
    flat_dist = np.ascontiguousarray(dist_block).reshape(-1)
    flat_local = np.ascontiguousarray(next_local_block).reshape(-1)
    unreachable = dist_block[pair_rows, sources] == _FAR
    if np.any(unreachable):
        bad = int(np.nonzero(unreachable)[0][0])
        raise ValueError(
            f"target is not reachable from source for pair {tuple(pairs[bad])}"
        )

    # Flat lane state.  Lane l = trial l % trials of pair l // trials.  The
    # loop keeps only *active* lanes (ids/base/cur/spent compacted in lock
    # step) and scatters results into the full-size arrays as lanes retire.
    steps = np.zeros(num_lanes, dtype=np.int64)
    long_links = np.zeros(num_lanes, dtype=np.int64)
    success = np.zeros(num_lanes, dtype=bool)
    ids = np.arange(num_lanes, dtype=np.int64)
    base = np.repeat(np.asarray(pair_rows, dtype=np.int64) * n, trials)
    cur = np.repeat(sources, trials)
    tgt = np.repeat(targets, trials)
    spent = np.zeros(num_lanes, dtype=np.int64)
    used = np.zeros(num_lanes, dtype=np.int64)
    arrived = cur == tgt  # degenerate (s == t) lanes arrive in 0 steps
    if np.any(arrived):
        success[ids[arrived]] = True
        keep = ~arrived
        ids, base, cur, tgt, spent, used, seeds = (
            a[keep] for a in (ids, base, cur, tgt, spent, used, seeds)
        )
    budget = n if max_steps is None else int(max_steps)

    while ids.size:
        # Budget check first, as in greedy_route: a lane that has spent its
        # whole budget without arriving fails *before* taking another step.
        over = spent >= budget
        if np.any(over):
            failed = over  # success stays False; steps/long were scattered
            steps[ids[failed]] = spent[failed]
            long_links[ids[failed]] = used[failed]
            keep = ~failed
            ids, base, cur, tgt, spent, used, seeds = (
                a[keep] for a in (ids, base, cur, tgt, spent, used, seeds)
            )
            if not ids.size:
                break
        keys = base + cur
        dist_cur = flat_dist.take(keys)
        local_hop = flat_local.take(keys)
        uniforms = lane_step_uniforms(seeds, spent, uniform_rows)
        contacts = scheme.sample_contacts_from_uniforms(cur, uniforms)
        valid = (contacts != NO_CONTACT) & (contacts != cur)
        has_local = local_hop >= 0
        dist_local = np.where(
            has_local, flat_dist.take(base + np.where(has_local, local_hop, 0)), _FAR
        )
        dist_contact = np.where(
            valid, flat_dist.take(base + np.where(valid, contacts, 0)), _FAR
        )
        # greedy_route's rule: the long link must strictly improve on the
        # current node and is preferred on ties with the best local hop.
        use_long = valid & (dist_contact < dist_cur) & (
            dist_contact <= np.minimum(dist_local, dist_cur)
        )
        hop = np.where(use_long, contacts, local_hop)
        moved = hop >= 0
        if not np.all(moved):
            # No improving hop can only mean inconsistent inputs; terminate
            # unsuccessfully exactly like greedy_route's best_node < 0.
            stuck = ~moved
            steps[ids[stuck]] = spent[stuck]
            long_links[ids[stuck]] = used[stuck]
            ids, base, cur, tgt, spent, used, seeds, hop, use_long = (
                a[moved] for a in (ids, base, cur, tgt, spent, used, seeds, hop, use_long)
            )
        cur = hop
        spent = spent + 1
        used = used + use_long
        at_target = cur == tgt
        if np.any(at_target):
            done = ids[at_target]
            success[done] = True
            steps[done] = spent[at_target]
            long_links[done] = used[at_target]
            keep = ~at_target
            ids, base, cur, tgt, spent, used, seeds = (
                a[keep] for a in (ids, base, cur, tgt, spent, used, seeds)
            )

    if max_steps is None and not np.all(success):
        bad_lane = int(np.nonzero(~success)[0][0])
        s, t = pairs[bad_lane // trials]
        raise RuntimeError(
            f"greedy route {s}->{t} failed without a max_steps budget; "
            "the distance array and graph are inconsistent"
        )
    return LaneBatchResult(
        steps=steps,
        success=success,
        long_links=long_links,
        pair_index=np.repeat(np.arange(num_pairs, dtype=np.int64), trials),
        trials=trials,
    )
