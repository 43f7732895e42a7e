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
is precomputed for *all* of a batch's fresh targets in one transposed
composite-key pass and kept, next to the sentinel-masked distance row, in the
shared :class:`~repro.graphs.oracle.DistanceOracle`'s routing-block pool
(:meth:`~repro.graphs.oracle.DistanceOracle.routing_blocks`, the one way to
get blocks) — with the :class:`~repro.graphs.store.GraphStore` threading one
oracle through every experiment that sweeps the instance, the rows are built
once per graph, not once per (experiment, scheme).  A lane step then reduces
to elementwise numpy arithmetic across thousands of lanes:

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

Lanes start together and advance in lock step, so one step counter serves
them all, and the engine hashes a block of up to ``_BLOCK_STEPS`` steps of
every active lane in one call (a ``(rows, steps, lanes)`` block, bitwise
equal to the per-step calls).  Lanes that retire mid-block keep their
column; the survivors read theirs through ``col``.
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

#: Uniform blocks hash at most this many steps per call, and at most this
#: many elements (rows x steps x lanes); wide batches fall back to one step.
_BLOCK_STEPS: int = 16
_BLOCK_ELEMENTS: int = 1 << 15


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
        reads each pair's distance row and ``next_local`` table from its
        routing-block pool (:meth:`~repro.graphs.oracle.DistanceOracle.routing_blocks`,
        one row per distinct target) — genuine BFS rows in every
        ``distance_mode``, as greedy's strict-``<`` comparisons need (a
        private exact oracle is created when omitted).
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

    # Per-pair distance rows (sentinel-masked) and local-hop tables from the
    # oracle's routing-block pool: rows of targets an earlier call (another
    # scheme of the cell, an earlier serve batch) pooled cost a dict lookup;
    # fresh targets are warmed together.  The blocks are consumed through
    # flat ``row * n + node`` keys, like the frontier engine's batched BFS.
    dist_block, next_local_block, pair_rows = oracle.routing_blocks(targets)
    flat_dist = np.ascontiguousarray(dist_block).reshape(-1)
    flat_local = np.ascontiguousarray(next_local_block).reshape(-1)
    unreachable = dist_block[pair_rows, sources] == _FAR
    if np.count_nonzero(unreachable):
        bad = int(np.nonzero(unreachable)[0][0])
        raise ValueError(
            f"target is not reachable from source for pair {tuple(pairs[bad])}"
        )

    # Flat lane state.  Lane l = trial l % trials of pair l // trials.  The
    # loop keeps only *active* lanes (ids/base/cur/tgt/used/col compacted in
    # lock step) and scatters results into the full-size arrays as lanes
    # retire.  Lanes start together and each iteration advances every active
    # lane by one step, so the one counter ``step`` is what each has spent.
    steps = np.zeros(num_lanes, dtype=np.int64)
    long_links = np.zeros(num_lanes, dtype=np.int64)
    success = np.zeros(num_lanes, dtype=bool)
    ids = np.arange(num_lanes, dtype=np.int64)
    base = np.repeat(pair_rows * n, trials)
    cur = np.repeat(sources, trials)
    tgt = np.repeat(targets, trials)
    used = np.zeros(num_lanes, dtype=np.int64)
    col = ids  # each active lane's column in the current uniform block
    arrived = cur == tgt  # degenerate (s == t) lanes arrive in 0 steps
    if np.count_nonzero(arrived):
        success[ids[arrived]] = True
        keep = ~arrived
        ids, base, cur, tgt, used, col = (
            a[keep] for a in (ids, base, cur, tgt, used, col)
        )
    budget = n if max_steps is None else int(max_steps)
    step = block_start = block_end = 0

    while ids.size:
        # Budget check first, as in greedy_route: lanes that have spent the
        # whole budget without arriving fail *before* taking another step.
        if step >= budget:
            steps[ids] = step  # success stays False
            long_links[ids] = used
            break
        if step == block_end:
            # One hash call for the next block of steps of every active lane:
            # a (rows, length, lanes) block, bitwise equal to per-step calls.
            seeds = seeds[col]
            col = np.arange(seeds.size)
            length = max(1, min(_BLOCK_STEPS, _BLOCK_ELEMENTS // (uniform_rows * seeds.size)))
            block = lane_step_uniforms(
                seeds, np.arange(step, step + length)[:, None], uniform_rows
            )
            block_start, block_end = step, step + length
        uniforms = block[:, step - block_start]
        if col.size != seeds.size:  # lanes retired since the block was hashed
            uniforms = uniforms.take(col, axis=1)
        keys = base + cur
        dist_cur = flat_dist.take(keys)
        local_hop = flat_local.take(keys)
        contacts = scheme.sample_contacts_from_uniforms(cur, uniforms)
        # A missing local hop (-1) or NO_CONTACT still lands on a valid flat
        # index (base - 1 wraps at most to the last entry); mask it after.
        dist_local = flat_dist.take(base + local_hop)
        np.putmask(dist_local, local_hop < 0, _FAR)
        dist_contact = flat_dist.take(base + contacts)
        np.putmask(dist_contact, contacts == NO_CONTACT, _FAR)
        # greedy_route's rule: the long link must strictly improve on the
        # current node (which also rules out contact == cur) and is preferred
        # on ties with the best local hop.
        use_long = (dist_contact < dist_cur) & (dist_contact <= dist_local)
        hop = np.where(use_long, contacts, local_hop)
        moved = hop >= 0
        if np.count_nonzero(moved) != moved.size:
            # No improving hop can only mean inconsistent inputs; terminate
            # unsuccessfully exactly like greedy_route's best_node < 0.
            stuck = ~moved
            steps[ids[stuck]] = step
            long_links[ids[stuck]] = used[stuck]
            ids, base, cur, tgt, used, col, hop, use_long = (
                a[moved] for a in (ids, base, cur, tgt, used, col, hop, use_long)
            )
        cur = hop
        used = used + use_long
        step += 1
        at_target = cur == tgt
        if np.count_nonzero(at_target):
            done = ids[at_target]
            success[done] = True
            steps[done] = step
            long_links[done] = used[at_target]
            keep = ~at_target
            ids, base, cur, tgt, used, col = (
                a[keep] for a in (ids, base, cur, tgt, used, col)
            )

    if max_steps is None and np.count_nonzero(success) != num_lanes:
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
