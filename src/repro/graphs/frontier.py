"""Vectorized, direction-optimizing, level-synchronous BFS over CSR graphs.

Every quantity the reproduction measures — greedy diameters, expected step
counts ``E(φ, s, t)``, ball sizes for the Theorem-4 scheme — reduces to BFS
distances, so this module is the hot core everything else builds on.  Instead
of popping one node at a time from a ``deque``, the engine expands the whole
frontier of a level at once with numpy primitives, and **picks an expansion
kernel per level** based on the frontier's size relative to the remaining
unvisited set:

* **scalar run** — once a frontier is down to a handful of keys, the engine
  stays in one plain Python loop across consecutive narrow levels.  The
  frontier is a list; neighbours are read (from the padded table below, or
  the CSR arrays where padding is rejected) and distances stamped through
  memoryviews — Python ints, no numpy scalars, no per-level array
  conversion — so a narrow level costs its edge probes, not the fixed
  dispatch cost of a numpy pass.  The run hands a numpy frontier back when
  the frontier widens, when the bottom-up trigger would fire, or at the
  cutoff.  A ring/path sweep from a few sources (about ``n / 2`` levels of a
  few keys each) is one run from start to end.
* **top-down, padded** — the workhorse for wider levels.  A slot-major padded
  *delta* adjacency (:func:`padded_neighbors`) turns the neighbour gather
  into one 2-D ``take`` plus one broadcast add, and its padding slots point
  back at their (always already visited) owner, so they fall to the visited
  mask.  Built only for low-degree-variance families (paths, rings, grids,
  tori, trees), where it costs about half the ~20 numpy calls per level of
  the CSR gather.
* **top-down, CSR** — the original gather (``np.repeat`` over range starts +
  a flat ``arange`` offset trick) for hub-dominated graphs (stars, lollipop
  heads) where padding is rejected.
* **bottom-up** — when the frontier is a large fraction of the *remaining
  unvisited* set (the mid-sweep levels of expanders and dense random
  graphs), the engine flips direction: instead of scanning every frontier
  edge it scans each unvisited node's neighbours for one at the previous
  level.  That bounds the level's work by the unvisited side, which the
  trigger guarantees is the smaller one — the same level-synchronous-rounds
  economics CONGEST-style algorithms exploit.

Because BFS distances are independent of intra-level visit order, every
kernel stamps the same levels and the result is bitwise identical to the
classic queue-based traversal; the property tests in
``tests/graphs/test_frontier.py`` assert exactly that on random graphs,
trees, grids and disconnected graphs, for every kernel forced individually.
(:func:`frontier_bfs_tree` is the one traversal whose *parent* output does
depend on discovery order; it therefore keeps its first-discoverer top-down
pass unconditionally.)

**Dtype discipline.**  All sweep state — the distance buffer, frontier key
arrays, dedupe claim scratch and parent pointers — runs in ``int32``
whenever the flat key space ``rows * n`` fits (:func:`bfs_dtype`), which
halves the resident bytes and memory traffic of every kernel; ``int64`` is
kept as the reference path for key spaces past ``2**31`` and can be forced
everywhere via the :data:`_FORCE_INT64` knob (the parity tests assert the
two paths are value-for-value identical across the kernel portfolio).  The
bottom-up kernel additionally keeps the *previous frontier* as a bit-packed
``uint8`` mask (one bit per flat key) so its membership probes touch
``total / 8`` bytes instead of an 8-byte distance word per neighbour —
equivalent by construction, because "neighbour at ``level - 1``" is exactly
"neighbour in the previous frontier".

The batched variant :func:`bfs_distances_many` runs ``k`` sources
*simultaneously* by operating on flattened ``(row, node)`` keys in a single
``k·n`` distance block — one numpy pass per level fills a whole block row
range, which is what makes :func:`repro.graphs.distances.distance_matrix` and
the :class:`repro.graphs.oracle.DistanceOracle` prefetch path scale to tens of
thousands of nodes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.utils.validation import check_node_index

__all__ = [
    "UNREACHABLE",
    "bfs_dtype",
    "frontier_bfs",
    "frontier_bfs_tree",
    "frontier_multi_source_bfs",
    "bfs_distances_many",
    "padded_neighbors",
]

UNREACHABLE: int = -1

#: Force every sweep onto the ``int64`` reference path regardless of key
#: count.  Test hook: the int32/int64 parity tests monkeypatch this to pin
#: both paths against each other on the same inputs.
_FORCE_INT64: bool = False


def bfs_dtype(num_keys: int) -> np.dtype:
    """The engine's state dtype for a flat key space of *num_keys* keys.

    ``int32`` whenever every key (and every slot index of the dedupe claim
    scratch) fits, ``int64`` otherwise or when :data:`_FORCE_INT64` is set.
    Distance values are bounded by key count, so the same dtype covers the
    distance buffers too.  Public BFS results inherit this dtype.
    """
    if _FORCE_INT64 or num_keys > np.iinfo(np.int32).max:
        return np.dtype(np.int64)
    return np.dtype(np.int32)

#: Frontiers at or below this size run in the scalar loop instead of a numpy
#: kernel.  A scalar level costs its edge probes (~0.4µs per ring key through
#: the padded table); a numpy level costs ~10µs (padded) or ~20µs (CSR)
#: whatever the frontier.  One threshold serves both: on a 2-vCPU host 32
#: against 16 on padded graphs tied end to end (perfbench sweep_route) and
#: won in process where frontiers sit between the two (12-source ring
#: n=8192: 28 against 41 ms).  It stays below 64, so the 32-source ring rows
#: of ``benchmarks/test_bench_bfs_engine.py`` still time the numpy kernels.
_SPARSE_FRONTIER: int = 32

#: The self-padded adjacency is built only when ``n * max_degree`` stays
#: within this factor of the true arc count (plus a small-graph slack) —
#: low-degree-variance families.  Beyond it (hubs, high-variance random
#: graphs) the padded slots the kernel would scan outnumber the real edges
#: enough that the exact CSR gather wins despite its higher fixed cost.
_PAD_SLOT_BLOWUP: float = 1.5

#: Direction switch: a level runs bottom-up when
#: ``frontier_size * _BOTTOM_UP_RATIO > unvisited`` (the unvisited side is
#: then the cheaper one to scan) *and* the frontier is at least
#: ``total_keys >> _BOTTOM_UP_MIN_SHIFT`` (so the one-off ``O(k·n)`` pass
#: that materialises the unvisited key set is amortised by the level's
#: work).  Tests monkeypatch both to force the bottom-up kernel everywhere.
_BOTTOM_UP_RATIO: int = 1
_BOTTOM_UP_MIN_SHIFT: int = 4

#: graph.derived_cache() key of the memoised self-padded adjacency.
_PAD_CACHE_KEY = "frontier_padded_neighbors"


def _check_cutoff(cutoff: Optional[int]) -> Optional[int]:
    if cutoff is None:
        return None
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    return cutoff


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbour lists of *nodes* plus per-node counts.

    This is the vectorized replacement for ``for u in nodes: for v in adj[u]``:
    with ``starts[i] = indptr[nodes[i]]`` the flat positions of all neighbour
    slots are ``arange(total) + repeat(starts - exclusive_cumsum(counts), counts)``.
    The returned ``(neighbors, counts)`` satisfy ``neighbors`` being aligned
    with ``np.repeat(nodes, counts)``, which the batched engine uses to carry
    each frontier entry's row offset to its neighbours.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return indices[pos], counts


def padded_neighbors(graph: Graph, dtype: np.dtype = np.dtype(np.int32)) -> Optional[np.ndarray]:
    """Slot-major padded *delta* adjacency ``(max_degree, n)``, or ``None``.

    ``pad[j, u]`` is ``v - u`` for ``u``'s ``j``-th CSR neighbour ``v``, and
    ``0`` in the padding slots.  Two properties make this the cheapest
    gather for both the padded kernel and the scalar run:

    * **deltas**: a neighbour's flat key is ``key(u) + (v - u)`` for any row
      offset, so one row-wise broadcast add over the gathered delta block
      (or one int add per slot in the scalar run) turns node ids into
      batched keys — no per-entry row-offset column.
    * **self-padding**: a padding slot (delta 0) yields the owner's own key,
      which is always already visited (distance stamped), so the pads vanish
      under the exact same visited test that filters real revisits — no
      sentinel handling at all.

    The oracle's batched hop-table pass
    (:func:`repro.graphs.oracle.next_local_pointers_many`) gathers through
    the same table, at ``u + pad[j, u]``.

    Built only when ``n * max_degree`` stays near the true arc count (see
    :data:`_PAD_SLOT_BLOWUP`) and memoised on the graph's
    :meth:`~repro.graphs.graph.Graph.derived_cache` (graphs are immutable),
    so it is built once per instance, in the sweep's state *dtype* (the
    delta-to-key add never crosses dtypes): the ``int32`` table under
    :data:`_PAD_CACHE_KEY`, the rare ``int64`` one (key spaces past
    ``2**31``, or the forced reference path) under a suffixed key.
    """
    cache = graph.derived_cache()
    dtype = np.dtype(dtype)
    cache_key = _PAD_CACHE_KEY if dtype == np.dtype(np.int32) else _PAD_CACHE_KEY + ":i64"
    if cache_key in cache:
        return cache[cache_key]
    n = graph.num_nodes
    indptr = graph.indptr
    indices = graph.indices
    degrees = np.diff(indptr)
    dmax = int(degrees.max()) if n and indices.size else 0
    pad: Optional[np.ndarray]
    if dmax == 0 or n * dmax > _PAD_SLOT_BLOWUP * indices.size + 64:
        pad = None
    else:
        pad = np.zeros((dmax, n), dtype=dtype)
        owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
        slot_in_node = np.arange(indices.size, dtype=np.int64) - np.repeat(
            indptr[:-1], degrees
        )
        pad[slot_in_node, owner] = indices - owner
    cache[cache_key] = pad
    return pad


def _dedupe(keys: np.ndarray, claim: np.ndarray) -> np.ndarray:
    """Drop duplicate *keys* without sorting.

    Scatters each key's position into *claim* (last write wins) and keeps the
    positions that survived — exactly one occurrence per distinct key, in
    O(len(keys)) with no ``np.unique`` sort/hash pass.  *claim* is a reusable
    scratch array indexed by key; it never needs resetting because stale
    entries are only ever read for keys present in the current batch, which
    the scatter just overwrote.
    """
    slots = np.arange(keys.size, dtype=claim.dtype)
    claim[keys] = slots
    return keys[claim[keys] == slots]


def _dedupe_first(keys: np.ndarray, claim: np.ndarray) -> np.ndarray:
    """Boolean mask keeping the *first* occurrence of every distinct key.

    The scatter runs over the reversed batch so the earliest occurrence's slot
    is the one that survives in *claim* — the mirror image of :func:`_dedupe`
    (whose last-write-wins order is fine for distances but wrong for parent
    pointers, where the queue traversal assigns the first discoverer).
    """
    slots = np.arange(keys.size, dtype=claim.dtype)
    claim[keys[::-1]] = slots[::-1]
    return claim[keys] == slots


def _mask_apply(mask: np.ndarray, keys: np.ndarray, set_bits: bool) -> None:
    """Set (or clear) the bits of *keys* in the packed ``uint8`` *mask*.

    Fully vectorized despite byte-sharing keys: the (unique) keys are sorted
    so every byte's bits form one contiguous run, OR-merged per byte with one
    ``bitwise_or.reduceat``, and scattered with unique byte indices — no
    unbuffered ``ufunc.at`` loop, whose per-element cost would dwarf the
    distance-gather this mask replaces.
    """
    if keys.size == 0:
        return
    keys = np.sort(keys, kind="stable")  # radix sort on ints: O(len(keys))
    byte_idx = keys >> 3
    bits = np.left_shift(np.uint8(1), (keys & 7).astype(np.uint8))
    starts = np.flatnonzero(byte_idx[1:] != byte_idx[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    merged = np.bitwise_or.reduceat(bits, starts)
    owners = byte_idx[starts]
    if set_bits:
        mask[owners] |= merged
    else:
        mask[owners] &= ~merged


def _mask_test(mask: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-key membership bits (``uint8`` 0/1) of *keys* in the packed mask."""
    return (mask.take(keys >> 3) >> (keys & 7).astype(np.uint8)) & np.uint8(1)


def _bottom_up_level(
    graph: Graph, rows: int, dist: np.ndarray, cand: np.ndarray,
    pad: Optional[np.ndarray], level: int, mask: np.ndarray,
    kb: Optional[kernels.KernelBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-up step: scan the *unvisited* keys for a parent in the previous frontier.

    *cand* holds the unvisited candidate keys (positive degree); each joins
    the new frontier iff any of its neighbours sits at the previous level —
    and because the previous level's key set *is* the previous frontier, the
    probe reads the bit-packed frontier *mask* (one bit per flat key,
    maintained by :func:`_sweep`) instead of an 8-byte distance word per
    neighbour.  Returns ``(frontier, remaining_candidates)`` with the
    frontier stamped.  The padding keys read the candidate's own bit, which
    is 0 (an unvisited key is never in the previous frontier), so the padded
    form needs no extra masking.
    """
    n = graph.num_nodes
    if kb is not None and kb.compiled:
        # Compiled scan: same mask probes, with per-candidate short-circuit
        # on the first set bit (membership is a disjunction, so the early
        # exit cannot change which candidates are found).
        found = kb.bottom_up_csr(
            graph.indptr, graph.indices, dist, cand, mask, n, level
        )
        return cand[found], cand[~found]
    nodes = cand % n if rows > 1 else cand
    if pad is not None:
        nbrs = pad.take(nodes, axis=1)
        nbrs += cand  # delta block -> flat keys, one row-wise broadcast
        found = _mask_test(mask, nbrs.ravel()).reshape(nbrs.shape).any(axis=0)
    else:
        neighbors, counts = _gather_neighbors(graph.indptr, graph.indices, nodes)
        if rows > 1:
            neighbor_keys = np.repeat(cand - nodes, counts) + neighbors
        else:
            neighbor_keys = neighbors
        match = _mask_test(mask, neighbor_keys)
        # counts >= 1 for every candidate (degree-0 keys were filtered when
        # the set was built), so the exclusive prefix offsets are strictly
        # increasing and reduceat sees no empty segment.
        offsets = np.cumsum(counts) - counts
        found = np.logical_or.reduceat(match, offsets)
    frontier = cand[found]
    dist[frontier] = level
    return frontier, cand[~found]


def _sweep(graph: Graph, rows: int, frontier: np.ndarray, cutoff: Optional[int]) -> np.ndarray:
    """Level-synchronous sweep over flat ``row * n + node`` keys.

    The shared core of :func:`frontier_multi_source_bfs` (one row, many
    seeds) and :func:`bfs_distances_many` (one row per source): owns the flat
    ``rows·n`` distance buffer and makes the per-level kernel choice
    described in the module docstring.  The body is one flat loop with
    hoisted locals on purpose: a narrow level of a ring sweep costs about a
    microsecond in the scalar run, so even attribute lookups and method
    dispatch are measurable against it.

    All kernels stamp identical levels (BFS distances are intra-level
    order-independent), so the per-level choice can never change the output
    bitwise.  State (distances, frontiers, claim scratch) runs in the dtype
    :func:`bfs_dtype` picks for the key space — int32 for everything short
    of ``2**31`` keys — and the value output is dtype-independent.
    """
    n = graph.num_nodes
    total = rows * n
    multi = rows > 1
    dt = bfs_dtype(total)
    # Backend resolution is per-call (mirroring the per-level kernel switch):
    # compiled backends replace the three top-down kernels and the bottom-up
    # probe with typed CSR loops; the direction heuristics, the mask
    # bookkeeping and the padded-table build stay in numpy either way, and
    # every kernel stamps identical levels (see repro.graphs.kernels).
    kb = kernels.active_backend()
    compiled = kb.compiled
    indptr = graph.indptr
    indices = graph.indices
    dist = np.full(total, UNREACHABLE, dtype=dt)
    frontier = frontier.astype(dt, copy=False)
    dist[frontier] = 0
    dist_take = dist.take
    unvisited = total - frontier.size
    bu_cand: Optional[np.ndarray] = None  # unvisited key set while bottom-up
    bu_mask: Optional[np.ndarray] = None  # bit-packed previous frontier (bottom-up only)
    pad = padded_neighbors(graph, dt)
    sparse_limit = _SPARSE_FRONTIER
    claim: Optional[np.ndarray] = None
    slots_buf: Optional[np.ndarray] = None
    dv: Optional[memoryview] = None  # scalar-run views, made on first use
    bu_ratio = _BOTTOM_UP_RATIO
    min_bu = total >> _BOTTOM_UP_MIN_SHIFT
    level = 0
    while frontier.size and (cutoff is None or level < cutoff):
        level += 1
        f = frontier.size
        # --- direction switch -------------------------------------------- #
        if bu_cand is not None:
            if f * bu_ratio > bu_cand.size:
                prev = frontier
                frontier, bu_cand = _bottom_up_level(
                    graph, rows, dist, bu_cand, pad, level, bu_mask, kb
                )
                _mask_apply(bu_mask, prev, False)
                _mask_apply(bu_mask, frontier, True)
                continue
            unvisited = int(bu_cand.size)  # revert: the frontier stays exact
            bu_cand = None
            bu_mask = None
        elif f * bu_ratio > unvisited and f >= min_bu:
            # Materialise the unvisited key set (one O(rows·n) pass,
            # amortised by the trigger's minimum-frontier-size guard);
            # degree-0 keys can never be discovered and are dropped for good.
            cand = np.nonzero(dist == UNREACHABLE)[0].astype(dt, copy=False)
            degrees = np.diff(indptr)
            bu_cand = cand[degrees.take(cand % n if multi else cand) > 0]
            # The previous frontier, bit-packed: one bit per flat key.  The
            # bottom-up probes test membership here instead of gathering
            # distance words — identical by construction (the ``level - 1``
            # key set IS the previous frontier).
            bu_mask = np.zeros((total + 7) >> 3, dtype=np.uint8)
            _mask_apply(bu_mask, frontier, True)
            prev = frontier
            frontier, bu_cand = _bottom_up_level(
                graph, rows, dist, bu_cand, pad, level, bu_mask, kb
            )
            _mask_apply(bu_mask, prev, False)
            _mask_apply(bu_mask, frontier, True)
            continue
        # --- top-down kernels -------------------------------------------- #
        if compiled:
            # Typed CSR/padded loop: the stamp doubles as visited filter and
            # dedupe, so one pass replaces the gather + mask + claim-scatter
            # pipeline (and subsumes the sparse scalar loop — a tiny frontier
            # is just a short trip through the same compiled loop).
            if pad is not None:
                frontier = kb.top_down_padded(pad, dist, frontier, n, level)
            else:
                frontier = kb.top_down_csr(indptr, indices, dist, frontier, n, level)
        elif f <= sparse_limit:
            # Scalar run: stay in this loop, frontier as a list, for as many
            # narrow levels as follow.  Distances are stamped (and thereby
            # deduplicated) as we go; a negative word is unreached.
            if dv is None:
                dv = memoryview(dist)
                if pad is not None:
                    slot_views = [memoryview(slot) for slot in pad]
                else:
                    ip, ix = memoryview(indptr), memoryview(indices)
            cur = frontier.tolist()
            while True:
                nxt: list = []
                append = nxt.append
                if pad is None:
                    for key in cur:
                        node = key % n
                        base = key - node
                        for v in ix[ip[node]: ip[node + 1]]:
                            v += base
                            if dv[v] < 0:
                                dv[v] = level
                                append(v)
                else:
                    # A neighbour's key is the key plus its padded delta; a
                    # pad slot (delta 0) gives the key itself, stamped.
                    for key in cur:
                        node = key % n
                        for slot in slot_views:
                            v = key + slot[node]
                            if dv[v] < 0:
                                dv[v] = level
                                append(v)
                cur = nxt
                f = len(cur)
                unvisited -= f
                # Hand back to the numpy kernels where the outer loop would
                # leave the scalar one: the sweep or the radius ends, the
                # frontier widens, or the bottom-up trigger fires.
                if (
                    not f or level == cutoff or f > sparse_limit
                    or (f * bu_ratio > unvisited and f >= min_bu)
                ):
                    break
                level += 1
            frontier = np.asarray(cur, dtype=dt)
            continue
        else:
            if pad is not None:
                # Lean kernel: one slot-major take over the padded *delta*
                # adjacency gathers every frontier entry's neighbour column,
                # and a single row-wise broadcast add turns the deltas into
                # flat keys.  The visited mask then drops padding keys (the
                # visited owners) and real revisits together, and one
                # scatter/gather claim pass keeps each distinct survivor
                # once.  Less than half the numpy calls of the CSR gather,
                # which is what lifts batched ring/path sweeps, whose wide
                # levels cost only per-level fixed overhead.
                nodes = frontier % n if multi else frontier
                nbrs = pad.take(nodes, axis=1)
                nbrs += frontier
                flat = nbrs.ravel()
                sel = flat[dist_take(flat) == UNREACHABLE]
                m = sel.size
                if slots_buf is None or slots_buf.size < m:
                    slots_buf = np.arange(
                        max(m, 4 * f * pad.shape[0], 1024), dtype=dt
                    )
                slots = slots_buf[:m]
                if claim is None:
                    claim = np.empty(total, dtype=dt)
                claim[sel] = slots
                frontier = sel[claim.take(sel) == slots]
                dist[frontier] = level
            else:
                # Reference kernel: exact CSR gather (hub-dominated graphs
                # where padding was rejected).
                if multi:
                    nodes = frontier % n
                    row_base = frontier - nodes  # row * n, carried to neighbours
                else:
                    nodes = frontier
                neighbors, counts = _gather_neighbors(indptr, indices, nodes)
                if neighbors.size == 0:
                    break
                if multi:
                    neighbor_keys = np.repeat(row_base, counts) + neighbors
                else:
                    neighbor_keys = neighbors
                neighbor_keys = neighbor_keys[dist[neighbor_keys] == UNREACHABLE]
                neighbor_keys = neighbor_keys.astype(dt, copy=False)
                if claim is None:
                    claim = np.empty(total, dtype=dt)
                frontier = _dedupe(neighbor_keys, claim)
                dist[frontier] = level
        unvisited -= frontier.size
    return dist


def frontier_bfs_tree(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized BFS distances *and* parent pointers from *source*.

    Returns ``(dist, parent)`` with ``parent[source] == source`` and ``-1``
    outside the source's component.  Parent assignment is bitwise identical to
    the classic queue traversal (the deque reference in
    ``tests/graphs/bfs_reference.py``): within a level the frontier is
    expanded in discovery order with CSR-ordered neighbour lists, and the
    first stamp (scalar run) or first-occurrence dedup (wide levels) keeps
    the earliest discoverer of every node — exactly the node that would have
    popped first from the deque.  Unlike the distance-only sweeps, parent
    pointers *do* depend on that discovery order, so this traversal never
    takes the bottom-up kernel (which visits candidates in key order, not
    discovery order) and stays top-down.
    """
    source = check_node_index(source, graph.num_nodes, "source")
    n = graph.num_nodes
    dt = bfs_dtype(n)
    indptr = graph.indptr
    indices = graph.indices
    dist = np.full(n, UNREACHABLE, dtype=dt)
    parent = np.full(n, -1, dtype=dt)
    dist[source] = 0
    parent[source] = source
    frontier = np.asarray([source], dtype=dt)
    ip, ix = memoryview(indptr), memoryview(indices)
    dv, pv = memoryview(dist), memoryview(parent)
    claim: Optional[np.ndarray] = None
    level = 0
    while frontier.size:
        if frontier.size <= _SPARSE_FRONTIER:
            # Scalar run, as in _sweep: the list keeps discovery order, so
            # the first stamp of a node is its queue-order parent.
            cur = frontier.tolist()
            while cur and len(cur) <= _SPARSE_FRONTIER:
                level += 1
                nxt: list = []
                append = nxt.append
                for u in cur:
                    for v in ix[ip[u]: ip[u + 1]]:
                        if dv[v] < 0:
                            dv[v] = level
                            pv[v] = u
                            append(v)
                cur = nxt
            frontier = np.asarray(cur, dtype=dt)
        else:
            level += 1
            neighbors, counts = _gather_neighbors(indptr, indices, frontier)
            owners = np.repeat(frontier, counts)
            unvisited = dist[neighbors] == UNREACHABLE
            neighbors = neighbors[unvisited].astype(dt, copy=False)
            owners = owners[unvisited]
            if claim is None:
                claim = np.empty(n, dtype=dt)
            keep = _dedupe_first(neighbors, claim)
            frontier = neighbors[keep]
            parent[frontier] = owners[keep]
            dist[frontier] = level
    return dist, parent


def frontier_bfs(graph: Graph, source: int, *, cutoff: Optional[int] = None) -> np.ndarray:
    """Single-source BFS distances via frontier batching.

    Drop-in replacement for the legacy queue BFS: returns an integer array
    (dtype per :func:`bfs_dtype`) with ``UNREACHABLE`` (-1) outside the
    source's component and, with
    *cutoff*, leaves nodes strictly beyond the radius unreached (the truncated
    search still costs only ``O(|B(source, cutoff)|)`` edge scans).
    """
    source = check_node_index(source, graph.num_nodes, "source")
    return frontier_multi_source_bfs(graph, [source], cutoff=cutoff)


def frontier_multi_source_bfs(
    graph: Graph, sources: Iterable[int], *, cutoff: Optional[int] = None
) -> np.ndarray:
    """Distance from each node to the *nearest* of the given sources."""
    cutoff = _check_cutoff(cutoff)
    n = graph.num_nodes
    seeds = [check_node_index(int(s), n, "source") for s in sources]
    if not seeds:
        return np.full(n, UNREACHABLE, dtype=bfs_dtype(n))
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    return _sweep(graph, 1, frontier, cutoff)


def bfs_distances_many(
    graph: Graph,
    sources: Sequence[int],
    *,
    cutoff: Optional[int] = None,
) -> np.ndarray:
    """Batched BFS: distance block of shape ``(len(sources), n)`` in one sweep.

    All sources advance level-synchronously in the same numpy pass by encoding
    the per-source state as flat keys ``row * n + node`` into a shared
    ``k·n`` distance buffer.  One iteration of the loop expands the combined
    frontier of *every* source — with the per-level kernel switch described in
    the module docstring — so the per-level Python overhead is amortised
    across the whole batch.

    Duplicate sources are allowed and each row is an independent BFS, bitwise
    identical to ``bfs_distances(graph, s, cutoff=cutoff)`` for its source.
    """
    cutoff = _check_cutoff(cutoff)
    n = graph.num_nodes
    seeds = np.asarray([check_node_index(int(s), n, "source") for s in sources], dtype=np.int64)
    k = seeds.size
    if k == 0 or n == 0:
        return np.full((k, n), UNREACHABLE, dtype=bfs_dtype(max(k, 1) * max(n, 1)))
    frontier_keys = np.arange(k, dtype=np.int64) * n + seeds
    return _sweep(graph, k, frontier_keys, cutoff).reshape(k, n)
