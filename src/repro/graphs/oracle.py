"""Shared, byte-budgeted distance oracle over the frontier BFS engine.

The routing simulator, the Theorem-4 ball scheme and the decomposition
measures all repeatedly ask for "the distance array from node *u*" — often
for the same handful of targets across thousands of trials.  Before this
module each subsystem kept its own ad-hoc ``Dict[int, np.ndarray]`` cache
(``dist_cache`` in the simulator, ``_dist_cache`` in ``BallScheme``, the
decomposition-local oracle in ``repro.decomposition.bags``).  The
:class:`DistanceOracle` replaces all of them with one memoising layer:

* per-source distance arrays are computed by the vectorized engine in
  :mod:`repro.graphs.frontier` and returned as read-only views, so a cached
  array can be shared freely across callers,
* :meth:`prefetch` fills many sources at once through the *batched* engine
  (:func:`repro.graphs.frontier.bfs_distances_many`), one numpy pass per BFS
  level for the whole batch; :meth:`distances_to_many` returns the warmed
  arrays as one ``(k, n)`` block for lane-style consumers,
* the distance-based schemes (Theorem 4's balls, Kleinberg's distance
  power) read their shells off the cached rows through the query tier and
  keep no copies of their own (:mod:`repro.graphs.balls`),
* :meth:`routing_blocks` serves the lane engine's per-target blocks out of
  one append-only pool per oracle — a target gets a row the first time any
  caller routes to it and keeps it, so sweeps, ``repro route`` and served
  queries all look pooled targets up one at a time and never re-stack.  A
  pooled row pairs the target's distance array with its ``next_local`` hop
  table: for every node, its best *local* next hop towards the target
  (first CSR-order neighbour at minimum distance, the exact candidate
  :func:`repro.routing.greedy.greedy_route` would scan to).  The pool is the
  only place hop tables live; the fresh targets of a call get theirs from
  **one** transposed composite-key pass over their stacked distance rows
  (:func:`next_local_pointers_many`), and :meth:`next_local_to_many` reads
  them back out of the pool,
* :meth:`export_state` / :meth:`absorb_state` round-trip the cached distance
  rows as plain numpy blocks so the :class:`~repro.graphs.store.GraphStore`
  can spill a warmed oracle to disk and rebuild it in another process without
  a single repeated BFS (hop tables are re-derived from the absorbed rows).

**Memory tiers.**  ``max_bytes=`` turns the oracle into a byte-budgeted
two-tier cache: the least-recently-used distance rows of the dense hot tier
are *spilled* to an anonymous memory-mapped backing file (the cold tier)
instead of being dropped, and promoted back on access — an accounted cache
hit, so ``--stats`` hit rates stay exact.  The routing-block pool counts
against the same budget and may take at most half of it.  Rows absorbed
from a :class:`~repro.graphs.store.GraphStore` spill with ``copy=False``
stay memmap-backed views of the (page-shared, read-only) spill file and are
exempt from the budget — the kernel reclaims those pages on its own.
:meth:`resident_bytes` and :meth:`memory_stats` expose what the budget
actually bounds.

Because the graphs are undirected, ``distances_from`` and ``distances_to``
are the same array; both spellings exist so call sites read naturally.
"""

from __future__ import annotations

import tempfile
import weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import kernels
from repro.graphs.frontier import (
    UNREACHABLE,
    bfs_distances_many,
    bfs_dtype,
    frontier_bfs,
)
# Not called here: perfbench/tracer.py wraps this module's ``frontier_bfs_tree``
# as its ``frontier.frontier_bfs_tree`` span, which should count zero calls.
from repro.graphs.frontier import frontier_bfs_tree  # noqa: F401
from repro.graphs.graph import Graph
from repro.utils.validation import check_node_index

__all__ = [
    "DistanceOracle",
    "FAR_DISTANCE",
    "next_local_pointers",
    "next_local_pointers_many",
    "padded_adjacency",
]

#: Sentinel larger than any real distance, used in place of ``UNREACHABLE``
#: (-1, which would win any min-comparison) in the masked routing blocks and
#: hop comparisons.  The lane engine imports this same constant, so producer
#: and consumer of the masked blocks can never disagree.
FAR_DISTANCE: int = np.iinfo(np.int64).max

#: Cap on the routing-block pool: a call that would take the pool past it
#: starts the pool over with that call's targets.  50k-node rows are ~0.8 MB
#: a pair, so a full pool stays around 200 MB at the serve benchmark's size.
_MAX_BLOCK_TARGETS: int = 256


def next_local_pointers(
    graph: Graph, dist: np.ndarray, *, slot_owner: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-node best local next hop given the BFS distance array *dist*.

    ``out[u]`` is the first CSR-order neighbour of ``u`` attaining the minimum
    distance among ``u``'s neighbours, provided that minimum strictly improves
    on ``dist[u]``; otherwise ``-1`` (no improving hop: ``u`` is the target or
    unreachable).  This reproduces exactly the local candidate
    :func:`repro.routing.greedy.greedy_route` selects with its strict ``<``
    scan, so the lane engine's precomputed hop table and ``greedy_route``
    walk identical trajectories.

    *dist* must be a genuine BFS distance array (``UNREACHABLE`` outside the
    target's component), which is what makes the pass cheap: the minimum
    neighbour distance of a reachable node ``u > 0`` hops away is *exactly*
    ``dist[u] - 1``, so the argmin collapses to "first CSR slot whose
    neighbour sits at ``dist[u] - 1``" — one gather, one compare, and a
    reversed scatter that keeps each node's earliest matching slot.  The
    target itself (neighbours at distance ≥ 1) and unreachable nodes
    (neighbours all ``UNREACHABLE``) match no slot and keep ``-1``.

    *slot_owner* is the CSR slot-to-node map ``repeat(arange(n), degrees)``;
    pass a precomputed one to skip rebuilding it for every row.
    """
    n = graph.num_nodes
    indptr = graph.indptr
    indices = graph.indices
    out = np.full(n, -1, dtype=bfs_dtype(n))
    if indices.size == 0:
        return out
    if slot_owner is None:
        slot_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # want[slot] = the distance an improving first hop must have.  Owners at
    # distance 0 want -1 and unreachable owners want -2; no reachable
    # neighbour has either value and unreachable neighbours (-1) only occur
    # next to unreachable owners, so both correctly match nothing.
    slots = np.nonzero(dist[indices] == dist[slot_owner] - 1)[0]
    first_slot = np.full(n, -1, dtype=np.int64)
    # Reversed scatter: the last write per owner is its *first* matching slot.
    first_slot[slot_owner[slots[::-1]]] = slots[::-1]
    found = np.nonzero(first_slot >= 0)[0]
    out[found] = indices[first_slot[found]]
    return out


#: Skip the padded-adjacency fast path when padding would inflate the edge
#: array beyond this factor (hub-dominated graphs: stars, lollipop heads).
#: The per-target reference pass is used instead — identical output.
_PAD_BLOWUP_LIMIT: int = 4

#: Column-tile width of the blocked transposes in the batched pointer pass;
#: a (tile, k) int32 tile stays L2-resident for any realistic batch size.
_TRANSPOSE_TILE: int = 2048


def padded_adjacency(graph: Graph) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Slot-major padded adjacency ``(padT, degrees)`` for the batched pass.

    ``padT`` has shape ``(max_degree, n)``: column ``u`` lists the neighbours
    of ``u`` in CSR order, padded with the sentinel node ``n``.  Returns
    ``None`` when padding would inflate the arc array more than
    ``_PAD_BLOWUP_LIMIT``-fold (a few huge hubs), in which case callers fall
    back to the per-target pass.
    """
    n = graph.num_nodes
    indptr = graph.indptr
    indices = graph.indices
    degrees = np.diff(indptr)
    dmax = int(degrees.max()) if n and indices.size else 0
    if dmax == 0:
        return None
    if n * dmax > _PAD_BLOWUP_LIMIT * indices.size + 4096:
        return None
    padT = np.full((dmax, n), n, dtype=np.int64)
    slot_in_node = np.arange(indices.size, dtype=np.int64) - np.repeat(indptr[:-1], degrees)
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    padT[slot_in_node, owner] = indices
    return padT, degrees


def next_local_pointers_many(
    graph: Graph,
    dist_block: np.ndarray,
    *,
    padded: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Batched :func:`next_local_pointers`: one vectorized pass for many targets.

    ``dist_block`` has shape ``(k, n)`` — row ``r`` is the BFS distance array
    of the ``r``-th target — and the result has the same shape, with
    ``out[r, u]`` equal to ``next_local_pointers(graph, dist_block[r])[u]``
    exactly.

    The pass works on the *composite key* ``c[u] = dist[u] * n + u``, whose
    minimum over a node's neighbours is the lexicographic ``(distance, id)``
    minimum — i.e. precisely the first CSR-order (lowest-id, lists are
    sorted) neighbour attaining the minimum distance.  The batch is laid out
    **transposed**: a ``(n+1, k)`` composite block (sentinel last row) lets
    one :func:`np.take` per padded adjacency slot gather that slot's
    neighbour key for *all* ``k`` targets with a single ``n``-element index
    pass — the per-element index overhead that dominates the per-target loop
    is amortised ``k``-fold, and every reduction below it is a contiguous
    SIMD ``minimum``.  Keys run in int32 whenever the composite fits, and
    both transposes are tiled so the strided side of each copy stays
    cache-resident.

    Graphs whose maximum degree would blow up the padded adjacency (see
    :func:`padded_adjacency`) take the per-target reference pass instead —
    same output, just without the batching win.
    """
    dist_block = np.asarray(dist_block)
    if dist_block.ndim != 2 or dist_block.shape[1] != graph.num_nodes:
        raise ValueError("dist_block must have shape (k, num_nodes)")
    k, n = dist_block.shape
    out = np.full((k, n), -1, dtype=bfs_dtype(n))
    if k == 0 or n == 0 or graph.indices.size == 0:
        return out
    kb = kernels.active_backend()
    if kb.next_local_fill is not None:
        # Compiled fill: a typed first-improving-CSR-slot scan per (row,
        # node).  It needs neither the padded adjacency nor the composite-key
        # trick — the early break *is* the lexicographic minimum, because CSR
        # neighbour lists are sorted — so it also covers the hub-dominated
        # graphs the padded fast path rejects.
        kb.next_local_fill(graph.indptr, graph.indices, dist_block, out)
        return out
    if padded is None:
        padded = padded_adjacency(graph)
    if padded is None:  # hub-dominated: padding rejected, use the reference pass
        slot_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        for r in range(k):
            out[r] = next_local_pointers(graph, dist_block[r], slot_owner=slot_owner)
        return out
    padT, degrees = padded
    max_d = int(dist_block.max())
    small = (max_d + 2) * (n + 1) < np.iinfo(np.int32).max
    dt = np.int32 if small else np.int64
    ids_col = np.arange(n, dtype=dt)[:, None]
    # Composite block, transposed, with the sentinel row keeping padded slots
    # out of every minimum.
    c_t = np.empty((n + 1, k), dtype=dt)
    for start in range(0, n, _TRANSPOSE_TILE):
        stop = min(start + _TRANSPOSE_TILE, n)
        np.multiply(dist_block[:, start:stop].T, dt(n), out=c_t[start:stop], casting="unsafe")
    np.add(c_t[:n], ids_col, out=c_t[:n])
    c_t[n] = np.iinfo(dt).max
    # Plain (allocating) takes: np.take's ``out=`` path runs a slower buffered
    # loop, measurably worse than letting it allocate per slot.
    mins = np.take(c_t, padT[0], axis=0)
    for j in range(1, padT.shape[0]):
        np.minimum(mins, np.take(c_t, padT[j], axis=0), out=mins)
    # hop = min_composite - (dist - 1) * n = mins - c + id + n; a hop is valid
    # iff it lands in [0, n) — target rows (min at distance >= 1), unreachable
    # rows and sentinel-only (isolated) rows all fall outside, including via
    # deterministic int wraparound of the sentinel.
    np.subtract(mins, c_t[:n], out=mins)
    np.add(mins, ids_col, out=mins)
    np.add(mins, dt(n), out=mins)
    bad = (mins < 0) | (mins >= dt(n))
    bad |= (degrees == 0)[:, None]
    mins[bad] = dt(-1)
    for start in range(0, n, _TRANSPOSE_TILE):
        stop = min(start + _TRANSPOSE_TILE, n)
        np.copyto(out[:, start:stop], mins[start:stop].T, casting="unsafe")
    return out


class _ColdTier:
    """Slot-allocated row spill over an anonymous memory-mapped temp file.

    Distance rows evicted from the oracle's hot tier are written to slots of
    a :func:`tempfile.TemporaryFile`-backed :class:`numpy.memmap`, keyed by
    their source — the OS pages them out under memory pressure and reclaims
    the file when the tier is closed, dropped (a finalizer closes it) or the
    process dies.  The file grows by doubling; freed slots are recycled.
    """

    def __init__(self, row_len: int, dtype: np.dtype) -> None:
        self._row_len = int(row_len)
        self._dtype = np.dtype(dtype)
        self._file = tempfile.TemporaryFile(prefix="oracle-cold-")
        self._close_file = weakref.finalize(self, self._file.close)
        self._mm: Optional[np.memmap] = None
        self._capacity = 0
        self._slots: Dict[int, int] = {}
        self._free: list = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def nbytes(self) -> int:
        """Logical bytes held (occupied slots × row size), not file size."""
        return len(self._slots) * self._row_len * self._dtype.itemsize

    def has(self, key: int) -> bool:
        return key in self._slots

    def _grow(self, min_rows: int) -> None:
        new_cap = max(min_rows, 2 * self._capacity, 8)
        self._file.truncate(new_cap * self._row_len * self._dtype.itemsize)
        self._mm = np.memmap(
            self._file, dtype=self._dtype, mode="r+", shape=(new_cap, self._row_len)
        )
        self._capacity = new_cap

    def put(self, key: int, row: np.ndarray) -> None:
        slot = self._slots.get(key)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._next
                self._next += 1
            self._slots[key] = slot
        if slot >= self._capacity:
            self._grow(slot + 1)
        self._mm[slot] = row

    def pop(self, key: int) -> np.ndarray:
        """Remove and return a private (writable) copy of the stored row."""
        slot = self._slots.pop(key)
        self._free.append(slot)
        return np.array(self._mm[slot])

    def close(self) -> None:
        self._mm = None
        self._close_file()


class DistanceOracle:
    """Memoised single-source BFS oracle with byte-bounded tiers.

    ``oracle(u, v)`` returns ``dist_G(u, v)``; each distinct source costs one
    BFS (vectorized, frontier-batched), cached for the lifetime of the oracle
    (spilled to the cold tier, never dropped, under a byte budget).

    Parameters
    ----------
    graph:
        The graph the oracle answers queries about.
    max_bytes:
        Optional byte budget over the dense resident state (hot rows plus
        the :meth:`routing_blocks` pool, which may take at most half of it).
        When crossed, the least-recently-used hot row is *spilled* to the
        memory-mapped cold tier instead of dropped, and promoted back on
        access (an accounted hit).  Memmap-backed rows absorbed from a
        spill are budget-exempt.
    """

    def __init__(self, graph: Graph, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None for unbounded)")
        self._graph = graph
        self._max_bytes = max_bytes
        #: Uniform dtype of every cached row (int32 below 2**31 nodes).
        self._dtype = bfs_dtype(graph.num_nodes)
        #: Hot distance rows, least recently used first.
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: Padded adjacency for the batched pointer pass (None = not built
        #: yet, False = this graph rejected padding — hub-dominated).
        self._padded = None
        #: The routing-block pool (see :meth:`routing_blocks`): pooled
        #: targets in row order, target -> row, and the ``(capacity, n)``
        #: distance/hop-table buffers the rows live in.
        self._block_targets: List[int] = []
        self._block_rows: Dict[int, int] = {}
        self._block_storage: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._block_resets = 0
        self._hits = 0
        self._misses = 0
        self._preloaded = 0
        # --- memory-tier state ------------------------------------------ #
        self._cold_tier: Optional[_ColdTier] = None
        #: Bytes of dense (private, budget-counted) hot rows.
        self._hot_bytes = 0
        #: Sources whose rows are memmap views of a spill file — page-shared
        #: with sibling processes, budget-exempt, never spilled.
        self._mapped: set = set()
        self._mapped_bytes = 0
        self._cold_hits = 0
        self._cold_spills = 0
        self._cold_promotions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def mode(self) -> str:
        """This provider's ``distance_mode`` name (see :mod:`repro.graphs.provider`)."""
        return "exact"

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte budget over dense resident state (``None`` means unbounded)."""
        return self._max_bytes

    @property
    def cold_hits(self) -> int:
        """Accesses served by promoting a row from the cold tier."""
        return self._cold_hits

    @property
    def cold_spills(self) -> int:
        """Hot rows spilled to the cold tier by the byte budget."""
        return self._cold_spills

    @property
    def cold_promotions(self) -> int:
        """Rows moved back from cold to hot (includes silent prefetch promotions)."""
        return self._cold_promotions

    @property
    def hits(self) -> int:
        """Number of queries served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of queries that required a fresh BFS."""
        return self._misses

    @property
    def preloaded(self) -> int:
        """Number of arrays absorbed from a spilled state (no BFS, no hit)."""
        return self._preloaded

    @property
    def block_targets(self) -> Tuple[int, ...]:
        """Targets in the routing-block pool, in row order (a snapshot copy)."""
        return tuple(self._block_targets)

    @property
    def block_resets(self) -> int:
        """Times the routing-block pool started over at its target cap."""
        return self._block_resets

    def cache_size(self) -> int:
        """Number of distance arrays currently cached."""
        return len(self._cache)

    def clear(self) -> None:
        """Drop every cached array and the block pool (counters are kept)."""
        self._cache.clear()
        self._block_targets = []
        self._block_rows = {}
        self._block_storage = None
        if self._cold_tier is not None:
            self._cold_tier.close()
            self._cold_tier = None
        self._hot_bytes = 0
        self._mapped.clear()
        self._mapped_bytes = 0

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #

    def _block_bytes(self) -> int:
        storage = self._block_storage
        if storage is None:
            return 0
        return int(storage[0].nbytes + storage[1].nbytes)

    def resident_bytes(self) -> int:
        """Dense private bytes the ``max_bytes`` budget bounds.

        Hot cached rows plus the :meth:`routing_blocks` backing buffers.
        Memmap-backed rows (spill-file views, page-shared across workers)
        and the cold tier (file-backed, reclaimable) are excluded — see
        :meth:`memory_stats` for those.
        """
        return self._hot_bytes + self._block_bytes()

    def memory_stats(self) -> Dict[str, Optional[int]]:
        """Tier-by-tier byte/counter snapshot (used by ``--stats``)."""
        cold = self._cold_tier
        return {
            "resident_bytes": self.resident_bytes(),
            "hot_bytes": self._hot_bytes,
            "block_bytes": self._block_bytes(),
            "mapped_bytes": self._mapped_bytes,
            "cold_bytes": cold.nbytes if cold is not None else 0,
            "cold_entries": len(cold) if cold is not None else 0,
            "cold_hits": self._cold_hits,
            "cold_spills": self._cold_spills,
            "cold_promotions": self._cold_promotions,
            "max_bytes": self._max_bytes,
        }

    def _cold(self) -> _ColdTier:
        if self._cold_tier is None:
            self._cold_tier = _ColdTier(self._graph.num_nodes, self._dtype)
        return self._cold_tier

    def _enforce_budget(self) -> None:
        """Spill least-recently-used unmapped hot rows until the budget holds.

        Stops early when only one row is cached (the row a caller is about
        to read) or when every cached row is a budget-exempt memmap view.
        """
        if self._max_bytes is None:
            return
        while self._hot_bytes + self._block_bytes() > self._max_bytes and len(self._cache) > 1:
            source = next((s for s in self._cache if s not in self._mapped), None)
            if source is None:
                break
            row = self._cache.pop(source)
            self._cold().put(source, row)
            self._hot_bytes -= row.nbytes
            self._cold_spills += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _store(self, source: int, dist: np.ndarray, *, mapped: bool = False) -> None:
        """Cache *dist* as the most recently used row of *source* (not yet cached)."""
        dist = np.asarray(dist, dtype=self._dtype)
        dist.setflags(write=False)
        self._cache[source] = dist
        if mapped:
            self._mapped.add(source)
            self._mapped_bytes += dist.nbytes
        else:
            self._hot_bytes += dist.nbytes
        self._enforce_budget()

    def distances_from(self, source: int) -> np.ndarray:
        """Full distance array from *source* (cached, read-only)."""
        source = check_node_index(int(source), self._graph.num_nodes, "source")
        dist = self._cache.get(source)
        if dist is not None:
            self._hits += 1
            self._cache.move_to_end(source)
            return dist
        if self._cold_tier is not None and self._cold_tier.has(source):
            # Cold tier hit: the row was spilled, not dropped — promoting it
            # back is an accounted cache hit (``--stats`` hit rates must not
            # depend on which tier served the row).
            dist = self._cold_tier.pop(source)
            self._hits += 1
            self._cold_hits += 1
            self._cold_promotions += 1
            self._store(source, dist)
            return self._cache[source]
        self._misses += 1
        dist = frontier_bfs(self._graph, source)
        self._store(source, dist)
        return self._cache[source]

    def distances_to(self, target: int) -> np.ndarray:
        """Distance array *to* ``target`` (== ``distances_from``: undirected graphs)."""
        return self.distances_from(target)

    def query_distances_from(self, source: int) -> np.ndarray:
        """The query tier (bulk estimates): exact providers serve the BFS row.

        Identical to :meth:`distances_from` here — same array, same hit/miss
        accounting — so routing everything through the
        :class:`~repro.graphs.provider.DistanceProvider` protocol leaves the
        exact pipeline bitwise unchanged.  Approximate providers override
        this with a sketch (see :class:`~repro.graphs.landmark.LandmarkOracle`).
        """
        return self.distances_from(source)

    def prefetch_query(self, sources: Iterable[int]) -> None:
        """Warm the query tier for *sources* (exact tier: one batched sweep)."""
        self.prefetch(sources)

    def distance_stats(self) -> Dict[str, object]:
        """Provider-mode counters for ``--stats`` (the sketch surface is idle here)."""
        return {
            "mode": self.mode,
            "landmarks": 0,
            "landmark_sweeps": 0,
            "sketch_queries": 0,
            "stretch_rows": 0,
            "mean_stretch": None,
        }

    def distances_to_many(self, targets: Sequence[int]) -> np.ndarray:
        """Distance block of shape ``(len(targets), n)``, one row per target.

        The missing rows are warmed with one batched frontier sweep
        (:meth:`prefetch`); cached rows are reused.  Duplicate targets are
        allowed and simply repeat their row.  The block is a fresh writable
        array (stacking copies), so lane-engine callers can sentinel-mask it
        without touching the cached read-only rows.
        """
        targets = [check_node_index(int(t), self._graph.num_nodes, "target") for t in targets]
        if not targets:
            return np.empty((0, self._graph.num_nodes), dtype=self._dtype)
        self.prefetch(targets)
        return np.stack([self.distances_to(t) for t in targets])

    def _padded_adjacency(self):
        """Padded adjacency for the batched pointer pass, built once."""
        if self._padded is False:  # computed before, graph rejected padding
            return None
        if self._padded is None:
            self._padded = padded_adjacency(self._graph)
            if self._padded is None:
                self._padded = False
                return None
        return self._padded

    def next_local_to_many(self, targets: Sequence[int]) -> np.ndarray:
        """Hop-table block of shape ``(len(targets), n)``, one row per target.

        ``out[i, u]`` is the neighbour :func:`repro.routing.greedy.greedy_route`
        would forward to from ``u`` towards ``targets[i]`` if ``u`` had no
        long-range link (``-1`` when no neighbour strictly improves on the
        distance).  The rows are gathered from the :meth:`routing_blocks`
        pool, so targets not pooled yet join it (one batched BFS for the
        uncached ones, one hop-table pass).  Duplicate targets repeat their
        row; the returned block is a fresh writable array.
        """
        _, next_local_block, rows = self.routing_blocks(targets)
        return next_local_block[rows]

    def routing_blocks(
        self, targets: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lane-engine blocks covering *targets*: ``(dist_block, next_local_block, rows)``.

        Row ``rows[i]`` of ``dist_block`` is ``dist_G(·, targets[i])`` with
        ``UNREACHABLE`` already replaced by :data:`FAR_DISTANCE` (so the
        engine's min-comparisons need no per-step masking), and the same row
        of ``next_local_block`` is the matching hop table.  Targets may repeat
        and come in any order.

        The rows live in one append-only **pool** per oracle: a target gets a
        row the first time any caller asks for it and keeps it, so a call
        over pooled targets costs one dict lookup per distinct target and no
        cache traffic.  Fresh targets are appended together in sorted order:
        their distance rows come from the cache (one batched frontier sweep
        for the uncached ones) and their hop tables from one
        :func:`next_local_pointers_many` pass written straight into the pool.
        The buffers grow geometrically, carry their rows over and count
        against ``max_bytes``.  A call that would take the pool past
        ``_MAX_BLOCK_TARGETS`` targets, or past half of ``max_bytes`` (the
        buffers cannot spill, and the other half is left to the cached rows),
        starts it over with this call's distinct targets (counted by
        :attr:`block_resets`).

        Both blocks are read-only views of the pool, shape
        ``(len(block_targets), n)``, valid until a call adds a target (or
        :meth:`clear`); callers that need them longer must copy.
        """
        n = self._graph.num_nodes
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        if targets.size and (targets.min() < 0 or targets.max() >= n):
            raise ValueError(f"target index out of range [0, {n})")
        uniq, inverse = np.unique(targets, return_inverse=True)
        uniq = uniq.tolist()
        pool_rows = self._block_rows
        fresh = [t for t in uniq if t not in pool_rows]
        cap = _MAX_BLOCK_TARGETS
        if self._max_bytes is not None:  # two int64 rows per pooled target
            cap = min(cap, self._max_bytes // (32 * max(n, 1)))
        if fresh and len(self._block_targets) + len(fresh) > cap:
            self._block_targets, self._block_rows = [], {}
            pool_rows, fresh = self._block_rows, uniq
            self._block_resets += 1
        used = len(self._block_targets)
        k = used + len(fresh)
        storage = self._block_storage
        if storage is None or storage[0].shape[0] < k:
            capacity = k if storage is None else max(k, min(2 * storage[0].shape[0], cap))
            grown = (np.empty((capacity, n), np.int64), np.empty((capacity, n), np.int64))
            if storage is not None:
                grown[0][:used] = storage[0][:used]
                grown[1][:used] = storage[1][:used]
            self._block_storage = storage = grown
            # The buffers count against the byte budget: growing them may
            # push hot rows out to the cold tier.
            self._enforce_budget()
        dist_buf, nl_buf = storage
        if fresh:
            fresh_dist = self.distances_to_many(fresh)
            nl_buf[used:k] = next_local_pointers_many(
                self._graph, fresh_dist, padded=self._padded_adjacency()
            )
            dist_buf[used:k] = fresh_dist
            dist_buf[used:k][fresh_dist == UNREACHABLE] = FAR_DISTANCE
            pool_rows.update(zip(fresh, range(used, k)))
            self._block_targets.extend(fresh)
        lookup = np.fromiter((pool_rows[t] for t in uniq), dtype=np.int64, count=len(uniq))
        dist_block, next_local_block = dist_buf[:k], nl_buf[:k]
        dist_block.setflags(write=False)
        next_local_block.setflags(write=False)
        return dist_block, next_local_block, lookup[inverse]

    def __call__(self, u: int, v: int) -> int:
        """``dist_G(u, v)`` (``UNREACHABLE`` = -1 across components)."""
        return int(self.distances_from(int(u))[int(v)])

    def prefetch(self, sources: Iterable[int]) -> None:
        """Warm the cache for *sources* with one batched frontier sweep.

        Only sources not already cached are computed; the batch shares a
        single level-synchronous pass, so warming ``k`` sources is far
        cheaper than ``k`` individual :meth:`distances_from` misses.
        """
        n = self._graph.num_nodes
        missing: list[int] = []
        seen = set()
        cold = self._cold_tier
        for s in sources:
            s = check_node_index(int(s), n, "source")
            if s in self._cache or s in seen:
                continue
            if cold is not None and cold.has(s):
                # Spilled, not missing: promote silently (no hit/miss — the
                # caller's per-source lookup does the accounted access).
                self._cold_promotions += 1
                self._store(s, cold.pop(s))
                continue
            seen.add(s)
            missing.append(s)
        if not missing:
            return
        block = bfs_distances_many(self._graph, missing)
        self._misses += len(missing)
        for row, s in enumerate(missing):
            # Copy each row out of the (k, n) block: storing views would pin
            # the whole block in memory for as long as any one row survives
            # in the cache, defeating the byte budget.
            self._store(s, block[row].copy())

    # ------------------------------------------------------------------ #
    # Spill round-trip (GraphStore)
    # ------------------------------------------------------------------ #

    def export_state(self) -> Dict[str, np.ndarray]:
        """Cached distance rows as two plain numpy blocks (``np.savez``-able).

        ``dist_sources``/``dist_block`` stack the memoised distance arrays
        (hot tier in LRU order, oldest first, then any cold-tier rows in key
        order).  Together with the graph these blocks fully reconstruct the
        oracle's cache via :meth:`absorb_state` — the
        :class:`~repro.graphs.store.GraphStore` spills them to disk so a
        sibling worker process rebuilds a warmed oracle with zero BFS (hop
        tables are cheap to re-derive from the rows, so none are exported).
        """
        n = self._graph.num_nodes
        cold = self._cold_tier
        keys = list(self._cache.keys())
        rows = list(self._cache.values())
        if cold is not None:
            for key in sorted(cold._slots):
                keys.append(key)
                rows.append(np.array(cold._mm[cold._slots[key]]))
        return {
            "dist_sources": np.asarray(keys, dtype=np.int64),
            "dist_block": np.stack(rows) if rows else np.empty((0, n), dtype=self._dtype),
        }

    def absorb_state(self, state: Dict[str, np.ndarray], *, copy: bool = True) -> None:
        """Preload the cache from an :meth:`export_state` snapshot.

        Absorbed arrays count as neither hits nor misses (the ``preloaded``
        counter tracks them), entries already cached — hot or in the cold
        tier — are left untouched, and
        the byte budget applies as usual — so absorbing is observationally
        identical to having computed the arrays locally, minus the BFS.

        With ``copy=False`` and a block already in the oracle's row dtype
        (the raw-memmap spill loader's case), rows are stored as *views* of
        the given block: memmap-backed pages stay shared between every
        worker absorbing the same spill file and are exempt from the
        ``max_bytes`` budget.
        """
        n = self._graph.num_nodes
        dist_sources = np.asarray(state["dist_sources"], dtype=np.int64)
        dist_block = np.asarray(state["dist_block"])
        mapped = not copy and dist_block.dtype == self._dtype
        if not mapped:
            dist_block = np.asarray(dist_block, dtype=self._dtype)
        if dist_block.shape != (dist_sources.size, n):
            raise ValueError("spilled oracle state does not match this graph's shape")
        for row, source in enumerate(dist_sources):
            source = check_node_index(int(source), n, "source")
            cold = self._cold_tier
            if source in self._cache or (cold is not None and cold.has(source)):
                continue  # already held, hot or spilled
            self._store(
                source,
                dist_block[row] if mapped else dist_block[row].copy(),
                mapped=mapped,
            )
            self._preloaded += 1
