"""Landmark/pivot approximate distances with exact-BFS fallback.

The :class:`LandmarkOracle` is the ``distance_mode="landmark"`` provider of
:func:`repro.graphs.provider.make_distance_provider`: it BFS's ``L`` pivot
nodes once and answers the *query tier* with the classic triangle-inequality
sketch

    ``est(u, t) = min_l  d(u, l) + d(l, t)``

which is admissible (``est >= d`` everywhere, with equality whenever a
shortest ``u``–``t`` path passes through a pivot — in particular whenever
``u`` or ``t`` *is* a pivot) and costs ``O(L)`` per entry after the one-off
``O(L · BFS)`` preprocessing pass.  At a million nodes this is what turns
the per-source distance surface from "one full-graph BFS per query" into
"one tiny min-plus reduction per query".

The *exact tier* is untouched: :meth:`distances_from` and
:meth:`routing_blocks` (with the ``next_local`` hop tables its pool holds)
are inherited from :class:`~repro.graphs.oracle.DistanceOracle` verbatim,
because greedy routing's strict-``<`` next-hop comparisons need genuine BFS
rows — the sketch serves estimates (the distance-based schemes' shells,
extremal-pair sampling, reporting stats), never trajectories.

Pivot selection is deterministic in the construction ``seed`` (callers pass
the instance seed): the first pivot is degree-weighted, the rest follow the
farthest-point (k-center) rule — each new pivot maximises its distance to
the pivots already chosen, with unreachable nodes treated as infinitely far
so disconnected components each receive a pivot before any component gets a
second one.  Crucially the pivot rows are fetched through the inherited
*accounted* cache, so a worker that absorbed a sibling's spill rebuilds the
sketch from pure cache hits (zero BFS), and :meth:`export_state` /
``absorb_state`` spill-compatibility is inherited for free — landmark rows
are ordinary distance rows.

The sketch is *pure*: :meth:`query_distances_from` never consults the exact
cache, so an estimate is a function of ``(graph, seed, L)`` alone — the same
whether the exact row happens to be resident, spilled, or never computed.
That purity is what keeps landmark-mode sweeps bitwise-identical across
``--jobs`` / ``--shard`` / ``--resume`` schedules.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.graphs.frontier import UNREACHABLE
from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle
from repro.utils.validation import check_node_index

__all__ = ["LandmarkOracle", "DEFAULT_NUM_LANDMARKS"]

#: Default pivot count; ``--landmarks`` and ``ExperimentConfig.landmarks``
#: both default to this value.
DEFAULT_NUM_LANDMARKS = 16

#: Exact rows sampled when measuring mean stretch (``distance_stats``).
_STRETCH_SAMPLE_ROWS = 32


class LandmarkOracle(DistanceOracle):
    """A :class:`DistanceOracle` whose query tier rides a landmark sketch.

    Parameters
    ----------
    graph:
        The graph the provider answers queries about.
    num_landmarks:
        Pivot count ``L`` (clamped to the node count).  More pivots mean a
        tighter sketch and a costlier warmup — the stretch/warmup trade-off
        is benched as ``approx_distance`` rows in ``BENCH_routing.json``.
    seed:
        Drives pivot selection deterministically (pass the instance seed).
    max_bytes:
        Inherited exact-tier byte budget (see :class:`DistanceOracle`).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        num_landmarks: int = DEFAULT_NUM_LANDMARKS,
        seed: int = 0,
        max_bytes: Optional[int] = None,
    ) -> None:
        if num_landmarks < 1:
            raise ValueError("num_landmarks must be at least 1")
        super().__init__(graph, max_bytes=max_bytes)
        self._num_landmarks = int(num_landmarks)
        self._landmark_seed = int(seed)
        #: Pivot node ids (selection order); ``None`` until the lazy build.
        self._landmark_ids: Optional[np.ndarray] = None
        #: ``(L, n)`` pivot distance block with ``UNREACHABLE`` remapped to
        #: ``_huge`` so the min-plus reduction needs no per-row masking.
        self._land_block: Optional[np.ndarray] = None
        # The sketch adds two finite entries, so ``_huge`` must survive one
        # addition without overflow in the compute dtype: int32 holds sums up
        # to 2^31-1, and real distances stay below 2^29 whenever we use it.
        if graph.num_nodes <= (1 << 29) and np.dtype(self._dtype) == np.int32:
            self._sketch_dtype = np.dtype(np.int32)
            self._huge = np.int32((1 << 30) - 1)
        else:
            self._sketch_dtype = np.dtype(np.int64)
            self._huge = np.int64(1 << 61)  # 2*huge still fits int64
        self._sketch_queries = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def mode(self) -> str:
        return "landmark"

    @property
    def num_landmarks(self) -> int:
        """The requested pivot count ``L`` (the build may clamp it)."""
        return self._num_landmarks

    @property
    def landmarks(self) -> np.ndarray:
        """The selected pivot ids, building the sketch on first access."""
        self._ensure_landmarks()
        assert self._landmark_ids is not None
        return self._landmark_ids

    @property
    def sketch_queries(self) -> int:
        """Query-tier rows answered from the sketch (exact fallbacks excluded)."""
        return self._sketch_queries

    def memory_stats(self) -> Dict[str, Optional[int]]:
        stats = super().memory_stats()
        block = self._land_block
        stats["landmark_bytes"] = int(block.nbytes) if block is not None else 0
        return stats

    def distance_stats(self) -> Dict[str, object]:
        """Sketch counters plus the *measured* mean stretch (``--stats``).

        Stretch is sampled lazily against up to ``_STRETCH_SAMPLE_ROWS`` of
        the exact rows the routing blocks already paid for (most recently
        used first, pivot rows excluded): per row, the mean of
        ``est / exact`` over reachable non-trivial targets.  No extra BFS is
        ever run for the measurement.
        """
        built = self._landmark_ids.size if self._landmark_ids is not None else 0
        stats: Dict[str, object] = {
            "mode": self.mode,
            "landmarks": built or self._num_landmarks,
            "landmark_sweeps": int(built),
            "sketch_queries": self._sketch_queries,
            "stretch_rows": 0,
            "mean_stretch": None,
        }
        if self._land_block is None or not self._cache:
            return stats
        pivots = set(self._landmark_ids.tolist())
        ratios = []
        for source in list(self._cache.keys())[::-1]:
            if len(ratios) >= _STRETCH_SAMPLE_ROWS:
                break
            if source in pivots:
                continue
            exact = self._cache[source]
            est = self._sketch_row(source)
            mask = (exact > 0) & (est != UNREACHABLE)
            if not mask.any():
                continue
            ratios.append(float(np.mean(est[mask] / exact[mask])))
        if ratios:
            stats["stretch_rows"] = len(ratios)
            stats["mean_stretch"] = float(np.mean(ratios))
        return stats

    # ------------------------------------------------------------------ #
    # Pivot selection
    # ------------------------------------------------------------------ #

    def _ensure_landmarks(self) -> None:
        """Select the pivots and materialise the ``(L, n)`` sketch block.

        Each pivot row is fetched through the inherited accounted cache
        (:meth:`distances_from`): on a spill-warmed oracle the whole build is
        cache hits, and the rows the build *does* compute stay cached — the
        routing blocks of pivot targets come for free afterwards.
        """
        if self._land_block is not None:
            return
        n = self._graph.num_nodes
        limit = min(self._num_landmarks, n) if n else 0
        if limit == 0:
            self._landmark_ids = np.empty(0, dtype=np.int64)
            self._land_block = np.empty((0, n), dtype=self._sketch_dtype)
            return
        rng = np.random.default_rng(self._landmark_seed)
        degrees = np.diff(self._graph.indptr).astype(np.float64)
        total = float(degrees.sum())
        if total > 0.0:
            first = int(rng.choice(n, p=degrees / total))
        else:
            first = int(rng.integers(0, n))
        block = np.empty((limit, n), dtype=self._sketch_dtype)
        chosen = [first]
        self._fill_pivot_row(block[0], first)
        # Farthest-point coverage: cover[u] = min over chosen pivots of the
        # (huge-masked) distance, so argmax lands in the least-covered region
        # — or in a still-uncovered component, which the huge sentinel makes
        # infinitely attractive.
        cover = block[0].copy()
        while len(chosen) < limit:
            nxt = int(np.argmax(cover))
            if cover[nxt] <= 0:
                break  # every node is already a pivot or adjacent to one at 0
            chosen.append(nxt)
            row = block[len(chosen) - 1]
            self._fill_pivot_row(row, nxt)
            np.minimum(cover, row, out=cover)
        self._landmark_ids = np.asarray(chosen, dtype=np.int64)
        self._land_block = block[: len(chosen)]

    def _fill_pivot_row(self, out: np.ndarray, pivot: int) -> None:
        dist = self.distances_from(pivot)
        np.copyto(out, dist, casting="unsafe")
        out[dist == UNREACHABLE] = self._huge

    # ------------------------------------------------------------------ #
    # Query tier (the sketch)
    # ------------------------------------------------------------------ #

    def _sketch_row(self, source: int) -> np.ndarray:
        """``est(source, ·)`` over all nodes; ``UNREACHABLE`` where no pivot connects."""
        self._ensure_landmarks()
        block = self._land_block
        assert block is not None
        n = self._graph.num_nodes
        if block.shape[0] == 0:
            est = np.full(n, UNREACHABLE, dtype=self._dtype)
            est.setflags(write=False)
            return est
        # min-plus reduce one (n,)-sized temporary at a time: at 10^6 nodes a
        # single (L, n) broadcast temporary would cost L row-buffers at once.
        best = block[0] + block[0, source]
        tmp = np.empty_like(best)
        for i in range(1, block.shape[0]):
            np.add(block[i], block[i, source], out=tmp)
            np.minimum(best, tmp, out=best)
        est = best.astype(self._dtype, copy=True)
        est[best >= self._huge] = UNREACHABLE
        est.setflags(write=False)
        return est

    def query_distances_from(self, source: int) -> np.ndarray:
        """Admissible distance estimates from *source* (sketch tier, no BFS).

        The row is a pure function of ``(graph, seed, L)`` — deliberately
        *not* upgraded to the exact row when one happens to be cached, so
        sampled pairs and scheme contacts cannot depend on cache state (which
        would break the bitwise parity of parallel / resumed sweeps).
        """
        source = check_node_index(int(source), self._graph.num_nodes, "source")
        self._sketch_queries += 1
        return self._sketch_row(source)

    def prefetch_query(self, sources: Iterable[int]) -> None:
        """Query-tier warmup: build the sketch once; never runs per-source BFS."""
        self._ensure_landmarks()

    def clear(self) -> None:
        super().clear()
        self._landmark_ids = None
        self._land_block = None
