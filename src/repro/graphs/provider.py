"""The pluggable distance-provider layer: one protocol, many distance sources.

Every routing-adjacent subsystem — the lane engine, the simulator, the
distance-based schemes (Theorem-4 ball, Kleinberg distance power), the
decomposition measures, the experiment pipeline, the session facade and the
serve daemon — consumes distances through the same surface.  Historically
that surface *was* the concrete
:class:`~repro.graphs.oracle.DistanceOracle`; this module names it as a
:class:`typing.Protocol` so "what the routing layers consume" is decoupled
from "how distances are produced":

* the **exact tier** (``distances_from/_to/_to_many``, ``next_local_to`` /
  ``next_local_to_many``, ``routing_blocks``) always answers with genuine BFS
  arrays.  Greedy routing's correctness depends on this: the next-hop tables
  need the exact strict-``<`` neighbour at ``dist - 1``, and the lane
  engine's step comparisons consume the same rows — an approximate row here
  would corrupt trajectories, not just estimates,
* the **query tier** (``query_distances_from``, ``prefetch_query``) is where
  bulk distance *queries* go: the ball and Kleinberg schemes' contact draws
  (read off the row by :mod:`repro.graphs.balls`, nothing kept),
  extremal-pair sampling and reporting stats.  An exact provider serves the
  same cached BFS rows on both tiers; an approximate provider
  (:class:`~repro.graphs.landmark.LandmarkOracle`) answers the query tier
  from a landmark sketch instead, which is what makes million-node cells
  *cheap* and not merely memory-bounded — and what those two schemes then
  draw their contacts from.

Selection is by ``distance_mode``: :func:`make_distance_provider` maps the
mode names in :data:`DISTANCE_MODES` to constructors, and everything above
the graphs layer (GraphStore, ExperimentConfig, ``open_session``, the CLI)
threads the mode through rather than naming a concrete class.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle

__all__ = [
    "DISTANCE_MODES",
    "DistanceProvider",
    "make_distance_provider",
    "provider_for",
]

#: Recognised ``distance_mode`` names, in CLI/choices order.  ``"exact"`` is
#: the plain :class:`DistanceOracle`; ``"landmark"`` the pivot sketch with
#: exact-BFS fallback for the routing blocks.
DISTANCE_MODES = ("exact", "landmark")


@runtime_checkable
class DistanceProvider(Protocol):
    """What every distance consumer may assume about its distance source.

    The protocol is structural: :class:`DistanceOracle` satisfies it without
    inheriting anything, and so does any test double exposing the same
    surface.  Methods fall into the exact tier (trajectory-bearing, always
    genuine BFS), the query tier (estimate-bearing, may be approximate), and
    the bookkeeping surface the store/stats layers read.
    """

    # -- identity ------------------------------------------------------- #

    @property
    def graph(self) -> Graph: ...

    @property
    def mode(self) -> str:
        """The provider's ``distance_mode`` name (``"exact"``, ``"landmark"``)."""
        ...

    # -- exact tier (routing correctness) ------------------------------- #

    def distances_from(self, source: int) -> np.ndarray: ...

    def distances_to(self, target: int) -> np.ndarray: ...

    def distances_to_many(self, targets: Sequence[int]) -> np.ndarray: ...

    def next_local_to(self, target: int) -> np.ndarray: ...

    def next_local_to_many(self, targets: Sequence[int]) -> np.ndarray: ...

    def routing_blocks(
        self, targets: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dist_block, next_local_block, rows)``: ``rows[i]`` is ``targets[i]``'s row.

        The only way to get routing blocks.  The rows come from the
        provider's append-only per-target pool, so sweeps and served queries
        share them; the views stay valid until a call adds a target.
        """
        ...

    @property
    def block_targets(self) -> Tuple[int, ...]:
        """Targets in the routing-block pool, in row order."""
        ...

    @property
    def block_resets(self) -> int:
        """Times the routing-block pool started over at its target cap."""
        ...

    def prefetch(self, sources: Iterable[int]) -> None: ...

    def __call__(self, u: int, v: int) -> int: ...

    # -- query tier (bulk estimates; may ride a sketch) ----------------- #

    def query_distances_from(self, source: int) -> np.ndarray:
        """Distance array for *bulk queries* (scheme shells, pair sampling).

        Exact providers return the cached BFS row; approximate providers may
        return an admissible estimate (every entry ``>=`` the true distance,
        ``UNREACHABLE`` preserved).  Consumers that feed trajectories (hop
        tables, routing blocks) must use the exact tier instead.
        """
        ...

    def prefetch_query(self, sources: Iterable[int]) -> None:
        """Warm the query tier for *sources* (exact: batched BFS; sketch: no-op)."""
        ...

    # -- stats / export surface ---------------------------------------- #

    @property
    def hits(self) -> int: ...

    @property
    def misses(self) -> int: ...

    @property
    def preloaded(self) -> int: ...

    def cache_size(self) -> int: ...

    def next_local_cache_size(self) -> int: ...

    def resident_bytes(self) -> int: ...

    def memory_stats(self) -> Dict[str, Optional[int]]: ...

    def distance_stats(self) -> Dict[str, object]:
        """Mode, landmark counts, sketch-query counters and measured stretch."""
        ...

    def clear(self) -> None: ...

    def export_state(self) -> Dict[str, np.ndarray]: ...

    def absorb_state(self, state: Dict[str, np.ndarray], *, copy: bool = True) -> None: ...


def make_distance_provider(
    graph: Graph,
    mode: str = "exact",
    *,
    landmarks: int = 16,
    seed: int = 0,
    max_bytes: Optional[int] = None,
    cold_dir: Optional[str] = None,
) -> DistanceProvider:
    """Build the :class:`DistanceProvider` for *mode* over *graph*.

    ``"exact"`` ignores ``landmarks``/``seed`` and returns a plain
    :class:`DistanceOracle`; ``"landmark"`` returns a
    :class:`~repro.graphs.landmark.LandmarkOracle` whose pivot selection is
    deterministic in *seed* (callers pass the instance seed, so every worker
    building the same instance picks the same pivots).  Unknown modes raise
    :class:`ValueError` naming the available ones.
    """
    if mode == "exact":
        return DistanceOracle(graph, max_bytes=max_bytes, cold_dir=cold_dir)
    if mode == "landmark":
        from repro.graphs.landmark import LandmarkOracle

        return LandmarkOracle(
            graph,
            num_landmarks=landmarks,
            seed=seed,
            max_bytes=max_bytes,
            cold_dir=cold_dir,
        )
    raise ValueError(
        f"unknown distance_mode {mode!r}; available: {', '.join(DISTANCE_MODES)}"
    )


def provider_for(graph: Graph, oracle: Optional[DistanceProvider] = None) -> DistanceProvider:
    """*oracle*, checked to serve *graph*; ``None`` gets a private unbounded exact oracle."""
    if oracle is None:
        return DistanceOracle(graph)
    if oracle.graph is not graph and not oracle.graph.same_structure(graph):
        raise ValueError("oracle was built for a different graph")
    return oracle
