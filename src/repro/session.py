"""The session facade: one stable entry point over graph + oracle + engine.

Programmatic users used to wire a scheme, a :class:`DistanceOracle` (or a
:class:`GraphStore`), a kernel backend and ``estimate_expected_steps`` by
hand — and the serve daemon would have had to repeat that wiring.
:func:`open_session` owns the whole stack:

* instance acquisition through a :class:`~repro.graphs.store.GraphStore`
  (cross-session cache; pass ``store=`` to pool instances across sessions),
* kernel-backend selection (``kernel_backend="numba"`` etc., warmed up front),
* oracle warmup (:meth:`RoutingSession.warm` pins routing blocks for a pool
  of targets ahead of traffic),
* batched estimation (:meth:`RoutingSession.route_many`,
  :meth:`RoutingSession.estimate_diameter`) and **served queries**
  (:meth:`RoutingSession.route` / :meth:`RoutingSession.route_queries`).

Served-query seed policy
------------------------
Every served query routes exactly one lane whose 64-bit seed is::

    seed = sha256(f"{session_seed}:serve:{source}:{target}:{nonce}")[:8]  (big-endian)

(:func:`derive_query_seed`).  The trajectory is a pure function of
``(graph, scheme, seed)`` — counter-based sampling, see
:func:`repro.routing.engine.route_lanes` — so results are identical whether a
query is served alone, micro-batched by the daemon, or recomputed later by a
client auditing a response.  Repeating a query with a new ``nonce`` draws a
fresh independent trajectory.

Pinned routing blocks
---------------------
Serving traffic keeps hitting a warm pool of targets; the session maintains
an **append-only pinned target list** whose tuple keys the oracle's
single-slot block cache.  Steady-state batches over warmed targets reuse the
blocks with zero copying; a new target appends to the tuple (refilling only
its own row, thanks to the oracle's growth-preserving storage); when the pool
exceeds ``max_block_targets`` the pin resets to the current batch's targets.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import AugmentationScheme
from repro.core.registry import make_scheme
from repro.graphs import kernels
from repro.graphs.families import build_family_graph
from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle
from repro.graphs.provider import DISTANCE_MODES, DistanceProvider
from repro.graphs.store import GraphStore
from repro.routing.simulator import (
    QueryOutcome,
    RoutingEstimate,
    estimate_expected_steps,
    estimate_greedy_diameter,
    route_queries,
)
from repro.utils.rng import RngLike

__all__ = ["RoutingSession", "open_session", "derive_query_seed"]

#: Default cap on the pinned-block target pool (50k-node rows are ~0.8 MB
#: a pair, so 256 pinned targets stay around 200 MB at the benchmark size).
DEFAULT_MAX_BLOCK_TARGETS = 256


def derive_query_seed(session_seed: int, source: int, target: int, nonce: int = 0) -> int:
    """The serve layer's seed policy: a 64-bit seed from (session, query, nonce).

    Deterministic and arrival-order independent — any party knowing the
    session seed can recompute the exact trajectory of any served query.
    """
    payload = f"{int(session_seed)}:serve:{int(source)}:{int(target)}:{int(nonce)}"
    digest = hashlib.sha256(payload.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def open_session(
    family: str,
    n: int,
    *,
    seed: int = 0,
    scheme: str = "uniform",
    scheme_kwargs: Optional[dict] = None,
    store: Optional[GraphStore] = None,
    oracle_max_bytes: Optional[int] = None,
    distance_mode: str = "exact",
    landmarks: int = 16,
    kernel_backend: Optional[str] = None,
    warm_targets: Iterable[int] = (),
) -> "RoutingSession":
    """Open a :class:`RoutingSession` over one ``(family, n, seed)`` instance.

    Parameters
    ----------
    family:
        A :data:`~repro.graphs.families.GRAPH_FAMILIES` name.
    n, seed:
        Instance size and master seed.  The seed drives graph generation,
        the scheme's internal generator *and* the served-query seed policy.
    scheme:
        Registered scheme name (see :func:`repro.core.registry.make_scheme`);
        ``scheme_kwargs`` are forwarded to its constructor.
    store:
        Optional shared :class:`~repro.graphs.store.GraphStore`; by default
        the session creates a private store (``oracle_max_bytes`` /
        ``distance_mode`` / ``landmarks`` configure its providers).  When a
        *store* is given, its own provider configuration wins — pass a store
        built with the wanted ``distance_mode``.
    distance_mode:
        Distance provider mode for the session's instance: ``"exact"``
        (default) or ``"landmark"`` (pivot sketch for bulk queries, which
        the ball and Kleinberg schemes sample from; routing itself always
        uses the exact tier).
    landmarks:
        Pivot count for ``distance_mode="landmark"``.
    kernel_backend:
        Optional BFS/hop-table kernel backend, selected and warmed before any
        BFS runs (results are backend-invariant).
    warm_targets:
        Targets whose routing blocks are pinned before the session is
        returned — the daemon's "warm pool".
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(
            f"unknown distance_mode {distance_mode!r}; "
            f"available: {', '.join(DISTANCE_MODES)}"
        )
    if kernel_backend:
        kernels.set_backend(kernel_backend)
        kernels.warmup_active()
    if store is None:
        store = GraphStore(
            oracle_max_bytes=oracle_max_bytes,
            distance_mode=distance_mode,
            landmarks=landmarks,
        )
    entry = store.instance(family, n, seed, lambda size, s: build_family_graph(family, size, s))
    try:
        scheme_obj = make_scheme(
            scheme, entry.graph, seed=seed, oracle=entry.oracle, **(scheme_kwargs or {})
        )
    except KeyError as exc:
        # The registry raises KeyError; the session surface promises ValueError
        # for every bad-argument path (family, scheme, sizes alike).
        raise ValueError(exc.args[0]) from exc
    session = RoutingSession(
        graph=entry.graph,
        scheme=scheme_obj,
        oracle=entry.oracle,
        family=family,
        requested_n=n,
        seed=seed,
        scheme_name=scheme,
        store=store,
    )
    warm = list(warm_targets)
    if warm:
        session.warm(warm)
    return session


class RoutingSession:
    """A warmed ``(graph, scheme, oracle)`` triple behind one query surface.

    Built by :func:`open_session`; constructable directly for tests or for
    schemes/graphs outside the family registry.
    """

    def __init__(
        self,
        graph: Graph,
        scheme: AugmentationScheme,
        oracle: Optional[DistanceProvider] = None,
        *,
        family: Optional[str] = None,
        requested_n: Optional[int] = None,
        seed: int = 0,
        scheme_name: Optional[str] = None,
        store: Optional[GraphStore] = None,
        max_block_targets: int = DEFAULT_MAX_BLOCK_TARGETS,
    ) -> None:
        if scheme.graph is not graph and not scheme.graph.same_structure(graph):
            raise ValueError("scheme was built for a different graph")
        self._graph = graph
        self._scheme = scheme
        self._oracle = oracle if oracle is not None else DistanceOracle(graph)
        self._family = family
        self._requested_n = requested_n
        self._seed = int(seed)
        self._scheme_name = scheme_name or scheme.scheme_name
        self._store = store
        if max_block_targets < 1:
            raise ValueError("max_block_targets must be at least 1")
        self._max_block_targets = int(max_block_targets)
        self._pinned: List[int] = []
        self._pinned_rows: Dict[int, int] = {}
        self._block_resets = 0
        self._queries_served = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def scheme(self) -> AugmentationScheme:
        return self._scheme

    @property
    def oracle(self) -> DistanceProvider:
        return self._oracle

    @property
    def seed(self) -> int:
        """The session's master seed (anchors the served-query seed policy)."""
        return self._seed

    @property
    def warmed_targets(self) -> Tuple[int, ...]:
        """Targets whose routing blocks are currently pinned."""
        return tuple(self._pinned)

    def info(self) -> dict:
        """Machine-readable session descriptor (the daemon's ``info`` op)."""
        out = {
            "family": self._family,
            "n": self._graph.num_nodes,
            "requested_n": self._requested_n,
            "seed": self._seed,
            "scheme": self._scheme_name,
            "graph": self._graph.name,
            "kernel_backend": kernels.backend_stats()["active"],
            "warmed_targets": list(self._pinned),
            "queries_served": self._queries_served,
            "block_resets": self._block_resets,
            "distance_mode": getattr(self._oracle, "mode", "exact"),
        }
        if out["distance_mode"] != "exact":
            stats = self._oracle.distance_stats()
            out["landmarks"] = stats.get("landmarks")
            out["mean_stretch"] = stats.get("mean_stretch")
        return out

    # ------------------------------------------------------------------ #
    # Pinned routing blocks
    # ------------------------------------------------------------------ #

    def warm(self, targets: Iterable[int]) -> None:
        """Pin routing blocks for *targets* ahead of traffic."""
        self._ensure_blocks([int(t) for t in targets])

    def _ensure_blocks(self, targets: Sequence[int]) -> tuple:
        """Routing blocks covering *targets*: ``(dist, next_local, {t: row})``.

        Keeps the pinned target list append-only so the tuple handed to
        :meth:`DistanceOracle.routing_blocks` is stable (single-slot cache
        hit) or an extension of the previous one (only new rows refill).
        Resets the pool when it would exceed ``max_block_targets``.
        """
        fresh = sorted({int(t) for t in targets} - self._pinned_rows.keys())
        if fresh:
            if len(self._pinned) + len(fresh) > self._max_block_targets:
                self._pinned = sorted({int(t) for t in targets})
                self._block_resets += 1
            else:
                self._pinned.extend(fresh)
            self._pinned_rows = {t: i for i, t in enumerate(self._pinned)}
        dist_block, next_local_block = self._oracle.routing_blocks(tuple(self._pinned))
        return dist_block, next_local_block, self._pinned_rows

    # ------------------------------------------------------------------ #
    # Served queries (single-trial, seed-policy lanes)
    # ------------------------------------------------------------------ #

    def query_seed(self, source: int, target: int, nonce: int = 0) -> int:
        """The lane seed this session assigns to ``(source, target, nonce)``."""
        return derive_query_seed(self._seed, source, target, nonce)

    def route(self, source: int, target: int, *, nonce: int = 0) -> QueryOutcome:
        """Serve one query under the session seed policy."""
        return self.route_queries([(source, target, self.query_seed(source, target, nonce))])[0]

    def route_queries(self, queries: Sequence[Tuple[int, int, int]]) -> List[QueryOutcome]:
        """Serve a batch of ``(source, target, seed)`` queries in one sweep.

        Outcomes are trajectory-identical to serving each query alone — the
        micro-batcher's correctness rests on this method, and the contract is
        pinned by ``tests/serve``.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        queries = [(int(s), int(t), int(q)) for (s, t, q) in queries]
        n = self._graph.num_nodes
        in_range = [t for (_, t, _) in queries if 0 <= t < n]
        blocks = self._ensure_blocks(in_range) if in_range else None
        outcomes = route_queries(
            self._graph,
            self._scheme,
            queries,
            oracle=self._oracle,
            blocks=blocks,
        )
        self._queries_served += len(queries)
        return outcomes

    # ------------------------------------------------------------------ #
    # Batched estimation (the redesigned programmatic surface)
    # ------------------------------------------------------------------ #

    def route_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        *,
        trials: int = 16,
        seed: RngLike = None,
        max_steps: Optional[int] = None,
    ) -> RoutingEstimate:
        """Estimate ``E(φ, s, t)`` over *pairs* (session-owned oracle).

        The stable replacement for calling ``estimate_expected_steps`` with
        hand-wired plumbing; ``seed`` defaults to the session seed.
        """
        return estimate_expected_steps(
            self._graph,
            self._scheme,
            pairs,
            trials=trials,
            seed=self._seed if seed is None else seed,
            max_steps=max_steps,
            oracle=self._oracle,
        )

    def estimate_diameter(
        self,
        *,
        num_pairs: int = 16,
        trials: int = 16,
        seed: RngLike = None,
        pair_strategy: str = "extremal",
        max_steps: Optional[int] = None,
    ) -> RoutingEstimate:
        """Greedy-diameter estimate through the session-owned oracle."""
        return estimate_greedy_diameter(
            self._graph,
            self._scheme,
            num_pairs=num_pairs,
            trials=trials,
            seed=self._seed if seed is None else seed,
            pair_strategy=pair_strategy,
            max_steps=max_steps,
            oracle=self._oracle,
        )

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the pinned blocks and refuse further served queries.

        Idempotent; the store keeps the graph instance for future sessions.
        """
        self._closed = True
        self._pinned = []
        self._pinned_rows = {}

    def __enter__(self) -> "RoutingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingSession(family={self._family!r}, n={self._graph.num_nodes}, "
            f"scheme={self._scheme_name!r}, seed={self._seed})"
        )
