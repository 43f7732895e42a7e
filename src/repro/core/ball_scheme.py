"""The Õ(n^{1/3}) universal augmentation scheme of Theorem 4 — the paper's main result.

The scheme is defined *a posteriori* (it looks at the structure of the graph):

1. every node ``u`` independently picks an integer ``k`` uniformly in
   ``{1, …, ⌈log₂ n⌉}``,
2. its long-range contact is then drawn uniformly at random in the ball
   ``B_k(u) = B(u, 2^k)``.

Equivalently (this is the closed form used by the proof and exposed by
:meth:`BallScheme.contact_distribution`)

    ``φ_u(v) = (1 / ⌈log n⌉) · Σ_{k ≥ r(v)} 1 / |B_k(u)|``

where the *rank* ``r(v)`` of ``v`` is the smallest ``k`` with
``v ∈ B_k(u)``.

Theorem 4 proves greedy routing in ``(G, φ)`` takes ``Õ(n^{1/3})`` expected
steps on every ``n``-node graph, beating the ``√n`` barrier that Theorem 1
shows is unavoidable for name-independent (a-priori) schemes.

Implementation notes
--------------------
* The simulator only ever needs contacts of *visited* nodes, so the distance
  row from ``u`` required to enumerate ``B(u, 2^k)`` is fetched lazily through
  a :class:`repro.graphs.provider.DistanceProvider`'s **query tier** — pass
  the experiment's shared provider to pool those arrays with the routing
  simulator's.  On an exact provider the query tier is the memoised BFS
  cache; on a landmark provider the ball profiles ride the sketch (one tiny
  min-plus reduction per node instead of a full-graph BFS), which is where
  the bulk of landmark mode's BFS savings comes from.
* ``radius_distribution`` lets experiments reweight the choice of ``k`` (the
  paper's ablation question: how much does the uniform-in-``k`` mixture
  matter?).  The default is the paper's uniform distribution.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.distances import UNREACHABLE
from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle
from repro.graphs.provider import DistanceProvider
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["BallScheme"]


class BallScheme(AugmentationScheme):
    """Theorem 4's ball-based universal augmentation scheme.

    Parameters
    ----------
    graph:
        Underlying connected graph.
    num_levels:
        Number of radius levels (defaults to ``⌈log₂ n⌉`` as in the paper).
    radius_distribution:
        Optional probability vector over levels ``1 … num_levels``; defaults
        to uniform.  Used by the ablation benchmarks.
    seed:
        Seed for the internal generator.
    oracle:
        Optional shared :class:`~repro.graphs.provider.DistanceProvider`.
        Pass the experiment-wide provider so the scheme's ball lookups reuse
        the distance arrays the routing simulator already computed (and vice
        versa); by default the scheme creates a private unbounded exact
        :class:`~repro.graphs.oracle.DistanceOracle`.
    """

    scheme_name = "ball"
    uniforms_per_contact = 2  # level draw + uniform ball-member pick

    def __init__(
        self,
        graph: Graph,
        *,
        num_levels: Optional[int] = None,
        radius_distribution: Optional[Sequence[float]] = None,
        seed: RngLike = None,
        oracle: Optional[DistanceProvider] = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        n = graph.num_nodes
        default_levels = max(1, int(math.ceil(math.log2(n)))) if n > 1 else 1
        self._num_levels = int(num_levels) if num_levels is not None else default_levels
        if self._num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        if radius_distribution is None:
            self._level_probs = np.full(self._num_levels, 1.0 / self._num_levels)
        else:
            probs = np.asarray(list(radius_distribution), dtype=float)
            if probs.shape != (self._num_levels,):
                raise ValueError(
                    f"radius_distribution must have length num_levels={self._num_levels}"
                )
            if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
                raise ValueError("radius_distribution must be a probability vector")
            self._level_probs = probs
        self._level_cumulative = np.cumsum(self._level_probs)
        if oracle is not None and oracle.graph is not graph and not oracle.graph.same_structure(graph):
            raise ValueError("oracle was built for a different graph")
        self._oracle = oracle if oracle is not None else DistanceOracle(graph)
        #: node -> (distances sorted ascending, node ids in the same order),
        #: restricted to the node's component; backs the batched sampler's
        #: "|B(u, r)| = searchsorted" trick.  LRU-capped to the backing
        #: oracle's max_entries AND max_bytes so an oracle configured to
        #: bound memory is not defeated by this secondary per-node cache.
        self._profiles: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._profile_bytes = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_levels(self) -> int:
        """Number of radius levels ``⌈log₂ n⌉`` (or the override)."""
        return self._num_levels

    @property
    def level_probabilities(self) -> np.ndarray:
        """Distribution over the level ``k`` (read-only copy)."""
        return self._level_probs.copy()

    def describe(self) -> str:
        return (
            f"ball scheme (levels={self._num_levels}) on {self.graph.name} "
            f"(n={self.graph.num_nodes})"
        )

    @property
    def oracle(self) -> DistanceProvider:
        """The distance provider backing the scheme's ball lookups."""
        return self._oracle

    def reset_cache(self) -> None:
        """Drop the backing oracle's cached BFS arrays.

        Note: when the scheme was built with a shared ``oracle=`` this clears
        that oracle for *every* subsystem pooling it (e.g. the routing
        simulator's per-target arrays), not just this scheme's entries.
        """
        self._oracle.clear()
        self._profiles.clear()
        self._profile_bytes = 0

    def cache_size(self) -> int:
        """Number of BFS arrays in the backing oracle (for memory accounting).

        With a shared ``oracle=`` this counts entries from every pooled
        subsystem, not only those created by this scheme.
        """
        return self._oracle.cache_size()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _distances_from(self, node: int) -> np.ndarray:
        # Query tier: balls are bulk *estimates*, never trajectories, so a
        # landmark provider may serve them from its sketch.
        return self._oracle.query_distances_from(node)

    def _ball_profile(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted distance profile of *node*: ``(sorted distances, node ids)``.

        ``searchsorted(sorted_d, r, "right")`` is ``|B(node, r)|`` and the
        first that many entries of ``ids`` are exactly the ball's members, so
        a uniform member is one index draw away — no per-sample ``nonzero``
        scan over the whole distance array.
        """
        profile = self._profiles.get(node)
        if profile is None:
            dist = self._distances_from(node)
            reachable = np.nonzero(dist != UNREACHABLE)[0]
            order = np.argsort(dist[reachable], kind="stable")
            ids = reachable[order]
            profile = (dist[ids], ids)
            self._profiles[node] = profile
            self._profile_bytes += profile[0].nbytes + profile[1].nbytes
            cap = getattr(self._oracle, "max_entries", None)
            if cap is not None:
                while len(self._profiles) > cap:
                    self._evict_oldest_profile()
            # A byte-budgeted oracle must not be defeated by this secondary
            # cache either: profiles are ~2 full-width arrays per node (16 MB
            # each at n = 10^6), so they honour the same budget.  At least
            # the newest profile always stays resident.
            byte_cap = getattr(self._oracle, "max_bytes", None)
            if byte_cap is not None:
                while len(self._profiles) > 1 and self._profile_bytes > byte_cap:
                    self._evict_oldest_profile()
        else:
            self._profiles.move_to_end(node)
        return profile

    def _evict_oldest_profile(self) -> None:
        _, evicted = self._profiles.popitem(last=False)
        self._profile_bytes -= evicted[0].nbytes + evicted[1].nbytes

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure ball sampling: ``uniforms[0]`` → level, ``uniforms[1]`` → member.

        The distinct nodes of the batch are prefetched through the oracle in
        one batched frontier sweep (instead of one BFS per first visit);
        then each entry draws its level ``k`` by inverse CDF and picks
        uniformly inside ``B(node, 2^k)`` via the node's sorted distance
        profile.  Each entry consumes only its own two uniforms (the
        batch-invariance contract).
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        if nodes.size == 0:
            return np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        levels = np.searchsorted(self._level_cumulative, uniforms[0], side="right") + 1
        # 2^k, clamped: any radius >= n already covers the whole component.
        radii = np.int64(1) << np.minimum(levels, 62).astype(np.int64)
        uniq, inverse = np.unique(nodes, return_inverse=True)
        self._oracle.prefetch_query(uniq.tolist())
        for j, node in enumerate(uniq.tolist()):
            lanes = np.nonzero(inverse == j)[0]
            sorted_d, ids = self._ball_profile(int(node))
            counts = np.searchsorted(sorted_d, radii[lanes], side="right")
            picks = (uniforms[1, lanes] * counts).astype(np.int64)
            nonempty = counts > 0
            out[lanes[nonempty]] = ids[picks[nonempty]]
        return out

    def contact_distribution(self, node: int) -> np.ndarray:
        """Exact ``φ_u`` from the closed form ``(1/⌈log n⌉)·Σ_{k ≥ r(v)} 1/|B_k(u)|``."""
        node = check_node_index(node, self._graph.num_nodes)
        dist = self._distances_from(node)
        n = self._graph.num_nodes
        probs = np.zeros(n)
        # Ball sizes for every level.
        ball_sizes = np.zeros(self._num_levels + 1, dtype=np.int64)
        for k in range(1, self._num_levels + 1):
            radius = 1 << k
            ball_sizes[k] = int(np.count_nonzero((dist != UNREACHABLE) & (dist <= radius)))
        for v in range(n):
            d = dist[v]
            if d == UNREACHABLE:
                continue
            # Smallest level whose ball contains v.
            rank = 1
            while rank <= self._num_levels and d > (1 << rank):
                rank += 1
            if rank > self._num_levels:
                continue
            mass = 0.0
            for k in range(rank, self._num_levels + 1):
                if ball_sizes[k] > 0:
                    mass += self._level_probs[k - 1] / ball_sizes[k]
            probs[v] = mass
        return probs
