"""Base interfaces for augmentation schemes and augmented graphs.

The paper's model gives each node a single long-range link whose head is
drawn from a per-node probability distribution ``φ_u``.  Greedy routing then
treats that link exactly like a local edge when comparing distances to the
target.  Two usage modes are supported:

* **lazy sampling** — the routing engine asks the scheme for a node's
  contact only when a route actually visits it.  This is statistically
  identical to sampling every link upfront because the links are
  independent, and it is what makes large Monte-Carlo sweeps affordable.
* **eager sampling** — :class:`AugmentedGraph` materialises one contact per
  node, which is convenient for inspection, examples and tests.

Every scheme has **one** sampling primitive,
:meth:`AugmentationScheme.sample_contacts_from_uniforms`: it maps a batch of
nodes plus ``uniforms_per_contact`` caller-supplied uniforms per entry to one
contact per entry, and entry ``i`` is a pure function of ``(nodes[i],
uniforms[:, i])``.  The routing engine feeds it counter-based uniforms
(:func:`repro.utils.counterrng.lane_step_uniforms`), so a lane's trajectory
does not depend on which other lanes share its batch.  The generator-driven
spellings :meth:`~AugmentationScheme.sample_contact` and
:meth:`~AugmentationScheme.sample_contacts` are derived from it here, by
passing it ``rng.random((uniforms_per_contact, m))``.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_node_index

__all__ = ["AugmentationScheme", "AugmentedGraph", "NO_CONTACT"]

#: Sentinel meaning "this node has no long-range link" (augmentation-matrix
#: rows may sum to less than one, Definition 1).
NO_CONTACT: int = -1


class AugmentationScheme(abc.ABC):
    """A collection of probability distributions ``φ = {φ_u}`` over contacts.

    Subclasses implement :meth:`sample_contacts_from_uniforms` and set
    :attr:`uniforms_per_contact`; when the distribution is cheap to write
    down they also implement :meth:`contact_distribution` (used by the tests
    to check the sampler against the exact probabilities).
    """

    #: short machine-readable identifier used in experiment reports.
    scheme_name: str = "abstract"

    #: Number of uniform variates one contact draw consumes in
    #: :meth:`sample_contacts_from_uniforms` (bounded by
    #: :data:`repro.utils.counterrng.MAX_UNIFORM_ROWS`).
    uniforms_per_contact: int = 1

    def __init__(self, graph: Graph, *, seed: RngLike = None) -> None:
        if graph.num_nodes == 0:
            raise ValueError("augmentation requires a non-empty graph")
        self._graph = graph
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    # Core interface
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The underlying (non-augmented) graph ``G``."""
        return self._graph

    @abc.abstractmethod
    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Draw one contact per entry of *nodes* from caller-supplied uniforms.

        *nodes* is a 1-D batch (duplicates allowed) and *uniforms* has shape
        ``(uniforms_per_contact, len(nodes))`` with values in ``[0, 1)``.
        Returns an ``int64`` array aligned with *nodes*, where
        ``NO_CONTACT`` marks entries that drew no long-range link (allowed
        by Definition 1 for sub-stochastic rows).

        Entry ``i`` must be a **pure function of** ``(nodes[i],
        uniforms[:, i])``, independent of every other entry — the
        *batch-invariance contract* the routing engine's counter-seeded
        lanes rely on.  For i.i.d. uniform inputs each entry is one draw
        from ``φ_{nodes[i]}``.
        """

    def sample_contacts(
        self, nodes: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw one independent contact per entry of *nodes* from a generator.

        Derived from :meth:`sample_contacts_from_uniforms`: the batch (any
        shape, flattened in C order) consumes ``rng.random((uniforms_per_contact,
        m))`` for its ``m`` entries, so the result is bitwise the primitive's
        on those uniforms.  The output has the shape of *nodes*.
        """
        generator = rng if rng is not None else self._rng
        nodes = self._coerce_batch(nodes)
        flat = nodes.reshape(-1)
        uniforms = generator.random((type(self).uniforms_per_contact, flat.size))
        return self.sample_contacts_from_uniforms(flat, uniforms).reshape(nodes.shape)

    def sample_contact(self, node: int, rng: Optional[np.random.Generator] = None) -> Optional[int]:
        """Draw the long-range contact of *node* from ``φ_node``.

        A one-entry :meth:`sample_contacts`; returns ``None`` when the node
        gets no long-range link.
        """
        node = check_node_index(node, self._graph.num_nodes)
        contact = int(self.sample_contacts(np.array([node], dtype=np.int64), rng)[0])
        return None if contact == NO_CONTACT else contact

    def contact_distribution(self, node: int) -> np.ndarray:
        """Exact distribution ``φ_node`` as a dense array of length ``n``.

        Entries sum to at most one; the missing mass is the probability of
        having no long-range link.  Subclasses override this when feasible;
        the default raises ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an explicit contact distribution"
        )

    def _coerce_uniforms(self, nodes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Validate a ``(uniforms_per_contact, len(nodes))`` uniform block."""
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if nodes.ndim != 1:
            raise ValueError("sample_contacts_from_uniforms expects a 1-D node batch")
        expected = (type(self).uniforms_per_contact, nodes.shape[0])
        if uniforms.shape != expected:
            raise ValueError(
                f"uniforms must have shape (uniforms_per_contact, len(nodes)) = "
                f"{expected}, got {uniforms.shape}"
            )
        return uniforms

    def _coerce_batch(self, nodes: np.ndarray) -> np.ndarray:
        """Validate a batch of node indices for the vectorized samplers.

        Returns the batch as a contiguous ``int64`` array of the original
        shape; raises ``IndexError`` on out-of-range entries.
        """
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._graph.num_nodes):
            raise IndexError("node index out of range")
        return nodes

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #

    def sample_all_contacts(self, rng: RngLike = None) -> np.ndarray:
        """Sample one contact per node; entries are node ids or ``NO_CONTACT``.

        One :meth:`sample_contacts` call over ``arange(n)`` — the eager path
        behind :meth:`AugmentedGraph.from_scheme`.
        """
        generator = ensure_rng(rng) if rng is not None else self._rng
        nodes = np.arange(self._graph.num_nodes, dtype=np.int64)
        return self.sample_contacts(nodes, generator)

    def describe(self) -> str:
        """One-line human-readable description (overridable)."""
        return f"{self.scheme_name} on {self._graph.name} (n={self._graph.num_nodes})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(graph={self._graph.name!r}, n={self._graph.num_nodes})"


class AugmentedGraph:
    """A graph together with one concrete sampled long-range link per node.

    This is the object the paper calls ``(G, φ)`` *after* the random choices
    have been made.  Greedy routing on an :class:`AugmentedGraph` is fully
    deterministic.
    """

    def __init__(self, graph: Graph, contacts: np.ndarray) -> None:
        contacts = np.asarray(contacts, dtype=np.int64)
        if contacts.shape != (graph.num_nodes,):
            raise ValueError("contacts must have exactly one entry per node")
        for u, c in enumerate(contacts):
            if c != NO_CONTACT:
                check_node_index(int(c), graph.num_nodes, f"contact of node {u}")
        self._graph = graph
        self._contacts = contacts

    @classmethod
    def from_scheme(cls, scheme: AugmentationScheme, rng: RngLike = None) -> "AugmentedGraph":
        """Sample every node's long-range link from *scheme*."""
        return cls(scheme.graph, scheme.sample_all_contacts(rng))

    @property
    def graph(self) -> Graph:
        """The underlying graph ``G``."""
        return self._graph

    @property
    def contacts(self) -> np.ndarray:
        """Array of long-range contacts (``NO_CONTACT`` marks absent links)."""
        view = self._contacts.view()
        view.setflags(write=False)
        return view

    def contact(self, node: int) -> Optional[int]:
        """The long-range contact of *node*, or ``None``."""
        node = check_node_index(node, self._graph.num_nodes)
        c = int(self._contacts[node])
        return None if c == NO_CONTACT else c

    def long_range_edges(self) -> Dict[int, int]:
        """Mapping ``{u: contact(u)}`` restricted to nodes that have a link."""
        return {
            int(u): int(c)
            for u, c in enumerate(self._contacts)
            if c != NO_CONTACT
        }

    def out_degree(self, node: int) -> int:
        """Local degree plus one if the node has a long-range link."""
        node = check_node_index(node, self._graph.num_nodes)
        return self._graph.degree(node) + (0 if self._contacts[node] == NO_CONTACT else 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        links = int(np.count_nonzero(self._contacts != NO_CONTACT))
        return f"AugmentedGraph(n={self._graph.num_nodes}, long_links={links})"
