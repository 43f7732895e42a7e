"""The (M, L) augmentation scheme of Theorem 2.

Theorem 2 exhibits, for every ``n``, a single matrix ``M`` and a node labeling
``L`` (computable from any path decomposition of the graph) such that greedy
routing in ``(G, (M, L))`` takes ``O(min{ps(G)·log² n, √n})`` expected steps.

The matrix is ``M = (A + U) / 2`` where

* ``U`` is the uniform matrix (``u_{i,j} = 1/n``) — it guarantees the ``√n``
  fallback on graphs with large pathshape, and
* ``A`` is the *ancestor matrix*: ``a_{i,j} = 1/(1 + log n)`` whenever ``j``
  is an ancestor of ``i`` in the dyadic level hierarchy
  (:mod:`repro.decomposition.labeling`), 0 otherwise.  Rows of ``A`` sum to at
  most one because an index of level ``k`` has at most ``ν - k ≤ 1 + log n``
  ancestors within ``[1, n]``.

The labeling ``L`` maps each node to the highest-level bag index of the
interval of bags containing it in a reduced path decomposition; several nodes
may share a label, in which case the contact is drawn uniformly among them
(the paper's convention for non-distinct labels).

:class:`Theorem2Scheme` implements the scheme *implicitly* (no ``n × n`` dense
matrix is materialised, so it scales to large graphs); the tests check it
against Definition 1 applied to the explicit matrices.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.core.matrix import LabelGroups
from repro.decomposition.labeling import integer_ancestors, theorem2_labeling
from repro.decomposition.path_decomposition import PathDecomposition
from repro.decomposition.pathshape import estimate_pathshape
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index

__all__ = ["Theorem2Scheme"]


def _ancestor_labels(labels: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """``integer_ancestors(x, max_value=n)[i]`` for each label ``x`` and index ``i``.

    ``0`` where ``i`` is past the last ancestor.  The ancestor of ``x`` at
    bit ``s`` is ``((x >> (s+1)) << (s+1)) | (1 << s)``; it exists for
    ``s`` from ``x``'s lowest set bit up and counts when it is at most
    ``n``, which rules out every ``s >= n.bit_length()``.
    """
    bits = np.arange(n.bit_length(), dtype=np.int64)[:, None]
    level_bit = 1 << bits
    ancestors = ((labels >> (bits + 1)) << (bits + 1)) | level_bit
    counts = (level_bit >= (labels & -labels)) & (ancestors <= n)
    chosen = counts & (np.cumsum(counts, axis=0) == index + 1)
    return (ancestors * chosen).sum(axis=0)


class Theorem2Scheme(AugmentationScheme):
    """The (M, L) scheme of Theorem 2, sampled implicitly.

    Parameters
    ----------
    graph:
        Underlying connected graph.
    decomposition:
        Optional path decomposition to derive the labeling from.  When
        omitted, :func:`repro.decomposition.pathshape.estimate_pathshape`
        chooses one automatically (exact for paths / caterpillars / trees,
        heuristic otherwise).
    uniform_mixture:
        Weight of the uniform matrix ``U`` in the mixture; the paper's
        ``M = (A + U)/2`` corresponds to the default ``0.5``.  Setting it to
        ``0`` gives the pure ancestor scheme ``A`` (used by the ablation
        experiments to expose the polylog component at simulation scale) and
        ``1`` degenerates to the uniform scheme.
    seed:
        Seed for the internal generator.

    Notes
    -----
    Sampling a contact of a node labeled ``i``:

    1. with probability ``uniform_mixture`` use the uniform part ``U``:
       return a uniform node;
    2. otherwise use the ancestor part ``A``: pick one of the ancestors ``j``
       of ``i`` within ``[1, n]``, each with probability ``1/(1 + log n)``
       (with the residual probability the node gets no long link), then return
       a uniform node among those labeled ``j`` (or no link if the label is
       unused).
    """

    scheme_name = "theorem2"
    uniforms_per_contact = 3  # mixture test + index draw + group-member pick

    def __init__(
        self,
        graph: Graph,
        decomposition: Optional[PathDecomposition] = None,
        *,
        uniform_mixture: float = 0.5,
        seed: RngLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        if not (0.0 <= uniform_mixture <= 1.0):
            raise ValueError("uniform_mixture must lie in [0, 1]")
        self._uniform_mixture = float(uniform_mixture)
        n = graph.num_nodes
        if decomposition is None:
            estimate = estimate_pathshape(graph)
            decomposition = estimate.decomposition
            self._pathshape_estimate = estimate
        else:
            self._pathshape_estimate = None
        reduced = decomposition.reduced()
        if reduced.num_bags > n:
            raise ValueError(
                "path decomposition has more bags than nodes even after reduction"
            )
        self._decomposition = reduced
        self._labels = theorem2_labeling(reduced, n)
        self._groups = LabelGroups(self._labels, n)
        self._denom = 1.0 + math.log2(n) if n > 1 else 1.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> np.ndarray:
        """The 1-based labels ``L(u)`` (read-only view)."""
        view = self._labels.view()
        view.setflags(write=False)
        return view

    @property
    def decomposition(self) -> PathDecomposition:
        """The reduced path decomposition the labeling was derived from."""
        return self._decomposition

    @property
    def uniform_mixture(self) -> float:
        """Weight of the uniform matrix ``U`` in the mixture (0.5 in the paper)."""
        return self._uniform_mixture

    @property
    def pathshape_estimate(self):
        """The :class:`PathshapeEstimate` when the decomposition was chosen automatically."""
        return self._pathshape_estimate

    def witnessed_shape(self, *, compute_length: bool = False) -> int:
        """Shape of the decomposition actually used (plugs into the Theorem-2 bound)."""
        return max(1, self._decomposition.shape(self.graph, width_only=not compute_length))

    def describe(self) -> str:
        return (
            f"theorem2 (M,L) scheme on {self.graph.name} "
            f"(n={self.graph.num_nodes}, bags={self._decomposition.num_bags})"
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure (M, L) sampling: split the batch by mixture component.

        ``uniforms[0]`` decides the mixture component.  In the uniform
        component ``uniforms[1]`` is the uniform node.  In the ancestor
        component ``uniforms[1]`` gives the ancestor index
        ``⌊u·(1 + log n)⌋`` of the entry's label (out of range = the row's
        sub-stochastic residual, i.e. no link) and ``uniforms[2]`` picks a
        uniform member of the chosen ancestor label's group.  Each entry
        consumes only its own column, per the batch-invariance contract.
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        n = self._graph.num_nodes
        out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
        uniform_mask = uniforms[0] < self._uniform_mixture
        out[uniform_mask] = (uniforms[1, uniform_mask] * n).astype(np.int64)
        lanes = np.nonzero(~uniform_mask)[0]
        index = (uniforms[1, lanes] * self._denom).astype(np.int64)
        target_labels = _ancestor_labels(self._labels[nodes[lanes]], index, n)
        out[lanes] = self._groups.pick(target_labels, uniforms[2, lanes])
        return out

    def contact_distribution(self, node: int) -> np.ndarray:
        node = check_node_index(node, self._graph.num_nodes)
        n = self._graph.num_nodes
        mix = self._uniform_mixture
        probs = np.full(n, mix / n)
        for target_label in integer_ancestors(int(self._labels[node]), max_value=n):
            members = self._groups.members(target_label)
            if members.size:
                probs[members] += (1.0 - mix) / (self._denom * members.size)
        return probs
