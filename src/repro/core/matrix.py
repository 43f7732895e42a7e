"""Matrix-based augmentation schemes (Section 2, Definition 1).

An *augmentation matrix* of size ``k`` is a ``k × k`` matrix ``A = (p_{i,j})``
with non-negative entries and row sums at most one.  Applied to a graph whose
nodes carry labels in ``{1, …, k}``:

* a node labeled ``i`` first picks an index ``j`` with probability
  ``p_{i,j}`` (with probability ``1 - Σ_j p_{i,j}`` it gets no long link),
* then picks its contact uniformly among the nodes labeled ``j``
  (if no node has label ``j`` the link is dropped — the matrix was written
  for a label that does not occur).

When the matrix is used *name-independently* the guarantee must hold for the
worst-case assignment of distinct labels; :mod:`repro.core.adversarial`
constructs such worst-case labelings for Theorem 1.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.base import NO_CONTACT, AugmentationScheme
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_index, check_positive_int

__all__ = [
    "AugmentationMatrix",
    "LabelGroups",
    "MatrixScheme",
    "uniform_matrix",
    "harmonic_label_matrix",
    "block_diffusion_matrix",
]


class AugmentationMatrix:
    """A validated augmentation matrix (Definition 1).

    Parameters
    ----------
    entries:
        Square array-like with non-negative entries and row sums ≤ 1.
    name:
        Identifier used in reports.
    """

    def __init__(self, entries, *, name: str = "matrix") -> None:
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("an augmentation matrix must be square")
        if np.any(arr < -1e-12):
            raise ValueError("augmentation matrix entries must be non-negative")
        row_sums = arr.sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-6):
            worst = int(np.argmax(row_sums))
            raise ValueError(
                f"row {worst} of the augmentation matrix sums to {row_sums[worst]:.6f} > 1"
            )
        self._entries = np.clip(arr, 0.0, None)
        self._name = name

    @property
    def size(self) -> int:
        """Number of labels ``k`` (the matrix is ``k × k``)."""
        return int(self._entries.shape[0])

    @property
    def name(self) -> str:
        return self._name

    @property
    def entries(self) -> np.ndarray:
        """The underlying array (read-only view)."""
        view = self._entries.view()
        view.setflags(write=False)
        return view

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` (0-based) of the matrix."""
        check_node_index(i, self.size, "row")
        return self._entries[i].copy()

    def probability(self, i: int, j: int) -> float:
        """Entry ``p_{i+1, j+1}`` in the paper's 1-based notation."""
        check_node_index(i, self.size, "row")
        check_node_index(j, self.size, "column")
        return float(self._entries[i, j])

    def is_stochastic(self, *, atol: float = 1e-9) -> bool:
        """Whether every row sums to exactly one."""
        return bool(np.allclose(self._entries.sum(axis=1), 1.0, atol=atol))

    def is_name_independent_symmetric(self, *, atol: float = 1e-9) -> bool:
        """Whether every row is a permutation-invariant (constant off-diagonal) row.

        A sufficient condition for the scheme's behaviour to be independent of
        the labeling; the uniform matrix satisfies it.
        """
        off_diag = self._entries.copy()
        np.fill_diagonal(off_diag, np.nan)
        first = off_diag[~np.isnan(off_diag)]
        return bool(first.size == 0 or np.allclose(first, first[0], atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AugmentationMatrix(name={self._name!r}, size={self.size})"


# --------------------------------------------------------------------------- #
# Canonical matrices
# --------------------------------------------------------------------------- #

def uniform_matrix(size: int) -> AugmentationMatrix:
    """The uniform matrix ``U`` with ``u_{i,j} = 1/size`` (the paper's baseline)."""
    size = check_positive_int(size, "size")
    return AugmentationMatrix(np.full((size, size), 1.0 / size), name="uniform")


def harmonic_label_matrix(size: int, exponent: float = 1.0) -> AugmentationMatrix:
    """Name-independent matrix with ``p_{i,j} ∝ |i - j|^{-exponent}``.

    A natural "small-world over labels" candidate; Theorem 1 implies that even
    this (or any other) matrix cannot beat Ω(√n) on the worst-case labeling of
    the path.
    """
    size = check_positive_int(size, "size")
    entries = np.zeros((size, size))
    for i in range(size):
        diffs = np.abs(np.arange(size) - i).astype(float)
        weights = np.zeros(size)
        mask = diffs > 0
        weights[mask] = diffs[mask] ** (-float(exponent))
        total = weights.sum()
        if total > 0:
            entries[i] = weights / total
    return AugmentationMatrix(entries, name=f"harmonic(r={exponent:g})")


def block_diffusion_matrix(size: int, block: int) -> AugmentationMatrix:
    """Name-independent matrix spreading mass uniformly over a window of labels.

    ``p_{i,j} = 1/(2·block+1)`` for ``|i - j| ≤ block`` — a "local diffusion"
    candidate matrix used in the Theorem-1 experiments.
    """
    size = check_positive_int(size, "size")
    block = check_positive_int(block, "block")
    entries = np.zeros((size, size))
    for i in range(size):
        lo = max(0, i - block)
        hi = min(size, i + block + 1)
        entries[i, lo:hi] = 1.0 / (2 * block + 1)
    return AugmentationMatrix(entries, name=f"block(w={block})")


# --------------------------------------------------------------------------- #
# The scheme driven by a matrix + labeling
# --------------------------------------------------------------------------- #

class LabelGroups:
    """The nodes of each label, for Definition 1's uniform pick within a label.

    One stable argsort of the labels (``order``) and the end of each label's
    run in it (``bounds[j]`` = number of nodes labeled at most ``j``), so
    the nodes labeled ``j`` are ``order[bounds[j-1]:bounds[j]]``, in id
    order.  Labels lie in ``{1, …, size}``; both label schemes sample
    through one index built from their labeling.
    """

    def __init__(self, labels: np.ndarray, size: int) -> None:
        self._order = np.argsort(labels, kind="stable")
        self._bounds = np.searchsorted(
            labels[self._order], np.arange(size + 1), side="right"
        )

    def members(self, label: int) -> np.ndarray:
        """Nodes labeled *label* in id order (empty for unused labels); a view."""
        if not 1 <= label < self._bounds.size:
            return self._order[:0]
        return self._order[self._bounds[label - 1]: self._bounds[label]]

    def pick(self, labels: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """The ``⌊u·|group|⌋``-th node labeled ``j``, for each label ``j`` and uniform ``u``.

        ``NO_CONTACT`` where ``j`` is 0 (no link drawn) or no node carries it.
        """
        start = self._bounds[labels - 1]
        size = self._bounds[labels] - start
        hit = (labels > 0) & (size > 0)
        out = np.full(labels.shape, NO_CONTACT, dtype=np.int64)
        out[hit] = self._order[start[hit] + (uniforms[hit] * size[hit]).astype(np.int64)]
        return out


class MatrixScheme(AugmentationScheme):
    """Augmentation scheme defined by an :class:`AugmentationMatrix` and a labeling.

    Parameters
    ----------
    graph:
        Underlying graph.
    matrix:
        Augmentation matrix of size ``k``.
    labels:
        Array of 1-based labels in ``{1, …, k}``, one per node.  Defaults to
        the identity labeling ``L(u) = u + 1`` (which requires ``k ≥ n``).
    seed:
        Seed for the internal generator.
    """

    scheme_name = "matrix"
    uniforms_per_contact = 2  # target-label draw + uniform group-member pick

    def __init__(
        self,
        graph: Graph,
        matrix: AugmentationMatrix,
        labels: Optional[Sequence[int]] = None,
        *,
        seed: RngLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        self._matrix = matrix
        n = graph.num_nodes
        if labels is None:
            if matrix.size < n:
                raise ValueError(
                    f"identity labeling needs a matrix of size >= n = {n}, got {matrix.size}"
                )
            labels_arr = np.arange(1, n + 1, dtype=np.int64)
        else:
            labels_arr = np.asarray(list(labels), dtype=np.int64)
            if labels_arr.shape != (n,):
                raise ValueError("labels must contain exactly one entry per node")
            if labels_arr.min() < 1 or labels_arr.max() > matrix.size:
                raise ValueError(
                    f"labels must lie in [1, {matrix.size}] (matrix size); "
                    f"got range [{labels_arr.min()}, {labels_arr.max()}]"
                )
        self._labels = labels_arr
        self._groups = LabelGroups(labels_arr, matrix.size)
        # Cumulative matrix rows, one per source label, built on first use.
        self._cumulative: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    @property
    def matrix(self) -> AugmentationMatrix:
        return self._matrix

    @property
    def labels(self) -> np.ndarray:
        """1-based node labels (read-only view)."""
        view = self._labels.view()
        view.setflags(write=False)
        return view

    def nodes_with_label(self, label: int) -> np.ndarray:
        """Sorted array of nodes carrying the (1-based) *label*."""
        return self._groups.members(int(label)).copy()

    def describe(self) -> str:
        return (
            f"matrix scheme ({self._matrix.name}, k={self._matrix.size}) on "
            f"{self.graph.name} (n={self.graph.num_nodes})"
        )

    # ------------------------------------------------------------------ #

    def _cumulative_row(self, label: int) -> np.ndarray:
        row = self._cumulative.get(label)
        if row is None:
            row = np.cumsum(self._matrix.entries[label - 1])
            self._cumulative[label] = row
        return row

    # Bound in this class's own __dict__, not only inherited: the layer
    # tracer (perfbench/tracer.py) wraps ``Class.__dict__["sample_contacts"]``.
    sample_contacts = AugmentationScheme.sample_contacts

    def sample_contacts_from_uniforms(
        self, nodes: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Entry-pure matrix sampling in two vectorized stages.

        Stage 1 groups the batch by *source* label and turns ``uniforms[0]``
        into each entry's target label by ``searchsorted`` into the cached
        cumulative matrix row (values past the row's total mass are
        Definition 1's sub-stochastic residual — no link).  Stage 2 picks a
        uniform member of each target label's group with ``uniforms[1]``
        (:meth:`LabelGroups.pick`).  Each entry consumes only its own
        column, per the batch-invariance contract.
        """
        nodes = self._coerce_batch(nodes)
        uniforms = self._coerce_uniforms(nodes, uniforms)
        target_labels = np.zeros(nodes.shape, dtype=np.int64)  # 0 = no link
        source_labels = self._labels[nodes]
        for label in np.unique(source_labels).tolist():
            lanes = np.nonzero(source_labels == label)[0]
            cumulative = self._cumulative_row(int(label))
            draws = uniforms[0, lanes]
            total = float(cumulative[-1]) if cumulative.size else 0.0
            picked = np.searchsorted(cumulative, draws, side="right") + 1
            target_labels[lanes] = np.where(draws < total, picked, 0)
        return self._groups.pick(target_labels, uniforms[1])

    def contact_distribution(self, node: int) -> np.ndarray:
        node = check_node_index(node, self._graph.num_nodes)
        label = int(self._labels[node])
        row = self._matrix.entries[label - 1]
        probs = np.zeros(self._graph.num_nodes)
        for target_label, mass in enumerate(row, start=1):
            if mass <= 0:
                continue
            members = self._groups.members(target_label)
            if members.size:
                probs[members] += mass / members.size
        return probs
