"""Explicit Theorem-2 matrices and the per-label samplers: references for the tests.

:class:`~repro.core.matrix_label.Theorem2Scheme` never materialises its
matrix, and both label schemes sample through one label-group index.  This
module keeps what they are checked against:

* :func:`ancestor_matrix` / :func:`theorem2_matrix` build the explicit
  matrices of Theorem 2 for small ``n``, so the implicit sampler can be
  compared with Definition 1,
* the ``reference_*`` functions are the earlier per-label loops of both
  schemes — group the batch by label, look the group up in a dict, pick a
  member — which the index-based samplers must equal bitwise on the same
  uniforms.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.core.base import NO_CONTACT
from repro.core.matrix import AugmentationMatrix, MatrixScheme, uniform_matrix
from repro.core.matrix_label import Theorem2Scheme
from repro.decomposition.labeling import integer_ancestors
from repro.utils.validation import check_positive_int


def ancestor_matrix(size: int) -> AugmentationMatrix:
    """The explicit ancestor matrix ``A`` of Theorem 2 for label space ``{1, …, size}``."""
    size = check_positive_int(size, "size")
    denom = 1.0 + math.log2(size) if size > 1 else 1.0
    entries = np.zeros((size, size))
    for i in range(1, size + 1):
        for j in integer_ancestors(i, max_value=size):
            entries[i - 1, j - 1] = 1.0 / denom
    return AugmentationMatrix(entries, name="ancestor")


def theorem2_matrix(size: int) -> AugmentationMatrix:
    """The explicit matrix ``M = (A + U) / 2`` of Theorem 2 (small sizes only)."""
    a = ancestor_matrix(size).entries
    u = uniform_matrix(size).entries
    return AugmentationMatrix((a + u) / 2.0, name="theorem2")


def label_groups(labels: np.ndarray) -> Dict[int, np.ndarray]:
    """Group node indices by label: ``{label: sorted array of nodes}``."""
    groups: Dict[int, List[int]] = {}
    for node, label in enumerate(np.asarray(labels, dtype=np.int64)):
        groups.setdefault(int(label), []).append(node)
    return {label: np.array(nodes, dtype=np.int64) for label, nodes in groups.items()}


def _pick_members(
    groups: Dict[int, np.ndarray], target_labels: np.ndarray, uniforms: np.ndarray, out: np.ndarray
) -> None:
    """Per target label: the ``⌊u·|group|⌋``-th member, or nothing for label 0 / unused labels."""
    for label in np.unique(target_labels).tolist():
        if label == 0:
            continue
        candidates = groups.get(int(label))
        lanes = np.nonzero(target_labels == label)[0]
        if candidates is None or candidates.size == 0:
            continue
        picks = (uniforms[lanes] * candidates.size).astype(np.int64)
        out[lanes] = candidates[picks]


def reference_matrix_sample(
    scheme: MatrixScheme, nodes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """:meth:`MatrixScheme.sample_contacts_from_uniforms` as a loop over labels."""
    nodes = np.asarray(nodes, dtype=np.int64)
    out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
    target_labels = np.zeros(nodes.shape, dtype=np.int64)  # 0 = no link
    source_labels = scheme.labels[nodes]
    for label in np.unique(source_labels).tolist():
        lanes = np.nonzero(source_labels == label)[0]
        cumulative = np.cumsum(scheme.matrix.entries[label - 1])
        draws = uniforms[0, lanes]
        total = float(cumulative[-1]) if cumulative.size else 0.0
        picked = np.searchsorted(cumulative, draws, side="right") + 1
        target_labels[lanes] = np.where(draws < total, picked, 0)
    _pick_members(label_groups(scheme.labels), target_labels, uniforms[1], out)
    return out


def reference_matrix_distribution(scheme: MatrixScheme, node: int) -> np.ndarray:
    """:meth:`MatrixScheme.contact_distribution` over dict-held label groups."""
    groups = label_groups(scheme.labels)
    row = scheme.matrix.entries[int(scheme.labels[node]) - 1]
    probs = np.zeros(scheme.graph.num_nodes)
    for target_label, mass in enumerate(row, start=1):
        if mass <= 0:
            continue
        candidates = groups.get(target_label)
        if candidates is None or candidates.size == 0:
            continue
        probs[candidates] += mass / candidates.size
    return probs


def _denom(n: int) -> float:
    return 1.0 + math.log2(n) if n > 1 else 1.0


def reference_theorem2_sample(
    scheme: Theorem2Scheme, nodes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """:meth:`Theorem2Scheme.sample_contacts_from_uniforms` as loops over labels."""
    nodes = np.asarray(nodes, dtype=np.int64)
    n = scheme.graph.num_nodes
    out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
    uniform_mask = uniforms[0] < scheme.uniform_mixture
    out[uniform_mask] = (uniforms[1, uniform_mask] * n).astype(np.int64)
    ancestor_lanes = np.nonzero(~uniform_mask)[0]
    target_labels = np.zeros(nodes.shape, dtype=np.int64)  # 0 = no link
    source_labels = scheme.labels[nodes[ancestor_lanes]]
    for label in np.unique(source_labels).tolist():
        lanes = ancestor_lanes[source_labels == label]
        ancestors = np.asarray(integer_ancestors(label, max_value=n), dtype=np.int64)
        indices = (uniforms[1, lanes] * _denom(n)).astype(np.int64)
        in_range = indices < ancestors.size
        target_labels[lanes[in_range]] = ancestors[indices[in_range]]
    _pick_members(label_groups(scheme.labels), target_labels, uniforms[2], out)
    return out


def reference_theorem2_distribution(scheme: Theorem2Scheme, node: int) -> np.ndarray:
    """:meth:`Theorem2Scheme.contact_distribution` over dict-held label groups."""
    groups = label_groups(scheme.labels)
    n = scheme.graph.num_nodes
    mix = scheme.uniform_mixture
    probs = np.full(n, mix / n)
    for target_label in integer_ancestors(int(scheme.labels[node]), max_value=n):
        candidates = groups.get(int(target_label))
        if candidates is None or candidates.size == 0:
            continue
        probs[candidates] += (1.0 - mix) / (_denom(n) * candidates.size)
    return probs
