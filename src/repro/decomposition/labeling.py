"""The integer level / ancestor hierarchy and the Theorem-2 node labeling ``L``.

Theorem 2 structures the labels ``1 … n`` as an infinite binary hierarchy:

* the **level** of an integer ``x ≥ 1`` is the position of its least
  significant set bit (odd integers have level 0),
* writing ``x = 2^k + Σ_{i ≥ k+1} x_i 2^i`` with ``k = level(x)``, the
  **ancestor** ``y(j)`` of ``x`` at level ``k + j`` is
  ``y(j) = 2^{k+j} + Σ_{i ≥ k+j+1} x_i 2^i`` (clear the ``j`` bits above the
  level bit, then set bit ``k + j``).  ``y(0) = x`` itself.

Given a reduced path decomposition with bags indexed ``1 … b`` along the path,
each node ``u`` appears in a consecutive interval ``I_u`` of bags; its label
``L(u)`` is the unique index in ``I_u`` of maximum level.  Uniqueness follows
from the dyadic structure: two indices of equal level ``k`` always have an
index of strictly larger level between them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.decomposition.path_decomposition import PathDecomposition
from repro.utils.validation import check_positive_int

__all__ = [
    "integer_level",
    "integer_ancestors",
    "is_ancestor",
    "max_level_in_range",
    "theorem2_labeling",
]


def integer_level(x: int) -> int:
    """Level of ``x ≥ 1``: the index of its least significant set bit."""
    x = check_positive_int(x, "x")
    return (x & -x).bit_length() - 1


def integer_ancestors(x: int, *, max_value: int) -> List[int]:
    """All ancestors of ``x`` (including ``x`` itself) that lie in ``[1, max_value]``.

    The ancestor at level ``k + j`` is obtained by clearing bits
    ``k … k+j-1`` of ``x`` and setting bit ``k + j``.  Ancestors are produced
    for every ``j ≥ 0`` whose level does not exceed the level of the largest
    power of two ``≤ max_value`` plus one, then filtered to ``[1, max_value]``.
    """
    x = check_positive_int(x, "x")
    max_value = check_positive_int(max_value, "max_value")
    k = integer_level(x)
    nu = max_value.bit_length()  # 2^(nu-1) <= max_value < 2^nu
    out: List[int] = []
    for j in range(0, nu - k + 1):
        level_bit = 1 << (k + j)
        high = (x >> (k + j + 1)) << (k + j + 1)
        y = high | level_bit
        if 1 <= y <= max_value:
            out.append(y)
    return out


def is_ancestor(ancestor: int, x: int) -> bool:
    """Whether *ancestor* is an ancestor of *x* (both ≥ 1)."""
    return ancestor in integer_ancestors(x, max_value=max(ancestor, x))


def max_level_in_range(lo: int, hi: int) -> int:
    """The unique index of maximum level in the integer interval ``[lo, hi]`` (1-based bounds).

    This is the index whose least significant set bit is highest; it is unique
    because two distinct integers with the same level ``k`` differ in a bit
    above ``k``, forcing an integer of level ``> k`` strictly between them.
    """
    lo = check_positive_int(lo, "lo")
    hi = check_positive_int(hi, "hi")
    if hi < lo:
        raise ValueError("hi must be >= lo")
    best = lo
    best_level = integer_level(lo)
    # Walk upwards: repeatedly clear the lowest set bit of (candidate) while
    # staying within range.  Equivalent to finding the highest power of two
    # dividing some integer in [lo, hi].
    for level in range(hi.bit_length(), -1, -1):
        step = 1 << level
        candidate = ((lo + step - 1) // step) * step
        if lo <= candidate <= hi and candidate >= 1:
            return candidate
    return best if best_level >= 0 else lo  # pragma: no cover - unreachable


def theorem2_labeling(
    decomposition: PathDecomposition,
    num_nodes: int,
) -> np.ndarray:
    """Node labeling ``L`` of Theorem 2.

    Parameters
    ----------
    decomposition:
        A (preferably reduced) path decomposition of the graph; its bags are
        implicitly labeled ``1 … b`` in path order.
    num_nodes:
        Number of nodes ``n`` of the graph; the paper requires ``b ≤ n`` so
        that labels fit in ``{1, …, n}``.

    Returns
    -------
    numpy.ndarray
        Array of length *num_nodes*; entry ``u`` is the 1-based label
        ``L(u) ∈ {1, …, b}`` — the index of maximum level within the interval
        of bags containing ``u``.  Several nodes may share a label when
        ``b < n``.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    b = decomposition.num_bags
    if b == 0:
        raise ValueError("decomposition has no bags")
    if b > num_nodes:
        raise ValueError(
            f"decomposition has {b} bags > n = {num_nodes}; reduce it first "
            "(the paper restricts to reduced path decompositions)"
        )
    intervals = decomposition.node_intervals()
    missing = set(range(num_nodes)) - set(intervals)
    if missing:
        raise ValueError(f"decomposition does not cover nodes {sorted(missing)[:10]}")
    labels = np.zeros(num_nodes, dtype=np.int64)
    for u, (lo, hi) in intervals.items():
        if 0 <= u < num_nodes:
            # Convert to 1-based bag indices as in the paper.
            labels[u] = max_level_in_range(lo + 1, hi + 1)
    return labels
