"""Counter-based uniform variates: the routing engine's only source of randomness.

Every routing lane carries a 64-bit ``lane_seed``; the uniforms it consumes
at step ``s`` are a pure hash of ``(lane_seed, s, variate index)`` — no
shared stream, no state, no order dependence.  A lane's trajectory is
therefore a function of ``(graph, scheme, lane_seed)`` alone: the same
``(source, target, seed)`` query walks the same route whether it is served
alone or micro-batched with a thousand strangers, and a Monte-Carlo
estimate's lane ``l`` walks the same route whichever other pairs share its
sweep.

Estimates derive their lane seeds with :func:`lane_seeds` (the splitmix64
stream of the estimate's integer seed, one output per lane index); the
serve layer derives one seed per query from its session seed.

The hash is splitmix64's finalizer (Steele, Lea & Flood's SplittableRandom /
xorshift-family mixing step), applied twice with the golden-ratio increment to
decorrelate the seed from the counter.  It is vectorized over numpy ``uint64``
arrays (wrapping arithmetic) and converts to doubles the standard way: keep
the top 53 bits, scale by ``2^-53`` — uniforms lie in ``[0, 1)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_UNIFORM_ROWS", "mix64", "lane_seeds", "lane_step_uniforms"]

#: Upper bound on the per-step variate rows a scheme may request
#: (:attr:`~repro.core.base.AugmentationScheme.uniforms_per_contact`).  The
#: step counter is multiplied by this stride so every (step, row) pair maps to
#: a distinct hash input.
MAX_UNIFORM_ROWS: int = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53
_MASK_64 = (1 << 64) - 1


def mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a ``uint64`` array."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _SHIFT_30
    x *= _MIX_1
    x ^= x >> _SHIFT_27
    x *= _MIX_2
    x ^= x >> _SHIFT_31
    return x


def lane_seeds(seed: int, count: int) -> np.ndarray:
    """``count`` lane seeds: the first outputs of splitmix64 seeded with *seed*.

    ``out[l]`` is a pure function of ``(seed, l)`` (*seed* taken modulo
    ``2^64``), so the lanes an estimate shares with a longer one — the same
    seed, the first ``count`` lane indices — get the same seeds.
    """
    state = np.uint64(int(seed) & _MASK_64)
    return mix64(state + np.arange(1, int(count) + 1, dtype=np.uint64) * _GOLDEN)


def lane_step_uniforms(seeds: np.ndarray, steps: np.ndarray, rows: int) -> np.ndarray:
    """Uniforms in ``[0, 1)`` for each (lane, step): shape ``(rows, *shape)``.

    *steps* broadcasts against *seeds*, and ``shape`` is their broadcast
    shape.  One step per lane gives ``(rows, len(seeds))``; a ``(B, 1)``
    column of steps gives ``(rows, B, len(seeds))``, a block of ``B`` steps
    of every lane in one call.  Each entry is a pure function of its
    ``(seed, step, row)`` — the batch-invariance contract — so a block's
    ``[:, b, :]`` equals the per-step call at ``steps[b]`` bitwise.  *rows*
    is the scheme's ``uniforms_per_contact`` and must not exceed
    :data:`MAX_UNIFORM_ROWS`.
    """
    if not 1 <= rows <= MAX_UNIFORM_ROWS:
        raise ValueError(f"rows must lie in [1, {MAX_UNIFORM_ROWS}], got {rows}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.asarray(steps).astype(np.uint64) * np.uint64(MAX_UNIFORM_ROWS)
    out = np.empty((rows,) + np.broadcast_shapes(counters.shape, seeds.shape), dtype=np.float64)
    for j in range(rows):
        # Two finalizer rounds: one keyed by the (step, row) counter, one by
        # the lane seed xor'd with it — the golden-ratio stride keeps nearby
        # counters far apart in hash space.
        h = mix64(seeds ^ mix64((counters + np.uint64(j + 1)) * _GOLDEN))
        out[j] = (h >> _SHIFT_11) * _TO_UNIT
    return out
