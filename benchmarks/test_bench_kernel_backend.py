"""Benchmark: compiled (numba) kernels vs the numpy reference kernels.

The direct backend-vs-backend comparison the compiled-kernel work is gated
on: ring/path batched BFS level throughput and the warm batched
``next_local_pointers_many`` build, each measured under ``use_backend("numpy")``
and ``use_backend("numba")`` on the same inputs, with bitwise equality
asserted before any timing is trusted.

Rows are appended to ``BENCH_routing.json`` under two new kinds —
``bfs_kernel_compiled`` and ``next_local_compiled`` — whose
``engine_seconds`` (the compiled path's own wall time, lower is better) is
trend-gated by ``tools/check_bench_trend.py``.  The numpy-relative speedup
is gated *here* (absolute bar), not in the trend: it divides two timers, and
the trend gate deliberately avoids comparator-noise ratios.

The whole module skips when numba is not importable (the pure-python
checkout this repo must support); CI's numba leg installs the ``.[compiled]``
extra and runs it.  ``BENCH_ROUTING_FULL=1`` adds the acceptance-scale
instances (25k ring/path, 50k grid) where the issue's >= 3x bar applies.

Run the acceptance-scale comparison manually with::

    BENCH_ROUTING_FULL=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_kernel_backend.py -q -s
"""

import os
import time

import numpy as np
import pytest

from bench_recording import append_record
from repro.graphs import generators, kernels
from repro.graphs.frontier import bfs_distances_many
from repro.graphs.oracle import DistanceOracle, next_local_pointers_many

pytestmark = pytest.mark.skipif(
    "numba" not in kernels.available_backends(),
    reason="numba not installed (pip install .[compiled]); compiled-kernel benchmarks skipped",
)


def _full_mode() -> bool:
    return os.environ.get("BENCH_ROUTING_FULL", "") == "1"


def _best_of(fn, rounds: int):
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


#: (family, n, sources): smoke keeps CI fast, full adds the ROADMAP-scale
#: 25k instances the acceptance criterion speaks about.
_BFS_SMOKE = [("ring", 8192, 32), ("path", 8191, 32)]
_BFS_FULL = _BFS_SMOKE + [("ring", 25000, 64), ("path", 24999, 64)]

#: The compiled BFS step must beat the numpy per-level pipeline >= 3x on
#: high-diameter instances at every size: the numpy path pays ~10 numpy-call
#: fixed costs per level and these sweeps are thousands of levels of tiny
#: frontiers, which is exactly the regime a typed loop erases.
_BFS_GATE = 3.0

#: Warm next_local build: >= 3x at the acceptance-scale 50k grid (full
#: mode), a softer 1.5x at the 2k smoke grid where the absolute times are a
#: few hundred microseconds and fixed costs blur the ratio.
_NL_GATE_FULL = 3.0
_NL_GATE_SMOKE = 1.5


def test_bfs_levels_compiled_vs_numpy():
    """Ring/path batched BFS: numba vs numpy backends, bitwise + >= 3x."""
    kernels.get_backend("numba").warmup()  # JIT outside every timed region
    cases = _BFS_FULL if _full_mode() else _BFS_SMOKE
    results = []
    for family, n, num_sources in cases:
        graph = (
            generators.cycle_graph(n) if family == "ring" else generators.path_graph(n)
        )
        sources = list(range(0, n, max(1, n // num_sources)))[:num_sources]
        with kernels.use_backend("numpy"):
            numpy_seconds, numpy_block = _best_of(
                lambda: bfs_distances_many(graph, sources), rounds=3
            )
        with kernels.use_backend("numba"):
            numba_seconds, numba_block = _best_of(
                lambda: bfs_distances_many(graph, sources), rounds=5
            )
        np.testing.assert_array_equal(numba_block, numpy_block)
        speedup = numpy_seconds / numba_seconds if numba_seconds > 0 else float("inf")
        results.append(
            {
                "n": n,
                "family": family,
                "sources": len(sources),
                "engine_seconds": round(numba_seconds, 4),
                "numpy_seconds": round(numpy_seconds, 4),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"\ncompiled BFS on {family} n={n} ({len(sources)} sources): "
            f"numba {numba_seconds:.4f}s vs numpy {numpy_seconds:.4f}s "
            f"({speedup:.2f}x)"
        )
    with kernels.use_backend("numba"):  # stamp the backend the rows measured
        append_record(
            results,
            benchmark="bfs_kernel_compiled",
            mode="full" if _full_mode() else "smoke",
            config={
                "families": "ring/path",
                "note": "numba vs numpy backend, best of 5/3",
                "jit_warmup_seconds": round(kernels.get_backend("numba").warmup(), 3),
            },
        )
    for row in results:
        assert row["speedup"] >= _BFS_GATE, (_BFS_GATE, results)


def test_next_local_compiled_vs_numpy():
    """Warm batched next_local build: numba vs numpy backends on grids."""
    kernels.get_backend("numba").warmup()
    sides = [45, 224] if _full_mode() else [45]  # 224^2 = 50176: acceptance scale
    results = []
    for side in sides:
        graph = generators.grid_graph([side, side])
        n = graph.num_nodes
        rng = np.random.default_rng(1234)
        targets = sorted(rng.choice(n, size=min(64, n), replace=False).tolist())
        dist_block = DistanceOracle(graph).distances_to_many(targets)

        def _timed(backend):
            # One warm distance block for every round: only the hop-table
            # derivation runs under the forced backend, so the timing
            # isolates next_local_pointers_many.
            best = float("inf")
            block = None
            for _ in range(3 if backend == "numpy" else 5):
                with kernels.use_backend(backend):
                    t0 = time.perf_counter()
                    block = next_local_pointers_many(graph, dist_block)
                    best = min(best, time.perf_counter() - t0)
            return best, block

        next_local_pointers_many(graph, dist_block)  # untimed allocator warm-up
        numpy_seconds, numpy_block = _timed("numpy")
        numba_seconds, numba_block = _timed("numba")
        np.testing.assert_array_equal(numba_block, numpy_block)
        speedup = numpy_seconds / numba_seconds if numba_seconds > 0 else float("inf")
        results.append(
            {
                "n": n,
                "grid": [side, side],
                "targets": len(targets),
                "engine_seconds": round(numba_seconds, 4),
                "numpy_seconds": round(numpy_seconds, 4),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"\ncompiled next_local at n={n} ({len(targets)} targets): "
            f"numba {numba_seconds*1000:.2f}ms vs numpy {numpy_seconds*1000:.2f}ms "
            f"({speedup:.2f}x)"
        )
    with kernels.use_backend("numba"):
        append_record(
            results,
            benchmark="next_local_compiled",
            mode="full" if _full_mode() else "smoke",
            config={
                "targets": "64 seeded-random targets",
                "note": "warm batched build, numba vs numpy backend",
                "jit_warmup_seconds": round(kernels.get_backend("numba").warmup(), 3),
            },
        )
    assert results[0]["speedup"] >= _NL_GATE_SMOKE, (_NL_GATE_SMOKE, results)
    if _full_mode():
        biggest = results[-1]
        assert biggest["n"] >= 50_000
        assert biggest["speedup"] >= _NL_GATE_FULL, (_NL_GATE_FULL, results)
