"""Benchmark: vectorized frontier BFS engine vs. the legacy deque BFS.

Measures the batched multi-row sweep (``bfs_distances_many``) against the
equivalent sequence of legacy pure-Python BFS calls on a mid-size grid, and
asserts both the correctness contract (bitwise-identical distance blocks) and
the performance contract (the engine must win by a wide margin — the issue's
acceptance bar is 10x on an n=50k grid; the smaller benchmark size here keeps
the suite fast while still exercising the same code paths).

``test_high_diameter_direction_optimized`` adds the ring/path rows the
direction-optimizing engine targets: batched sweeps on high-diameter
instances, measured against both the legacy BFS (recorded to
``BENCH_routing.json`` under the ``bfs_engine_highdiam`` kind;
``tools/check_bench_trend.py`` trend-gates the kind's ``engine_seconds``,
the speedup ratio is informational) and the pre-direction-
optimizing engine (the CSR top-down kernel, still in the code as the
hub-graph fallback), with a >= 2x acceptance gate on the latter.

``test_narrow_sweeps_scalar_run`` times sweeps from one to four sources on
rings and paths, whose every level is narrow, against the same engine with
those levels forced onto the padded kernel (>= 2x gate).  No release runs
that comparator, so its ratio is the run's margin over the padded kernel,
not a gain over earlier code; the ``bfs_narrow`` rows' ``engine_seconds``,
trend-gated, are the regression guard.

The deque reference comes from the test suite, so run this file from the
repository root; the acceptance-scale comparison runs manually with::

    PYTHONPATH=src:. python benchmarks/test_bench_bfs_engine.py
"""

import os
import time

import numpy as np
import pytest

from bench_recording import append_record
from repro.graphs import frontier as frontier_module
from repro.graphs import generators, kernels
from repro.graphs.frontier import bfs_distances_many
from tests.graphs.bfs_reference import legacy_bfs_distances

#: Benchmark-size graph: large enough that the vectorized sweep dominates,
#: small enough for the default test run.  (~10k nodes)
_DIMS = [100, 100]
_NUM_SOURCES = 32


def _sources(graph):
    step = max(1, graph.num_nodes // _NUM_SOURCES)
    return list(range(0, graph.num_nodes, step))[:_NUM_SOURCES]


@pytest.fixture(scope="module")
def bench_graph():
    return generators.grid_graph(_DIMS)


@pytest.mark.benchmark(group="bfs-engine")
def test_frontier_engine_batched(benchmark, bench_graph):
    sources = _sources(bench_graph)
    block = benchmark.pedantic(
        bfs_distances_many, args=(bench_graph, sources), iterations=1, rounds=3
    )
    assert block.shape == (len(sources), bench_graph.num_nodes)


@pytest.mark.benchmark(group="bfs-engine")
def test_legacy_deque_reference(benchmark, bench_graph):
    sources = _sources(bench_graph)

    def run_legacy():
        return [legacy_bfs_distances(bench_graph, s) for s in sources]

    legacy = benchmark.pedantic(run_legacy, iterations=1, rounds=1)
    # Correctness contract: the engine's block is bitwise identical.
    block = bfs_distances_many(bench_graph, sources)
    for row, arr in enumerate(legacy):
        np.testing.assert_array_equal(block[row], arr)


def test_engine_beats_legacy(bench_graph):
    """The batched engine must beat the legacy loop by a wide margin."""
    import time

    sources = _sources(bench_graph)
    t0 = time.perf_counter()
    block = bfs_distances_many(bench_graph, sources)
    t_engine = time.perf_counter() - t0
    t0 = time.perf_counter()
    legacy = [legacy_bfs_distances(bench_graph, s) for s in sources]
    t_legacy = time.perf_counter() - t0
    for row, arr in enumerate(legacy):
        np.testing.assert_array_equal(block[row], arr)
    # 10x is the acceptance bar at n=50k; at this size the margin is smaller
    # but must still be decisive.
    assert t_engine * 5 < t_legacy, (
        f"frontier engine {t_engine:.3f}s not clearly faster than legacy {t_legacy:.3f}s"
    )


#: High-diameter instances: (family, n, batched sources).  Smoke keeps CI
#: fast; BENCH_ROUTING_FULL=1 runs the ROADMAP-scale 25k instances.
_HIGHDIAM_SMOKE = [("ring", 8192, 32), ("path", 8191, 32)]
_HIGHDIAM_FULL = [("ring", 8192, 32), ("path", 8191, 32), ("ring", 25000, 64), ("path", 24999, 64)]


def _highdiam_graph(family: str, n: int):
    return generators.cycle_graph(n) if family == "ring" else generators.path_graph(n)


def _pre_direction_optimized(graph, sources):
    """The committed pre-PR engine: CSR top-down only, no direction switch.

    The CSR gather kernel is still in the engine as the hub-graph fallback;
    forcing the knobs (on a fresh graph, so no memoised pad leaks in) runs
    exactly the old per-level pass, giving an in-process baseline that is
    robust to machine speed.
    """
    saved = {
        name: getattr(frontier_module, name)
        for name in ("_PAD_SLOT_BLOWUP", "_BOTTOM_UP_RATIO")
    }
    frontier_module._PAD_SLOT_BLOWUP = -1.0
    frontier_module._BOTTOM_UP_RATIO = 0
    try:
        return bfs_distances_many(graph, sources)
    finally:
        for name, value in saved.items():
            setattr(frontier_module, name, value)


def test_high_diameter_direction_optimized():
    """Ring/path batched BFS: record vs legacy, gate >= 2x vs the old engine.

    Pinned to the numpy kernel backend: this is a *generational* comparison
    (direction-optimizing numpy engine vs the pre-PR numpy engine), and its
    ``bfs_engine_highdiam`` trend rows were all measured on numpy.  A
    compiled backend would speed up the engine side only, turning the gate
    into a backend comparison — that comparison has its own rows and gates
    in ``test_bench_kernel_backend.py``.
    """
    with kernels.use_backend("numpy"):
        _run_high_diameter_cases()


def _run_high_diameter_cases():
    cases = (
        _HIGHDIAM_FULL
        if os.environ.get("BENCH_ROUTING_FULL", "") == "1"
        else _HIGHDIAM_SMOKE
    )
    results = []
    for family, n, num_sources in cases:
        sources = list(range(0, n, max(1, n // num_sources)))[:num_sources]
        engine_best = baseline_best = float("inf")
        engine_block = baseline_block = None
        # Best of 5: on a single-core VM one slow round is common, and the
        # trend gate compares engine_seconds against the committed-epoch
        # median, so the measurement must reach the machine's floor
        # reliably, not by luck.
        for _ in range(5):
            graph = _highdiam_graph(family, n)  # fresh: no memoised pad
            t0 = time.perf_counter()
            baseline_block = _pre_direction_optimized(graph, sources)
            baseline_best = min(baseline_best, time.perf_counter() - t0)
            graph.derived_cache().clear()
            t0 = time.perf_counter()
            engine_block = bfs_distances_many(graph, sources)
            engine_best = min(engine_best, time.perf_counter() - t0)
        np.testing.assert_array_equal(engine_block, baseline_block)
        # Legacy comparator: best of 3 passes over an 8-source sample, scaled
        # to the full batch.  A single pass makes the recorded speedup ratio
        # hostage to comparator noise (the trend gate itself watches
        # engine_seconds, not this ratio).
        legacy_best = float("inf")
        legacy = None
        for _ in range(3):
            t0 = time.perf_counter()
            legacy = [legacy_bfs_distances(graph, s) for s in sources[:8]]
            legacy_best = min(legacy_best, time.perf_counter() - t0)
        legacy_seconds = legacy_best * (len(sources) / 8)
        for row, arr in enumerate(legacy):
            np.testing.assert_array_equal(engine_block[row], arr)
        baseline_speedup = baseline_best / engine_best
        results.append(
            {
                "n": n,
                "family": family,
                "sources": len(sources),
                "engine_seconds": round(engine_best, 4),
                "baseline_seconds": round(baseline_best, 4),
                "baseline_speedup": round(baseline_speedup, 2),
                "legacy_seconds": round(legacy_seconds, 4),
                "speedup": round(legacy_seconds / engine_best, 2),
            }
        )
        print(
            f"\nbatched BFS on {family} n={n} ({len(sources)} sources): "
            f"engine {engine_best:.4f}s, pre-PR engine {baseline_best:.4f}s "
            f"({baseline_speedup:.2f}x), legacy ~{legacy_seconds:.3f}s "
            f"({legacy_seconds / engine_best:.1f}x)"
        )
    append_record(
        results,
        benchmark="bfs_engine_highdiam",
        mode="full" if os.environ.get("BENCH_ROUTING_FULL", "") == "1" else "smoke",
        config={"families": "ring/path", "note": "batched sweep, best of 5"},
    )
    # The issue's acceptance bar: the direction-optimizing engine must beat
    # the committed pre-PR engine by >= 2x on every high-diameter instance.
    for row in results:
        assert row["baseline_speedup"] >= 2.0, results


#: Narrow sweeps: (family, n, sources, rounds).  One source, or four spread
#: round a ring, keep every frontier at two to eight keys, so each sweep is
#: one long scalar run.  Each row has its own n, since the trend gate keys
#: rows by n.  The padded comparator makes the 50k rows slow, so they get
#: two rounds; the cheap four-source row gets five, so its ~10 ms
#: ``engine_seconds`` reaches the host's floor for the trend gate.
_NARROW_CASES = [
    ("ring", 50000, [0], 2),
    ("path", 49999, [24999], 2),
    ("ring", 8192, [0, 2048, 4096, 6144], 5),
]


def _narrow_levels_padded(graph, sources):
    """The same engine with every narrow level forced onto the padded kernel."""
    saved = frontier_module._SPARSE_FRONTIER
    frontier_module._SPARSE_FRONTIER = 0
    try:
        return bfs_distances_many(graph, sources)
    finally:
        frontier_module._SPARSE_FRONTIER = saved


def test_narrow_sweeps_scalar_run():
    """Ring/path sweeps of 1-4 sources: record, and gate >= 2x vs the padded kernel.

    Pinned to the numpy backend, whose narrow levels are the scalar run; the
    comparator is the padded kernel the same sweep would otherwise run on
    every level.  That configuration is not what any earlier engine ran
    (narrow levels used to go through a per-level scalar loop), so the ratio
    does not measure the gain over earlier code, and it moves whenever the
    padded kernel does.  The regression guard is the ``engine_seconds`` of
    the ``bfs_narrow`` rows in ``BENCH_routing.json``, which the trend gate
    compares against the committed baseline.
    """
    with kernels.use_backend("numpy"):
        results = []
        for family, n, sources, rounds in _NARROW_CASES:
            graph = _highdiam_graph(family, n)
            bfs_distances_many(graph, sources)  # builds the padded table
            engine_best = padded_best = float("inf")
            # Interleaved, so a slow spell of the host hits both sides.
            for _ in range(rounds):
                t0 = time.perf_counter()
                padded = _narrow_levels_padded(graph, sources)
                padded_best = min(padded_best, time.perf_counter() - t0)
                t0 = time.perf_counter()
                block = bfs_distances_many(graph, sources)
                engine_best = min(engine_best, time.perf_counter() - t0)
            np.testing.assert_array_equal(block, padded)
            for row in {0, len(sources) - 1}:
                np.testing.assert_array_equal(
                    block[row], legacy_bfs_distances(graph, sources[row])
                )
            results.append(
                {
                    "n": n,
                    "family": family,
                    "sources": len(sources),
                    "engine_seconds": round(engine_best, 4),
                    "padded_seconds": round(padded_best, 4),
                    "padded_speedup": round(padded_best / engine_best, 2),
                }
            )
            print(
                f"\nnarrow BFS on {family} n={n} ({len(sources)} sources): "
                f"engine {engine_best:.4f}s, padded kernel {padded_best:.4f}s "
                f"({padded_best / engine_best:.2f}x)"
            )
    append_record(
        results,
        benchmark="bfs_narrow",
        mode="smoke",
        config={"families": "ring/path", "note": "1-4 sources, best of 2 (n=8192: 5)"},
    )
    for row in results:
        assert row["padded_speedup"] >= 2.0, results


def main():  # pragma: no cover - manual acceptance run
    import time

    graph = generators.grid_graph([224, 224])  # n = 50176
    sources = list(range(0, graph.num_nodes, graph.num_nodes // 64))[:64]
    t0 = time.perf_counter()
    block = bfs_distances_many(graph, sources)
    t_engine = time.perf_counter() - t0
    t0 = time.perf_counter()
    legacy = [legacy_bfs_distances(graph, s) for s in sources]
    t_legacy = time.perf_counter() - t0
    identical = all(np.array_equal(block[i], arr) for i, arr in enumerate(legacy))
    print(
        f"n={graph.num_nodes} sources={len(sources)}: engine {t_engine:.3f}s, "
        f"legacy {t_legacy:.3f}s, speedup {t_legacy / t_engine:.1f}x, identical={identical}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
