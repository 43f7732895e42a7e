"""Benchmark: incremental min-fill against the full-rescan reference (``min_fill``).

Min-fill is the costly member of :func:`~repro.decomposition.pathshape.
estimate_pathshape`'s portfolio, which runs it on every graph up to 2000
nodes.  This benchmark times :func:`~repro.decomposition.elimination.
min_fill_ordering` on the 32×32 torus (n = 1024, the largest
``sweep_decompose`` size) against the test suite's full-rescan reference,
asserts that the two orderings are identical and that the incremental one is
at least 10x faster, and appends a ``min_fill`` record (``seconds``,
``speedup``) to ``BENCH_routing.json``.  ``tools/check_bench_trend.py``
gates ``seconds``, lower is better.

The reference alone takes several seconds here, so it runs once; the
incremental ordering takes the best of a few rounds::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_decomposition.py -q -s
"""

import time

from bench_recording import append_record
from repro.decomposition.elimination import min_fill_ordering
from repro.graphs import generators
from tests.decomposition.elimination_reference import reference_min_fill_ordering

_DIMS = [32, 32]
_ROUNDS = 3
_MIN_SPEEDUP = 10.0


def _timed(fn, graph):
    started = time.perf_counter()
    result = fn(graph)
    return result, time.perf_counter() - started


def test_incremental_min_fill_matches_reference_and_is_faster():
    graph = generators.torus_graph(_DIMS)
    runs = [_timed(min_fill_ordering, graph) for _ in range(_ROUNDS)]
    order = runs[0][0]
    seconds = min(elapsed for _, elapsed in runs)
    reference, reference_seconds = _timed(reference_min_fill_ordering, graph)
    assert order == reference
    speedup = reference_seconds / seconds
    print(
        f"  min_fill {graph.name}: {seconds:.3f}s incremental vs "
        f"{reference_seconds:.2f}s full rescan ({speedup:.1f}x)"
    )
    assert speedup >= _MIN_SPEEDUP, f"only {speedup:.1f}x faster than the reference"
    append_record(
        [
            {
                "n": graph.num_nodes,
                "seconds": round(seconds, 4),
                "reference_seconds": round(reference_seconds, 4),
                "speedup": round(speedup, 2),
            }
        ],
        benchmark="min_fill",
        mode="smoke",
        config={"family": "torus2d", "dims": _DIMS, "rounds": _ROUNDS},
    )
