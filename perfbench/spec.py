"""What the benchmark measures, and why: workloads and metric definitions.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics for the harness that runs the benchmark; ``perfbench/tests`` checks
that the two agree.  Each definition below records the reason it exists, so
later changes can cite a workload or a metric by name.

Shares quoted in the ``why`` texts are inclusive times of public entry
points as a share of wall time, measured on a 2-vCPU Xeon VM with the numpy
kernel backend (numba absent).
"""

from __future__ import annotations

from typing import Dict

#: The sweep experiments and serve mixes.  ``kind`` selects the runner in
#: ``perfbench/sweep.py`` or ``perfbench/serve.py``.
WORKLOADS: Dict[str, dict] = {
    "sweep_route": {
        "kind": "sweep",
        "why": (
            "Routing sweep: scheme contact sampling (ball-scheme BFS prefetch, "
            "Kleinberg's private BFS) dominates, decomposition is absent"
        ),
        # Routing is ~92% of the run: ball-scheme contact sampling alone is
        # ~73% (mostly its full-graph BFS prefetch) and Kleinberg's private
        # BFS ~13%; decomposition is 0%.  A distance-profile primitive for
        # the distance-based schemes lands here; a faster decomposition must
        # leave it unchanged.
        "only": ["EXP-1", "EXP-2", "EXP-5", "EXP-6", "EXP-7", "EXP-8"],
        "sizes": [256, 512, 1024, 2048],
        "num_pairs": 4,
        "trials": 6,
    },
    "sweep_decompose": {
        "kind": "sweep",
        "why": (
            "Decomposition sweep: estimate_pathshape and min-fill dominate at "
            "sizes below the 2000-node min-fill cutoff, routing is minor"
        ),
        # The mirror of sweep_route: estimate_pathshape is ~94% of the run
        # (min-fill ~83%), routing ~4%.  Every size stays at or below the
        # 2000-node cutoff above which min-fill is skipped.
        "only": ["EXP-3", "EXP-4"],
        "sizes": [256, 512, 1024],
        "num_pairs": 4,
        "trials": 6,
    },
    "serve_hot": {
        "kind": "serve",
        "why": (
            "Daemon on a 50k ring, every target in the 32-target warm pool: "
            "lane stepping, codec and batcher work with zero BFS"
        ),
        # Its 32-target working set sits far inside the session's
        # 256-target pinned pool, so the timed phase runs no BFS at all.
        "fresh_every": 0,
        "nominal_qps": 1400.0,
    },
    "serve_cold": {
        "kind": "serve",
        "why": (
            "Same daemon, one query in 64 targets a fresh node: every batch waits "
            "on a full ring BFS plus a hop table, the cache-miss side"
        ),
        # The only workload that misses the oracle while serving and grows
        # the pinned pool.  One fresh target per max_batch queries puts
        # exactly one in every micro-batch (batches are consecutive plan
        # blocks, see SERVE), so every batch is cold and p50 and p90 sit
        # inside one mode; the BFS cost swamps the hot path that serve_hot
        # isolates.  With a sparser share the fresh targets would fall into
        # a number of batches that depends on timing, not on the seed.
        "fresh_every": 64,
        "nominal_qps": 420.0,
    },
}

#: The daemon both serve workloads drive, and the load that drives it.  The
#: loop is closed (callers wait for replies) with 128 queries in flight over
#: 2 pipelined connections from one single-threaded process.
#:
#: ``max_batch`` is half of ``in_flight``: one batch sweeps while the other
#: fills, and a full batch flushes on its count.  So every batch holds
#: exactly 64 queries, and after the first two they are consecutive blocks
#: of the query plan.  Under the daemon's default (512, idle flushes) the
#: split between the two alternating batches is whatever the first replies
#: leave behind (99/29, 121/7, ...) and stays so for the whole run, which
#: moves p50_ms by ~10% between runs of one seed at equal throughput.
SERVE = {
    "family": "ring",
    "n": 50000,
    "scheme": "uniform",
    "warm_targets": 32,
    "max_batch": 64,
    "in_flight": 128,
    "connections": 2,
    "warmup_queries": 512,
    "verify_targets": 4,
    "verify_sample": 64,
}

#: Set-up is repeated in every run and reported as its median.
SETUP_REPEATS = {"sweep": 3, "serve": 3}

#: End-to-end metrics: what a user running a sweep or a client of the daemon
#: sees.  Every workload reports every one.  An operation is a cell for the
#: sweeps and a query for serving; a failed operation counts at +inf in the
#: percentiles.
END_TO_END: Dict[str, dict] = {
    "setup_s": {
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "definition": (
            "Median over the run's set-ups of the time from process spawn until "
            "work can start: for sweeps until run_all is called, for serving "
            "until the first route is answered (imports, graph build, "
            "open_session and the warm pool)."
        ),
    },
    "wall_s": {
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "definition": (
            "Wall time of the timed work. Sweeps: run_all plus render_markdown. "
            "Serving: first send to last reply over the fixed query set."
        ),
    },
    "qps": {
        "unit": "1/s",
        "better": "higher",
        "bound": 0.25,
        "definition": "Completed operations per second of wall_s.",
    },
    "p50_ms": {
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "definition": (
            "Median latency of an operation from submission to completion. "
            "Serving: client send to reply. Sweeps: all cells are submitted when "
            "run_all starts, so a cell's latency is its completion time."
        ),
    },
    "p90_ms": {
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "definition": (
            "90th percentile of the same latency. For serving the samples that "
            "count are micro-batches, whose queries share their fate; p90 is "
            "the highest percentile with 10 batches beyond it once a run has "
            "100 batches, and the run reports whether it had them."
        ),
    },
    "peak_rss_mb": {
        "unit": "MiB",
        "better": "lower",
        "bound": 0.1,
        "definition": (
            "Peak resident memory (VmHWM) of the process doing the work: the "
            "sweep child, or the daemon."
        ),
    },
}

#: Per-layer metrics from the traced run.  ``moves`` names the end-to-end
#: metric (and workload) a change in this layer should move; a per-layer
#: number that moves without it is a sign the layer is off the blocking path.
PER_LAYER: Dict[str, dict] = {
    # store: GraphStore.instance
    "store.graph_builds": {"unit": "count", "better": "lower",
                           "moves": "setup_s on every workload"},
    "store.build_s": {"unit": "s", "better": "lower", "moves": "setup_s on every workload"},
    # frontier: bfs_distances_many, frontier_bfs and frontier_bfs_tree as
    # called from graphs.oracle, plus bfs_distances as called from core.kleinberg
    "frontier.bfs_calls": {"unit": "count", "better": "lower",
                           "moves": "serve_cold qps/p50_ms/p90_ms, then sweep_route wall_s"},
    "frontier.bfs_rows": {"unit": "count", "better": "lower",
                          "moves": "serve_cold qps/p50_ms/p90_ms, then sweep_route wall_s; "
                                   "0 in serve_hot's timed phase"},
    "frontier.busy_s": {"unit": "s", "better": "lower",
                        "moves": "serve_cold qps/p50_ms/p90_ms, then sweep_route wall_s"},
    # oracle: prefetch, prefetch_query, routing_blocks, next_local_to_many
    "oracle.row_hit_ratio": {"unit": "ratio", "better": "higher",
                             "moves": "serve_cold qps and peak_rss_mb, then sweep_route wall_s"},
    "oracle.next_local_rows": {"unit": "count", "better": "lower",
                               "moves": "serve_cold qps and peak_rss_mb, then sweep_route wall_s"},
    "oracle.self_s": {"unit": "s", "better": "lower",
                      "moves": "serve_cold qps and peak_rss_mb, then sweep_route wall_s"},
    # schemes: sample_contacts and sample_contacts_from_uniforms per class
    "schemes.contacts": {"unit": "count", "better": "lower",
                         "moves": "sweep_route wall_s and peak_rss_mb"},
    "schemes.self_s": {"unit": "s", "better": "lower", "moves": "sweep_route wall_s"},
    "schemes.ball_s": {"unit": "s", "better": "lower", "moves": "sweep_route wall_s"},
    "schemes.kleinberg_s": {"unit": "s", "better": "lower",
                            "moves": "sweep_route wall_s and peak_rss_mb"},
    "schemes.theorem2_s": {"unit": "s", "better": "lower", "moves": "sweep_route wall_s"},
    "schemes.matrix_s": {"unit": "s", "better": "lower", "moves": "sweep_route wall_s"},
    "schemes.uniform_s": {"unit": "s", "better": "lower",
                          "moves": "sweep_route wall_s; none on serving, where draws are O(1)"},
    "schemes.contacts_per_bfs_row": {"unit": "ratio", "better": "higher",
                                     "moves": "sweep_route wall_s (0 when schemes ran no BFS)"},
    # engine: route_lanes
    "engine.lanes": {"unit": "count", "better": "higher", "moves": "serve_hot qps"},
    "engine.lane_steps": {"unit": "count", "better": "lower", "moves": "serve_hot qps and p50_ms"},
    "engine.self_s": {"unit": "s", "better": "lower",
                      "moves": "serve_hot qps and p50_ms, a minor share of sweep_route wall_s"},
    # routing: extremal_pairs, summarize, bootstrap_mean_ci
    "routing.pairs_s": {"unit": "s", "better": "lower", "moves": "sweep wall_s, a small share"},
    "routing.stats_s": {"unit": "s", "better": "lower", "moves": "sweep wall_s, a small share"},
    # decomposition: estimate_pathshape, min_fill_ordering, min_degree_ordering
    "decomposition.runs": {"unit": "count", "better": "lower", "moves": "sweep_decompose wall_s"},
    "decomposition.graphs": {"unit": "count", "better": "lower", "moves": "sweep_decompose wall_s"},
    "decomposition.busy_s": {"unit": "s", "better": "lower",
                             "moves": "sweep_decompose wall_s; ~0 elsewhere"},
    "decomposition.min_fill_s": {"unit": "s", "better": "lower", "moves": "sweep_decompose wall_s"},
    "decomposition.lost_share": {"unit": "ratio", "better": "lower",
                                 "moves": "sweep_decompose wall_s"},
    # experiments: run_all, run_cell, assemble, render_markdown
    "experiments.cells": {"unit": "count", "better": "higher", "moves": "sweep wall_s"},
    "experiments.self_s": {"unit": "s", "better": "lower", "moves": "sweep wall_s"},
    # session: RoutingSession.route_queries, info
    "session.batches": {"unit": "count", "better": "higher", "moves": "serving qps/p50_ms/p90_ms"},
    "session.sweep_ms_p50": {"unit": "ms", "better": "lower", "moves": "serving qps/p50_ms"},
    "session.sweep_ms_p90": {"unit": "ms", "better": "lower",
                             "moves": "serving p90_ms; serve_cold's p90 is its slow sweeps"},
    "session.fresh_targets": {"unit": "count", "better": "lower", "moves": "serve_cold qps/p50_ms"},
    "session.block_resets": {"unit": "count", "better": "lower", "moves": "serve_cold p90_ms"},
    # serve: decode_request, encode, MicroBatcher.submit, batcher counters
    "serve.batch_size_mean": {"unit": "count", "better": "higher", "moves": "serve_hot qps"},
    "serve.fill_ratio": {"unit": "ratio", "better": "higher", "moves": "serve_hot qps"},
    "serve.queue_wait_ms_p50": {"unit": "ms", "better": "lower", "moves": "serve_hot p50_ms"},
    "serve.queue_wait_ms_p90": {"unit": "ms", "better": "lower", "moves": "serve_hot p90_ms"},
    "serve.server_ms_p50": {"unit": "ms", "better": "lower", "moves": "serve_hot p50_ms"},
    "serve.transport_ms_p50": {"unit": "ms", "better": "lower", "moves": "serve_hot p50_ms"},
    "serve.codec_s": {"unit": "s", "better": "lower",
                      "moves": "serve_hot qps, by more than its share: codec and "
                               "sweep thread share the GIL"},
    "serve.count_flushes": {"unit": "count", "better": "lower", "moves": "serve_hot qps"},
    "serve.window_flushes": {"unit": "count", "better": "lower", "moves": "serve_hot p50_ms"},
    "serve.idle_flushes": {"unit": "count", "better": "higher", "moves": "serve_hot qps"},
    "serve.deferred_windows": {"unit": "count", "better": "lower", "moves": "serve_hot p50_ms"},
    # trace: the measurement itself
    "trace.overhead_share": {"unit": "ratio", "better": "lower",
                             "moves": "none: traced against untraced median time per operation"},
    "trace.uncovered_share": {"unit": "ratio", "better": "lower",
                              "moves": "none: share of the entry layer's time outside every "
                                       "lower layer's spans"},
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for name, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": m["unit"], "better": m["better"]}
            for name, m in PER_LAYER.items()
        ],
    }
