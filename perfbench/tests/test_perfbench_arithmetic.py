"""The benchmark's own arithmetic, and its agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.layers import Spans, layer_metrics, uncovered_share
from perfbench.stats import (
    INF,
    percentile,
    queue_waits,
    self_times,
    supports_percentile,
)
from perfbench.tracer import Tracer, targets

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# Percentiles with failures at +inf
# --------------------------------------------------------------------------- #


def test_percentile_matches_linear_interpolation():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 90) == pytest.approx(4.6)
    assert percentile(samples, 0) == 1.0 and percentile(samples, 100) == 5.0


def test_failures_count_at_infinity():
    # 9 answered queries plus 1 failure: the failure is the largest sample.
    samples = [float(i) for i in range(1, 10)]
    assert percentile(samples, 50, failed=1) == pytest.approx(5.5)
    # p90 of 10 samples sits between the 9th and the 10th (the failure).
    assert percentile(samples, 90, failed=1) == INF
    assert percentile(samples, 80, failed=1) == pytest.approx(8.2)


def test_majority_failed_pushes_the_median_to_infinity():
    assert percentile([1.0, 2.0], 50, failed=3) == INF
    assert percentile([], 50, failed=1) == INF


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# --------------------------------------------------------------------------- #
# The batch-count rule behind p90_ms
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "batches, supported",
    [(99, False), (100, True), (101, True), (470, True), (18, False)],
)
def test_p90_needs_one_hundred_batches(batches, supported):
    assert supports_percentile(90, batches) is supported


def test_tail_rule_leaves_ten_samples_beyond_the_percentile():
    assert supports_percentile(99, 1000) and not supports_percentile(99, 999)
    assert supports_percentile(50, 20) and not supports_percentile(50, 19)


# --------------------------------------------------------------------------- #
# Self time from nested spans across two threads
# --------------------------------------------------------------------------- #


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        (0.0, 10.0, "loop", None),    # 0: outer span on the loop thread
        (1.0, 3.0, "loop", 0),        # 1: child
        (4.0, 8.0, "loop", 0),        # 2: child ...
        (5.0, 6.0, "loop", 2),        # 3: ... with its own child
        (2.0, 9.0, "worker", None),   # 4: concurrent span on another thread
        (2.5, 4.5, "worker", 4),      # 5: its child
        (6.0, 7.0, "worker", 0),      # 6: names a parent on another thread
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 5.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Two coroutines interleaved under one parent overlap in time.
    spans = [(0.0, 10.0, 0, None), (1.0, 6.0, 0, 0), (4.0, 8.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_per_thread_and_per_task(tmp_path):
    import asyncio

    tracer = Tracer()

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("frontier.leaf", leaf)
    outer = tracer.wrap("oracle.outer", lambda: wrapped_leaf())

    async def sleeper():
        await asyncio.sleep(0.01)
        return wrapped_leaf()

    wrapped_sleeper = tracer.wrap("serve.sleeper", sleeper)

    async def two_tasks():
        await asyncio.gather(wrapped_sleeper(), wrapped_sleeper())

    thread = threading.Thread(target=outer)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    asyncio.run(two_tasks())
    spans = Spans(_dumped(tracer, tmp_path))
    by_name = {}
    for i in range(len(spans)):
        by_name.setdefault(spans.name[i], []).append(i)
    (outer_i,) = by_name["oracle.outer"]
    leaves = by_name["frontier.leaf"]
    sleepers = by_name["serve.sleeper"]
    assert spans.parent[outer_i] is None
    assert [spans.parent[i] for i in leaves].count(outer_i) == 1
    # Each coroutine's leaf nests under its own task's span, never the other's.
    assert sorted(spans.parent[i] for i in leaves if spans.parent[i] != outer_i) == sorted(sleepers)
    assert all(spans.parent[i] is None for i in sleepers)
    assert spans.thread[outer_i] != spans.thread[sleepers[0]]


def _dumped(tracer: Tracer, tmp_path: Path):
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    return json.loads(path.read_text())


def test_spans_of_one_query_share_its_lane_seed(tmp_path):
    import asyncio

    def policy(source, target, nonce):
        return 100 * source + 10 * target + nonce

    hooks = {name: (pre, post) for name, _, _, pre, post in targets(policy)}
    tracer = Tracer()
    decode = tracer.wrap("serve.decode_request",
                         lambda line: json.loads(line), *hooks["serve.decode_request"])
    encode = tracer.wrap("serve.encode", lambda message: b"", *hooks["serve.encode"])

    async def submit(batcher, item):
        return item

    submit = tracer.wrap("serve.submit", submit, *hooks["serve.submit"])
    message = decode(b'{"op": "route", "source": 1, "target": 2, "nonce": 3}')
    asyncio.run(submit(None, (1, 2, policy(1, 2, 3))))
    encode({"id": 7, "seed": 123})
    decode(b'{"op": "ping"}')
    assert message["target"] == 2
    seeds = [attrs.get("seed") for *_, attrs in _dumped(tracer, tmp_path)]
    assert seeds == [123, 123, 123, None]


# --------------------------------------------------------------------------- #
# Queue wait: submit time minus the batch's route_queries time
# --------------------------------------------------------------------------- #


def test_queue_wait_is_batch_start_minus_submit():
    submits = [("a", 1.0), ("b", 1.5), ("c", 2.0), ("d", 9.0)]
    batches = [(2.5, ["a", "b"]), (4.0, ["c"])]
    # d was never batched (the run ended first) and is left out.
    assert queue_waits(submits, batches) == pytest.approx([1.5, 1.0, 2.0])


def test_queue_wait_pairs_a_repeated_id_with_its_next_batch():
    submits = [("a", 1.0), ("a", 5.0)]
    batches = [(2.0, ["a"]), (6.5, ["a"])]
    assert queue_waits(submits, batches) == pytest.approx([1.0, 1.5])


def test_serve_layer_metrics_from_spans():
    # Loop thread 0 submits three queries; sweep thread 1 routes two batches.
    rows = [
        ["serve.submit", 1.0, 3.0, 0, None, {"seed": 11}],
        ["serve.submit", 1.2, 3.0, 0, None, {"seed": 12}],
        ["serve.submit", 2.5, 5.0, 0, None, {"seed": 13}],
        ["session.route_queries", 2.0, 2.9, 1, None, {"seeds": [11, 12], "fresh": 0}],
        ["engine.route_lanes", 2.1, 2.8, 1, 3, {"lanes": 2, "lane_steps": 40}],
        ["session.route_queries", 3.0, 4.9, 1, None, {"seeds": [13], "fresh": 1}],
        ["oracle.routing_blocks", 3.0, 4.0, 1, 5, {"rows": 3}],
        ["frontier.bfs_distances_many", 3.1, 3.9, 1, 6, {"rows": 1}],
        ["serve.encode", 3.0, 3.01, 0, None, {"seed": 11}],
        ["store.instance", 0.0, 0.5, 0, None, {"built": 1}],
    ]
    m = layer_metrics(
        Spans(rows),
        window=(1.0, 6.0),
        serve={"max_batch": 4, "batcher": {"idle_flushes": 1}, "block_resets": 0,
               "client_ms": [10.0, 12.0, 30.0], "server_ms": [8.0, 9.0, 25.0]},
    )
    assert m["session.batches"] == 2
    assert m["serve.batch_size_mean"] == pytest.approx(1.5)
    assert m["serve.fill_ratio"] == pytest.approx(0.375)
    # Waits: 2.0-1.0, 2.0-1.2, 3.0-2.5 seconds.
    assert m["serve.queue_wait_ms_p50"] == pytest.approx(800.0)
    assert m["serve.transport_ms_p50"] == pytest.approx(3.0)
    assert m["frontier.bfs_rows"] == 1 and m["session.fresh_targets"] == 1
    assert m["oracle.row_hit_ratio"] == pytest.approx(2 / 3)
    assert m["engine.self_s"] == pytest.approx(0.7)
    assert m["oracle.self_s"] == pytest.approx(0.2)
    assert m["store.graph_builds"] == 1  # set-up counts even outside the window
    # Batch 1 is 0.9 s with 0.7 s covered, batch 2 is 1.9 s with 1.0 s covered.
    assert m["trace.uncovered_share"] == pytest.approx(1.1 / 2.8)
    assert set(m) == set(spec.PER_LAYER)


def test_uncovered_share_of_a_sweep():
    rows = [
        ["experiments.run_all", 0.0, 10.0, 0, None, {}],
        ["experiments.run_cell", 0.5, 9.5, 0, 0, {}],
        ["schemes.ball", 1.0, 5.0, 0, 1, {"contacts": 4}],
        ["oracle.prefetch_query", 1.5, 4.5, 0, 2, {"rows": 4}],
        ["frontier.bfs_distances_many", 2.0, 4.0, 0, 3, {"rows": 2}],
        ["decomposition.estimate_pathshape", 6.0, 9.0, 0, 1,
         {"strategy": "tree", "graph": "g"}],
        ["decomposition.min_fill_ordering", 6.5, 8.5, 0, 5, {"strategy": "min_fill"}],
    ]
    spans = Spans(rows)
    assert uncovered_share(spans, [0]) == pytest.approx(0.3)
    m = layer_metrics(spans)
    assert m["schemes.contacts_per_bfs_row"] == pytest.approx(2.0)
    assert m["decomposition.lost_share"] == pytest.approx(2 / 3)
    assert m["experiments.self_s"] == pytest.approx(3.0)


# --------------------------------------------------------------------------- #
# BENCHMARK.json is the spec module's document
# --------------------------------------------------------------------------- #


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_every_per_layer_metric_names_what_it_moves():
    for name, definition in spec.PER_LAYER.items():
        assert definition["moves"], name
        assert definition["better"] in ("higher", "lower")
    assert all(m["bound"] <= 0.25 for m in spec.END_TO_END.values())
    assert max(m["bound"] for m in spec.END_TO_END.values()) == spec.END_TO_END["setup_s"]["bound"]
