"""Per-layer metrics from the spans of one traced run.

The names and the end-to-end metric each should move are defined in
:data:`perfbench.spec.PER_LAYER`; this module only computes them.  Spans
are rows ``[name, start, end, thread, parent, attrs]`` as written by
:meth:`perfbench.tracer.Tracer.dump`; a span's layer is its name up to the
first dot.

Counts made at a layer's *outermost* span are the work requested of that
layer: a ``routing_blocks`` call that warms rows through ``prefetch`` asks
for its rows once, not twice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import covered_time, percentile, queue_waits, self_times

SCHEME_CLASSES = ("ball", "kleinberg", "theorem2", "matrix", "uniform")
#: Layers whose spans sit below the entry layer of a sweep or a served batch.
WORKING_LAYERS = ("store", "frontier", "oracle", "schemes", "engine", "routing", "decomposition")
_ORACLE_ENTRIES = {
    "oracle.prefetch",
    "oracle.prefetch_query",
    "oracle.routing_blocks",
    "oracle.next_local_to_many",
}


class Spans:
    """Index over one run's spans: layers, ancestry, self times."""

    def __init__(self, rows: Sequence[Sequence]) -> None:
        self.name = [r[0] for r in rows]
        self.start = [float(r[1]) for r in rows]
        self.end = [float(r[2]) for r in rows]
        self.thread = [r[3] for r in rows]
        self.parent = [r[4] for r in rows]
        self.attrs = [r[5] or {} for r in rows]
        self.layer = [n.split(".", 1)[0] for n in self.name]
        self.self_time = self_times(list(zip(self.start, self.end, self.thread, self.parent)))
        self._by_layer: Dict[str, List[int]] = {}
        self._by_name: Dict[str, List[int]] = {}
        for i, (name, layer) in enumerate(zip(self.name, self.layer)):
            self._by_layer.setdefault(layer, []).append(i)
            self._by_name.setdefault(name, []).append(i)

    def __len__(self) -> int:
        return len(self.name)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def ancestors(self, i: int):
        p = self.parent[i]
        while p is not None:
            yield p
            p = self.parent[p]

    def has_ancestor_in(self, i: int, layer: str) -> bool:
        return any(self.layer[a] == layer for a in self.ancestors(i))

    def nearest(self, i: int, name: str) -> Optional[int]:
        for a in self.ancestors(i):
            if self.name[a] == name:
                return a
        return None

    def select(self, *, layer=None, names=None, window=None) -> List[int]:
        """Indices of spans in *layer* (or named in *names*) starting inside *window*."""
        if layer is not None:
            picked = self._by_layer.get(layer, [])
        else:
            picked = sorted(i for n in names for i in self._by_name.get(n, []))
        if window is None:
            return list(picked)
        return [i for i in picked if window[0] <= self.start[i] <= window[1]]


def _sum(values: Iterable[float]) -> float:
    return float(sum(values))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _pct(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def uncovered_share(spans: Spans, entries: Sequence[int]) -> float:
    """Share of the entry spans' time that no working-layer descendant covers."""
    if not entries:
        return 0.0
    entry_set = set(entries)
    below: Dict[int, List[Tuple[float, float]]] = {i: [] for i in entries}
    for i in range(len(spans)):
        if spans.layer[i] not in WORKING_LAYERS:
            continue
        for a in spans.ancestors(i):
            if a in entry_set:
                below[a].append((spans.start[i], spans.end[i]))
                break
    total = _sum(spans.duration(i) for i in entries)
    covered = _sum(
        covered_time(below[i], (spans.start[i], spans.end[i])) for i in entries
    )
    return _ratio(total - covered, total)


def layer_metrics(
    spans: Spans,
    *,
    window: Optional[Tuple[float, float]] = None,
    serve: Optional[dict] = None,
    overhead_share: float = 0.0,
) -> Dict[str, float]:
    """Every :data:`perfbench.spec.PER_LAYER` metric of one traced run.

    *window* restricts every layer but ``store`` to spans that started in
    the timed phase (serving: the store builds the graph before traffic).
    *serve* carries what the load generator saw: ``max_batch``, the batcher
    counter deltas over the window (``batcher``), ``block_resets``, and the
    per-query ``client_ms`` / ``server_ms`` latencies.
    """
    m: Dict[str, float] = {}
    sel = spans.select

    store = sel(layer="store")
    m["store.graph_builds"] = float(sum(spans.attrs[i].get("built", 0) for i in store))
    m["store.build_s"] = _sum(spans.duration(i) for i in store if spans.attrs[i].get("built"))

    frontier = sel(layer="frontier", window=window)
    m["frontier.bfs_calls"] = float(len(frontier))
    m["frontier.bfs_rows"] = float(sum(spans.attrs[i]["rows"] for i in frontier))
    m["frontier.busy_s"] = _sum(spans.duration(i) for i in frontier)

    oracle = sel(layer="oracle", window=window)
    requested = sum(
        spans.attrs[i]["rows"]
        for i in oracle
        if spans.name[i] in _ORACLE_ENTRIES and not spans.has_ancestor_in(i, "oracle")
    )
    bfs_under_oracle = sum(
        spans.attrs[i]["rows"] for i in frontier if spans.has_ancestor_in(i, "oracle")
    )
    m["oracle.row_hit_ratio"] = (
        max(0.0, 1.0 - bfs_under_oracle / requested) if requested else 0.0
    )
    m["oracle.next_local_rows"] = float(
        sum(spans.attrs[i].get("tables", 0) for i in oracle)
        + sum(1 for i in frontier if spans.name[i] == "frontier.frontier_bfs_tree")
    )
    m["oracle.self_s"] = _sum(spans.self_time[i] for i in oracle)

    schemes = sel(layer="schemes", window=window)
    outer = [i for i in schemes if not spans.has_ancestor_in(i, "schemes")]
    contacts = sum(spans.attrs[i]["contacts"] for i in outer)
    m["schemes.contacts"] = float(contacts)
    m["schemes.self_s"] = _sum(spans.self_time[i] for i in schemes)
    for short in SCHEME_CLASSES:
        m[f"schemes.{short}_s"] = _sum(
            spans.duration(i) for i in outer if spans.name[i] == f"schemes.{short}"
        )
    rows_for_schemes = sum(
        spans.attrs[i]["rows"] for i in frontier if spans.has_ancestor_in(i, "schemes")
    )
    m["schemes.contacts_per_bfs_row"] = _ratio(contacts, rows_for_schemes)

    engine = sel(layer="engine", window=window)
    m["engine.lanes"] = float(sum(spans.attrs[i].get("lanes", 0) for i in engine))
    m["engine.lane_steps"] = float(sum(spans.attrs[i].get("lane_steps", 0) for i in engine))
    m["engine.self_s"] = _sum(spans.self_time[i] for i in engine)

    m["routing.pairs_s"] = _sum(
        spans.duration(i) for i in sel(names={"routing.extremal_pairs"}, window=window)
    )
    m["routing.stats_s"] = _sum(
        spans.duration(i)
        for i in sel(names={"routing.summarize", "routing.bootstrap_mean_ci"}, window=window)
    )

    runs = [
        i for i in sel(names={"decomposition.estimate_pathshape"}, window=window)
        if not spans.has_ancestor_in(i, "decomposition")
    ]
    busy = _sum(spans.duration(i) for i in runs)
    orderings = sel(
        names={"decomposition.min_fill_ordering", "decomposition.min_degree_ordering"},
        window=window,
    )
    lost = 0.0
    for i in orderings:
        owner = spans.nearest(i, "decomposition.estimate_pathshape")
        if owner is not None and spans.attrs[owner].get("strategy") != spans.attrs[i]["strategy"]:
            lost += spans.duration(i)
    m["decomposition.runs"] = float(len(runs))
    m["decomposition.graphs"] = float(len({spans.attrs[i].get("graph") for i in runs}))
    m["decomposition.busy_s"] = busy
    m["decomposition.min_fill_s"] = _sum(
        spans.duration(i) for i in orderings if spans.name[i] == "decomposition.min_fill_ordering"
    )
    m["decomposition.lost_share"] = _ratio(lost, busy)

    experiments = sel(layer="experiments", window=window)
    m["experiments.cells"] = float(
        sum(1 for i in experiments if spans.name[i] == "experiments.run_cell")
    )
    m["experiments.self_s"] = _sum(spans.self_time[i] for i in experiments)

    batches = sel(names={"session.route_queries"}, window=window)
    sweep_ms = [spans.duration(i) * 1000.0 for i in batches]
    serve = serve or {}
    m["session.batches"] = float(len(batches))
    m["session.sweep_ms_p50"] = _pct(sweep_ms, 50)
    m["session.sweep_ms_p90"] = _pct(sweep_ms, 90)
    m["session.fresh_targets"] = float(sum(spans.attrs[i]["fresh"] for i in batches))
    m["session.block_resets"] = float(serve.get("block_resets", 0))

    sizes = [len(spans.attrs[i]["seeds"]) for i in batches]
    mean_batch = _ratio(sum(sizes), len(sizes))
    waits_ms = [
        w * 1000.0
        for w in queue_waits(
            [(spans.attrs[i]["seed"], spans.start[i])
             for i in sel(names={"serve.submit"}, window=window)],
            [(spans.start[i], spans.attrs[i]["seeds"]) for i in batches],
        )
    ]
    client_ms = serve.get("client_ms", [])
    server_ms = serve.get("server_ms", [])
    m["serve.batch_size_mean"] = mean_batch
    m["serve.fill_ratio"] = _ratio(mean_batch, serve.get("max_batch", 0))
    m["serve.queue_wait_ms_p50"] = _pct(waits_ms, 50)
    m["serve.queue_wait_ms_p90"] = _pct(waits_ms, 90)
    m["serve.server_ms_p50"] = _pct(server_ms, 50)
    m["serve.transport_ms_p50"] = _pct([c - s for c, s in zip(client_ms, server_ms)], 50)
    m["serve.codec_s"] = _sum(
        spans.duration(i)
        for i in sel(names={"serve.decode_request", "serve.encode"}, window=window)
    )
    batcher = serve.get("batcher", {})
    for counter in ("count_flushes", "window_flushes", "idle_flushes", "deferred_windows"):
        m[f"serve.{counter}"] = float(batcher.get(counter, 0))

    entries = batches if window is not None else sel(
        names={"experiments.run_all", "experiments.render_markdown"}
    )
    m["trace.overhead_share"] = float(overhead_share)
    m["trace.uncovered_share"] = uncovered_share(spans, entries)
    return m
