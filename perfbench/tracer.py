"""Outside-in layer tracing: wrap each layer's public entry points in spans.

The program itself carries no instrumentation, so a traced run replaces
the entry points listed by :func:`targets` with wrappers that record one
span per call.  A name bound with ``from ... import`` is wrapped in the
module that calls it (``bfs_distances_many`` as called from
``repro.graphs.oracle``), because rebinding it at its definition would not
reach that caller.

A span is ``[name, start, end, thread, parent, attrs]``.  ``parent`` is the
innermost open span of the same task or thread: it is tracked in a
``contextvars.ContextVar``, which asyncio copies per task and which starts
empty on every thread, so coroutines interleaved on the event loop never
nest into each other and the daemon's sweep thread starts its own tree.
``attrs`` carries the counts measured at the boundary (BFS rows, lanes,
contacts) and, on serve spans, the query's lane seed, which is what ties
the spans of one query together across threads.

Spans stay in memory until :meth:`Tracer.dump` writes them as one JSON
file at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "targets", "install"]

# --------------------------------------------------------------------------- #
# Boundary counters: ``pre(args, kwargs)`` may rewrite the call's arguments
# (a generator argument is materialised so it can be counted) and returns
# ``(args, kwargs, attrs)``; ``post(result, args, attrs)`` adds to attrs.
# --------------------------------------------------------------------------- #


def _rows_arg(index: int):
    """Count the rows requested through positional argument *index*."""

    def pre(args, kwargs):
        args = list(args)
        rows = list(args[index])
        args[index] = rows
        return tuple(args), kwargs, {"rows": len(rows)}

    return pre


def _one_row(args, kwargs):
    return args, kwargs, {"rows": 1}


def _len_arg(index: int, key: str):
    def pre(args, kwargs):
        return args, kwargs, {key: len(args[index])}

    return pre


def _contacts(args, kwargs):
    nodes = args[1]
    return args, kwargs, {"contacts": int(getattr(nodes, "size", len(nodes)))}


def _lanes_post(result, args, attrs):
    attrs["lanes"] = int(result.steps.size)
    attrs["lane_steps"] = int(result.steps.sum())


def _instance_pre(args, kwargs):
    """Count graph builds: the store calls the factory only on a miss."""
    args, kwargs = list(args), dict(kwargs)
    attrs = {"built": 0}
    positional = len(args) > 4
    factory = args[4] if positional else kwargs["graph_factory"]

    def counted(*a, **k):
        attrs["built"] = 1
        return factory(*a, **k)

    if positional:
        args[4] = counted
    else:
        kwargs["graph_factory"] = counted
    return tuple(args), kwargs, attrs


def _route_queries_pre(args, kwargs):
    session, queries = args[0], list(args[1])
    targets = {int(t) for (_, t, _) in queries}
    fresh = len(targets - set(session.warmed_targets))
    seeds = [int(q) for (_, _, q) in queries]
    return (session, queries) + tuple(args[2:]), kwargs, {"seeds": seeds, "fresh": fresh}


def _submit_pre(args, kwargs):
    return args, kwargs, {"seed": int(args[1][2])}


def _decode_post(query_seed: Callable[[int, int, int], int]):
    """Tag a decoded route request with the lane seed the daemon will give it."""

    def post(message, args, attrs):
        fields = [message.get(k, d) for k, d in (("source", None), ("target", None), ("nonce", 0))]
        if message.get("op") == "route" and all(type(f) is int for f in fields):
            attrs["seed"] = query_seed(*fields)

    return post


def _encode_post(result, args, attrs):
    message = args[0]
    if "seed" in message:
        attrs["seed"] = int(message["seed"])


def _pathshape_post(result, args, attrs):
    from repro.graphs.store import graph_fingerprint

    attrs["strategy"] = result.strategy
    attrs["graph"] = graph_fingerprint(args[0])


def _ordering_pre(strategy: str):
    def pre(args, kwargs):
        return args, kwargs, {"strategy": strategy}

    return pre


_SCHEME_CLASSES = (
    ("uniform", "repro.core.uniform", "UniformScheme"),
    ("ball", "repro.core.ball_scheme", "BallScheme"),
    ("kleinberg", "repro.core.kleinberg", "DistancePowerScheme"),
    ("matrix", "repro.core.matrix", "MatrixScheme"),
    ("theorem2", "repro.core.matrix_label", "Theorem2Scheme"),
)

_EXPERIMENT_MODULES = (
    "exp_uniform",
    "exp_name_independent",
    "exp_matrix_label",
    "exp_trees_atfree",
    "exp_label_size",
    "exp_ball_scheme",
    "exp_kleinberg",
    "exp_ball_ablation",
)


def targets(
    query_seed: Optional[Callable[[int, int, int], int]] = None,
) -> List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]]:
    """``(span name, module, attribute path, pre, post)`` for every wrapped call.

    The span name's prefix before the first dot is the layer.  With
    *query_seed* (the daemon's ``(source, target, nonce) -> seed`` policy)
    decoded route requests carry their lane seed like the later spans of
    the same query.
    """
    decode_post = _decode_post(query_seed) if query_seed is not None else None
    out = [
        ("store.instance", "repro.graphs.store", "GraphStore.instance", _instance_pre, None),
        ("frontier.bfs_distances_many", "repro.graphs.oracle", "bfs_distances_many",
         _rows_arg(1), None),
        ("frontier.frontier_bfs", "repro.graphs.oracle", "frontier_bfs", _one_row, None),
        ("frontier.frontier_bfs_tree", "repro.graphs.oracle", "frontier_bfs_tree", _one_row, None),
        ("frontier.bfs_distances", "repro.core.kleinberg", "bfs_distances", _one_row, None),
        ("oracle.prefetch", "repro.graphs.oracle", "DistanceOracle.prefetch", _rows_arg(1), None),
        ("oracle.prefetch_query", "repro.graphs.oracle", "DistanceOracle.prefetch_query",
         _rows_arg(1), None),
        ("oracle.routing_blocks", "repro.graphs.oracle", "DistanceOracle.routing_blocks",
         _rows_arg(1), None),
        ("oracle.next_local_to_many", "repro.graphs.oracle", "DistanceOracle.next_local_to_many",
         _rows_arg(1), None),
        # Hop-table builds, called from the oracle's own methods: counted as
        # oracle work (their rows are ``oracle.next_local_rows``).
        ("oracle.next_local_pointers_many", "repro.graphs.oracle", "next_local_pointers_many",
         _len_arg(1, "tables"), None),
        ("oracle.next_local_pointers", "repro.graphs.oracle", "next_local_pointers",
         lambda a, k: (a, k, {"tables": 1}), None),
        ("engine.route_lanes", "repro.routing.simulator", "route_lanes", None, _lanes_post),
        ("routing.extremal_pairs", "repro.routing.simulator", "extremal_pairs", None, None),
        ("routing.summarize", "repro.routing.simulator", "summarize", None, None),
        ("routing.bootstrap_mean_ci", "repro.routing.statistics", "bootstrap_mean_ci", None, None),
        ("decomposition.estimate_pathshape", "repro.core.matrix_label", "estimate_pathshape",
         None, _pathshape_post),
        ("decomposition.estimate_pathshape", "repro.experiments.exp_matrix_label",
         "estimate_pathshape", None, _pathshape_post),
        ("decomposition.min_fill_ordering", "repro.decomposition.pathshape", "min_fill_ordering",
         _ordering_pre("min_fill"), None),
        ("decomposition.min_degree_ordering", "repro.decomposition.pathshape",
         "min_degree_ordering", _ordering_pre("min_degree"), None),
        ("experiments.run_all", "repro.experiments.runner", "run_all", None, None),
        ("experiments.render_markdown", "repro.experiments.runner", "render_markdown", None, None),
        ("session.route_queries", "repro.session", "RoutingSession.route_queries",
         _route_queries_pre, None),
        ("session.info", "repro.session", "RoutingSession.info", None, None),
        ("serve.decode_request", "repro.serve.protocol", "decode_request", None, decode_post),
        ("serve.encode", "repro.serve.protocol", "encode", None, _encode_post),
        ("serve.submit", "repro.serve.batcher", "MicroBatcher.submit", _submit_pre, None),
    ]
    for short, module, cls in _SCHEME_CLASSES:
        for method in ("sample_contacts", "sample_contacts_from_uniforms"):
            out.append((f"schemes.{short}", module, f"{cls}.{method}", _contacts, None))
    for name in _EXPERIMENT_MODULES:
        module = f"repro.experiments.{name}"
        out.append(("experiments.run_cell", module, "run_cell", None, None))
        out.append(("experiments.assemble", module, "assemble", None, None))
    return out


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.spans: List[list] = []

    def wrap(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        """Return *fn* wrapped so that every call records a span called *name*."""
        clock, current, spans = time.perf_counter, self._current, self.spans

        def enter(args, kwargs):
            attrs = None
            if pre is not None:
                args, kwargs, attrs = pre(args, kwargs)
            record = [name, clock(), None, threading.get_ident(), current.get(), attrs]
            spans.append(record)
            return record, current.set(record), args, kwargs

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token, args, kwargs = enter(args, kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    current.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token, args, kwargs = enter(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                current.reset(token)
            if post is not None:
                if record[5] is None:
                    record[5] = {}
                post(result, args, record[5])
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as JSON: parents become indices, threads small ints."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        rows = []
        for name, start, end, thread, parent, attrs in self.spans:
            rows.append(
                [
                    name,
                    start,
                    end if end is not None else start,
                    threads.setdefault(thread, len(threads)),
                    index.get(id(parent)) if parent is not None else None,
                    attrs,
                ]
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, separators=(",", ":"))


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, query_seed=None) -> None:
    """Wrap every entry point of :func:`targets` in place."""
    for name, module_name, path, pre, post in targets(query_seed):
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, pre, post))
