"""Shared building blocks for the experiment modules.

The experiment pipeline is *cell-based*: every experiment decomposes into
independent **cells** keyed ``(family, n)`` — one generated graph instance and
every scheme the experiment measures on it.  Each exp module exposes

* ``cell_keys(config)``     — the list of ``(family, n)`` cells of its sweep,
* ``run_cell(config, family, n)`` — compute one cell, returning a JSON-safe
  payload (this is the unit of work the
  :class:`~repro.experiments.runner.SweepExecutor` fans out over processes and
  persists as an artifact),
* ``assemble(config, cells)`` — fold the cell payloads back into an
  :class:`~repro.analysis.reporting.ExperimentResult` (pure, deterministic, so
  reports can be regenerated from artifacts alone), and
* ``run(config)``            — the classic one-call API, implemented as
  ``assemble`` over locally computed cells.

Within a cell every scheme shares a single :class:`DistanceOracle`, so the
BFS array computed for a routing target under the first scheme is a cache hit
for every other scheme.  *Across* cells — and across whole experiments — the
same pooling runs through the :class:`~repro.graphs.store.GraphStore`: graph
generation and pair sampling are seeded **per instance**
(:func:`derive_instance_seed`, a function of ``(master_seed, family, n)``
only), while schemes and Monte-Carlo trials stay seeded **per cell**
(:func:`derive_cell_seed`, which folds in the experiment id).  Two
experiments sweeping the same ``(family, n)`` therefore measure the *same
graph over the same pairs* with decorrelated randomness — so the second
experiment's BFS sweeps are all store-served cache hits — exactly the
cross-experiment redundancy the store exists to eliminate.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.reporting import SeriesResult
from repro.core.base import AugmentationScheme
from repro.experiments.config import ExperimentConfig
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.provider import DistanceProvider
from repro.graphs.store import GraphStore, StoreEntry
from repro.routing.simulator import (
    RoutingEstimate,
    estimate_expected_steps,
    estimate_greedy_diameter,
)

__all__ = [
    "GraphFactory",
    "SchemeFactory",
    "CellPayload",
    "GraphInstance",
    "derive_cell_seed",
    "derive_instance_seed",
    "ensure_store",
    "cell_payload",
    "route_point",
    "scaling_cell",
    "collect_series",
    "run_experiment",
    "standard_graph_families",
]

GraphFactory = Callable[[int, int], Graph]
#: Builds a scheme for one cell: ``(graph, seed, provider) -> scheme``.  Schemes
#: that can pool BFS work (e.g. ``BallScheme``) should pass the provider
#: through; the others simply ignore it.
SchemeFactory = Callable[[Graph, int, DistanceProvider], AugmentationScheme]
#: JSON-safe payload of one computed cell (see :func:`scaling_cell`).
CellPayload = Dict[str, object]


def derive_cell_seed(master_seed: int, experiment_id: str, family: str, n: int) -> int:
    """Deterministic per-cell seed, independent of cell execution order.

    The seed depends only on ``(master_seed, experiment_id, family, n)`` so a
    cell computes identical numbers whether it runs serially, in a process
    pool, or alone during a ``--resume`` backfill.  It drives the *random*
    parts of a cell — scheme construction and Monte-Carlo trials; graph
    generation and pair sampling use :func:`derive_instance_seed` instead so
    they are shared across experiments.
    """
    key = f"{master_seed}:{experiment_id}:{family}:{n}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def derive_instance_seed(master_seed: int, family: str, n: int) -> int:
    """Deterministic per-*instance* seed: no experiment id in the key.

    Graph generation and pair sampling are seeded with this value, so every
    experiment sweeping ``(family, n)`` under one master seed builds the
    *identical* graph and routes the *identical* pair set — which is what
    lets the :class:`~repro.graphs.store.GraphStore` serve the second and
    later experiments entirely from cache (zero graph builds, zero repeat
    BFS).  The constant ``"instance"`` tag keeps the key-space disjoint from
    :func:`derive_cell_seed`'s ``EXP-*`` experiment ids.
    """
    key = f"{master_seed}:instance:{family}:{n}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def ensure_store(store: Optional[GraphStore]) -> GraphStore:
    """Return *store*, or a private single-cell :class:`GraphStore`.

    Experiment ``run_cell`` functions accept an optional shared store (the
    sweep executor threads one through the whole run); standalone calls fall
    back to a fresh private store, which reproduces the historical
    one-graph-one-oracle-per-cell behaviour exactly.  Tests that need a
    counting oracle pass ``store=GraphStore(oracle_factory=...)``.
    """
    if store is not None:
        return store
    return GraphStore()


#: Kept as the public name of the store's entry type: experiment code reads
#: ``instance.graph`` / ``instance.oracle`` off it.
GraphInstance = StoreEntry


def standard_graph_families() -> Dict[str, GraphFactory]:
    """The graph families used as universal-scheme workloads.

    Keys are family names; values map ``(n, seed)`` to a connected graph with
    approximately ``n`` nodes.
    """

    def torus(n: int, seed: int) -> Graph:
        side = max(3, int(round(n ** 0.5)))
        return generators.torus_graph([side, side])

    return {
        "ring": lambda n, seed: generators.cycle_graph(n),
        "path": lambda n, seed: generators.path_graph(n),
        "torus2d": torus,
        "random_tree": lambda n, seed: generators.random_tree(n, seed=seed),
        "lollipop": lambda n, seed: generators.lollipop_graph(max(4, n // 8), n - max(4, n // 8)),
    }


def route_point(
    graph: Graph,
    scheme: AugmentationScheme,
    config: ExperimentConfig,
    *,
    seed: int,
    oracle: DistanceProvider,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    pair_seed: Optional[int] = None,
) -> Dict[str, object]:
    """Route one (graph, scheme) measurement point; returns a JSON-safe dict.

    With ``pairs`` the expected steps over exactly those pairs are estimated
    (the lower-bound experiments route the proofs' hard pairs); without, the
    config's pair strategy samples diameter-biased pairs — from ``pair_seed``
    when given (the per-*instance* seed, so every scheme and every experiment
    measured on one graph instance routes the identical pair set and reuses
    its BFS arrays).  Either way the shared *oracle* serves every distance
    array and the precomputed per-target ``next_local`` hop tables of the
    lane engine.
    """
    if pairs is not None:
        estimate: RoutingEstimate = estimate_expected_steps(
            graph,
            scheme,
            pairs,
            trials=config.trials,
            seed=seed,
            oracle=oracle,
        )
    else:
        estimate = estimate_greedy_diameter(
            graph,
            scheme,
            num_pairs=config.num_pairs,
            trials=config.trials,
            seed=seed,
            pair_strategy=config.pair_strategy,
            oracle=oracle,
            pair_seed=pair_seed,
        )
    return {
        "n": int(graph.num_nodes),
        "value": float(estimate.diameter),
        "mean": float(estimate.mean),
        "long_link_fraction": float(estimate.long_link_fraction),
        "failed_trials": int(estimate.failed_trials),
    }


def cell_payload(
    entry: GraphInstance,
    cell_seed: int,
    series: Dict[str, Dict[str, object]],
    *,
    family: Optional[str] = None,
) -> CellPayload:
    """Assemble the JSON-safe payload of one computed cell.

    Besides the measured ``series``, the payload records the cell seed, the
    instance seed the graph/pairs were derived from and the graph's CSR
    content fingerprint — so a persisted artifact pins down *exactly* which
    instance it measured (the same fingerprint guards the GraphStore's disk
    spill round-trip).  *family* overrides the payload's family for
    experiments whose cell families are series names (``"eps=0.5"``) sharing
    one canonical store instance (``"path"``).
    """
    return {
        "family": entry.family if family is None else str(family),
        "requested_n": int(entry.requested_n),
        "seed": int(cell_seed),
        "instance_seed": int(entry.seed),
        "graph_fingerprint": entry.fingerprint,
        "series": series,
    }


def scaling_cell(
    experiment_id: str,
    family: str,
    n: int,
    graph_factory: GraphFactory,
    scheme_factories: Dict[str, SchemeFactory],
    config: ExperimentConfig,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Compute one standard scaling cell: every scheme on one graph instance.

    The returned payload is JSON-serializable (see :func:`cell_payload`).
    The graph instance and its oracle come from *store* — the sweep executor
    passes one store across the whole run, so a ``(family, n)`` instance
    already measured by an earlier experiment is reused outright: no graph
    build, and (pairs being instance-seeded) no repeat BFS.  All schemes of
    the cell share the instance's oracle, so the second and later schemes hit
    the cached BFS arrays of the first.
    """
    cell_seed = derive_cell_seed(config.seed, experiment_id, family, n)
    instance_seed = derive_instance_seed(config.seed, family, n)
    entry = ensure_store(store).instance(
        family, n, instance_seed, graph_factory
    )
    graph, oracle = entry.graph, entry.oracle
    series: Dict[str, Dict[str, object]] = {}
    for series_name, factory in scheme_factories.items():
        scheme = factory(graph, cell_seed, oracle)
        series[series_name] = route_point(
            graph, scheme, config, seed=cell_seed, oracle=oracle, pair_seed=instance_seed
        )
    return cell_payload(entry, cell_seed, series)


def collect_series(
    cells: Dict[Tuple[str, int], CellPayload],
    family: str,
    series_name: str,
    config: ExperimentConfig,
    *,
    metadata_key: Optional[str] = "long_link_fraction",
) -> SeriesResult:
    """Fold the per-cell payloads of one ``(family, series)`` into a curve.

    Cells missing from *cells* (e.g. filtered out) are skipped, so a partial
    artifact directory still assembles into a partial-but-valid report.
    """
    series = SeriesResult(name=series_name)
    for n in config.effective_sizes():
        payload = cells.get((family, n))
        if payload is None:
            continue
        point = payload["series"].get(series_name)  # type: ignore[union-attr]
        if point is None:
            continue
        series.add(point["n"], point["value"])
        if metadata_key is not None and metadata_key in point:
            series.metadata[f"{metadata_key}_n{point['n']}"] = float(point[metadata_key])
    return series


def run_experiment(
    module,
    config: Optional[ExperimentConfig] = None,
    *,
    store: Optional[GraphStore] = None,
):
    """Default ``run()`` implementation: compute every cell locally, assemble.

    *module* is an experiment module following the cell protocol documented in
    the module docstring above.  One :class:`GraphStore` is shared across the
    experiment's cells (cells of one experiment never repeat a ``(family, n)``
    instance, but a caller-supplied *store* lets several ``run()`` calls pool
    instances the way the sweep executor does).
    """
    config = config or ExperimentConfig.full()
    store = ensure_store(store)
    cells = {
        (family, n): module.run_cell(config, family, n, store=store)
        for family, n in module.cell_keys(config)
    }
    return module.assemble(config, cells)
