"""EXP-4 — Corollary 1: trees and AT-free graphs route polylogarithmically under (M, L).

Reproduces
----------
``EXPERIMENT_ID = "EXP-4"`` — Corollary 1, which instantiates Theorem 2 on
two families:

* **trees** — treewidth 1, hence pathwidth (and pathshape) ``O(log n)`` via
  the centroid conversion, giving greedy diameter ``O(log³ n)``;
* **AT-free graphs** (the paper cites co-comparability, interval and
  permutation graphs) — constant pathlength, hence pathshape ``O(1)``, giving
  greedy diameter ``O(log² n)``.

At simulation sizes the *absolute* polylog bounds exceed ``√n`` (``log³ n``
passes ``√n`` only around ``n ≈ 10⁹``), so — as for EXP-3 — the observable
signatures are (a) the growth *exponent* of the ancestor-driven scheme on
large-diameter members of these families is far below the ``≈ 0.5`` of the
uniform scheme, and (b) the measured diameters stay within a small constant
of a polylog envelope (``c · log³ n`` resp. ``c · log² n``) across the whole
sweep, which a ``√n``-growing curve cannot do.

Tree representatives are caterpillars and spiders (diameter ``Θ(n)`` — the
regime where the claim is falsifiable); the AT-free representative is a
connected random interval graph whose exact clique-path decomposition (the
pathshape-1 witness) is handed to the scheme.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept ``n``; ``num_pairs``, ``trials`` and
``pair_strategy`` control the Monte-Carlo effort per cell; ``seed`` drives
the per-cell instance generation (random interval graphs) and routing
streams.

Cells
-----
One cell per ``(family, n)``; the instance (graph + decomposition: the exact
one for intervals, the memoised pathshape portfolio's for trees) is built
once and all three schemes share it and one :class:`DistanceOracle`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult
from repro.analysis.scaling import fit_polylog
from repro.core.matrix_label import Theorem2Scheme
from repro.core.uniform import UniformScheme
from repro.decomposition.exact import path_decomposition_of_interval_graph
from repro.experiments.common import (
    CellPayload,
    cell_payload,
    collect_series,
    derive_cell_seed,
    derive_instance_seed,
    ensure_store,
    route_point,
    run_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.exp_matrix_label import pathshape_decomposition
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.store import GraphStore

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run"]

EXPERIMENT_ID = "EXP-4"
TITLE = "Corollary 1: trees (log^3 n) and AT-free graphs (log^2 n)"
PAPER_CLAIM = (
    "The scheme of Theorem 2 yields greedy diameter O(log^3 n) on n-node trees and "
    "O(log^2 n) on AT-free graphs (Corollary 1)."
)

InstanceFactory = Callable[[int, int], object]


def _interval_instance(n: int, seed: int) -> Tuple[Graph, Dict[str, object]]:
    """Connected random interval graph plus its exact clique-path decomposition.

    The decomposition rides along as an instance *extra*, so the GraphStore
    memoises it with the graph: every scheme (and every later experiment run
    over the same instance) reuses the one exact decomposition.
    """
    graph, intervals = generators.random_interval_graph(n, seed=seed, length_scale=3.0)
    decomposition = path_decomposition_of_interval_graph(intervals)
    return graph, {"decomposition": decomposition}


def _tree_instances() -> Dict[str, InstanceFactory]:
    return {
        "tree/caterpillar": lambda n, seed: generators.caterpillar_graph(max(2, n // 2), 1),
        "tree/spider": lambda n, seed: generators.spider_graph(4, max(1, (n - 1) // 4)),
        "atfree/interval": _interval_instance,
    }


#: polylog degree asserted by the corollary for each family prefix.
_POLYLOG_DEGREE = {"tree": 3.0, "atfree": 2.0}


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """One cell per (family, n)."""
    return [(family, n) for family in _tree_instances() for n in config.effective_sizes()]


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Route the three scheme variants on one shared instance + decomposition.

    The instance (graph, oracle and — for the interval family — the exact
    clique-path decomposition) comes from the sweep-wide *store*.  The tree
    families take the portfolio decomposition EXP-3 memoises the same way,
    so both Theorem-2 variants share one
    :func:`~repro.decomposition.pathshape.estimate_pathshape` run.
    """
    cell_seed = derive_cell_seed(config.seed, EXPERIMENT_ID, family, n)
    instance_seed = derive_instance_seed(config.seed, family, n)
    entry = ensure_store(store).instance(
        family, n, instance_seed, _tree_instances()[family]
    )
    graph, oracle = entry.graph, entry.oracle
    decomposition = entry.extras.get("decomposition")
    if decomposition is None:
        decomposition = pathshape_decomposition(entry)
    schemes = [
        (
            f"ancestor_only/{family}",
            Theorem2Scheme(graph, decomposition, uniform_mixture=0.0, seed=cell_seed),
        ),
        (f"theorem2/{family}", Theorem2Scheme(graph, decomposition, seed=cell_seed)),
        (f"uniform/{family}", UniformScheme(graph, seed=cell_seed)),
    ]
    series = {
        name: route_point(
            graph, scheme, config, seed=cell_seed, oracle=oracle, pair_seed=instance_seed
        )
        for name, scheme in schemes
    }
    return cell_payload(entry, cell_seed, series)


def assemble(
    config: ExperimentConfig, cells: Dict[Tuple[str, int], CellPayload]
) -> ExperimentResult:
    """Fold cell payloads into the structured result (pure, artifact-friendly)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        parameters={"config": config},
    )
    for family in _tree_instances():
        result.add_series(collect_series(cells, family, f"ancestor_only/{family}", config))
        result.add_series(collect_series(cells, family, f"theorem2/{family}", config))
        result.add_series(collect_series(cells, family, f"uniform/{family}", config))

    # Conclusion: exponent gaps + polylog envelope ratios for the ancestor-driven scheme.
    notes = []
    for family in _tree_instances():
        prefix = family.split("/", 1)[0]
        degree = _POLYLOG_DEGREE[prefix]
        anc = result.get_series(f"ancestor_only/{family}")
        uni = result.get_series(f"uniform/{family}")
        anc_fit, uni_fit = anc.power_law(), uni.power_law()
        polylog = fit_polylog(anc.sizes, anc.values, degree) if anc.sizes else None
        if anc_fit and uni_fit and polylog:
            notes.append(
                f"{family}: exponent {anc_fit.exponent:.2f} vs uniform {uni_fit.exponent:.2f}, "
                f"log^{degree:g} envelope spread {polylog.ratio_spread:.2f}"
            )
    result.conclusion = (
        "; ".join(notes)
        + " — bounded envelope spreads and sub-sqrt(n) exponents are the finite-size signature of the "
        "corollary's polylog bounds."
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)
