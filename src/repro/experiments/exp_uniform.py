"""EXP-1 — the uniform scheme is universal with greedy diameter O(√n) (Peleg's bound).

Reproduces
----------
``EXPERIMENT_ID = "EXP-1"``.  The paper recalls (Introduction) that giving
every node a uniformly random long-range contact makes *every* n-node graph
``O(√n)``-navigable.  The experiment sweeps graph families and sizes,
estimates the greedy diameter of ``(G, φ_unif)`` and fits the growth
exponent: it should be at most ≈ 0.5 everywhere, and very close to 0.5 on
the 1-dimensional families (ring, path) where the bound is tight.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept ``n`` (one sweep cell per
``(family, n)``); ``num_pairs``, ``trials`` and ``pair_strategy`` control the
Monte-Carlo effort per cell; ``seed`` drives the deterministic per-cell
seeding (see :func:`repro.experiments.common.derive_cell_seed`).

Cells
-----
One cell per ``(family, n)`` over :func:`standard_graph_families`; the single
uniform scheme shares the cell's :class:`DistanceOracle` with the routing
simulator.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult
from repro.core.uniform import UniformScheme
from repro.experiments.common import (
    CellPayload,
    collect_series,
    run_experiment,
    scaling_cell,
    standard_graph_families,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs.store import GraphStore

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run", "main"]

EXPERIMENT_ID = "EXP-1"
TITLE = "Uniform scheme: O(sqrt(n)) universal upper bound"
PAPER_CLAIM = (
    "For any n-node graph G, greedy routing in (G, phi_unif) performs in O(sqrt(n)) "
    "expected steps (Peleg's observation, Section 1)."
)


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """One cell per (family, n)."""
    return [
        (family, n)
        for family in standard_graph_families()
        for n in config.effective_sizes()
    ]


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Route the uniform scheme on one (family, n) graph instance.

    *store* is the sweep-wide :class:`GraphStore`; when another experiment
    already measured this ``(family, n)`` instance the cell reuses its graph
    and warmed oracle outright.
    """
    factory = standard_graph_families()[family]
    return scaling_cell(
        EXPERIMENT_ID,
        family,
        n,
        factory,
        {f"uniform/{family}": lambda graph, seed, oracle: UniformScheme(graph, seed=seed)},
        config,
        store=store,
    )


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
    for family in standard_graph_families():
        result.add_series(collect_series(cells, family, f"uniform/{family}", config))
    exponents = {
        s.name: s.power_law().exponent for s in result.series if s.power_law() is not None
    }
    worst = max(exponents.values()) if exponents else float("nan")
    result.conclusion = (
        f"largest fitted exponent {worst:.3f}; the paper's O(sqrt(n)) bound predicts "
        "exponents <= 0.5 (up to sampling noise), tight on ring/path."
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig.full()).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
