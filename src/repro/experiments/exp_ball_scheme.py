"""EXP-6 — Theorem 4: the ball scheme beats the √n barrier (Õ(n^{1/3})).

Reproduces
----------
``EXPERIMENT_ID = "EXP-6"`` — the paper's main result (Theorem 4): the
a-posteriori scheme that picks a level ``k`` uniformly in
``{1, …, ⌈log n⌉}`` and a contact uniform in ``B(u, 2^k)`` gives greedy
diameter ``Õ(n^{1/3})`` on *every* graph.

The experiment runs the ball scheme and the uniform scheme side by side on
the standard families and compares fitted exponents: the ball scheme's
exponent should sit clearly below the uniform scheme's on the 1-dimensional
families (where uniform is Θ(√n)), approaching 1/3 up to polylog corrections.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept ``n``; ``num_pairs``, ``trials`` and
``pair_strategy`` control the Monte-Carlo effort per cell; ``seed`` drives
the deterministic per-cell seeding.

Cells
-----
One cell per ``(family, n)``; *both* schemes and the routing simulator pool
one :class:`DistanceOracle` per cell — the ball scheme's ``B(u, 2^k)``
lookups reuse the BFS arrays the simulator computed for the routing targets
(and vice versa), which is the pipeline's biggest BFS saving.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult
from repro.core.ball_scheme import BallScheme
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

EXPERIMENT_ID = "EXP-6"
TITLE = "Theorem 4: ball scheme achieves ~n^(1/3) greedy diameter"
PAPER_CLAIM = (
    "There exists a universal augmentation scheme phi such that greedy routing in (G, phi) "
    "performs in O~(n^(1/3)) expected steps for every n-node graph G (Theorem 4)."
)

#: families where the uniform scheme is essentially tight at sqrt(n), making
#: the comparison against n^(1/3) meaningful.
_ONE_DIMENSIONAL = ("ring", "path", "lollipop")


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
    """Route the ball and uniform schemes on one shared (family, n) instance.

    *store* is the sweep-wide :class:`GraphStore`: the instance (and every
    BFS array another experiment already computed on it) is reused outright.
    """
    factory = standard_graph_families()[family]
    return scaling_cell(
        EXPERIMENT_ID,
        family,
        n,
        factory,
        {
            f"ball/{family}": lambda graph, seed, oracle: BallScheme(
                graph, seed=seed, oracle=oracle
            ),
            f"uniform/{family}": lambda graph, seed, oracle: UniformScheme(graph, seed=seed),
        },
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
        result.add_series(collect_series(cells, family, f"ball/{family}", config))
        result.add_series(collect_series(cells, family, f"uniform/{family}", config))
    gaps = []
    for family_name in _ONE_DIMENSIONAL:
        try:
            ball_fit = result.get_series(f"ball/{family_name}").power_law()
            uniform_fit = result.get_series(f"uniform/{family_name}").power_law()
        except KeyError:
            continue
        if ball_fit and uniform_fit:
            gaps.append((family_name, uniform_fit.exponent - ball_fit.exponent))
    gap_text = ", ".join(f"{fam}: {gap:+.3f}" for fam, gap in gaps)
    result.conclusion = (
        "exponent gap (uniform - ball) on sqrt(n)-hard families: "
        f"{gap_text}; Theorem 4 predicts a positive gap approaching 1/2 - 1/3 = 1/6 "
        "(modulo polylog factors)."
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig.full()).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
