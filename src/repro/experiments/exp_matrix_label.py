"""EXP-3 — Theorem 2: the (M, L) scheme routes in O(min{ps(G)·log² n, √n}).

Reproduces
----------
``EXPERIMENT_ID = "EXP-3"`` — Theorem 2's upper bound.  The matrix
``M = (A + U)/2`` combines two components whose roles the proof separates
explicitly:

* the ancestor matrix ``A`` (together with the labeling ``L`` derived from a
  path decomposition) performs the dyadic landmark jumps that give
  ``O(ps(G)·log² n)`` on graphs of small pathshape,
* the uniform matrix ``U`` preserves the ``O(√n)`` universal fallback on
  graphs of large pathshape, at the cost of a factor 2.

At simulation sizes (n ≤ a few thousand) ``log² n`` is numerically *larger*
than ``√n``, so the min in the bound is attained by the √n term and the full
(M, L) scheme is expected to track the uniform scheme within a factor ≈ 2 on
every family — that is the first check.  To expose the polylog component the
experiment also runs the ancestor-only variant (``uniform_mixture = 0``): on
small-pathshape families (path, caterpillar, spider) its fitted growth
exponent must fall well below the uniform scheme's ≈ 0.5, while on the
large-pathshape control (2-D torus) it degrades — exactly the behaviour the
mixture is designed to repair.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the swept ``n``; ``num_pairs``, ``trials`` and
``pair_strategy`` control the Monte-Carlo effort per cell; ``seed`` drives
the deterministic per-cell seeding.

Cells
-----
One cell per ``(family, n)``; the three schemes (full (M, L), ancestor-only,
uniform) share the cell's graph, its path decomposition work and one
:class:`DistanceOracle` — identical per-cell pair seeds make the second and
third schemes' target-distance lookups pure cache hits.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult
from repro.core.matrix_label import Theorem2Scheme
from repro.core.uniform import UniformScheme
from repro.decomposition.pathshape import estimate_pathshape
from repro.experiments.common import (
    CellPayload,
    GraphFactory,
    cell_payload,
    collect_series,
    derive_cell_seed,
    derive_instance_seed,
    ensure_store,
    route_point,
    run_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs import generators
from repro.graphs.store import GraphStore

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run", "main"]

EXPERIMENT_ID = "EXP-3"
TITLE = "Theorem 2: the (M, L) matrix + labeling scheme"
PAPER_CLAIM = (
    "There exist a matrix M and a labeling L (from a path decomposition) such that greedy "
    "routing in (G, (M, L)) performs in O(min{ps(G) * log^2 n, sqrt(n)}) expected steps (Theorem 2)."
)


def _families() -> Dict[str, GraphFactory]:
    return {
        "path": lambda n, seed: generators.path_graph(n),
        "caterpillar": lambda n, seed: generators.caterpillar_graph(max(2, n // 2), 1),
        "spider": lambda n, seed: generators.spider_graph(4, max(1, (n - 1) // 4)),
        "torus2d": lambda n, seed: generators.torus_graph(
            [max(3, int(round(n ** 0.5)))] * 2
        ),
    }


#: families whose pathshape is polylogarithmic (the polylog branch of the bound).
SMALL_PATHSHAPE = ("path", "caterpillar", "spider")
#: control family with pathshape Θ(√n) (the √n branch of the bound).
LARGE_PATHSHAPE = ("torus2d",)


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """One cell per (family, n)."""
    return [(family, n) for family in _families() for n in config.effective_sizes()]


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Route the three scheme variants on one shared (family, n) instance.

    The path decomposition depends only on the graph, so it is memoised as an
    instance *extra* on the sweep-wide *store*: both Theorem-2 variants — and
    any later experiment over the same instance — reuse one estimate.
    """
    cell_seed = derive_cell_seed(config.seed, EXPERIMENT_ID, family, n)
    instance_seed = derive_instance_seed(config.seed, family, n)
    entry = ensure_store(store).instance(
        family, n, instance_seed, _families()[family]
    )
    graph, oracle = entry.graph, entry.oracle
    decomposition = entry.extra(
        "pathshape_decomposition", lambda: estimate_pathshape(graph).decomposition
    )
    schemes = [
        (f"theorem2/{family}", Theorem2Scheme(graph, decomposition, seed=cell_seed)),
        (
            f"ancestor_only/{family}",
            Theorem2Scheme(graph, decomposition, uniform_mixture=0.0, seed=cell_seed),
        ),
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
    for family in _families():
        result.add_series(collect_series(cells, family, f"theorem2/{family}", config))
        result.add_series(collect_series(cells, family, f"ancestor_only/{family}", config))
        result.add_series(collect_series(cells, family, f"uniform/{family}", config))

    # Check 1: the full (M, L) scheme stays within a small factor of uniform everywhere.
    worst_ratio = 0.0
    for family in _families():
        t2 = result.get_series(f"theorem2/{family}")
        uni = result.get_series(f"uniform/{family}")
        for v_t2, v_uni in zip(t2.values, uni.values):
            if v_uni > 0:
                worst_ratio = max(worst_ratio, v_t2 / v_uni)
    # Check 2: the ancestor component beats the sqrt(n) exponent on small-pathshape families.
    gaps = []
    for family in SMALL_PATHSHAPE:
        anc = result.get_series(f"ancestor_only/{family}").power_law()
        uni = result.get_series(f"uniform/{family}").power_law()
        if anc and uni:
            gaps.append((family, uni.exponent - anc.exponent))
    gap_text = ", ".join(f"{fam}: {gap:+.3f}" for fam, gap in gaps)
    result.conclusion = (
        f"(M,L) vs uniform worst-case ratio {worst_ratio:.2f} (the U component preserves the "
        f"sqrt(n) fallback within a small factor); exponent gap (uniform - ancestor-only) on "
        f"small-pathshape families: {gap_text} (the A component captures the ps(G)*log^2 n branch)."
    )
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig.full()).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
