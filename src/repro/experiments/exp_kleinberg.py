"""EXP-7 — context: Kleinberg's harmonic scheme on the 2-D torus (reference [13]).

Reproduces
----------
``EXPERIMENT_ID = "EXP-7"``.  The paper's framework descends from
Kleinberg's small-world model: on the d-dimensional mesh, links drawn with
probability ``∝ dist^{-r}`` make greedy routing polylogarithmic exactly at
``r = d``, and polynomially slow for any other exponent.  The paper cites
this as the canonical *class-specific* scheme that its universal schemes
generalise away from.

This experiment reproduces the familiar U-shaped exponent-sensitivity curve
on the 2-D torus (sweep ``r ∈ {0, 1, 2, 3, 4}`` at a fixed size, plus a size
sweep at ``r = 2``).  It is primarily a calibration of the routing engine:
if the classic curve comes out wrong, none of the other experiments can be
trusted.

Configuration knobs
-------------------
``sizes`` / ``max_size`` set the size sweep (the sensitivity sweep runs at
the largest effective size); ``num_pairs``, ``trials`` and ``pair_strategy``
control the Monte-Carlo effort per cell; ``seed`` drives the per-cell
seeding.

Cells
-----
One ``("exponent sweep", n_max)`` cell routing all five exponents on a
single torus through one shared :class:`DistanceOracle` (five schemes, one
BFS working set), plus one ``("size sweep", n)`` cell per size routing both
the critical ``r = 2`` and the ``r = 0`` control on the same torus instance.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ExperimentResult, SeriesResult
from repro.core.kleinberg import DistancePowerScheme
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
from repro.graphs import generators
from repro.graphs.store import GraphStore

__all__ = ["EXPERIMENT_ID", "TITLE", "PAPER_CLAIM", "cell_keys", "run_cell", "assemble", "run"]

EXPERIMENT_ID = "EXP-7"
TITLE = "Kleinberg harmonic scheme on the 2-D torus (routing-engine calibration)"
PAPER_CLAIM = (
    "d-dimensional meshes are O(log^2 n)-navigable with the distance-power exponent r = d, "
    "and only then (Kleinberg [13], recalled in Section 1)."
)

EXPONENTS = (0.0, 1.0, 2.0, 3.0, 4.0)

#: cell family of the exponent-sensitivity sweep (one cell at the largest size).
SENSITIVITY_FAMILY = "exponent sweep"
#: cell family of the per-size sweeps (r = 2 and the r = 0 control share a cell).
SIZE_SWEEP_FAMILY = "size sweep"

_CRITICAL_SERIES = "size sweep / critical r=2"
_UNIFORMISH_SERIES = "size sweep / r=0 (uniform-like)"


def _torus(n: int, seed: int = 0):
    """The canonical ~n-node torus — the same construction as the standard
    ``torus2d`` family, so the store instance is shared with EXP-1/EXP-6."""
    side = max(3, int(round(n ** 0.5)))
    return generators.torus_graph([side, side])


def cell_keys(config: ExperimentConfig) -> List[Tuple[str, int]]:
    """The sensitivity cell at the largest size plus one size-sweep cell per n."""
    sizes = config.effective_sizes()
    return [(SENSITIVITY_FAMILY, max(sizes))] + [(SIZE_SWEEP_FAMILY, n) for n in sizes]


def run_cell(
    config: ExperimentConfig,
    family: str,
    n: int,
    *,
    store: Optional[GraphStore] = None,
) -> CellPayload:
    """Compute the sensitivity sweep or one size-sweep point on a shared torus.

    The torus comes from the sweep-wide *store* under the canonical
    ``"torus2d"`` key, and the pair set is instance-seeded — so all thirteen
    sensitivity exponents, both size-sweep series and every *other*
    experiment's torus cell route the same pairs over one warmed oracle.
    """
    seed = derive_cell_seed(config.seed, EXPERIMENT_ID, family, n)
    instance_seed = derive_instance_seed(config.seed, "torus2d", n)
    entry = ensure_store(store).instance(
        "torus2d", n, instance_seed, _torus
    )
    graph, oracle = entry.graph, entry.oracle
    if family == SENSITIVITY_FAMILY:
        points: Dict[str, Dict[str, object]] = {}
        for r in EXPONENTS:
            scheme = DistancePowerScheme(graph, r, seed=seed, oracle=oracle)
            points[f"{r:g}"] = route_point(
                graph,
                scheme,
                config,
                seed=seed + int(10 * r),
                oracle=oracle,
                pair_seed=instance_seed,
            )
        series = {SENSITIVITY_FAMILY: {"n": int(graph.num_nodes), "points": points}}
    elif family == SIZE_SWEEP_FAMILY:
        series = {}
        for r, series_name in ((2.0, _CRITICAL_SERIES), (0.0, _UNIFORMISH_SERIES)):
            scheme = DistancePowerScheme(graph, r, seed=seed, oracle=oracle)
            series[series_name] = route_point(
                graph, scheme, config, seed=seed, oracle=oracle, pair_seed=instance_seed
            )
    else:
        raise KeyError(f"unknown EXP-7 family {family!r}")
    return cell_payload(entry, seed, series, family=family)


def assemble(
    config: ExperimentConfig, cells: Dict[Tuple[str, int], CellPayload]
) -> ExperimentResult:
    """Fold cell payloads into the structured result (pure, artifact-friendly)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        parameters={"config": config, "exponents": EXPONENTS},
    )
    sizes = config.effective_sizes()

    sensitivity = None
    payload = cells.get((SENSITIVITY_FAMILY, max(sizes)))
    if payload is not None:
        cell = payload["series"][SENSITIVITY_FAMILY]
        sensitivity = SeriesResult(name=f"exponent sweep (n={cell['n']})")
        for r in EXPONENTS:
            point = cell["points"].get(f"{r:g}")
            if point is None:
                continue
            # Abuse "sizes" to hold the exponent axis (scaled by 100 to stay integral).
            sensitivity.add(int(round(100 * r)) + 1, point["value"])
            sensitivity.metadata[f"r={r:g}"] = point["value"]
        result.add_series(sensitivity)

    for series_name in (_CRITICAL_SERIES, _UNIFORMISH_SERIES):
        series = SeriesResult(name=series_name)
        for n in sizes:
            payload = cells.get((SIZE_SWEEP_FAMILY, n))
            if payload is None:
                continue
            point = payload["series"][series_name]
            series.add(point["n"], point["value"])
        result.add_series(series)

    if sensitivity is not None and sensitivity.metadata:
        best_r = min(sensitivity.metadata, key=lambda key: sensitivity.metadata[key])
        critical = result.get_series(_CRITICAL_SERIES).power_law()
        uniformish = result.get_series(_UNIFORMISH_SERIES).power_law()
        result.conclusion = (
            f"exponent sweep minimised at {best_r} (expected r=2 on the 2-D torus); size-sweep "
            f"exponents: critical {critical.exponent:.3f} vs r=0 {uniformish.exponent:.3f} — the "
            "critical exponent grows far slower, reproducing Kleinberg's dichotomy."
            if critical and uniformish
            else f"exponent sweep minimised at {best_r}"
        )
    else:
        result.conclusion = "sensitivity cell missing; size sweeps only"
    return result


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the sweep and return the structured result."""
    return run_experiment(sys.modules[__name__], config)
