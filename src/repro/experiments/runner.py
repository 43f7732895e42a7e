"""The oracle-backed experiment pipeline: cell sweep, artifacts, reports.

The paper's headline claims are scaling curves, so a full reproduction is a
*sweep* over ``(experiment, family, n)`` cells.  This module turns that sweep
into an explicit pipeline:

1. every experiment module decomposes into independent cells (see the cell
   protocol in :mod:`repro.experiments.common`); within a cell all schemes
   share one :class:`~repro.graphs.oracle.DistanceOracle`, so BFS arrays are
   computed once per graph instance instead of once per scheme,
2. the :class:`SweepExecutor` runs the cells — serially or fanned out over a
   ``ProcessPoolExecutor`` (``jobs``) with deterministic per-cell seeding, so
   parallel runs are bitwise-identical to serial ones; one
   :class:`~repro.graphs.store.GraphStore` is shared across *all* experiments
   of the run (instances are keyed ``(family, n, instance_seed)`` with no
   experiment id), so the second and later experiments over a given instance
   perform zero graph builds and zero repeat BFS sweeps — with
   ``graph_cache`` the store also spills its BFS distance rows to
   fingerprint-checked raw ``.spill`` files (memory-mapped on reload) that
   pool the work across worker processes and across runs,
3. each computed cell is persisted as a JSON
   :class:`~repro.analysis.reporting.CellArtifact` (``artifacts_dir``) and a
   resumed sweep (``resume=True``) skips every cell whose artifact already
   exists under a matching configuration,
4. :func:`run_all` / :func:`results_from_artifacts` assemble the cell
   payloads into :class:`ExperimentResult` objects and
   :func:`render_markdown` renders the EXPERIMENTS.md report — assembly is a
   pure function of the payloads, so reports regenerate from artifacts alone.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.reporting import (
    CellArtifact,
    ExperimentResult,
    artifact_path,
    iter_cell_artifacts,
    load_cell_artifact,
    write_cell_artifact,
)
from repro.experiments import (
    exp_ball_ablation,
    exp_ball_scheme,
    exp_kleinberg,
    exp_label_size,
    exp_matrix_label,
    exp_name_independent,
    exp_trees_atfree,
    exp_uniform,
)
from repro.experiments import lease as lease_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.lease import DEFAULT_LEASE_TTL
from repro.graphs import kernels
from repro.graphs.store import GraphStore, process_store

__all__ = [
    "EXPERIMENT_MODULES",
    "SweepCell",
    "SweepExecutor",
    "available_experiment_ids",
    "select_modules",
    "run_all",
    "results_from_artifacts",
    "render_markdown",
]

#: Experiment modules in DESIGN.md order.
EXPERIMENT_MODULES = (
    exp_uniform,
    exp_name_independent,
    exp_matrix_label,
    exp_trees_atfree,
    exp_label_size,
    exp_ball_scheme,
    exp_kleinberg,
    exp_ball_ablation,
)


def available_experiment_ids() -> List[str]:
    """The experiment ids accepted by ``only=`` filters, in report order."""
    return [module.EXPERIMENT_ID for module in EXPERIMENT_MODULES]


def select_modules(only: Optional[Sequence[str]]) -> List:
    """Resolve an ``only=`` filter to modules (report order preserved).

    Raises ``ValueError`` listing the available ids when any requested id is
    unknown — a typo must not silently produce an empty sweep.  ``None`` *and*
    an empty filter select everything (an argparse ``nargs="*"`` flag given
    with no values must not mean "run nothing").
    """
    if only is None or not list(only):
        return list(EXPERIMENT_MODULES)
    by_id = {module.EXPERIMENT_ID.upper(): module for module in EXPERIMENT_MODULES}
    unknown = [x for x in only if x.upper() not in by_id]
    if unknown:
        raise ValueError(
            f"unknown experiment id(s) {', '.join(repr(x) for x in unknown)}; "
            f"available: {', '.join(available_experiment_ids())}"
        )
    wanted = {x.upper() for x in only}
    return [m for m in EXPERIMENT_MODULES if m.EXPERIMENT_ID.upper() in wanted]


def _module_by_id(experiment_id: str):
    for module in EXPERIMENT_MODULES:
        if module.EXPERIMENT_ID == experiment_id:
            return module
    raise KeyError(f"no experiment module with id {experiment_id!r}")


@dataclass(frozen=True)
class SweepCell:
    """Key of one unit of sweep work: ``(experiment, family, n)``."""

    experiment_id: str
    family: str
    n: int


def _run_cell_worker(
    experiment_id: str,
    family: str,
    n: int,
    config: ExperimentConfig,
    graph_cache: Optional[str] = None,
    oracle_max_bytes: Optional[int] = None,
) -> Tuple[str, str, int, dict, dict]:
    """Process-pool entry point: compute one cell (module-level: picklable).

    Each worker process keeps one :func:`~repro.graphs.store.process_store`
    per cache directory: cells landing in the same worker share graph
    instances and warmed oracles in memory, and — with ``graph_cache`` — the
    store spills every instance it warmed after the cell, so *other* workers
    reload the BFS arrays from disk instead of recomputing them.  Either way
    the payload is bitwise identical to a serial run: the store only ever
    serves arrays a fresh BFS would reproduce exactly — including under a
    compiled kernel backend, whose selection workers inherit through the
    ``REPRO_KERNEL_BACKEND`` environment variable.  The returned backend
    snapshot feeds ``--stats``: a worker that silently fell back to numpy
    (numba missing on a shard host) is visible there, not just slower.
    """
    module = _module_by_id(experiment_id)
    # Warm the JIT before any timed work; idempotent per process (and free
    # for numpy), so the first cell pays compile time at most once.
    kernels.warmup_active()
    # The store key includes the distance-provider knobs: a landmark sweep
    # sharing a worker process with an exact sweep must not share oracles
    # (the spill *files* are mode-agnostic — exact BFS rows either way).
    store = process_store(
        graph_cache, oracle_max_bytes, config.distance_mode, config.landmarks
    )
    payload = module.run_cell(config, family, n, store=store)
    store.spill()
    return experiment_id, family, n, payload, kernels.backend_stats()


class SweepExecutor:
    """Runs the sweep's cells, with optional process fan-out and artifacts.

    Parameters
    ----------
    config:
        Shared :class:`ExperimentConfig`; its fingerprint is stored in every
        artifact and checked on resume.
    jobs:
        Worker processes.  ``1`` (default) runs in-process; cells are
        independent and deterministically seeded, so any ``jobs`` value
        produces identical payloads.
    artifacts_dir:
        When set, every computed cell is persisted there as a
        :class:`CellArtifact` JSON file.
    resume:
        Skip cells whose artifact already exists in ``artifacts_dir`` with a
        matching config fingerprint (requires ``artifacts_dir``).
    graph_cache:
        Directory for the :class:`~repro.graphs.store.GraphStore`'s disk
        spill.  Serial runs spill each warmed instance after its cell;
        ``--jobs`` workers additionally *reload* instances other workers
        spilled, so BFS work is shared across processes (and across separate
        sweep invocations pointing at the same directory).
    store:
        Explicit :class:`GraphStore` to run on (tests inject counting
        stores).  Stores are not picklable, so setting one forces in-process
        execution; default is a run-wide store spilling to ``graph_cache``.
    shard:
        Run as one worker of a multi-process drain of ``artifacts_dir``
        (requires it; implies resume semantics).  Cells are claimed through
        atomic ``.lease`` files (see :mod:`repro.experiments.lease`), so any
        number of shard processes — started independently, even on different
        machines sharing the directory — compute each cell exactly once in
        the common case and assemble identical reports.  A shard runs its
        claimed cells serially in-process; scale by starting more shard
        processes, not by raising ``jobs``.
    lease_ttl:
        Seconds before another shard may take over an untouched lease
        (crashed-worker recovery).
    poll_interval:
        Sleep between drain passes while every remaining cell is leased to
        some other shard.
    oracle_max_bytes:
        Byte budget for every default-constructed oracle (the memory-tiered
        cache's ``max_bytes``), forwarded to the run's store and to pool
        workers.

    After :meth:`run`, :attr:`executed` and :attr:`skipped` list the cells
    that were computed fresh vs served from artifacts, and :attr:`store` is
    the run's (serial-path) graph store with its cache-hit statistics.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        jobs: int = 1,
        artifacts_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        graph_cache: Optional[Union[str, Path]] = None,
        store: Optional[GraphStore] = None,
        shard: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 0.1,
        oracle_max_bytes: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if resume and artifacts_dir is None:
            raise ValueError("resume=True requires an artifacts_dir to resume from")
        if shard and artifacts_dir is None:
            raise ValueError("shard=True requires an artifacts_dir to drain")
        if shard and jobs != 1:
            raise ValueError(
                "shard mode runs its claimed cells serially; start more shard "
                "processes instead of raising jobs"
            )
        self._config = config
        self._fingerprint = config.fingerprint()
        self._jobs = jobs
        self._artifacts_dir = Path(artifacts_dir) if artifacts_dir is not None else None
        self._resume = resume
        self._shard = shard
        self._lease_ttl = float(lease_ttl)
        self._poll_interval = float(poll_interval)
        self._graph_cache = Path(graph_cache) if graph_cache is not None else None
        self._oracle_max_bytes = oracle_max_bytes
        if store is None:
            store = GraphStore(
                spill_dir=self._graph_cache,
                oracle_max_bytes=oracle_max_bytes,
                distance_mode=config.distance_mode,
                landmarks=config.landmarks,
            )
            self._private_store = True
        else:
            self._private_store = False
        self.store = store
        self.executed: List[SweepCell] = []
        self.skipped: List[SweepCell] = []
        #: Per-computed-cell kernel-backend snapshot (``--stats``): which
        #: backend actually served the cell and what its JIT warmup cost.
        self.cell_backends: Dict[SweepCell, dict] = {}

    # ------------------------------------------------------------------ #
    # Artifact handling
    # ------------------------------------------------------------------ #

    def _load_resumable(self, cell: SweepCell) -> Optional[dict]:
        """Payload of a prior run's artifact for *cell*, or ``None``.

        An artifact only counts when it parses, carries the current schema
        version and was computed under the *same* config fingerprint —
        anything else is recomputed rather than silently mixed in.
        """
        assert self._artifacts_dir is not None
        path = artifact_path(self._artifacts_dir, cell.experiment_id, cell.family, cell.n)
        if not path.is_file():
            return None
        try:
            artifact = load_cell_artifact(path)
        except (ValueError, KeyError):
            return None
        if (
            artifact.experiment_id != cell.experiment_id
            or artifact.family != cell.family
            or artifact.n != cell.n
            or artifact.config != self._fingerprint
        ):
            return None
        return artifact.payload

    def _persist(self, cell: SweepCell, payload: dict) -> None:
        if self._artifacts_dir is None:
            return
        artifact = CellArtifact(
            experiment_id=cell.experiment_id,
            family=cell.family,
            n=cell.n,
            config=self._fingerprint,
            payload=payload,
        )
        write_cell_artifact(self._artifacts_dir, artifact)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, modules: Sequence) -> Dict[str, Dict[Tuple[str, int], dict]]:
        """Compute (or load) every cell of *modules*; returns payloads per id."""
        payloads: Dict[str, Dict[Tuple[str, int], dict]] = {
            module.EXPERIMENT_ID: {} for module in modules
        }
        pending: List[SweepCell] = []
        for module in modules:
            for family, n in module.cell_keys(self._config):
                cell = SweepCell(module.EXPERIMENT_ID, family, int(n))
                # Shard mode defers artifact checks to the drain loop, which
                # re-checks every pass (other shards finish cells mid-run).
                if self._resume and not self._shard:
                    payload = self._load_resumable(cell)
                    if payload is not None:
                        payloads[cell.experiment_id][(cell.family, cell.n)] = payload
                        self.skipped.append(cell)
                        continue
                pending.append(cell)

        if self._shard:
            self._run_sharded(payloads, pending)
            return payloads

        in_process = (
            self._jobs == 1
            or not self._private_store
            or len(pending) <= 1
        )
        if in_process:
            if pending:
                kernels.warmup_active()
            for cell in pending:
                module = _module_by_id(cell.experiment_id)
                payload = module.run_cell(
                    self._config, cell.family, cell.n, store=self.store
                )
                # Spill after every cell so an interrupted sweep still leaves
                # its BFS arrays behind for the next (or a parallel) run.
                self.store.spill()
                self._finish(payloads, cell, payload, kernels.backend_stats())
        else:
            graph_cache = str(self._graph_cache) if self._graph_cache is not None else None
            with concurrent.futures.ProcessPoolExecutor(max_workers=self._jobs) as pool:
                futures = {
                    pool.submit(
                        _run_cell_worker,
                        cell.experiment_id,
                        cell.family,
                        cell.n,
                        self._config,
                        graph_cache,
                        self._oracle_max_bytes,
                    ): cell
                    for cell in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    cell = futures[future]
                    _, _, _, payload, backend = future.result()
                    self._finish(payloads, cell, payload, backend)
        return payloads

    def _run_sharded(self, payloads, pending: List[SweepCell]) -> None:
        """Drain *pending* as one shard of a multi-process work queue.

        Each pass over the remaining cells either loads a finished artifact
        (another shard — or a prior run — computed it), claims the cell's
        lease and computes it (unless the artifact landed just before the
        claim), or defers it because some live shard holds the lease.  A pass with no progress means everything left is being
        computed elsewhere, so the shard sleeps briefly before re-polling.
        The loop terminates because every deferred cell's lease either turns
        into an artifact, is released (picked up here next pass), or goes
        stale past the TTL and is taken over.
        """
        assert self._artifacts_dir is not None
        self._artifacts_dir.mkdir(parents=True, exist_ok=True)
        remaining = list(pending)
        while remaining:
            progressed = False
            deferred: List[SweepCell] = []
            for cell in remaining:
                payload = self._load_resumable(cell)
                if payload is None:
                    apath = artifact_path(
                        self._artifacts_dir, cell.experiment_id, cell.family, cell.n
                    )
                    if not lease_module.try_acquire(apath, ttl=self._lease_ttl):
                        deferred.append(cell)
                        continue
                    try:
                        # Another shard may have persisted the cell and
                        # released its lease between the load and the acquire.
                        payload = self._load_resumable(cell)
                        if payload is None:
                            module = _module_by_id(cell.experiment_id)
                            kernels.warmup_active()
                            computed = module.run_cell(
                                self._config, cell.family, cell.n, store=self.store
                            )
                            self.store.spill()
                            self._finish(payloads, cell, computed, kernels.backend_stats())
                    finally:
                        lease_module.release(apath)
                if payload is not None:
                    payloads[cell.experiment_id][(cell.family, cell.n)] = payload
                    self.skipped.append(cell)
                progressed = True
            remaining = deferred
            if remaining and not progressed:
                time.sleep(self._poll_interval)

    def _finish(
        self, payloads, cell: SweepCell, payload: dict, backend: Optional[dict] = None
    ) -> None:
        payloads[cell.experiment_id][(cell.family, cell.n)] = payload
        self._persist(cell, payload)
        self.executed.append(cell)
        if backend is not None:
            self.cell_backends[cell] = backend


def run_all(
    config: Optional[ExperimentConfig] = None,
    *,
    only: Optional[Sequence[str]] = None,
    verbose: bool = False,
    jobs: int = 1,
    artifacts_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    graph_cache: Optional[Union[str, Path]] = None,
    store: Optional[GraphStore] = None,
    stats: Optional[dict] = None,
    shard: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    oracle_max_bytes: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    """Run all (or the selected) experiments with one shared configuration.

    Parameters
    ----------
    config:
        Shared configuration; defaults to :meth:`ExperimentConfig.full`.
    only:
        Optional iterable of experiment ids (``"EXP-1"`` …) to restrict to.
        Unknown ids raise ``ValueError`` listing the available ids.
    verbose:
        Print each report as it completes.
    jobs:
        Worker processes for the cell sweep (see :class:`SweepExecutor`).
    artifacts_dir:
        Persist every computed cell as a JSON artifact in this directory.
    resume:
        Skip cells whose artifact already exists (requires ``artifacts_dir``);
        the report is assembled from the mix of loaded and fresh cells.
    graph_cache:
        Directory for the GraphStore's BFS distance-row ``.spill`` files
        (shares instances across worker processes and across separate runs).
    store:
        Explicit :class:`~repro.graphs.store.GraphStore` shared across the
        run's experiments (forces in-process runs; tests inject counting
        stores here, and successive ``run_all`` calls can pool instances by
        passing the same store).
    stats:
        Optional dict populated with ``"executed"`` / ``"skipped"`` cell
        lists, the ``"store"`` cache-hit counters and the per-cell
        ``"kernel_backends"`` snapshots (which backend served each computed
        cell, plus its JIT warmup time).
    shard:
        Drain ``artifacts_dir`` as one worker of a lease-coordinated
        multi-process queue (see :class:`SweepExecutor`); every shard ends
        with the complete payload set, so each assembles the full report.
    lease_ttl:
        Stale-lease takeover threshold for shard mode, in seconds.
    oracle_max_bytes:
        Byte budget for default-constructed distance oracles.
    """
    config = config or ExperimentConfig.full()
    modules = select_modules(only)
    executor = SweepExecutor(
        config,
        jobs=jobs,
        artifacts_dir=artifacts_dir,
        resume=resume,
        graph_cache=graph_cache,
        store=store,
        shard=shard,
        lease_ttl=lease_ttl,
        oracle_max_bytes=oracle_max_bytes,
    )
    payloads = executor.run(modules)
    results: Dict[str, ExperimentResult] = {}
    for module in modules:
        result = module.assemble(config, payloads[module.EXPERIMENT_ID])
        results[module.EXPERIMENT_ID] = result
        if verbose:
            print(result.to_text())
            print()
    if stats is not None:
        stats["executed"] = list(executor.executed)
        stats["skipped"] = list(executor.skipped)
        stats["store"] = executor.store.stats()
        stats["kernel_backends"] = dict(executor.cell_backends)
    return results


def results_from_artifacts(
    artifacts_dir: Union[str, Path],
    *,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, ExperimentResult]:
    """Regenerate experiment results from persisted artifacts alone.

    No routing runs: the artifacts' payloads are assembled directly.  The
    configuration is reconstructed from the artifacts' stored fingerprint
    (artifacts from mixed configurations raise ``ValueError``).
    """
    modules = select_modules(only)
    wanted = {module.EXPERIMENT_ID for module in modules}
    artifacts = [a for a in iter_cell_artifacts(artifacts_dir) if a.experiment_id in wanted]
    if not artifacts:
        raise ValueError(f"no experiment artifacts found under {artifacts_dir}")
    def _freeze(value):
        return tuple(value) if isinstance(value, list) else value

    fingerprints = {
        tuple((k, _freeze(v)) for k, v in sorted(a.config.items())) for a in artifacts
    }
    if len(fingerprints) > 1:
        raise ValueError(
            f"artifacts under {artifacts_dir} come from {len(fingerprints)} different "
            "configurations; assemble them separately"
        )
    config = ExperimentConfig(**artifacts[0].config)
    cells: Dict[str, Dict[Tuple[str, int], dict]] = {}
    for artifact in artifacts:
        cells.setdefault(artifact.experiment_id, {})[(artifact.family, artifact.n)] = (
            artifact.payload
        )
    results: Dict[str, ExperimentResult] = {}
    for module in modules:
        if module.EXPERIMENT_ID in cells:
            results[module.EXPERIMENT_ID] = module.assemble(config, cells[module.EXPERIMENT_ID])
    return results


def render_markdown(results: Dict[str, ExperimentResult]) -> str:
    """Concatenate the Markdown reports of *results* in experiment order."""
    parts: List[str] = []
    for module in EXPERIMENT_MODULES:
        exp_id = module.EXPERIMENT_ID
        if exp_id in results:
            parts.append(results[exp_id].to_markdown())
    return "\n\n".join(parts)
