"""Tests for the oracle-backed sweep pipeline.

Covers the ISSUE-2 acceptance criteria: ``only=`` filtering raises on unknown
ids, schemes within a cell share one BFS oracle (counting-oracle test),
artifacts round-trip, ``resume`` executes zero cells while reproducing
identical markdown, and process fan-out matches the serial sweep.
"""

import json

import pytest

from repro.analysis.reporting import CellArtifact, load_cell_artifact
from repro.core.ball_scheme import BallScheme
from repro.core.uniform import UniformScheme
from repro.experiments import (
    exp_ball_scheme,
    exp_kleinberg,
    exp_matrix_label,
    exp_trees_atfree,
    exp_uniform,
)
from repro.experiments.common import (
    derive_cell_seed,
    derive_instance_seed,
    route_point,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    EXPERIMENT_MODULES,
    SweepExecutor,
    render_markdown,
    results_from_artifacts,
    run_all,
    select_modules,
)
from repro.graphs import generators
from repro.graphs.oracle import DistanceOracle
from repro.graphs.store import GraphStore

TINY = ExperimentConfig(sizes=[48, 96], num_pairs=3, trials=3, seed=7)


class _RecordingFactory:
    """Oracle factory that keeps every oracle it built (for hit/miss counting)."""

    def __init__(self):
        self.oracles = []

    def __call__(self, graph):
        oracle = DistanceOracle(graph)
        self.oracles.append(oracle)
        return oracle

    @property
    def total_misses(self):
        return sum(o.misses for o in self.oracles)

    @property
    def total_hits(self):
        return sum(o.hits for o in self.oracles)


class TestOnlyFiltering:
    def test_unknown_id_raises_with_available_ids(self):
        with pytest.raises(ValueError) as excinfo:
            run_all(TINY, only=["EXP-99"])
        message = str(excinfo.value)
        assert "EXP-99" in message
        for module in EXPERIMENT_MODULES:
            assert module.EXPERIMENT_ID in message

    def test_mixed_known_and_unknown_raises(self):
        with pytest.raises(ValueError):
            select_modules(["EXP-1", "EXP-0"])

    def test_selection_is_case_insensitive_and_ordered(self):
        modules = select_modules(["exp-6", "EXP-1"])
        assert [m.EXPERIMENT_ID for m in modules] == ["EXP-1", "EXP-6"]

    def test_none_selects_everything(self):
        assert select_modules(None) == list(EXPERIMENT_MODULES)

    def test_empty_filter_selects_everything(self):
        # argparse nargs="*" yields [] when --only is given with no values;
        # that must mean "run everything", never a silent empty sweep.
        assert select_modules([]) == list(EXPERIMENT_MODULES)


class TestOracleReuse:
    def test_one_oracle_per_cell_and_cache_hits(self):
        factory = _RecordingFactory()
        exp_ball_scheme.run_cell(TINY, "ring", 96, store=GraphStore(oracle_factory=factory))
        assert len(factory.oracles) == 1
        assert factory.oracles[0].hits > 0

    def test_shared_oracle_needs_fewer_bfs_than_private_oracles(self):
        """The acceptance check: a cell's shared oracle performs measurably
        fewer BFS computations than the seed's one-private-oracle-per-scheme
        layout on the identical workload."""
        factory = _RecordingFactory()
        exp_ball_scheme.run_cell(TINY, "ring", 96, store=GraphStore(oracle_factory=factory))
        shared_misses = factory.total_misses
        assert len(factory.oracles) == 1

        # Seed layout: each scheme estimate gets its own oracle (and the ball
        # scheme a second, private one), so nothing is shared across schemes.
        graph = generators.cycle_graph(96)
        cell_seed = derive_cell_seed(TINY.seed, exp_ball_scheme.EXPERIMENT_ID, "ring", 96)
        instance_seed = derive_instance_seed(TINY.seed, "ring", 96)
        private_misses = 0
        for build in (
            lambda g, s, o: BallScheme(g, seed=s, oracle=o),
            lambda g, s, o: UniformScheme(g, seed=s),
        ):
            oracle = DistanceOracle(graph)
            scheme = build(graph, cell_seed, oracle)
            route_point(
                graph, scheme, TINY, seed=cell_seed, oracle=oracle, pair_seed=instance_seed
            )
            private_misses += oracle.misses
        assert shared_misses < private_misses

    def test_kleinberg_sensitivity_cell_computes_each_row_once(self, monkeypatch):
        """EXP-7's five exponent schemes sample from the cell's oracle: every
        BFS row is an accounted miss, computed once, and no private BFS runs."""
        import repro.core.kleinberg as kleinberg_module
        import repro.graphs.oracle as oracle_module

        def private_bfs(*args, **kwargs):
            raise AssertionError("the Kleinberg scheme ran a private BFS")

        monkeypatch.setattr(kleinberg_module, "bfs_distances", private_bfs)
        rows = []
        for name, sources_of in (
            ("bfs_distances_many", list),
            ("frontier_bfs", lambda source: [source]),
            ("frontier_bfs_tree", lambda source: [source]),
        ):
            def counted(graph, sources, *args, _bfs=getattr(oracle_module, name),
                        _sources_of=sources_of, **kwargs):
                rows.extend(int(s) for s in _sources_of(sources))
                return _bfs(graph, sources, *args, **kwargs)

            monkeypatch.setattr(oracle_module, name, counted)
        factory = _RecordingFactory()
        exp_kleinberg.run_cell(
            TINY,
            exp_kleinberg.SENSITIVITY_FAMILY,
            max(TINY.sizes),
            store=GraphStore(oracle_factory=factory),
        )
        (oracle,) = factory.oracles
        assert len(rows) == oracle.misses > 0
        assert len(set(rows)) == len(rows)

    def test_full_quick_sweep_reuses_bfs(self):
        factory = _RecordingFactory()
        run_all(TINY, jobs=1, store=GraphStore(oracle_factory=factory), stats={})
        total_cells = sum(len(m.cell_keys(TINY)) for m in EXPERIMENT_MODULES)
        # The run-wide GraphStore shares instances across experiments, so
        # strictly fewer oracles exist than cells — and the shared oracles
        # serve repeat queries from cache.
        assert 0 < len(factory.oracles) < total_cells
        assert factory.total_hits > 0


class TestDecompositionReuse:
    def test_tree_cells_run_the_portfolio_once_per_instance(self, monkeypatch):
        """EXP-4's tree families memoise the portfolio decomposition as the
        store extra EXP-3 uses, so both Theorem-2 variants share one run;
        the interval family keeps its exact clique-path decomposition."""
        import repro.core.matrix_label as matrix_label_module

        runs = []
        estimate = exp_matrix_label.estimate_pathshape

        def counted(graph, **kwargs):
            runs.append(graph.name)
            return estimate(graph, **kwargs)

        monkeypatch.setattr(exp_matrix_label, "estimate_pathshape", counted)
        monkeypatch.setattr(matrix_label_module, "estimate_pathshape", counted)
        store = GraphStore()
        n = min(TINY.sizes)
        entries = {}
        for family, factory in exp_trees_atfree._tree_instances().items():
            exp_trees_atfree.run_cell(TINY, family, n, store=store)
            seed = derive_instance_seed(TINY.seed, family, n)
            entries[family] = store.instance(family, n, seed, factory)
        assert len(runs) == 2  # one per tree instance, none for the interval graph
        for family in ("tree/caterpillar", "tree/spider"):
            entry = entries[family]
            memo = entry.extras["pathshape_decomposition"]
            assert memo.bags == estimate(entry.graph).decomposition.bags
        interval = entries["atfree/interval"]
        assert "decomposition" in interval.extras
        assert "pathshape_decomposition" not in interval.extras


class TestArtifacts:
    def test_roundtrip(self, tmp_path):
        artifact = CellArtifact(
            experiment_id="EXP-5",
            family="eps=1 (identity labels)",
            n=128,
            config={"seed": 7, "sizes": [128]},
            payload={"series": {"eps=1 (identity labels)": {"n": 128, "value": 3.5}}},
        )
        from repro.analysis.reporting import write_cell_artifact

        path = write_cell_artifact(tmp_path, artifact)
        assert path.is_file()
        loaded = load_cell_artifact(path)
        assert loaded == artifact

    def test_sweep_persists_every_cell(self, tmp_path):
        stats = {}
        run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path, stats=stats)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == len(stats["executed"]) == len(exp_uniform.cell_keys(TINY))

    def test_results_from_artifacts_match_live_run(self, tmp_path):
        results = run_all(TINY, only=["EXP-1", "EXP-6"], artifacts_dir=tmp_path)
        regenerated = results_from_artifacts(tmp_path)
        assert render_markdown(regenerated) == render_markdown(results)

    def test_results_from_artifacts_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError):
            results_from_artifacts(tmp_path)


class TestResume:
    def test_resume_executes_zero_cells_and_reproduces_markdown(self, tmp_path):
        stats = {}
        first = run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path, stats=stats)
        assert stats["executed"] and not stats["skipped"]
        stats2 = {}
        second = run_all(
            TINY, only=["EXP-1"], artifacts_dir=tmp_path, resume=True, stats=stats2
        )
        assert stats2["executed"] == []
        assert len(stats2["skipped"]) == len(stats["executed"])
        assert render_markdown(second) == render_markdown(first)

    def test_resume_backfills_only_missing_cells(self, tmp_path):
        run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path)
        victim = sorted(tmp_path.glob("EXP-1__ring__*.json"))[0]
        victim.unlink()
        stats = {}
        run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path, resume=True, stats=stats)
        assert len(stats["executed"]) == 1
        assert stats["executed"][0].family == "ring"

    def test_resume_ignores_artifacts_from_other_configs(self, tmp_path):
        run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path)
        other = TINY.scaled(trials=TINY.trials + 1)
        stats = {}
        run_all(other, only=["EXP-1"], artifacts_dir=tmp_path, resume=True, stats=stats)
        assert len(stats["executed"]) == len(exp_uniform.cell_keys(other))
        assert stats["skipped"] == []

    @pytest.mark.parametrize("version", [2, 3])
    def test_resume_recomputes_older_schema_artifacts(self, tmp_path, version):
        # Version-2 artifacts were routed on other random streams and their
        # config fingerprint carries the removed ``engine`` field; version-3
        # EXP-7 cells drew Kleinberg contacts with the old one-uniform sampler.
        run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path)
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            data["schema_version"] = version
            if version == 2:
                data["config"]["engine"] = "lane"
            path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="no experiment artifacts"):
            results_from_artifacts(tmp_path)
        stats = {}
        resumed = run_all(TINY, only=["EXP-1"], artifacts_dir=tmp_path, resume=True, stats=stats)
        assert len(stats["executed"]) == len(exp_uniform.cell_keys(TINY))
        assert stats["skipped"] == []
        assert render_markdown(results_from_artifacts(tmp_path)) == render_markdown(resumed)

    def test_resume_requires_artifacts_dir(self):
        with pytest.raises(ValueError):
            SweepExecutor(TINY, resume=True)


class TestParallelSweep:
    def test_process_pool_matches_serial(self, tmp_path):
        config = TINY.scaled(sizes=[48])
        serial = run_all(config, only=["EXP-1", "EXP-8"], jobs=1)
        parallel = run_all(config, only=["EXP-1", "EXP-8"], jobs=2)
        assert render_markdown(parallel) == render_markdown(serial)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(TINY, jobs=0)


class TestCellProtocol:
    @pytest.mark.parametrize("module", EXPERIMENT_MODULES, ids=lambda m: m.EXPERIMENT_ID)
    def test_cells_cover_every_series_point(self, module):
        """run() (cells + assemble) must yield the same report as assembling
        manually computed cells — and every cell key must be hashable/serial."""
        keys = module.cell_keys(TINY)
        assert keys
        for family, n in keys:
            assert isinstance(family, str) and isinstance(n, int)
        cells = {key: module.run_cell(TINY, *key) for key in keys}
        result = module.assemble(TINY, cells)
        assert result.experiment_id == module.EXPERIMENT_ID
        assert result.series
        assert render_markdown({module.EXPERIMENT_ID: result}) == render_markdown(
            {module.EXPERIMENT_ID: module.run(TINY)}
        )
