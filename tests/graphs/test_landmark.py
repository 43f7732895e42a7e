"""Landmark distance-provider tests (ISSUE-10).

Covers the acceptance criteria of the pluggable provider layer:

* **admissibility** — landmark estimates are upper bounds (``est >= exact``
  everywhere), triangle-tight at the landmarks themselves, and *exact* for any
  pair whose shortest path passes through a pivot,
* **purity/determinism** — the sketch is a function of ``(graph, seed, L)``
  alone: identical across rebuilds and unaffected by the exact cache's state,
* **exact-mode bitwise identity** — a sweep under the provider layer's
  ``distance_mode="exact"`` default produces payloads equal to a sweep with a
  hand-injected plain :class:`DistanceOracle` (the historical pipeline),
* **routing parity** — landmark-mode routing on ring/grid/kleinberg stays
  successful with means comparable to exact mode (trajectories ride the exact
  tier in both modes; only bulk queries differ),
* **BFS savings** — a ring ball-scheme cell builds its routing-distance
  surface with >= 5x fewer full-graph BFS sweeps under the landmark provider
  (counting-oracle test; the million-node variant is env-gated).
"""

import os

import numpy as np
import pytest

from repro.core.ball_scheme import BallScheme
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_all
from repro.graphs import generators
from repro.graphs.distances import UNREACHABLE, bfs_distances
from repro.graphs.landmark import LandmarkOracle
from repro.graphs.oracle import DistanceOracle
from repro.graphs.provider import (
    DISTANCE_MODES,
    DistanceProvider,
    make_distance_provider,
)
from repro.graphs.store import GraphStore
from repro.routing.simulator import estimate_greedy_diameter
from repro.session import open_session


def _two_paths(n_each=12):
    """Two disjoint paths in one graph (disconnected test case)."""
    from repro.graphs.builders import GraphBuilder

    b = GraphBuilder(2 * n_each)
    for i in range(n_each - 1):
        b.add_edge(i, i + 1)
        b.add_edge(n_each + i, n_each + i + 1)
    return b.build()


class TestProtocol:
    def test_oracle_and_landmark_satisfy_protocol(self):
        g = generators.cycle_graph(32)
        assert isinstance(DistanceOracle(g), DistanceProvider)
        assert isinstance(LandmarkOracle(g, num_landmarks=2), DistanceProvider)

    def test_make_distance_provider_modes(self):
        g = generators.cycle_graph(32)
        assert make_distance_provider(g, "exact").mode == "exact"
        lm = make_distance_provider(g, "landmark", landmarks=3, seed=5)
        assert lm.mode == "landmark"
        assert isinstance(lm, LandmarkOracle)
        with pytest.raises(ValueError, match="exact, landmark"):
            make_distance_provider(g, "psychic")
        assert DISTANCE_MODES == ("exact", "landmark")

    def test_exact_query_tier_is_the_cache(self):
        g = generators.cycle_graph(64)
        oracle = DistanceOracle(g)
        row = oracle.query_distances_from(3)
        np.testing.assert_array_equal(row, bfs_distances(g, 3))
        assert oracle.misses == 1
        oracle.query_distances_from(3)
        assert oracle.hits == 1  # identical accounting to distances_from

    def test_num_landmarks_validation(self):
        g = generators.cycle_graph(16)
        with pytest.raises(ValueError, match="at least 1"):
            LandmarkOracle(g, num_landmarks=0)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.cycle_graph(97),
            generators.torus_graph([7, 9]),
            generators.random_tree(80, seed=3),
            generators.watts_strogatz_graph(90, 4, 0.2, seed=5),
        ],
        ids=["ring", "torus", "tree", "small-world"],
    )
    def test_estimates_are_upper_bounds(self, graph):
        oracle = LandmarkOracle(graph, num_landmarks=6, seed=11)
        for source in range(0, graph.num_nodes, 13):
            est = oracle.query_distances_from(source)
            exact = bfs_distances(graph, source)
            reachable = exact != UNREACHABLE
            assert (est[reachable] >= exact[reachable]).all()
            # Connected graphs: the sketch never invents unreachability.
            np.testing.assert_array_equal(est == UNREACHABLE, exact == UNREACHABLE)

    def test_tight_at_landmarks(self):
        graph = generators.torus_graph([8, 8])
        oracle = LandmarkOracle(graph, num_landmarks=5, seed=2)
        for pivot in oracle.landmarks.tolist():
            est = oracle.query_distances_from(pivot)
            np.testing.assert_array_equal(est, bfs_distances(graph, pivot))

    def test_exact_on_paths_through_a_pivot(self):
        graph = generators.cycle_graph(61)
        oracle = LandmarkOracle(graph, num_landmarks=4, seed=9)
        pivots = oracle.landmarks.tolist()
        pivot_rows = {l: bfs_distances(graph, l) for l in pivots}
        for source in range(0, graph.num_nodes, 7):
            est = oracle.query_distances_from(source)
            exact = bfs_distances(graph, source)
            for target in range(0, graph.num_nodes, 5):
                through = min(
                    int(row[source]) + int(row[target]) for row in pivot_rows.values()
                )
                # The sketch IS the min over pivots ...
                assert int(est[target]) == through
                # ... so a shortest path through any pivot makes it exact.
                if through == int(exact[target]):
                    assert int(est[target]) == int(exact[target])

    def test_disconnected_components_each_get_pivots(self):
        graph = _two_paths(12)
        oracle = LandmarkOracle(graph, num_landmarks=4, seed=1)
        comp = {l < 12 for l in oracle.landmarks.tolist()}
        assert comp == {True, False}  # farthest-point covers both components
        est = oracle.query_distances_from(0)
        exact = bfs_distances(graph, 0)
        np.testing.assert_array_equal(est == UNREACHABLE, exact == UNREACHABLE)
        reachable = exact != UNREACHABLE
        assert (est[reachable] >= exact[reachable]).all()


class TestDeterminismAndPurity:
    def test_pivots_and_rows_deterministic(self):
        g1 = generators.torus_graph([9, 9])
        g2 = generators.torus_graph([9, 9])
        a = LandmarkOracle(g1, num_landmarks=7, seed=21)
        b = LandmarkOracle(g2, num_landmarks=7, seed=21)
        np.testing.assert_array_equal(a.landmarks, b.landmarks)
        np.testing.assert_array_equal(
            a.query_distances_from(5), b.query_distances_from(5)
        )

    def test_sketch_ignores_exact_cache_state(self):
        g = generators.cycle_graph(50)
        cold = LandmarkOracle(g, num_landmarks=3, seed=4)
        warm = LandmarkOracle(g, num_landmarks=3, seed=4)
        for node in range(50):  # fully warm the exact tier
            warm.distances_from(node)
        for node in range(0, 50, 3):
            np.testing.assert_array_equal(
                cold.query_distances_from(node), warm.query_distances_from(node)
            )

    def test_clear_resets_sketch(self):
        g = generators.cycle_graph(40)
        oracle = LandmarkOracle(g, num_landmarks=3, seed=4)
        first = oracle.landmarks.copy()
        oracle.clear()
        np.testing.assert_array_equal(oracle.landmarks, first)

    def test_spill_state_roundtrip(self):
        g = generators.cycle_graph(48)
        warm = LandmarkOracle(g, num_landmarks=4, seed=6)
        _ = warm.landmarks  # pivot rows land in the exact cache
        state = warm.export_state()
        absorbed = LandmarkOracle(g, num_landmarks=4, seed=6)
        absorbed.absorb_state(state)
        # The sketch rebuild is pure cache hits: zero fresh BFS sweeps.
        _ = absorbed.landmarks
        assert absorbed.misses == 0
        np.testing.assert_array_equal(absorbed.landmarks, warm.landmarks)
        np.testing.assert_array_equal(
            absorbed.query_distances_from(7), warm.query_distances_from(7)
        )

    def test_distance_stats_surface(self):
        g = generators.cycle_graph(64)
        oracle = LandmarkOracle(g, num_landmarks=4, seed=3)
        stats = oracle.distance_stats()
        assert stats["mode"] == "landmark" and stats["mean_stretch"] is None
        oracle.query_distances_from(1)
        oracle.distances_from(9)  # a non-pivot exact row to sample stretch on
        stats = oracle.distance_stats()
        assert stats["sketch_queries"] == 1
        assert stats["landmark_sweeps"] == 4
        assert stats["stretch_rows"] >= 1
        assert stats["mean_stretch"] >= 1.0  # admissible => stretch >= 1
        exact_stats = DistanceOracle(g).distance_stats()
        assert exact_stats["mode"] == "exact"
        assert exact_stats["mean_stretch"] is None


TINY = ExperimentConfig(sizes=[48, 96], num_pairs=3, trials=3, seed=7)


class TestExactModeBitwiseIdentity:
    def test_payloads_equal_plain_oracle_pipeline(self):
        """The provider layer's exact default is the historical pipeline."""
        stats_default: dict = {}
        default = run_all(
            TINY, only=["EXP-1", "EXP-6"], verbose=False, stats=stats_default
        )
        legacy_store = GraphStore(oracle_factory=DistanceOracle)
        legacy = run_all(
            TINY, only=["EXP-1", "EXP-6"], verbose=False, store=legacy_store
        )
        for exp_id in default:
            assert default[exp_id].to_markdown() == legacy[exp_id].to_markdown()
        assert stats_default["store"]["distance_mode"] == "exact"
        assert stats_default["store"]["sketch_queries"] == 0
        assert stats_default["store"]["mean_stretch"] is None

    def test_artifact_payload_equality(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_all(TINY, only=["EXP-1"], verbose=False, artifacts_dir=out_a)
        run_all(
            TINY,
            only=["EXP-1"],
            verbose=False,
            artifacts_dir=out_b,
            store=GraphStore(oracle_factory=DistanceOracle),
        )
        files_a = sorted(p.name for p in out_a.glob("*.json"))
        files_b = sorted(p.name for p in out_b.glob("*.json"))
        assert files_a and files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_fingerprint_records_distance_mode(self):
        fp = TINY.fingerprint()
        assert fp["distance_mode"] == "exact" and fp["landmarks"] == 16
        landmark_fp = TINY.scaled(distance_mode="landmark", landmarks=8).fingerprint()
        assert landmark_fp != fp
        assert ExperimentConfig(**landmark_fp).distance_mode == "landmark"


class TestLandmarkRouting:
    @pytest.mark.parametrize(
        "graph,scheme_name",
        [
            (generators.cycle_graph(128), "uniform"),
            (generators.torus_graph([12, 12]), "ball"),
            (generators.torus_graph([12, 12]), "kleinberg"),
        ],
        ids=["ring-uniform", "grid-ball", "grid-kleinberg"],
    )
    def test_success_and_mean_comparable_to_exact(self, graph, scheme_name):
        from repro.core.registry import make_scheme

        estimates = {}
        for mode in DISTANCE_MODES:
            oracle = make_distance_provider(graph, mode, landmarks=8, seed=17)
            scheme = make_scheme(scheme_name, graph, seed=17, oracle=oracle)
            estimates[mode] = estimate_greedy_diameter(
                graph,
                scheme,
                num_pairs=6,
                trials=6,
                seed=17,
                oracle=oracle,
            )
        exact, landmark = estimates["exact"], estimates["landmark"]
        # Trajectories ride the exact tier in both modes: no failures.
        assert exact.failed_trials == 0 and landmark.failed_trials == 0
        assert landmark.mean > 0
        # Only the sampled pair sets differ; the admissible sketch keeps the
        # extremal draws near-extremal, so the means stay comparable.
        assert landmark.mean <= 2.0 * exact.mean + 2.0
        assert landmark.mean >= 0.25 * exact.mean


def _count_ball_cell_misses(graph, oracle, seed=23):
    """Full-graph BFS sweeps needed to route a ball-scheme cell on *graph*."""
    scheme = BallScheme(graph, seed=seed, oracle=oracle)
    estimate = estimate_greedy_diameter(
        graph, scheme, num_pairs=4, trials=4, seed=seed, oracle=oracle
    )
    assert estimate.failed_trials == 0
    return oracle.misses


class TestBFSSavings:
    def test_ring_ball_cell_five_x_fewer_sweeps(self):
        """Acceptance: landmark mode needs >= 5x fewer full-graph BFS sweeps.

        In exact mode every route-visited node's ball draw and every
        sampled pair source costs one BFS; in landmark mode those ride the
        sketch and only the L pivots plus the routing-block targets pay one.
        """
        n = 2048
        exact_misses = _count_ball_cell_misses(
            generators.cycle_graph(n), DistanceOracle(generators.cycle_graph(n))
        )
        graph = generators.cycle_graph(n)
        landmark = LandmarkOracle(graph, num_landmarks=16, seed=23)
        landmark_misses = _count_ball_cell_misses(graph, landmark)
        assert landmark_misses > 0
        assert exact_misses >= 5 * landmark_misses, (
            f"exact={exact_misses} landmark={landmark_misses}"
        )
        # The sketch answered the bulk queries BFS used to serve.
        assert landmark.sketch_queries > 0

    def test_sketch_sampling_honours_oracle_byte_budget(self):
        """Ball sampling in landmark mode stays inside the provider's budget.

        The scheme keeps no rows of its own, and sketch rows are computed
        per query, so 64 sampled nodes add no exact-tier rows beyond the
        pivots' and nothing outside the budget.
        """
        n = 512
        graph = generators.cycle_graph(n)
        budget = 16 * n * 4  # a handful of int32 rows
        oracle = LandmarkOracle(graph, num_landmarks=4, seed=3, max_bytes=budget)
        scheme = BallScheme(graph, seed=3, oracle=oracle)
        rng = np.random.default_rng(3)
        contacts = scheme.sample_contacts(rng.integers(0, n, size=64), rng)
        # est(u, u) > 0 off the pivots, so small sketch balls may be empty.
        assert np.all(contacts < n) and np.count_nonzero(contacts >= 0) > 32
        assert oracle.sketch_queries > 0
        assert oracle.misses == 4  # the pivot sweeps, nothing per sampled node
        assert oracle.resident_bytes() <= budget

    @pytest.mark.skipif(
        not os.environ.get("REPRO_LANDMARK_FULL"),
        reason="million-node landmark cell; set REPRO_LANDMARK_FULL=1",
    )
    def test_million_node_ring_cell(self):
        """10^6-node ring: the landmark cell is feasible and sketch-dominated.

        Exact mode is not run (it would BFS every visited node of a
        500k-diameter ring); instead every sketch-served query row is counted
        — each distinct one is a BFS sweep exact mode would have paid — and
        the 5x claim is checked against the sweeps landmark mode did run.
        The oracle carries the acceptance run's 512 MiB budget; the ball
        scheme keeps no rows of its own.
        """
        n = 1_000_000
        graph = generators.cycle_graph(n)
        oracle = LandmarkOracle(
            graph, num_landmarks=16, seed=23, max_bytes=512 * 1024 * 1024
        )
        scheme = BallScheme(graph, seed=23, oracle=oracle)
        estimate = estimate_greedy_diameter(
            graph, scheme, num_pairs=2, trials=2, seed=23, oracle=oracle
        )
        assert estimate.failed_trials == 0
        misses = oracle.misses
        assert oracle.sketch_queries >= 5 * misses
        stats = oracle.distance_stats()
        assert stats["mean_stretch"] is None or stats["mean_stretch"] >= 1.0


class TestStoreAndSessionWiring:
    def test_store_builds_landmark_providers_seeded_per_instance(self):
        store = GraphStore(distance_mode="landmark", landmarks=4)
        e1 = store.instance("ring", 64, 9, lambda n, s: generators.cycle_graph(n))
        assert isinstance(e1.oracle, LandmarkOracle)
        rebuilt = LandmarkOracle(generators.cycle_graph(64), num_landmarks=4, seed=9)
        np.testing.assert_array_equal(e1.oracle.landmarks, rebuilt.landmarks)

    def test_store_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="distance_mode"):
            GraphStore(distance_mode="psychic")

    def test_store_stats_aggregate_sketch_counters(self):
        store = GraphStore(distance_mode="landmark", landmarks=4)
        entry = store.instance("ring", 64, 9, lambda n, s: generators.cycle_graph(n))
        entry.oracle.query_distances_from(1)
        entry.oracle.distances_from(33)
        stats = store.stats()
        assert stats["distance_mode"] == "landmark"
        assert stats["sketch_queries"] == 1
        assert stats["landmark_sweeps"] == 4
        assert stats["mean_stretch"] >= 1.0

    def test_session_info_and_mode_independent_trajectories(self):
        with open_session("ring", 129, seed=5, scheme="uniform") as exact:
            exact_info = exact.info()
            exact_outcome = exact.route(3, 64)
        with open_session(
            "ring", 129, seed=5, scheme="uniform", distance_mode="landmark", landmarks=6
        ) as lm:
            lm_info = lm.info()
            lm_outcome = lm.route(3, 64)
        assert exact_info["distance_mode"] == "exact"
        assert "landmarks" not in exact_info
        assert lm_info["distance_mode"] == "landmark"
        assert lm_info["landmarks"] == 6
        # Served trajectories ride the exact tier: identical in both modes.
        assert exact_outcome == lm_outcome

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="distance_mode"):
            open_session("ring", 32, distance_mode="psychic")
