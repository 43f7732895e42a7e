"""RoutingSession facade tests: lifecycle, seed policy, batched identity.

The load-bearing contract lives in ``TestBatchedTrajectoryIdentity``: for
every registered scheme, a batch of queries routed together must be
trajectory-identical (steps, long links, success) to the same queries routed
one at a time — the property that makes the serve daemon's micro-batching
invisible in its results.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import RoutingSession, derive_query_seed, open_session
from repro.core.registry import available_schemes

_FAMILY = "ring"
_N = 96
_SEED = 5


class TestOpenSession:
    def test_opens_and_routes(self):
        with open_session(_FAMILY, _N, seed=_SEED) as session:
            outcome = session.route(2, 70)
            assert outcome.ok and outcome.success
            assert outcome.steps >= 1
            assert outcome.graph_distance == min(68, _N - 68)

    def test_unknown_family_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            open_session("klein-bottle", 64)

    def test_unknown_scheme_is_a_value_error(self):
        with pytest.raises(ValueError, match="[Uu]nknown scheme"):
            open_session(_FAMILY, 64, scheme="psychic")

    def test_info_describes_the_session(self):
        with open_session(_FAMILY, _N, seed=_SEED, scheme="uniform") as session:
            session.warm([10, 20])
            info = session.info()
        assert info["family"] == _FAMILY
        assert info["n"] == _N
        assert info["scheme"] == "uniform"
        assert info["seed"] == _SEED
        assert sorted(info["warmed_targets"]) == [10, 20]

    def test_sessions_can_share_a_store(self):
        from repro.graphs.store import GraphStore

        store = GraphStore()
        with open_session(_FAMILY, _N, seed=_SEED, store=store):
            pass
        with open_session(_FAMILY, _N, seed=_SEED, store=store):
            pass
        assert store.stats()["graph_builds"] == 1
        assert store.stats()["graph_hits"] >= 1


class TestSeedPolicy:
    def test_query_seed_is_reproducible_and_order_free(self):
        with open_session(_FAMILY, _N, seed=_SEED) as session:
            a = session.query_seed(3, 40)
            b = session.query_seed(7, 40)
            assert a == session.query_seed(3, 40)
            assert a != b
            # The policy is the public module-level function.
            assert a == derive_query_seed(_SEED, 3, 40)

    def test_nonce_varies_the_trajectory_seed(self):
        assert derive_query_seed(1, 2, 3, nonce=0) != derive_query_seed(1, 2, 3, nonce=1)

    def test_route_uses_the_policy_seed(self):
        with open_session(_FAMILY, _N, seed=_SEED) as session:
            outcome = session.route(3, 40)
            assert outcome.seed == derive_query_seed(_SEED, 3, 40)


class TestRouteQueries:
    def test_error_entries_do_not_poison_the_batch(self):
        with open_session(_FAMILY, _N, seed=_SEED) as session:
            outcomes = session.route_queries(
                [(2, 70, 1), (0, _N + 3, 2), (-1, 10, 3), (5, 60, 4)]
            )
        assert outcomes[0].ok and outcomes[3].ok
        assert not outcomes[1].ok and "target index" in outcomes[1].error
        assert not outcomes[2].ok and "source index" in outcomes[2].error

    def test_block_cache_pins_targets_across_batches(self):
        with open_session(_FAMILY, _N, seed=_SEED) as session:
            session.route_queries([(1, 50, 7)])
            session.route_queries([(2, 50, 8), (3, 60, 9)])
            info = session.info()
            assert set(info["warmed_targets"]) == {50, 60}
            assert info["block_resets"] == 0

    def test_block_cache_resets_at_capacity(self, monkeypatch):
        import repro.graphs.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "_MAX_BLOCK_TARGETS", 4)
        with open_session(_FAMILY, _N, seed=_SEED, scheme="uniform") as session:
            for target in (10, 20, 30, 40):
                session.route_queries([(1, target, 1)])
            assert session.info()["block_resets"] == 0
            session.route_queries([(1, 50, 1)])
            assert session.info()["block_resets"] == 1
            # Post-reset queries still answer correctly.
            assert session.route(1, 20).ok


class TestSweepAndServeShareThePool:
    def test_session_routes_on_blocks_a_sweep_built(self, monkeypatch):
        import repro.graphs.oracle as oracle_module
        from repro.core.uniform import UniformScheme
        from repro.graphs import generators
        from repro.graphs.oracle import DistanceOracle
        from repro.routing.simulator import estimate_expected_steps

        graph = generators.cycle_graph(_N)
        oracle = DistanceOracle(graph)
        scheme = UniformScheme(graph, seed=1)
        pairs = [(0, 48), (3, 70), (11, 48)]
        estimate_expected_steps(graph, scheme, pairs, trials=4, seed=2, oracle=oracle)
        pooled = oracle.block_targets

        def no_bfs(*args, **kwargs):
            raise AssertionError("a served query ran a BFS")

        for name in ("bfs_distances_many", "frontier_bfs", "frontier_bfs_tree"):
            monkeypatch.setattr(oracle_module, name, no_bfs)
        session = RoutingSession(graph, scheme, oracle)
        outcomes = session.route_queries([(s, t, session.query_seed(s, t)) for s, t in pairs])
        assert all(outcome.ok for outcome in outcomes)
        assert {48, 70} <= set(session.warmed_targets)
        assert oracle.block_targets == pooled


class TestRouteMany:
    def test_route_many_matches_simulator_defaults(self):
        from repro.graphs.oracle import DistanceOracle
        from repro.routing.simulator import estimate_expected_steps

        with open_session(_FAMILY, _N, seed=_SEED, scheme="uniform") as session:
            mine = session.route_many([(0, 48), (3, 70)], trials=6)
            reference = estimate_expected_steps(
                session.graph,
                session.scheme,
                [(0, 48), (3, 70)],
                trials=6,
                seed=_SEED,
                oracle=session.oracle,
            )
        assert mine.mean == reference.mean
        assert mine.pairs == reference.pairs


class TestDeprecationShim:
    def test_simulator_import_path_stays_warning_free(self):
        from repro.graphs import generators
        from repro.core.uniform import UniformScheme
        from repro.routing.simulator import estimate_expected_steps

        g = generators.cycle_graph(24)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate_expected_steps(g, UniformScheme(g, seed=1), [(0, 12)], trials=2, seed=2)
        assert not any(issubclass(w.category, DeprecationWarning) for w in caught)


class TestBatchedTrajectoryIdentity:
    @pytest.mark.parametrize("scheme_name", sorted(available_schemes()))
    def test_batched_equals_single_shot_per_scheme(self, scheme_name):
        pairs = [(3, 70), (11, 48), (60, 5), (80, 33), (2, 90)]
        with open_session(_FAMILY, _N, seed=_SEED, scheme=scheme_name) as session:
            batched = session.route_queries(
                [(s, t, session.query_seed(s, t)) for (s, t) in pairs]
            )
            singles = [session.route(s, t) for (s, t) in pairs]
            reversed_batch = session.route_queries(
                [(s, t, session.query_seed(s, t)) for (s, t) in reversed(pairs)]
            )[::-1]
        for together, alone, shuffled in zip(batched, singles, reversed_batch):
            assert together == alone
            assert together == shuffled

    def test_nonce_changes_the_walk_not_the_contract(self):
        with open_session(_FAMILY, _N, seed=_SEED, scheme="uniform") as session:
            walks = {session.route(4, 70, nonce=i).seed for i in range(5)}
            assert len(walks) == 5


class TestDistanceSchemesShareTheProvider:
    """Ball and Kleinberg sample from the session's provider, under its budget."""

    @pytest.mark.parametrize("scheme_name", ["ball", "kleinberg"])
    def test_scheme_oracle_is_the_session_provider(self, scheme_name):
        with open_session(_FAMILY, _N, seed=_SEED, scheme=scheme_name) as session:
            assert session.scheme.oracle is session.oracle
            assert session.route(3, 70).ok

    def test_kleinberg_session_retains_no_more_than_its_provider(self):
        import gc
        import tracemalloc

        # Pay the one-time costs (lazy imports, numpy caches) outside the count.
        with open_session("torus2d", 64, seed=_SEED, scheme="kleinberg") as warmup:
            warmup.route(0, 40)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            session = open_session(
                "torus2d", 1024, seed=_SEED, scheme="kleinberg", oracle_max_bytes=64 * 1024
            )
            n = session.graph.num_nodes
            pairs = np.random.default_rng(0).integers(0, n, size=(8, 2))
            session.route_queries([(int(s), int(t), session.query_seed(s, t)) for s, t in pairs])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        resident = session.oracle.resident_bytes()
        session.close()
        assert retained <= resident + 256 * 1024, (retained, resident)


class TestClose:
    def test_close_is_idempotent_and_blocks_reuse(self):
        session = open_session(_FAMILY, _N, seed=_SEED)
        session.close()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.route(0, 10)

    def test_private_session_close_releases_the_cold_tier(self):
        import gc

        gc.collect()  # earlier garbage must not warn inside the block below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = open_session("torus2d", 1024, seed=_SEED, oracle_max_bytes=64 * 1024)
            n = session.graph.num_nodes
            pairs = np.random.default_rng(0).integers(0, n, size=(8, 2))
            session.route_queries([(int(s), int(t), session.query_seed(s, t)) for s, t in pairs])
            spilled = session.oracle.memory_stats()["cold_entries"]
            session.close()
            after = session.oracle.memory_stats()["cold_entries"]
            del session
            gc.collect()
        assert spilled > 0
        assert after == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_shared_store_session_close_keeps_the_rows(self):
        from repro.graphs.store import GraphStore

        store = GraphStore()
        with open_session(_FAMILY, _N, seed=_SEED, store=store) as session:
            session.route(2, 70)
            oracle = session.oracle
        rows = oracle.cache_size()
        assert rows > 0 and 70 in oracle.block_targets
        with open_session(_FAMILY, _N, seed=_SEED, store=store) as again:
            assert again.oracle is oracle
            misses = oracle.misses
            assert again.route(3, 70).ok
            assert oracle.misses == misses
        assert oracle.cache_size() >= rows


def test_public_surface_exports():
    assert repro.open_session is open_session
    assert repro.RoutingSession is RoutingSession
    assert "ring" in repro.GRAPH_FAMILIES
    assert isinstance(repro.GRAPH_FAMILIES, dict)
    for name in ("Graph", "GRAPH_FAMILIES", "open_session", "RoutingSession"):
        assert name in repro.__all__
