"""Lane-engine tests: trajectory identity, statistical parity, edge cases.

The exact-equivalence contract of the lane engine is that it walks
step-for-step the same routes as ``greedy_route`` fed a contact provider
that replays each lane's counter uniforms
(:func:`repro.utils.counterrng.lane_step_uniforms`) through the scheme's
sampling primitive — asserted here per lane for **every** registered scheme
on every graph family (grid, ring, tree, disconnected) and under step
budgets, including routes and budgets that cross the engine's blocks of
hashed steps.  Against an independent generator-driven reference loop the
engine is checked statistically instead.
"""

import numpy as np
import pytest

import repro.routing.simulator as simulator
from repro.core.ball_scheme import BallScheme
from repro.core.base import NO_CONTACT
from repro.core.kleinberg import DistancePowerScheme
from repro.core.matrix import MatrixScheme, uniform_matrix
from repro.core.matrix_label import Theorem2Scheme
from repro.core.uniform import UniformScheme
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle
from repro.routing.engine import LaneBatchResult, route_lanes
from repro.routing.greedy import greedy_route
from repro.routing.simulator import estimate_expected_steps
from repro.routing.statistics import summarize
from repro.utils.counterrng import lane_seeds, lane_step_uniforms

SCHEME_NAMES = ["uniform", "ball", "theorem2", "kleinberg", "matrix"]
FAMILY_NAMES = ["grid", "ring", "tree", "disconnected"]
#: Graphs whose routes outlast one 16-step uniform block.
LONG_FAMILY_NAMES = ["ring300", "path200"]


def _graph_for(family: str) -> Graph:
    if family == "grid":
        return generators.grid_graph([5, 5])
    if family == "ring":
        return generators.cycle_graph(24)
    if family == "tree":
        return generators.random_tree(26, seed=3)
    if family == "disconnected":
        edges = [(i, (i + 1) % 14) for i in range(14)]
        edges += [(14 + i, 14 + (i + 1) % 9) for i in range(9)]
        return Graph.from_edges(23, edges, name="two-cycles")
    if family == "ring300":
        return generators.cycle_graph(300)
    if family == "path200":
        return generators.path_graph(200)
    raise AssertionError(family)


def _pairs_for(family: str, graph: Graph):
    if family == "disconnected":
        # Stay within components: 0..13 is one cycle, 14..22 the other.
        return [(0, 7), (3, 10), (14, 18), (22, 16)]
    n = graph.num_nodes
    if family in LONG_FAMILY_NAMES:
        # Lanes that retire at different steps, most after the first block.
        return [(i * n // 8, (i * n // 8 + n // 2 + 5 * i) % n) for i in range(8)]
    return [(0, n - 1), (1, n // 2), (n - 1, n // 3)]


def _scheme_for(name: str, graph: Graph, oracle: DistanceOracle):
    if name == "uniform":
        return UniformScheme(graph, seed=11)
    if name == "ball":
        return BallScheme(graph, seed=11, oracle=oracle)
    if name == "theorem2":
        return Theorem2Scheme(graph, seed=11)
    if name == "kleinberg":
        return DistancePowerScheme(graph, 2.0, seed=11)
    if name == "matrix":
        return MatrixScheme(graph, uniform_matrix(graph.num_nodes), seed=11)
    raise AssertionError(name)


def _seeds(count, base=1000):
    return np.asarray([base + 17 * i for i in range(count)], dtype=np.uint64)


def _counter_replay(scheme, lane_seed: int):
    """Contact provider replaying one lane's counter uniforms, step by step.

    ``greedy_route`` asks for exactly one contact per step (after its budget
    check), so the k-th call is step ``k - 1`` — the counter the engine
    hashes for that lane.
    """
    rows = type(scheme).uniforms_per_contact
    seed = np.array([lane_seed], dtype=np.uint64)
    step = [0]

    def contact_of(u: int):
        uniforms = lane_step_uniforms(seed, np.array([step[0]]), rows)
        step[0] += 1
        c = int(scheme.sample_contacts_from_uniforms(np.array([u]), uniforms)[0])
        return None if c == NO_CONTACT else c

    return contact_of


def _reference_steps(graph, scheme, oracle, source, target, trials, rng):
    """Independent scalar Monte-Carlo loop: greedy_route on generator draws."""
    dist = oracle.distances_to(target)
    return [
        greedy_route(
            graph, dist, source, target, lambda u: scheme.sample_contact(u, rng)
        ).steps
        for _ in range(trials)
    ]


class TestTrajectoryIdentity:
    """Lane engine == greedy_route replaying the lane's counter uniforms."""

    @staticmethod
    def _assert_lanes_replay(graph, scheme, oracle, pairs, trials, seeds, max_steps):
        batch = route_lanes(
            graph, scheme, pairs, trials=trials, lane_seeds=seeds, oracle=oracle,
            max_steps=max_steps,
        )
        for lane in range(len(pairs) * trials):
            source, target = pairs[lane // trials]
            result = greedy_route(
                graph,
                oracle.distances_to(target),
                source,
                target,
                _counter_replay(scheme, int(seeds[lane])),
                max_steps=max_steps,
            )
            assert bool(batch.success[lane]) == result.success
            assert int(batch.steps[lane]) == result.steps
            assert int(batch.long_links[lane]) == result.long_links_used
        return batch

    @pytest.mark.parametrize("max_steps", [None, 0, 1, 3])
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_lane_matches_counter_replay(self, scheme_name, family, max_steps):
        graph = _graph_for(family)
        oracle = DistanceOracle(graph)
        scheme = _scheme_for(scheme_name, graph, oracle)
        pairs = _pairs_for(family, graph)
        trials = 5
        seeds = lane_seeds(99, len(pairs) * trials)
        self._assert_lanes_replay(graph, scheme, oracle, pairs, trials, seeds, max_steps)

    @pytest.mark.parametrize("max_steps", [None, 17, 40])
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("family", LONG_FAMILY_NAMES)
    def test_lanes_crossing_step_blocks(self, scheme_name, family, max_steps):
        # 64 lanes, so the engine hashes 16 steps per block; the budgets run
        # out inside the second and third blocks.
        graph = _graph_for(family)
        oracle = DistanceOracle(graph)
        scheme = _scheme_for(scheme_name, graph, oracle)
        pairs = _pairs_for(family, graph)
        trials = 8
        seeds = lane_seeds(99, len(pairs) * trials)
        batch = self._assert_lanes_replay(
            graph, scheme, oracle, pairs, trials, seeds, max_steps
        )
        assert batch.num_lanes == 64
        assert int(batch.steps.max()) > 16

    def test_wide_batch_hashes_one_step_per_block(self):
        # 16,400 one-row lanes exceed the engine's 2^15-uniform block at two
        # steps, so it hashes one step per call.
        graph = generators.cycle_graph(300)
        oracle = DistanceOracle(graph)
        scheme = UniformScheme(graph, seed=11)
        pairs = [(u, (u + 2) % 300) for u in range(0, 300, 15)]
        trials = 820
        seeds = lane_seeds(7, len(pairs) * trials)
        batch = self._assert_lanes_replay(graph, scheme, oracle, pairs, trials, seeds, None)
        assert batch.num_lanes == 16_400


class _NoLinksScheme(UniformScheme):
    """No long-range links: greedy routing degenerates to shortest paths."""

    def sample_contacts_from_uniforms(self, nodes, uniforms):
        return np.full(len(nodes), NO_CONTACT, dtype=np.int64)


class TestStatisticalParity:
    def test_deterministic_scheme_matches_graph_distance(self, grid4x4):
        scheme = _NoLinksScheme(grid4x4, seed=0)
        pairs = [(0, 15), (3, 12)]
        estimate = estimate_expected_steps(grid4x4, scheme, pairs, trials=4, seed=7)
        # Without randomness every trial walks a shortest path.
        for pair in estimate.pairs:
            assert pair.stats.mean == pair.stats.maximum == pair.graph_distance
        assert estimate.diameter == 6

    def test_seeded_parity_on_ring(self):
        # Different random streams, same distribution: with enough trials the
        # engine's mean must be close to an independent scalar reference loop
        # (both estimate the same E(φ,s,t)).
        g = generators.cycle_graph(96)
        scheme = UniformScheme(g, seed=0)
        oracle = DistanceOracle(g)
        lane = estimate_expected_steps(g, scheme, [(0, 48)], trials=600, seed=5, oracle=oracle)
        reference = summarize(
            _reference_steps(g, scheme, oracle, 0, 48, 600, np.random.default_rng(5))
        )
        # Compare via overlapping 95% confidence intervals.
        assert lane.pairs[0].stats.ci95_low <= reference.ci95_high
        assert reference.ci95_low <= lane.pairs[0].stats.ci95_high

    def test_lane_engine_deterministic_given_seed(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        a = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3)
        b = estimate_expected_steps(cycle12, scheme, [(0, 6)], trials=8, seed=3)
        assert a.mean == b.mean
        assert a.diameter == b.diameter

    def test_failed_trials_accounting(self):
        g = generators.cycle_graph(64)
        scheme = UniformScheme(g, seed=0)
        estimate = estimate_expected_steps(
            g, scheme, [(0, 32)], trials=64, seed=5, max_steps=10
        )
        pair = estimate.pairs[0]
        assert estimate.failed_trials > 0
        assert pair.stats.count + pair.failed_trials == 64
        assert pair.stats.maximum <= 10


def _capture_batches(monkeypatch):
    """Record every LaneBatchResult estimate_expected_steps routes."""
    batches = []

    def recording(*args, **kwargs):
        batch = route_lanes(*args, **kwargs)
        batches.append(batch)
        return batch

    monkeypatch.setattr(simulator, "route_lanes", recording)
    return batches


class TestEstimateLaneSeeds:
    """estimate_expected_steps: lane l's outcome is a function of (seed, l)."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_pair_prefix_reproduces_first_lanes(self, scheme_name, monkeypatch):
        g = generators.cycle_graph(40)
        oracle = DistanceOracle(g)
        scheme = _scheme_for(scheme_name, g, oracle)
        pairs = [(0, 20), (5, 31), (12, 2), (39, 17), (8, 9)]
        trials = 6
        batches = _capture_batches(monkeypatch)
        estimate_expected_steps(g, scheme, pairs, trials=trials, seed=13, oracle=oracle)
        full = batches.pop()
        for j in range(1, len(pairs)):
            estimate_expected_steps(
                g, scheme, pairs[:j], trials=trials, seed=13, oracle=oracle
            )
            prefix = batches.pop()
            lanes = slice(0, j * trials)
            np.testing.assert_array_equal(prefix.steps, full.steps[lanes])
            np.testing.assert_array_equal(prefix.success, full.success[lanes])
            np.testing.assert_array_equal(prefix.long_links, full.long_links[lanes])

    def test_lanes_use_the_seed_stream(self, cycle12, monkeypatch):
        scheme = UniformScheme(cycle12, seed=0)
        pairs = [(0, 6), (1, 9)]
        batches = _capture_batches(monkeypatch)
        estimate_expected_steps(cycle12, scheme, pairs, trials=4, seed=21)
        direct = route_lanes(cycle12, scheme, pairs, trials=4, lane_seeds=lane_seeds(21, 8))
        np.testing.assert_array_equal(batches[0].steps, direct.steps)
        np.testing.assert_array_equal(batches[0].long_links, direct.long_links)

    def test_generator_seed_is_deterministic(self):
        g = generators.cycle_graph(128)
        scheme = UniformScheme(g, seed=0)
        a = estimate_expected_steps(g, scheme, [(0, 64)], trials=8, seed=np.random.default_rng(4))
        b = estimate_expected_steps(g, scheme, [(0, 64)], trials=8, seed=np.random.default_rng(4))
        assert a.mean == b.mean


class TestEngineEdgeCases:
    def test_unreachable_pair_rejected(self):
        graph = _graph_for("disconnected")
        scheme = UniformScheme(graph, seed=0)
        with pytest.raises(ValueError, match="not reachable"):
            route_lanes(graph, scheme, [(0, 20)], trials=2, lane_seeds=_seeds(2))

    def test_empty_pairs_rejected(self, cycle12):
        with pytest.raises(ValueError):
            route_lanes(cycle12, UniformScheme(cycle12), [], trials=2, lane_seeds=_seeds(0))

    def test_foreign_scheme_and_oracle_rejected(self, cycle12, path8):
        with pytest.raises(ValueError):
            route_lanes(cycle12, UniformScheme(path8), [(0, 6)], trials=2, lane_seeds=_seeds(2))
        with pytest.raises(ValueError):
            route_lanes(
                cycle12,
                UniformScheme(cycle12),
                [(0, 6)],
                trials=2,
                lane_seeds=_seeds(2),
                oracle=DistanceOracle(path8),
            )

    def test_all_trials_truncated_raises(self):
        g = generators.path_graph(30)
        scheme = _NoLinksScheme(g, seed=0)
        with pytest.raises(ValueError, match="exceeded"):
            estimate_expected_steps(g, scheme, [(0, 29)], trials=4, seed=1, max_steps=3)

    def test_batch_result_shape(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        batch = route_lanes(cycle12, scheme, [(0, 6), (1, 7)], trials=3, lane_seeds=_seeds(6))
        assert isinstance(batch, LaneBatchResult)
        assert batch.num_lanes == 6
        assert batch.trials == 3
        np.testing.assert_array_equal(batch.pair_index, [0, 0, 0, 1, 1, 1])
        assert batch.pair_lanes(1) == slice(3, 6)
        assert np.all(batch.success)

    def test_lane_results_shared_with_oracle_cache(self, cycle12):
        # The engine must pull every distance row through the shared oracle.
        oracle = DistanceOracle(cycle12)
        scheme = UniformScheme(cycle12, seed=0)
        estimate_expected_steps(
            cycle12, scheme, [(0, 6), (3, 6), (1, 9)], trials=4, seed=1, oracle=oracle
        )
        assert oracle.cache_size() == 2  # targets {6, 9}
        assert oracle.hits >= 1


class TestLaneSeedsMode:
    """Counter-based per-lane seeding: batch-invariant trajectories."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_lane_trajectories_ignore_batch_composition(self, scheme_name):
        g = generators.cycle_graph(30)
        scheme = _scheme_for(scheme_name, g, DistanceOracle(g))
        pairs = [(0, 15), (3, 20), (7, 28)]
        seeds = _seeds(3)
        batch = route_lanes(g, scheme, pairs, trials=1, lane_seeds=seeds, max_steps=60)
        for i, pair in enumerate(pairs):
            solo = route_lanes(
                g, scheme, [pair], trials=1, lane_seeds=seeds[i : i + 1], max_steps=60
            )
            assert solo.steps[0] == batch.steps[i]
            assert solo.long_links[0] == batch.long_links[i]
            assert solo.success[0] == batch.success[i]

    def test_rerun_is_bit_identical(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        seeds = _seeds(4)
        pairs = [(0, 6), (1, 7), (2, 8), (3, 9)]
        a = route_lanes(cycle12, scheme, pairs, trials=1, lane_seeds=seeds)
        b = route_lanes(cycle12, scheme, pairs, trials=1, lane_seeds=seeds)
        np.testing.assert_array_equal(a.steps, b.steps)
        np.testing.assert_array_equal(a.long_links, b.long_links)

    def test_distinct_seeds_draw_distinct_walks(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        pairs = [(0, 6)] * 8
        seeds = _seeds(8)
        batch = route_lanes(cycle12, scheme, pairs, trials=1, lane_seeds=seeds)
        assert len(set(batch.steps.tolist())) > 1  # not all lanes identical

    def test_lane_seeds_shape_is_validated(self, cycle12):
        scheme = UniformScheme(cycle12, seed=0)
        with pytest.raises(ValueError, match="lane_seeds"):
            route_lanes(
                cycle12, scheme, [(0, 6)], trials=2,
                lane_seeds=np.array([1], dtype=np.uint64),
            )
