"""Unit tests for the Theorem-4 ball scheme."""

import numpy as np
import pytest

from repro.core.ball_scheme import BallScheme
from repro.core.base import NO_CONTACT
from repro.graphs import generators
from repro.graphs.distances import UNREACHABLE, bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.landmark import LandmarkOracle


class TestBallScheme:
    def test_default_levels_is_ceil_log2(self):
        for n, expected in ((8, 3), (9, 4), (100, 7), (1024, 10)):
            g = generators.cycle_graph(n)
            assert BallScheme(g).num_levels == expected

    def test_num_levels_override(self, cycle12):
        assert BallScheme(cycle12, num_levels=2).num_levels == 2
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=0)

    def test_level_distribution_default_uniform(self, cycle12):
        scheme = BallScheme(cycle12)
        probs = scheme.level_probabilities
        assert np.allclose(probs, 1.0 / scheme.num_levels)

    def test_level_distribution_custom(self, cycle12):
        scheme = BallScheme(cycle12, num_levels=3, radius_distribution=[0.5, 0.25, 0.25])
        assert np.allclose(scheme.level_probabilities, [0.5, 0.25, 0.25])

    def test_level_distribution_validated(self, cycle12):
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=2, radius_distribution=[0.5, 0.2])
        with pytest.raises(ValueError):
            BallScheme(cycle12, num_levels=2, radius_distribution=[0.5])

    def test_level_uniform_bounds_contact_radius(self):
        # uniforms[0] picks the level k by inverse CDF over the level
        # distribution; the contact then lies in B(u, 2^k).
        g = generators.path_graph(64)
        scheme = BallScheme(g, num_levels=4, radius_distribution=[0.4, 0.3, 0.2, 0.1])
        dist = bfs_distances(g, 30)
        level_u = np.linspace(0.0, 0.999, 50)
        uniforms = np.vstack([level_u, np.linspace(0.999, 0.0, 50)])
        contacts = scheme.sample_contacts_from_uniforms(np.full(50, 30), uniforms)
        levels = np.searchsorted(np.cumsum([0.4, 0.3, 0.2, 0.1]), level_u, side="right") + 1
        assert set(levels.tolist()) == {1, 2, 3, 4}
        assert np.all(dist[contacts] <= 2 ** levels)

    def test_contact_within_largest_ball(self, rng):
        g = generators.path_graph(64)
        scheme = BallScheme(g, seed=0)
        dist = bfs_distances(g, 10)
        max_radius = 2 ** scheme.num_levels
        for _ in range(100):
            c = scheme.sample_contact(10, rng)
            assert c is not None
            assert dist[c] <= max_radius

    def test_distribution_closed_form_matches_direct_computation(self):
        g = generators.path_graph(20)
        scheme = BallScheme(g)
        u = 5
        probs = scheme.contact_distribution(u)
        # Recompute from the definition: phi_u(v) = (1/L) sum_{k >= r(v)} 1/|B_k(u)|.
        dist = bfs_distances(g, u)
        L = scheme.num_levels
        expected = np.zeros(20)
        for v in range(20):
            mass = 0.0
            for k in range(1, L + 1):
                if dist[v] <= 2 ** k:
                    mass += 1.0 / (L * np.count_nonzero(dist <= 2 ** k))
            expected[v] = mass
        assert np.allclose(probs, expected)

    def test_distribution_sums_to_one_when_balls_cover_graph(self, cycle12):
        # With ceil(log n) levels the largest ball always covers a connected graph.
        scheme = BallScheme(cycle12)
        for u in (0, 5, 11):
            assert np.isclose(scheme.contact_distribution(u).sum(), 1.0)

    def test_distribution_monotone_in_distance(self):
        g = generators.path_graph(40)
        scheme = BallScheme(g)
        probs = scheme.contact_distribution(0)
        dist = bfs_distances(g, 0)
        order = np.argsort(dist)
        sorted_probs = probs[order]
        assert np.all(np.diff(sorted_probs) <= 1e-12)

    def test_sampler_matches_distribution(self):
        g = generators.cycle_graph(16)
        scheme = BallScheme(g)
        probs = scheme.contact_distribution(3)
        rng = np.random.default_rng(0)
        counts = np.zeros(16)
        samples = 8000
        for _ in range(samples):
            counts[scheme.sample_contact(3, rng)] += 1
        assert np.all(np.abs(counts / samples - probs) < 0.03)

    def test_rows_live_in_the_provider(self, cycle12, rng):
        scheme = BallScheme(cycle12)
        scheme.sample_contact(0, rng)
        scheme.sample_contact(5, rng)
        assert scheme.oracle.cache_size() == 2

    def test_describe(self, cycle12):
        assert "ball scheme" in BallScheme(cycle12).describe()


# --------------------------------------------------------------------------- #
# The shell primitive against sorted-profile and loop references
# --------------------------------------------------------------------------- #


def _disconnected():
    """A path, a ring and an isolated node (12)."""
    edges = [(i, i + 1) for i in range(4)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    return Graph.from_edges(13, edges, name="path+ring+isolated")


_GRAPHS = {
    "grid": lambda: generators.grid_graph([6, 7]),
    "ring": lambda: generators.cycle_graph(24),
    "tree": lambda: generators.random_tree(40, seed=9),
    "disconnected": _disconnected,
}

_LEVELS = {
    "paper": {},
    "two-levels": {"num_levels": 2, "radius_distribution": [0.7, 0.3]},
}


def _sorted_profile_sampler(scheme, nodes, uniforms):
    """Reference ball sampler: a stable (distance, id) argsort per node."""
    levels = np.searchsorted(np.cumsum(scheme.level_probabilities), uniforms[0], side="right") + 1
    radii = np.int64(1) << np.minimum(levels, 62).astype(np.int64)
    out = np.full(nodes.shape, NO_CONTACT, dtype=np.int64)
    for i, node in enumerate(nodes.tolist()):
        dist = scheme.oracle.query_distances_from(node)
        reachable = np.nonzero(dist != UNREACHABLE)[0]
        ids = reachable[np.argsort(dist[reachable], kind="stable")]
        count = np.searchsorted(dist[ids], radii[i], side="right")
        if count > 0:
            out[i] = ids[np.int64(uniforms[1, i] * count)]
    return out


def _loop_contact_distribution(scheme, node):
    """Reference closed form: an O(n·levels) Python loop over nodes and levels."""
    dist = scheme.oracle.query_distances_from(node)
    levels = scheme.num_levels
    level_probs = scheme.level_probabilities
    probs = np.zeros(dist.size)
    ball_sizes = np.zeros(levels + 1, dtype=np.int64)
    for k in range(1, levels + 1):
        ball_sizes[k] = np.count_nonzero((dist != UNREACHABLE) & (dist <= (1 << k)))
    for v in range(dist.size):
        d = dist[v]
        if d == UNREACHABLE:
            continue
        rank = 1
        while rank <= levels and d > (1 << rank):
            rank += 1
        if rank > levels:
            continue
        mass = 0.0
        for k in range(rank, levels + 1):
            if ball_sizes[k] > 0:
                mass += level_probs[k - 1] / ball_sizes[k]
        probs[v] = mass
    return probs


def _draws(n, seed=0, size=300):
    """Random nodes and uniforms, plus the extreme uniforms 0 and 1 - 2^-53."""
    rng = np.random.default_rng(seed)
    top = np.nextafter(1.0, 0.0)
    nodes = np.concatenate([rng.integers(0, n, size=size), np.arange(n), np.arange(n)])
    uniforms = np.hstack([
        rng.random((2, size)),
        np.array([[0.0] * n, [top] * n]),
        np.array([[top] * n, [0.0] * n]),
    ])
    return nodes, uniforms


@pytest.fixture
def primitive_calls(monkeypatch):
    """Counts the scheme's calls into the shell primitive of repro.graphs.balls."""
    import repro.core.ball_scheme as module

    calls = {"shell_sizes": 0, "shell_members": 0}
    for name in calls:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestShellPrimitiveParity:
    @pytest.mark.parametrize("levels", list(_LEVELS), ids=list(_LEVELS))
    @pytest.mark.parametrize("graph_name", list(_GRAPHS), ids=list(_GRAPHS))
    def test_sampler_bitwise_equal_to_sorted_profiles(self, graph_name, levels, primitive_calls):
        graph = _GRAPHS[graph_name]()
        scheme = BallScheme(graph, seed=1, **_LEVELS[levels])
        nodes, uniforms = _draws(graph.num_nodes)
        np.testing.assert_array_equal(
            scheme.sample_contacts_from_uniforms(nodes, uniforms),
            _sorted_profile_sampler(scheme, nodes, uniforms),
        )
        assert primitive_calls["shell_members"] == graph.num_nodes

    def test_sampler_bitwise_equal_on_sketch_rows(self, primitive_calls):
        # One pivot on three components: the other components' sketch rows
        # are all UNREACHABLE, and a non-pivot's own sketch distance is > 0,
        # so small balls can be empty.
        graph = _disconnected()
        oracle = LandmarkOracle(graph, num_landmarks=1, seed=4)
        scheme = BallScheme(graph, seed=1, oracle=oracle, **_LEVELS["two-levels"])
        nodes, uniforms = _draws(graph.num_nodes, seed=3)
        contacts = scheme.sample_contacts_from_uniforms(nodes, uniforms)
        np.testing.assert_array_equal(contacts, _sorted_profile_sampler(scheme, nodes, uniforms))
        assert (contacts == NO_CONTACT).any()
        assert primitive_calls["shell_members"] > 0

    def test_isolated_node_links_to_itself(self):
        scheme = BallScheme(_disconnected(), seed=1)
        nodes = np.full(5, 12)
        contacts = scheme.sample_contacts_from_uniforms(nodes, np.random.default_rng(0).random((2, 5)))
        assert contacts.tolist() == [12] * 5

    @pytest.mark.parametrize("levels", list(_LEVELS), ids=list(_LEVELS))
    @pytest.mark.parametrize(
        "graph_name,factory",
        [
            ("path", lambda: generators.path_graph(37)),
            ("grid", _GRAPHS["grid"]),
            ("tree", _GRAPHS["tree"]),
            ("disconnected", _disconnected),
        ],
        ids=["path", "grid", "tree", "disconnected"],
    )
    def test_contact_distribution_matches_loop(self, graph_name, factory, levels, primitive_calls):
        graph = factory()
        scheme = BallScheme(graph, **_LEVELS[levels])
        for node in range(graph.num_nodes):
            np.testing.assert_allclose(
                scheme.contact_distribution(node),
                _loop_contact_distribution(scheme, node),
                rtol=0,
                atol=1e-12,
            )
        assert primitive_calls["shell_sizes"] == graph.num_nodes
