"""Tests for the compiled kernel backend registry (``repro.graphs.kernels``).

Two layers:

* **Registry semantics** — always runnable: selection order (override > env
  var > auto), ``set_backend``/``use_backend`` round-trips, the single-warning
  numpy fallback when numba is requested but absent, warmup idempotence, and
  the fingerprint-invariance contract (the backend is *not* part of the
  experiment fingerprint because it cannot change results).
* **Compiled-kernel parity** — skipped without numba: every compiled kernel
  (top-down CSR, padded top-down, bottom-up, ``next_local`` fill) forced onto
  the graph portfolio (grid/ring/tree/disconnected/star) plus hypothesis
  random graphs, asserted bitwise equal to the numpy backend *and* the legacy
  reference, across the int32/int64 dtype-parity matrix.
"""

import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.graphs import frontier as frontier_module
from repro.graphs import generators, kernels
from repro.graphs.frontier import bfs_distances_many, frontier_bfs
from repro.graphs.graph import Graph
from repro.graphs.oracle import next_local_pointers, next_local_pointers_many
from tests.graphs.bfs_reference import legacy_bfs_distances

HAVE_NUMBA = "numba" in kernels.available_backends()

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (pip install .[compiled])"
)


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    """Isolate each test from ambient/leaked backend selection state."""
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
    yield


def graph_portfolio():
    return [
        generators.path_graph(17),
        generators.cycle_graph(24),
        generators.grid_graph([5, 7]),
        generators.binary_tree(31),
        generators.random_tree(48, seed=11),
        generators.star_graph(20),
        generators.erdos_renyi_graph(60, 0.05, seed=5, connect=False),
        Graph.from_edges(9, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)], name="three-components"),
        Graph.empty(6),
    ]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=60)) if possible else []
    return Graph.from_edges(n, edges, name=f"hyp-{n}")


# --------------------------------------------------------------------------- #
# Registry semantics (no numba required)
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_numpy_backend_always_available(self):
        assert "numpy" in kernels.available_backends()
        backend = kernels.get_backend("numpy")
        assert backend.name == "numpy"
        assert not backend.compiled
        # The numpy backend denotes "run the inline reference code": its
        # kernel slots stay empty so selecting it can never perturb them.
        assert backend.top_down_csr is None
        assert backend.next_local_fill is None

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            kernels.get_backend("cython")
        with pytest.raises(ValueError):
            kernels.active_backend("fastest")

    def test_default_resolution_is_auto(self):
        assert kernels.requested_backend() == "auto"
        backend = kernels.active_backend()
        assert backend.name == ("numba" if HAVE_NUMBA else "numpy")

    def test_env_var_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
        assert kernels.requested_backend() == "numpy"
        assert kernels.active_backend().name == "numpy"

    def test_invalid_env_var_degrades_to_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fortran")
        assert kernels.requested_backend() == "auto"
        assert kernels.active_backend().name in ("numpy", "numba")

    def test_set_backend_exports_env_var(self, monkeypatch):
        # set_backend writes os.environ so sweep worker processes inherit the
        # selection; monkeypatch's delenv teardown restores the original.
        backend = kernels.set_backend("numpy")
        assert backend.name == "numpy"
        assert os.environ[kernels.BACKEND_ENV_VAR] == "numpy"
        with pytest.raises(ValueError):
            kernels.set_backend("bogus")

    def test_use_backend_restores_previous_request(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "auto")
        with kernels.use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert kernels.requested_backend() == "numpy"
        assert kernels.requested_backend() == "auto"
        with pytest.raises(ValueError):
            with kernels.use_backend("bogus"):
                pass  # pragma: no cover

    def test_numpy_warmup_is_free(self):
        backend = kernels.get_backend("numpy")
        assert backend.warmup() == 0.0
        assert backend.warmup_seconds == 0.0
        with kernels.use_backend("numpy"):
            assert kernels.warmup_active() == 0.0

    def test_backend_stats_shape(self):
        with kernels.use_backend("numpy"):
            stats = kernels.backend_stats()
        assert stats["requested"] == "numpy"
        assert stats["active"] == "numpy"
        assert stats["compiled"] is False
        assert stats["jit_warmup_seconds"] == 0.0


class TestMissingNumbaFallback:
    @pytest.mark.skipif(HAVE_NUMBA, reason="covers the no-numba environment")
    def test_numba_request_falls_back_with_single_warning(self, caplog):
        kernels._warned_missing = False  # the guard is process-global
        with caplog.at_level(logging.WARNING, logger="repro.graphs.kernels"):
            first = kernels.active_backend("numba")
            second = kernels.active_backend("numba")
        assert first.name == "numpy" and second.name == "numpy"
        warnings = [r for r in caplog.records if "falling back" in r.getMessage()]
        assert len(warnings) == 1  # degrade cleanly: one warning, not one per call

    @pytest.mark.skipif(HAVE_NUMBA, reason="covers the no-numba environment")
    def test_get_backend_numba_raises_without_numba(self):
        with pytest.raises(RuntimeError, match="not available"):
            kernels.get_backend("numba")

    @pytest.mark.skipif(HAVE_NUMBA, reason="covers the no-numba environment")
    def test_forced_numba_still_computes_correctly(self, monkeypatch):
        # The fallback must be behavioural, not just cosmetic: a forced-numba
        # process without numba runs the numpy kernels bit-for-bit.
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numba")
        graph = generators.grid_graph([6, 7])
        np.testing.assert_array_equal(
            frontier_bfs(graph, 3), legacy_bfs_distances(graph, 3)
        )


class TestFingerprintInvariance:
    def test_backend_not_in_experiment_fingerprint(self):
        fingerprint = ExperimentConfig.quick().fingerprint()
        assert not any("kernel" in k or "backend" in k for k in fingerprint)

    def test_cell_payload_identical_across_backends(self):
        # The contract that justifies keeping the backend out of the
        # fingerprint: a computed cell payload must be identical under every
        # backend that can run here (numpy forced vs auto — which is numba
        # when installed).
        from repro.experiments import exp_uniform
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.quick().scaled(sizes=[48])
        family, n = exp_uniform.cell_keys(config)[0]
        with kernels.use_backend("numpy"):
            reference = exp_uniform.run_cell(config, family, n)
        with kernels.use_backend("auto"):
            auto = exp_uniform.run_cell(config, family, n)
        assert auto == reference
        if HAVE_NUMBA:
            with kernels.use_backend("numba"):
                compiled = exp_uniform.run_cell(config, family, n)
            assert compiled == reference


# --------------------------------------------------------------------------- #
# Compiled-kernel parity (numba only)
# --------------------------------------------------------------------------- #

#: Engine-knob settings forcing each compiled kernel onto every level: the
#: compiled top-down branch splits only on pad presence, and the bottom-up
#: trigger knobs force the compiled bottom-up probe.
COMPILED_KERNEL_CONFIGS = {
    "top_down_padded": {"_PAD_SLOT_BLOWUP": 1e9, "_BOTTOM_UP_RATIO": 0},
    "top_down_csr": {"_PAD_SLOT_BLOWUP": -1.0, "_BOTTOM_UP_RATIO": 0},
    "bottom_up": {
        "_PAD_SLOT_BLOWUP": 1e9, "_BOTTOM_UP_RATIO": 10**9, "_BOTTOM_UP_MIN_SHIFT": 63,
    },
}


class _forced_knobs:
    def __init__(self, name):
        self.overrides = COMPILED_KERNEL_CONFIGS[name]
        self.saved = {}

    def __enter__(self):
        for attr, value in self.overrides.items():
            self.saved[attr] = getattr(frontier_module, attr)
            setattr(frontier_module, attr, value)

    def __exit__(self, *exc):
        for attr, value in self.saved.items():
            setattr(frontier_module, attr, value)


class _forced_int64:
    def __enter__(self):
        self.saved = frontier_module._FORCE_INT64
        frontier_module._FORCE_INT64 = True

    def __exit__(self, *exc):
        frontier_module._FORCE_INT64 = self.saved


@needs_numba
class TestCompiledKernelParity:
    @pytest.mark.parametrize("kernel", sorted(COMPILED_KERNEL_CONFIGS))
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_batched_rows_match_numpy_and_legacy(self, kernel, graph):
        sources = list(range(graph.num_nodes)) + ([0] if graph.num_nodes else [])
        if not sources:
            return
        with _forced_knobs(kernel):
            graph.derived_cache().clear()
            with kernels.use_backend("numba"):
                compiled = bfs_distances_many(graph, sources)
            graph.derived_cache().clear()
            with kernels.use_backend("numpy"):
                reference = bfs_distances_many(graph, sources)
        np.testing.assert_array_equal(compiled, reference)
        for row, source in enumerate(sources):
            np.testing.assert_array_equal(compiled[row], legacy_bfs_distances(graph, source))

    @pytest.mark.parametrize("kernel", sorted(COMPILED_KERNEL_CONFIGS))
    def test_cutoff_matches_numpy(self, kernel):
        graph = generators.grid_graph([6, 7])
        sources = [0, 11, 41]
        for cutoff in (0, 1, 3, 6):
            with _forced_knobs(kernel):
                graph.derived_cache().clear()
                with kernels.use_backend("numba"):
                    compiled = bfs_distances_many(graph, sources, cutoff=cutoff)
                graph.derived_cache().clear()
                with kernels.use_backend("numpy"):
                    reference = bfs_distances_many(graph, sources, cutoff=cutoff)
            np.testing.assert_array_equal(compiled, reference)

    @pytest.mark.parametrize("kernel", sorted(COMPILED_KERNEL_CONFIGS))
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_int32_int64_parity_matrix(self, kernel, graph):
        """Compiled kernels x {int32, int64} state: all four ways identical."""
        sources = list(range(0, graph.num_nodes, 2))
        if not sources:
            return
        blocks = {}
        for backend in ("numpy", "numba"):
            for force64 in (False, True):
                with _forced_knobs(kernel):
                    graph.derived_cache().clear()
                    if force64:
                        with _forced_int64(), kernels.use_backend(backend):
                            block = bfs_distances_many(graph, sources)
                        assert block.dtype == np.int64
                    else:
                        with kernels.use_backend(backend):
                            block = bfs_distances_many(graph, sources)
                        assert block.dtype == np.int32
                blocks[(backend, force64)] = block
        reference = blocks[("numpy", False)]
        for key, block in blocks.items():
            np.testing.assert_array_equal(block, reference, err_msg=str(key))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=random_graphs())
    def test_random_graphs_property(self, data, graph):
        kernel = data.draw(st.sampled_from(sorted(COMPILED_KERNEL_CONFIGS)))
        sources = data.draw(
            st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=5)
        )
        cutoff = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        with _forced_knobs(kernel):
            graph.derived_cache().clear()
            with kernels.use_backend("numba"):
                compiled = bfs_distances_many(graph, sources, cutoff=cutoff)
            graph.derived_cache().clear()
            with kernels.use_backend("numpy"):
                reference = bfs_distances_many(graph, sources, cutoff=cutoff)
        np.testing.assert_array_equal(compiled, reference)


@needs_numba
class TestCompiledNextLocalParity:
    @pytest.mark.parametrize("graph", graph_portfolio(), ids=lambda g: g.name)
    def test_matches_numpy_and_per_target_reference(self, graph):
        if graph.num_nodes == 0:
            return
        targets = list(range(0, graph.num_nodes, 2))
        with kernels.use_backend("numpy"):
            dist_block = bfs_distances_many(graph, targets)
            reference = next_local_pointers_many(graph, dist_block)
        with kernels.use_backend("numba"):
            compiled = next_local_pointers_many(graph, dist_block)
        np.testing.assert_array_equal(compiled, reference)
        for row, t in enumerate(targets):
            np.testing.assert_array_equal(
                compiled[row], next_local_pointers(graph, dist_block[row])
            )

    def test_int64_dist_block_parity(self):
        graph = generators.grid_graph([5, 7])
        targets = [0, 9, 34]
        with _forced_int64(), kernels.use_backend("numpy"):
            dist_block = bfs_distances_many(graph, targets)
            reference = next_local_pointers_many(graph, dist_block)
        with _forced_int64(), kernels.use_backend("numba"):
            compiled = next_local_pointers_many(graph, dist_block)
        assert dist_block.dtype == np.int64
        np.testing.assert_array_equal(compiled, reference)

    @settings(max_examples=30, deadline=None)
    @given(graph=random_graphs())
    def test_random_graphs_property(self, graph):
        targets = list(range(graph.num_nodes))
        with kernels.use_backend("numpy"):
            dist_block = bfs_distances_many(graph, targets)
            reference = next_local_pointers_many(graph, dist_block)
        with kernels.use_backend("numba"):
            compiled = next_local_pointers_many(graph, dist_block)
        np.testing.assert_array_equal(compiled, reference)


@needs_numba
class TestCompiledWarmup:
    def test_warmup_idempotent_and_timed(self):
        backend = kernels.get_backend("numba")
        first = backend.warmup()
        assert first >= 0.0
        assert backend.warmup() == first  # one-time: repeated calls are free
        assert kernels.backend_stats()["jit_warmup_seconds"] is not None
