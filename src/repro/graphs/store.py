"""Cross-experiment :class:`GraphStore` cache service.

Every experiment of the reproduction sweeps the same ``(family, n)`` graph
instances, and before this module each experiment rebuilt its graphs and
re-ran every BFS from scratch: the :class:`~repro.graphs.oracle.DistanceOracle`
pooled BFS work *within* one experiment cell, but nothing pooled it *across*
experiments.  The :class:`GraphStore` closes that gap:

* it is a registry keyed ``(family, n, graph_seed)`` that hands out memoised
  :class:`StoreEntry` objects — one generated :class:`~repro.graphs.graph.Graph`
  plus the one :class:`DistanceOracle` everything measured on that instance
  shares.  When ``run_all`` executes several experiments over the same
  instance, the second and later experiments perform **zero** graph builds
  and (because the sweep pipeline also keys its pair sampling per instance,
  see :func:`repro.experiments.common.derive_instance_seed`) zero repeat BFS
  sweeps,
* with a ``spill_dir`` it becomes a cross-*process* cache: after a cell is
  computed the oracle's distance rows are spilled to a raw ``.spill`` file
  keyed by the instance and stamped with a **content fingerprint** of the
  graph's CSR arrays.  A sibling worker (or a later
  run) that misses in memory reloads the spilled arrays instead of re-running
  the BFS — after verifying that the fingerprint matches the graph it just
  built, so a stale or foreign spill file can never smuggle in wrong
  distances.  Loads and saves go through atomic renames, so concurrent
  ``--jobs`` workers can share one directory safely,
* everything it serves is exactly what would have been computed locally
  (memoised graphs are the same object, absorbed arrays are bitwise equal to
  a fresh BFS), so ``--jobs N`` stays bitwise-identical to a serial sweep
  with or without the cache.

**Spill layout (v3).**  A raw, page-aligned layout made for
:func:`numpy.memmap`: an 8-byte magic (``RSPILLV3``), a little-endian uint64
header length, a JSON header (schema version, fingerprint, ``n``, dtype, the
source key list and a sha256 of the data section), zero padding to a 64-byte
boundary, then the distance block as plain C-order rows.  Hop tables are not
spilled: an oracle re-derives them from the absorbed rows in one vectorized
pass, far cheaper than the BFS the spill saves.  Loaders validate the magic,
schema, fingerprint and the *exact* file size (truncation cannot pass), then
hand the oracle read-only memmap views — every ``--jobs`` worker shares the
same physical pages instead of absorbing a private copy.
:func:`write_oracle_spill`, :func:`load_oracle_spill` and
:func:`read_spill_header` expose the format.

:func:`process_store` returns the per-process singleton used by the sweep's
pool workers, so cells that land in the same worker process share instances
in memory while cells in different workers share them through the spill
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.oracle import DistanceOracle
from repro.graphs.provider import DISTANCE_MODES, DistanceProvider, make_distance_provider
from repro.utils.text import slugify

__all__ = [
    "GraphStore",
    "StoreEntry",
    "graph_fingerprint",
    "load_oracle_spill",
    "process_store",
    "read_spill_header",
    "write_oracle_spill",
    "SPILL_SCHEMA_VERSION",
]

#: Bump when the spill layout changes; loaders reject other versions.
SPILL_SCHEMA_VERSION = 3

#: Leading magic of a v3 raw spill file.
SPILL_MAGIC = b"RSPILLV3"

#: Sanity bound on the JSON header; anything larger is a corrupt length field.
_MAX_HEADER_BYTES = 64 * 1024 * 1024


def _align64(offset: int) -> int:
    """*offset* rounded up to the next 64-byte boundary."""
    return (offset + 63) & ~63


def write_oracle_spill(path: Union[str, Path], state: Dict[str, np.ndarray],
                       *, fingerprint: str, n: int) -> None:
    """Write an oracle :meth:`~DistanceOracle.export_state` snapshot as a v3 spill."""
    dist_sources = np.asarray(state["dist_sources"], dtype=np.int64)
    dist_block = np.ascontiguousarray(state["dist_block"])
    header = {
        "schema_version": SPILL_SCHEMA_VERSION,
        "fingerprint": str(fingerprint),
        "n": int(n),
        "dtype": dist_block.dtype.str,
        "dist_sources": dist_sources.tolist(),
        "data_sha256": hashlib.sha256(dist_block.data).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data_offset = _align64(len(SPILL_MAGIC) + 8 + len(blob))
    with open(path, "wb") as fh:
        fh.write(SPILL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(b"\0" * (data_offset - len(SPILL_MAGIC) - 8 - len(blob)))
        dist_block.tofile(fh)


def read_spill_header(path: Union[str, Path]) -> Tuple[Dict, int]:
    """``(header, data_offset)`` of a v3 spill file.

    Raises :class:`ValueError` on a bad magic, a corrupt length field or a
    header that is not valid JSON; the caller decides whether that means
    "reject and recompute" (the store) or a test failure.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SPILL_MAGIC))
        if magic != SPILL_MAGIC:
            raise ValueError("not a v3 oracle spill (bad magic)")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ValueError("truncated spill header length")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > _MAX_HEADER_BYTES:
            raise ValueError("corrupt spill header length")
        blob = fh.read(header_len)
    if len(blob) != header_len:
        raise ValueError("truncated spill header")
    header = json.loads(blob.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("spill header is not an object")
    return header, _align64(len(SPILL_MAGIC) + 8 + header_len)


def load_oracle_spill(
    path: Union[str, Path],
    *,
    expected_fingerprint: Optional[str] = None,
    expected_n: Optional[int] = None,
    verify: bool = False,
) -> Dict[str, np.ndarray]:
    """Memory-map a v3 spill into an :meth:`~DistanceOracle.absorb_state` dict.

    The returned block is a **read-only memmap view** sharing pages with
    every other process mapping the same file; absorb them with
    ``copy=False`` to keep that sharing.  Validation is strict — schema
    version, fingerprint, ``n`` and the exact file size must all match
    (truncated or padded files raise) — and ``verify=True`` additionally
    re-hashes the data section against the recorded sha256.
    """
    header, data_offset = read_spill_header(path)
    if header.get("schema_version") != SPILL_SCHEMA_VERSION:
        raise ValueError("unsupported spill schema version")
    if expected_fingerprint is not None and header.get("fingerprint") != expected_fingerprint:
        raise ValueError("spill fingerprint does not match this graph")
    n = int(header["n"])
    if expected_n is not None and n != int(expected_n):
        raise ValueError("spill row length does not match this graph")
    dtype = np.dtype(header["dtype"])
    dist_sources = np.asarray(header["dist_sources"], dtype=np.int64)
    rows = dist_sources.size
    expected_size = data_offset + rows * n * dtype.itemsize
    actual_size = os.path.getsize(path)
    if actual_size != expected_size:
        raise ValueError(
            f"spill size mismatch: expected {expected_size} bytes, found {actual_size}"
        )
    if rows * n:
        dist_block: np.ndarray = np.memmap(
            path, dtype=dtype, mode="r", offset=data_offset, shape=(rows, n)
        )
    else:
        dist_block = np.empty((rows, n), dtype=dtype)
    if verify:
        digest = hashlib.sha256(np.ascontiguousarray(dist_block).data).hexdigest()
        if digest != header.get("data_sha256"):
            raise ValueError("spill data hash mismatch")
    return {"dist_sources": dist_sources, "dist_block": dist_block}


def graph_fingerprint(graph: Graph) -> str:
    """Content fingerprint of a graph's exact CSR structure (sha256 hex).

    Two graphs have the same fingerprint iff they have identical ``indptr``
    and ``indices`` arrays — the property that makes every BFS array
    interchangeable between them.  Names are deliberately excluded.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.indices).tobytes())
    return digest.hexdigest()


@dataclass
class StoreEntry:
    """One cached graph instance: the graph, its shared oracle, extras.

    ``extras`` memoises derived per-instance objects (exact decompositions,
    interval systems, …) that experiments would otherwise recompute; use
    :meth:`extra` for build-on-miss access.  ``fingerprint`` is the CSR
    content hash that guards the disk spill round-trip.
    """

    family: str
    requested_n: int
    seed: int
    graph: Graph
    oracle: DistanceProvider
    fingerprint: str
    extras: Dict[str, object] = field(default_factory=dict)
    #: Cached distance-row count at load / last spill; used to skip
    #: rewriting spill files whose content would not change.
    spilled_arrays: int = 0

    def extra(self, name: str, build: Callable[[], object]) -> object:
        """Memoised per-instance derived object (e.g. a path decomposition)."""
        if name not in self.extras:
            self.extras[name] = build()
        return self.extras[name]

    def cached_arrays(self) -> int:
        """Number of distance rows the oracle holds, hot and cold tiers alike.

        Rows only ever move between the tiers (spilled, never dropped), so
        this count grows exactly when the oracle learns a new row.
        """
        return self.oracle.cache_size() + int(self.oracle.memory_stats()["cold_entries"] or 0)


#: Builds the graph of one instance: ``(n, seed) -> Graph`` or
#: ``(n, seed) -> (Graph, extras_dict)`` for factories whose construction
#: yields reusable by-products (e.g. an interval graph plus its exact
#: clique-path decomposition).
InstanceFactory = Callable[[int, int], Union[Graph, Tuple[Graph, Dict[str, object]]]]


class GraphStore:
    """Process-wide cache of graph instances and their warmed oracles.

    Parameters
    ----------
    spill_dir:
        Optional directory for the raw ``.spill`` distance-row files.  When
        set, instance misses first try to reload a spilled oracle state
        (fingerprint-checked, memory-mapped) and :meth:`spill` persists
        warmed oracles for other processes / later runs.
    oracle_factory:
        Test hook building each instance's provider (default: see
        ``distance_mode``); counting oracles plug in here.  When given it
        overrides ``distance_mode``/``landmarks``/``oracle_max_bytes``.
    oracle_max_bytes:
        Byte budget handed to every default-constructed provider (the
        ``max_bytes=`` tier budget; ignored when an ``oracle_factory`` is
        given).
    distance_mode:
        Which :class:`~repro.graphs.provider.DistanceProvider` every
        default-constructed instance gets: ``"exact"`` (a plain
        :class:`DistanceOracle`) or ``"landmark"`` (the pivot sketch, seeded
        with each instance's graph seed so all workers building the same
        instance select the same pivots).
    landmarks:
        Pivot count for ``distance_mode="landmark"`` (ignored otherwise).
    verify_spill:
        Re-hash each spill file's data section against its recorded sha256
        on load (full-content check; the default relies on the magic,
        schema, fingerprint and exact-size checks).
    """

    def __init__(
        self,
        *,
        spill_dir: Optional[Union[str, Path]] = None,
        oracle_factory: Optional[Callable[[Graph], DistanceProvider]] = None,
        oracle_max_bytes: Optional[int] = None,
        distance_mode: str = "exact",
        landmarks: int = 16,
        verify_spill: bool = False,
    ) -> None:
        if distance_mode not in DISTANCE_MODES:
            raise ValueError(
                f"unknown distance_mode {distance_mode!r}; "
                f"available: {', '.join(DISTANCE_MODES)}"
            )
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._oracle_factory = oracle_factory
        self._oracle_max_bytes = oracle_max_bytes
        self._distance_mode = str(distance_mode)
        self._landmarks = int(landmarks)
        self._verify_spill = verify_spill
        self._entries: Dict[Tuple[str, int, int], StoreEntry] = {}
        self._stats = {
            "graph_builds": 0,
            "graph_hits": 0,
            "spill_loads": 0,
            "spill_saves": 0,
            "spill_rejected": 0,
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def spill_dir(self) -> Optional[Path]:
        return self._spill_dir

    @property
    def distance_mode(self) -> str:
        """The ``distance_mode`` default-constructed providers use."""
        return self._distance_mode

    @property
    def landmarks(self) -> int:
        """Pivot count for landmark-mode providers."""
        return self._landmarks

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Cache-effectiveness counters (graph builds/hits, spill IO, BFS).

        ``bfs_misses`` counts actual BFS sweeps run by the oracles,
        ``bfs_hits`` cache-served distance queries and ``bfs_preloaded``
        arrays absorbed from spill files (each one a BFS that some process
        did *not* repeat).  ``distance_mode`` plus the sketch counters
        (``sketch_queries``, ``landmark_sweeps``, ``mean_stretch`` — the
        latter weighted by each provider's sampled row count, ``None`` when
        nothing was sampled) summarise the provider layer; in exact mode
        they are the identity values.
        """
        out: Dict[str, object] = dict(self._stats)
        out["instances"] = len(self._entries)
        out["oracle_resident_bytes"] = sum(
            e.oracle.resident_bytes() for e in self._entries.values()
        )
        out["oracle_nodes"] = sum(e.graph.num_nodes for e in self._entries.values())
        out["bfs_misses"] = sum(e.oracle.misses for e in self._entries.values())
        out["bfs_hits"] = sum(e.oracle.hits for e in self._entries.values())
        out["bfs_preloaded"] = sum(e.oracle.preloaded for e in self._entries.values())
        out["distance_mode"] = self._distance_mode
        sketch_queries = 0
        landmark_sweeps = 0
        stretch_rows = 0
        stretch_sum = 0.0
        for e in self._entries.values():
            ds = e.oracle.distance_stats()
            sketch_queries += int(ds.get("sketch_queries", 0))
            landmark_sweeps += int(ds.get("landmark_sweeps", 0))
            rows = int(ds.get("stretch_rows", 0))
            mean = ds.get("mean_stretch")
            if rows and mean is not None:
                stretch_rows += rows
                stretch_sum += float(mean) * rows
        out["sketch_queries"] = sketch_queries
        out["landmark_sweeps"] = landmark_sweeps
        out["mean_stretch"] = (stretch_sum / stretch_rows) if stretch_rows else None
        return out

    # ------------------------------------------------------------------ #
    # Instances
    # ------------------------------------------------------------------ #

    def instance(
        self, family: str, n: int, seed: int, graph_factory: InstanceFactory
    ) -> StoreEntry:
        """The cached instance for ``(family, n, seed)``, built on miss.

        On miss the graph is generated by ``graph_factory(n, seed)`` (which
        may also return per-instance ``extras``), its oracle is created, and
        — when a spill directory is configured — a matching spill file is
        absorbed after its content fingerprint is verified against the graph
        that was just built.
        """
        key = (str(family), int(n), int(seed))
        entry = self._entries.get(key)
        if entry is not None:
            self._stats["graph_hits"] += 1
            return entry
        self._stats["graph_builds"] += 1
        built = graph_factory(int(n), int(seed))
        extras: Dict[str, object] = {}
        if isinstance(built, tuple):
            graph, extras = built
            extras = dict(extras)
        else:
            graph = built
        if self._oracle_factory is not None:
            oracle = self._oracle_factory(graph)
        else:
            # Landmark pivot selection is seeded with the *instance* seed, so
            # every worker (and every resumed run) building this instance
            # picks identical pivots — the sketch is a pure function of the
            # instance key.
            oracle = make_distance_provider(
                graph,
                self._distance_mode,
                landmarks=self._landmarks,
                seed=int(seed),
                max_bytes=self._oracle_max_bytes,
            )
        entry = StoreEntry(
            family=str(family),
            requested_n=int(n),
            seed=int(seed),
            graph=graph,
            oracle=oracle,
            fingerprint=graph_fingerprint(graph),
            extras=extras,
        )
        if self._spill_dir is not None:
            self._load_spill(entry)
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------ #
    # Disk spill
    # ------------------------------------------------------------------ #

    def _spill_path(self, entry: StoreEntry) -> Path:
        assert self._spill_dir is not None
        return self._spill_dir / (
            f"{slugify(entry.family)}__n{entry.requested_n}__s{entry.seed}.spill"
        )

    def _load_spill(self, entry: StoreEntry) -> bool:
        """Absorb a spilled oracle state into *entry* (fingerprint-checked).

        The blocks come back as read-only memmap views and are absorbed with
        ``copy=False``: every worker mapping the same spill file shares its
        physical pages instead of inflating a private copy.
        """
        path = self._spill_path(entry)
        if not path.is_file():
            return False
        try:
            state = load_oracle_spill(
                path,
                expected_fingerprint=entry.fingerprint,
                expected_n=entry.graph.num_nodes,
                verify=self._verify_spill,
            )
            entry.oracle.absorb_state(state, copy=False)
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable / truncated / foreign / wrong-shape file: absorbing
            # it would serve wrong distances — recompute locally instead.
            self._stats["spill_rejected"] += 1
            return False
        entry.spilled_arrays = entry.cached_arrays()
        self._stats["spill_loads"] += 1
        return True

    def _spill_entry(self, entry: StoreEntry) -> bool:
        """Write *entry*'s oracle state to disk if it grew since last spill."""
        if self._spill_dir is None:
            return False
        if entry.cached_arrays() <= entry.spilled_arrays:
            return False
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_path(entry)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        state = entry.oracle.export_state()
        try:
            write_oracle_spill(
                tmp, state, fingerprint=entry.fingerprint, n=entry.graph.num_nodes
            )
            os.replace(tmp, path)  # atomic: concurrent workers race benignly
        finally:
            if tmp.exists():  # failed write: do not leave temp litter behind
                tmp.unlink()
        entry.spilled_arrays = entry.cached_arrays()
        self._stats["spill_saves"] += 1
        return True

    def spill(self) -> int:
        """Spill every live instance whose oracle grew; returns files written.

        A no-op (returning 0) without a configured ``spill_dir``.  The sweep
        executor calls this after each computed cell so sibling workers can
        pick the arrays up immediately.
        """
        if self._spill_dir is None:
            return 0
        return sum(1 for entry in self._entries.values() if self._spill_entry(entry))


# --------------------------------------------------------------------------- #
# Per-process store (pool workers)
# --------------------------------------------------------------------------- #

#: One store per (process, spill-dir) — ProcessPoolExecutor workers persist
#: across cells, so cells that land in the same worker share instances in
#: memory while cross-worker reuse flows through the spill directory.
_PROCESS_STORES: Dict[
    Tuple[Optional[str], Optional[int], str, int], GraphStore
] = {}


def process_store(
    spill_dir: Optional[Union[str, Path]] = None,
    oracle_max_bytes: Optional[int] = None,
    distance_mode: str = "exact",
    landmarks: int = 16,
) -> GraphStore:
    """The calling process's :class:`GraphStore` for *spill_dir* (created once).

    Stores are keyed by ``(spill_dir, oracle_max_bytes, distance_mode,
    landmarks)`` so sweeps with different oracle byte budgets or distance
    providers never share (differently-configured) provider caches.
    """
    key = (
        str(Path(spill_dir)) if spill_dir is not None else None,
        oracle_max_bytes,
        str(distance_mode),
        int(landmarks),
    )
    store = _PROCESS_STORES.get(key)
    if store is None:
        store = GraphStore(
            spill_dir=spill_dir,
            oracle_max_bytes=oracle_max_bytes,
            distance_mode=distance_mode,
            landmarks=landmarks,
        )
        _PROCESS_STORES[key] = store
    return store
