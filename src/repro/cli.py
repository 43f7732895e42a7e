"""Command-line interface.

Five subcommands cover the library's day-to-day uses without writing Python:

* ``repro graph``      — generate a graph and print its basic statistics,
* ``repro pathshape``  — estimate the pathshape of a generated graph,
* ``repro route``      — estimate the greedy diameter of a (graph, scheme) pair,
* ``repro serve``      — run the long-lived micro-batching route daemon
  (NDJSON over TCP; see :mod:`repro.serve`),
* ``repro experiment`` — run one or all of the paper's experiments
  (``--jobs`` fans the sweep's cells out over processes, ``--out`` persists
  per-cell JSON artifacts, ``--resume`` skips already-computed cells,
  ``--shard`` drains ``--out`` as one worker of a lease-coordinated
  multi-process queue, ``--graph-cache`` spills the GraphStore's BFS arrays
  so graph instances are shared across workers and runs,
  ``--oracle-max-bytes`` byte-budgets the distance oracles' resident memory,
  ``--distance-mode landmark --landmarks L`` swaps bulk distance queries onto
  a pivot sketch (exact BFS kept for routing trajectories),
  ``--kernel-backend`` selects the compiled BFS/hop-table kernels,
  ``--stats`` reports hit rates, memory use and which kernel backend served
  each cell).

The flags every subcommand repeats (``--size/-n``, ``--seed``,
``--kernel-backend``, ``--jobs``) are defined once as argparse *parent
parsers* (:func:`_instance_flags` and friends) so their types, defaults and
help stay consistent across subcommands.  Invalid flag combinations raise
:class:`UsageError`, which ``main`` renders as a one-line message with exit
status 2 — never a traceback.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from typing import Dict, List, Optional

from repro.analysis.tables import format_table
from repro.core.registry import available_schemes, make_scheme
from repro.decomposition.pathshape import estimate_pathshape
from repro.experiments.config import ExperimentConfig
from repro.experiments.lease import DEFAULT_LEASE_TTL
from repro.experiments.runner import EXPERIMENT_MODULES, render_markdown, run_all
from repro.graphs import kernels
from repro.graphs.families import GRAPH_FAMILIES, build_family_graph
from repro.graphs.distances import diameter
from repro.graphs.graph import Graph
from repro.graphs.provider import DISTANCE_MODES, make_distance_provider
from repro.routing.simulator import estimate_greedy_diameter

__all__ = ["main", "build_parser", "GRAPH_FAMILIES", "UsageError"]


class UsageError(Exception):
    """An invalid flag combination or argument value.

    Raised by subcommand handlers; :func:`main` prints ``error: <message>``
    to stderr and exits with status 2 (argparse's own usage-error status), so
    misuse never surfaces as a traceback.
    """


#: Multipliers for ``--oracle-max-bytes`` size suffixes (binary units).
_SIZE_SUFFIXES = {"": 1, "B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def parse_byte_size(text: str) -> int:
    """Parse a byte-budget string: plain bytes or K/M/G binary suffixes.

    Accepts ``"536870912"``, ``"512M"``, ``"1G"``, ``"64K"`` (optionally with
    a trailing ``B``, any case).  Raises ``argparse.ArgumentTypeError`` so
    argparse renders a clean usage error instead of a traceback.
    """
    match = re.fullmatch(r"\s*(\d+)\s*([KkMmGg]?)[Bb]?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {text!r} (expected e.g. 536870912, 64K, 512M or 1G)"
        )
    value = int(match.group(1)) * _SIZE_SUFFIXES[match.group(2).upper()]
    if value < 1:
        raise argparse.ArgumentTypeError(f"byte size must be positive, got {text!r}")
    return value


def _ensure_writable_dir(path: str, flag: str) -> Optional[str]:
    """Create *path* if needed and prove it is writable; error string or None.

    The probe creates (and removes) a real temporary file: permission bits
    via ``os.access`` lie for privileged users and say nothing about
    read-only mounts, while an actual ``open`` cannot be argued with.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return f"cannot create {flag} directory {path!r}: {exc}"
    try:
        with tempfile.NamedTemporaryFile(dir=path, prefix=".writable-"):
            pass
    except OSError as exc:
        return f"{flag} directory {path!r} is not writable: {exc}"
    return None


def _make_graph(family: str, size: int, seed: int) -> Graph:
    try:
        return build_family_graph(family, size, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --------------------------------------------------------------------------- #
# Shared flag groups (argparse parent parsers)
# --------------------------------------------------------------------------- #

def _instance_flags(default_size: int) -> argparse.ArgumentParser:
    """``--size/-n`` + ``--seed``: the (n, seed) of a generated instance."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--size", "-n", type=int, default=default_size,
                        help=f"number of nodes (default {default_size})")
    parent.add_argument("--seed", type=int, default=0,
                        help="master seed for the instance (default 0)")
    return parent


def _kernel_flags(help_text: str) -> argparse.ArgumentParser:
    """``--kernel-backend``: the BFS/hop-table kernel implementation."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--kernel-backend", choices=kernels.BACKEND_CHOICES, help=help_text)
    return parent


def _jobs_flags() -> argparse.ArgumentParser:
    """``--jobs``: worker-process fan-out."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the cell sweep")
    return parent


def _distance_flags() -> argparse.ArgumentParser:
    """``--distance-mode`` + ``--landmarks`` + ``--oracle-max-bytes``.

    The distance-provider knobs, shared verbatim by ``route``, ``serve`` and
    ``experiment`` so a budgeted / landmark-backed oracle can be requested
    anywhere a session or sweep constructs one.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--distance-mode",
        choices=DISTANCE_MODES,
        default="exact",
        help=(
            "distance provider: 'exact' BFS rows everywhere (default), or "
            "'landmark' pivot-sketch estimates for bulk queries with exact "
            "BFS kept for routing trajectories"
        ),
    )
    parent.add_argument(
        "--landmarks",
        type=int,
        default=16,
        metavar="L",
        help="pivot count for --distance-mode landmark (default 16)",
    )
    parent.add_argument(
        "--oracle-max-bytes",
        type=parse_byte_size,
        metavar="BYTES",
        help=(
            "byte budget for each distance oracle's resident memory "
            "(e.g. 512M or 1G); colder rows spill to a memory-mapped file"
        ),
    )
    return parent


# --------------------------------------------------------------------------- #
# Subcommand handlers
# --------------------------------------------------------------------------- #

def _cmd_graph(args: argparse.Namespace) -> int:
    graph = _make_graph(args.family, args.size, args.seed)
    rows = [
        ["name", graph.name],
        ["nodes", graph.num_nodes],
        ["edges", graph.num_edges],
        ["min degree", int(graph.degrees().min())],
        ["max degree", int(graph.degrees().max())],
        ["avg degree", round(float(graph.degrees().mean()), 3)],
    ]
    if args.diameter:
        rows.append(["diameter", diameter(graph, exact=graph.num_nodes <= 2048)])
    print(format_table(rows, headers=["property", "value"]))
    return 0


def _cmd_pathshape(args: argparse.Namespace) -> int:
    graph = _make_graph(args.family, args.size, args.seed)
    estimate = estimate_pathshape(graph, compute_length=args.lengths)
    rows = [
        ["graph", graph.name],
        ["pathshape <=", estimate.shape],
        ["pathwidth <=", estimate.width],
        ["bags", estimate.decomposition.num_bags],
        ["winning strategy", estimate.strategy],
    ]
    print(format_table(rows, headers=["property", "value"]))
    print()
    print(format_table(sorted(estimate.candidates.items()), headers=["strategy", "witnessed shape"]))
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    if args.kernel_backend:
        kernels.set_backend(args.kernel_backend)
        kernels.warmup_active()
    graph = _make_graph(args.family, args.size, args.seed)
    # One provider shared across the compared schemes: BFS arrays pool, and
    # under --distance-mode landmark the pair sampling rides the sketch.
    oracle = make_distance_provider(
        graph,
        args.distance_mode,
        landmarks=args.landmarks,
        seed=args.seed,
        max_bytes=args.oracle_max_bytes,
    )
    rows = []
    for scheme_name in args.schemes:
        scheme = make_scheme(scheme_name, graph, seed=args.seed)
        estimate = estimate_greedy_diameter(
            graph,
            scheme,
            num_pairs=args.pairs,
            trials=args.trials,
            seed=args.seed,
            oracle=oracle,
        )
        rows.append(
            [
                scheme_name,
                round(estimate.diameter, 2),
                round(estimate.mean, 2),
                f"{100 * estimate.long_link_fraction:.0f}%",
            ]
        )
    print(f"graph: {graph.name} (n={graph.num_nodes}, m={graph.num_edges})")
    print(
        format_table(
            rows, headers=["scheme", "greedy diameter", "mean steps", "long-link share"]
        )
    )
    if args.distance_mode != "exact":
        print(_distance_stats_line(oracle.distance_stats()), file=sys.stderr)
    return 0


def _distance_stats_line(stats: dict) -> str:
    """One-line ``--stats``/route summary of a provider's distance_stats()."""
    stretch = stats.get("mean_stretch")
    stretch_text = f"{stretch:.4f}" if stretch is not None else "unmeasured"
    return (
        f"distance provider: mode={stats.get('mode', 'exact')}, "
        f"{stats.get('landmark_sweeps', 0)} landmark sweep(s), "
        f"{stats.get('sketch_queries', 0)} sketch query(ies), "
        f"mean stretch {stretch_text}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    import numpy as np

    from repro.serve.server import RouteServer
    from repro.session import open_session

    if args.max_batch < 1:
        raise UsageError("--max-batch must be at least 1")
    if args.window_ms < 0:
        raise UsageError("--window-ms must be non-negative")
    if args.warm_targets < 0:
        raise UsageError("--warm-targets must be non-negative")
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must be in [0, 65535], got {args.port}")
    if args.scheme not in available_schemes():
        raise UsageError(
            f"unknown scheme {args.scheme!r} (available: {', '.join(available_schemes())})"
        )

    session = open_session(
        args.family,
        args.size,
        seed=args.seed,
        scheme=args.scheme,
        oracle_max_bytes=args.oracle_max_bytes,
        distance_mode=args.distance_mode,
        landmarks=args.landmarks,
        kernel_backend=args.kernel_backend,
    )
    n = session.graph.num_nodes
    warm = min(args.warm_targets, n)
    if warm:
        targets = np.random.default_rng(args.seed).choice(n, size=warm, replace=False)
        session.warm(targets)

    server = RouteServer(
        session,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        window=args.window_ms / 1000.0,
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        # The parseable readiness line load generators and tests wait for.
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(family={args.family} n={n} scheme={args.scheme} seed={args.seed})",
            flush=True,
        )
        serving = asyncio.ensure_future(server.serve_forever())
        await stop_requested.wait()
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)
        await server.stop()
        stats = server.batcher.stats
        print(
            f"repro serve: stopped after {stats['submitted']} queries "
            f"in {stats['batches']} batches",
            flush=True,
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler platforms cover this
        pass
    finally:
        session.close()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.kernel_backend:
        # Recorded in the environment (so --jobs/--shard workers inherit it),
        # NOT in the config fingerprint: the backend cannot change results
        # (asserted by the parity tests), so artifacts stay interchangeable.
        kernels.set_backend(args.kernel_backend)
    config = ExperimentConfig.quick() if args.quick else ExperimentConfig.full()
    config = config.scaled(
        distance_mode=args.distance_mode,
        landmarks=args.landmarks,
    )
    if args.sizes:
        config = config.scaled(sizes=list(args.sizes))
    only = args.only if args.only else None
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if args.resume and not args.out:
        raise UsageError("--resume requires --out (the artifact directory to resume from)")
    if args.shard and not args.out:
        raise UsageError("--shard requires --out (the artifact directory to drain)")
    for path, flag in ((args.out, "--out"), (args.graph_cache, "--graph-cache")):
        if path:
            error = _ensure_writable_dir(path, flag)
            if error is not None:
                raise UsageError(error)
    stats: dict = {}
    try:
        results = run_all(
            config,
            only=only,
            verbose=not args.markdown,
            jobs=args.jobs,
            artifacts_dir=args.out,
            resume=args.resume,
            graph_cache=args.graph_cache,
            stats=stats,
            shard=args.shard,
            lease_ttl=args.lease_ttl,
            oracle_max_bytes=args.oracle_max_bytes,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.markdown:
        print(render_markdown(results))
    else:
        executed, skipped = len(stats["executed"]), len(stats["skipped"])
        note = f"sweep: {executed} cell(s) computed"
        if skipped:
            note += f", {skipped} loaded from artifacts"
        if args.out:
            note += f"; artifacts in {args.out}"
        print(note)
    if args.stats:
        # Cache-hit counters go to stderr so --markdown output stays a clean
        # report.  With --jobs the serial-path store sits idle (workers keep
        # their own); the spill files under --graph-cache are the evidence.
        store = stats.get("store", {})
        print(
            "graph store: "
            f"{store.get('graph_builds', 0)} build(s), "
            f"{store.get('graph_hits', 0)} hit(s), "
            f"{store.get('bfs_misses', 0)} BFS run, "
            f"{store.get('bfs_hits', 0)} BFS served from cache, "
            f"{store.get('bfs_preloaded', 0)} BFS loaded from spill; "
            f"spill: {store.get('spill_saves', 0)} saved, "
            f"{store.get('spill_loads', 0)} loaded, "
            f"{store.get('spill_rejected', 0)} rejected",
            file=sys.stderr,
        )
        resident = int(store.get("oracle_resident_bytes", 0))
        nodes = int(store.get("oracle_nodes", 0))
        per_node = resident / nodes if nodes else 0.0
        memory = (
            f"oracle memory: {resident} resident byte(s) over {nodes} node(s) "
            f"({per_node:.1f} bytes/node)"
        )
        try:
            import resource
        except ImportError:  # pragma: no cover - resource is POSIX-only
            pass
        else:
            # ru_maxrss is KiB on Linux.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            memory += f"; peak RSS: {peak} byte(s)"
        print(memory, file=sys.stderr)
        # Distance-provider summary (mode, sketch counters, measured stretch).
        print(_distance_stats_line({**store, "mode": store.get("distance_mode")}), file=sys.stderr)
        # Which kernel backend actually served each computed cell.  A cell
        # served by numpy under a numba request is a *silent fallback*
        # (worker host missing the extra) — surfacing it here is what keeps
        # shard/nightly logs honest about what was measured.
        backends = stats.get("kernel_backends", {})
        requested = kernels.requested_backend()
        served: Dict[str, int] = {}
        warmup = 0.0
        for info in backends.values():
            served[info["active"]] = served.get(info["active"], 0) + 1
            warmup = max(warmup, float(info.get("jit_warmup_seconds") or 0.0))
        cells = ", ".join(f"{name}={count}" for name, count in sorted(served.items()))
        line = f"kernel backend: requested {requested}"
        line += f"; cells served: {cells if cells else 'none computed'}"
        if warmup:
            line += f"; JIT warmup: {warmup:.3f}s"
        print(line, file=sys.stderr)
        if requested == "numba" and served.get("numpy"):
            fallen = [
                f"{cell.experiment_id}/{cell.family}/n={cell.n}"
                for cell, info in backends.items()
                if info["active"] == "numpy"
            ]
            shown = ", ".join(fallen[:8]) + (" ..." if len(fallen) > 8 else "")
            print(
                f"WARNING: {len(fallen)} cell(s) fell back to numpy kernels: {shown}",
                file=sys.stderr,
            )
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Universal augmentation schemes for network navigability (SPAA 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser(
        "graph",
        help="generate a graph and print statistics",
        parents=[_instance_flags(256)],
    )
    p_graph.add_argument("family", choices=sorted(GRAPH_FAMILIES))
    p_graph.add_argument("--diameter", action="store_true", help="also compute the diameter")
    p_graph.set_defaults(handler=_cmd_graph)

    p_shape = sub.add_parser(
        "pathshape",
        help="estimate the pathshape of a graph",
        parents=[_instance_flags(256)],
    )
    p_shape.add_argument("family", choices=sorted(GRAPH_FAMILIES))
    p_shape.add_argument("--lengths", action="store_true", help="evaluate bag lengths (slower, tighter)")
    p_shape.set_defaults(handler=_cmd_pathshape)

    p_route = sub.add_parser(
        "route",
        help="estimate the greedy diameter under one or more schemes",
        parents=[
            _instance_flags(512),
            _kernel_flags(
                "BFS/hop-table kernel backend (auto = numba when installed; "
                "results are backend-invariant)"
            ),
            _distance_flags(),
        ],
    )
    p_route.add_argument("family", choices=sorted(GRAPH_FAMILIES))
    p_route.add_argument("--pairs", type=int, default=8)
    p_route.add_argument("--trials", type=int, default=8)
    p_route.add_argument(
        "--schemes",
        nargs="+",
        default=["uniform", "ball"],
        help=f"schemes to compare (available: {', '.join(available_schemes())})",
    )
    p_route.set_defaults(handler=_cmd_route)

    p_serve = sub.add_parser(
        "serve",
        help="run the micro-batching route daemon (NDJSON over TCP)",
        parents=[
            _instance_flags(4096),
            _kernel_flags("BFS/hop-table kernel backend warmed before the session opens"),
            _distance_flags(),
        ],
    )
    p_serve.add_argument("family", choices=sorted(GRAPH_FAMILIES))
    p_serve.add_argument(
        "--scheme",
        default="uniform",
        help=f"augmentation scheme to serve (available: {', '.join(available_schemes())})",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP port; 0 lets the OS pick (default 0)"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=512,
        help="flush a micro-batch as soon as this many queries are pending (default 512)",
    )
    p_serve.add_argument(
        "--window-ms", type=float, default=1.0,
        help="flush a micro-batch this many ms after its first query (default 1.0)",
    )
    p_serve.add_argument(
        "--warm-targets", type=int, default=32,
        help="routing-block rows to precompute before accepting queries (default 32)",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_exp = sub.add_parser(
        "experiment",
        help="run the paper's experiments",
        parents=[
            _kernel_flags(
                "BFS/hop-table kernel backend, exported via REPRO_KERNEL_BACKEND "
                "so --jobs/--shard workers inherit it (NOT part of the artifact "
                "fingerprint: results are backend-invariant)"
            ),
            _jobs_flags(),
            _distance_flags(),
        ],
    )
    p_exp.add_argument(
        "--only",
        nargs="*",
        help=f"experiment ids to run (available: {', '.join(m.EXPERIMENT_ID for m in EXPERIMENT_MODULES)})",
    )
    p_exp.add_argument("--quick", action="store_true", help="use the small benchmark configuration")
    p_exp.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")
    p_exp.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        help="override the configuration's graph sizes (e.g. --sizes 50000 1000000)",
    )
    p_exp.add_argument("--out", help="directory to persist per-cell JSON artifacts in")
    p_exp.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose artifact already exists in --out (same config only)",
    )
    p_exp.add_argument(
        "--shard",
        action="store_true",
        help=(
            "drain --out as one worker of a multi-process queue: cells are "
            "claimed via atomic .lease files, so independently started shard "
            "processes split the sweep and each assembles the full report"
        ),
    )
    p_exp.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="age after which another shard may take over an untouched lease",
    )
    p_exp.add_argument(
        "--graph-cache",
        help=(
            "directory for the GraphStore's fingerprint-checked raw .spill "
            "files (memory-mapped on reload; shares graph instances across "
            "--jobs workers, --shard processes and across runs)"
        ),
    )
    p_exp.add_argument(
        "--stats",
        action="store_true",
        help="print GraphStore cache-hit and memory statistics to stderr after the sweep",
    )
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
