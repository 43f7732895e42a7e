#!/usr/bin/env python
"""Benchmark trend gate: fail CI on a >30% regression of any gated metric.

Compares the *freshly measured* records a benchmark run just appended to
``BENCH_routing.json`` against the *committed baseline* (the file as of a
git ref, default ``HEAD`` — i.e. exactly what the repository claimed before
this run).  Two metrics are gated, each with its own direction:

* ``speedup`` (higher is better — ``next_local_many`` batched-vs-loop):
  the fresh value must not fall below ``(1 - tolerance)`` times the
  baseline,
* ``bytes_per_node`` (lower is better — ``oracle_memory`` resident-memory
  records): the fresh value must not rise above ``(1 + tolerance)`` times
  the baseline.

For every benchmark kind, metric and problem size measured by both sides the
gate applies the matching bound.  Kinds listed in ``KIND_GATED_METRICS``
override the default metric set: ``bfs_engine_highdiam`` gates on
``engine_seconds`` (lower is better) rather than its legacy-relative
``speedup`` — that ratio divides two timers, so a faster run of the
pure-Python comparator (machine-state noise) would register as an engine
regression even when the engine's own time is flat.  The absolute engine
time has no comparator in the denominator and tracks what the gate is
actually protecting.  The routing kinds (``routing_engine``,
``routing_engine_highdiam``) gate the same way on the lane engine's warm
``lane_seconds``: their rows carry no speedup, because the scalar engine
that was the ratio's denominator no longer exists.

The baseline is the *median* per size over the baseline file's most recent
records (up to ``--baseline-window`` per kind and size), so one historically
lucky run cannot ratchet the gate beyond what the hardware sustains; the
fresh value is the latest record of the current file.  Absolute thresholds
live in the benchmarks themselves — this gate only watches the trend.

Usage (CI runs it right after the benchmark step)::

    python tools/check_bench_trend.py [--path BENCH_routing.json]
        [--baseline-ref HEAD] [--tolerance 0.30]

Exit status 0 = trend ok (or nothing comparable), 1 = regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_routing.json"

#: Gated metrics: result-dict field -> True when higher values are better.
GATED_METRICS = {"speedup": True, "bytes_per_node": False}

#: Per-kind overrides of the default metric set.  ``bfs_engine_highdiam``
#: gates the engine's own wall time instead of the legacy-relative speedup
#: ratio, which is sensitive to comparator (denominator) noise.  The
#: compiled-kernel rows (``bfs_kernel_compiled`` / ``next_local_compiled``,
#: appended by ``benchmarks/test_bench_kernel_backend.py`` on hosts with the
#: numba extra) gate the same way: the compiled path's own engine time,
#: lower is better — their numpy-relative speedup is a gate inside the
#: benchmark itself, not a trend.
#: The serve daemon's records (``benchmarks/test_bench_serve.py``) gate on
#: their own axes: ``serve_qps`` on sustained queries/second (higher is
#: better), ``serve_latency`` on the closed loop's p99 response time in
#: milliseconds (lower is better).
#: The lane engine's rows (``routing_engine`` on grids,
#: ``routing_engine_highdiam`` on rings) gate on ``lane_seconds``, the
#: minimum of the benchmark's warm rounds, lower is better.
#: The landmark sketch's records (``benchmarks/test_bench_approx_distance.py``)
#: gate on ``warmup_seconds`` — the one-off pivot BFS cost that landmark mode
#: pays instead of per-query exact sweeps — and on ``mean_stretch``, the
#: sketch's quality against the ring's closed-form distances; both lower is
#: better, so a slower warmup or a sloppier sketch fails the trend.
#: The decomposition rows (``min_fill``, ``benchmarks/test_bench_decomposition.py``)
#: gate the incremental min-fill ordering's own ``seconds`` on the 32×32
#: torus, lower is better; its speedup over the full-rescan reference is a
#: gate inside the benchmark, since that reference's time is the noisier one.
KIND_GATED_METRICS = {
    "bfs_engine_highdiam": {"engine_seconds": False},
    "routing_engine": {"lane_seconds": False},
    "routing_engine_highdiam": {"lane_seconds": False},
    "bfs_kernel_compiled": {"engine_seconds": False},
    "next_local_compiled": {"engine_seconds": False},
    "serve_qps": {"qps": True},
    "serve_latency": {"p99_ms": False},
    "approx_distance": {"warmup_seconds": False, "mean_stretch": False},
    "min_fill": {"seconds": False},
}


def load_runs(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return []
    if not isinstance(data, dict) or data.get("schema_version") != 1:
        return []
    return data.get("runs", [])


def baseline_text(path: Path, ref: str) -> str:
    """The file's content at *ref* (empty when git or the ref is unavailable)."""
    try:
        repo_root = Path(
            subprocess.check_output(
                ["git", "rev-parse", "--show-toplevel"],
                cwd=path.parent,
                text=True,
                stderr=subprocess.DEVNULL,
            ).strip()
        )
        rel = path.resolve().relative_to(repo_root)
        return subprocess.check_output(
            ["git", "show", f"{ref}:{rel.as_posix()}"],
            cwd=repo_root,
            text=True,
            stderr=subprocess.DEVNULL,
        )
    except (subprocess.CalledProcessError, FileNotFoundError, ValueError):
        return ""


def runs_by_kind(runs):
    """Group records per benchmark kind, preserving append order.

    Records written before the ``benchmark`` field existed are
    ``routing_engine`` measurements.
    """
    per_kind = defaultdict(list)
    for run in runs:
        per_kind[run.get("benchmark", "routing_engine")].append(run)
    return per_kind


def metric_by_size(kind_runs, metric: str, window: int = 0):
    """``{n: [values...]}`` of *metric* over *kind_runs*, newest last.

    *window* keeps only the last N records (0 = all).
    """
    out = defaultdict(list)
    if window:
        kind_runs = kind_runs[-window:]
    for run in kind_runs:
        for result in run.get("results", []):
            if "n" in result and metric in result:
                out[int(result["n"])].append(float(result[metric]))
    return out


def speedups_by_size(kind_runs, window: int = 0):
    """Back-compat alias: the ``speedup`` metric per size."""
    return metric_by_size(kind_runs, "speedup", window=window)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", type=Path, default=DEFAULT_PATH)
    parser.add_argument("--baseline-ref", default="HEAD")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument(
        "--baseline-window",
        type=int,
        default=5,
        help="baseline = median over this many most-recent committed records",
    )
    args = parser.parse_args(argv)

    if not args.path.is_file():
        print(f"trend gate: {args.path} does not exist; nothing to check")
        return 0
    current_kinds = runs_by_kind(load_runs(args.path.read_text()))
    committed_kinds = runs_by_kind(load_runs(baseline_text(args.path, args.baseline_ref)))
    if not committed_kinds:
        print("trend gate: no committed baseline records; skipping (first run?)")
        return 0

    failures = []
    compared = 0
    for kind, baseline_runs in sorted(committed_kinds.items()):
        # The file is append-only, so everything past the committed record
        # count is what this benchmark run actually measured — committed
        # history must never be compared against itself.
        fresh_runs = current_kinds.get(kind, [])[len(baseline_runs):]
        kind_compared = 0
        gated_metrics = KIND_GATED_METRICS.get(kind, GATED_METRICS)
        for metric, higher_is_better in gated_metrics.items():
            fresh_sizes = metric_by_size(fresh_runs, metric)
            if not fresh_sizes:
                continue
            baseline_sizes = metric_by_size(
                baseline_runs, metric, window=args.baseline_window
            )
            for n, values in sorted(baseline_sizes.items()):
                fresh_all = fresh_sizes.get(n)
                if not fresh_all:
                    continue  # size not measured this run (e.g. smoke vs full)
                baseline = statistics.median(values)
                fresh = fresh_all[-1]
                if higher_is_better:
                    bound = (1.0 - args.tolerance) * baseline
                    ok = fresh >= bound
                    bound_name = "floor"
                else:
                    bound = (1.0 + args.tolerance) * baseline
                    ok = fresh <= bound
                    bound_name = "ceiling"
                status = "ok" if ok else "REGRESSION"
                compared += 1
                kind_compared += 1
                print(
                    f"  {kind:>16} n={n:>7} {metric}: fresh {fresh:9.4g} vs "
                    f"baseline {baseline:9.4g} ({bound_name} {bound:.4g}) {status}"
                )
                if not ok:
                    failures.append((kind, metric, n, fresh, baseline))
        if not kind_compared:
            print(f"  {kind:>16}: no fresh records this run; skipped")
    if not compared:
        print("trend gate: no overlapping (benchmark, n) records; skipping")
        return 0
    if failures:
        print(
            f"trend gate: {len(failures)} regression(s) beyond "
            f"{args.tolerance:.0%} of the committed baseline"
        )
        return 1
    print(f"trend gate: {compared} comparison(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
