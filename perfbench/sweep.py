"""Sweep workloads: ``run_all`` over a fixed cell set in a fresh process.

Each sweep runs serially in its own child (``perfbench/sweep_child.py``),
as a user's ``repro experiment`` would, so set-up, peak memory and the
sweep itself are measured on a clean interpreter.  A run repeats set-up
several times and sweeps as often as ``--seconds`` allows, at least once.

An operation is a cell.  A cell fails when its payload has failed trials or
a non-finite value; a sweep that crashes fails every cell.  The report
digest must agree between sweeps of one run, with earlier runs of the same
seed on the same source tree, and between traced and untraced sweeps.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from typing import List

from perfbench import proc
from perfbench.layers import Spans, layer_metrics
from perfbench.spec import SETUP_REPEATS
from perfbench.stats import percentile

#: Upper bound on one child, far above a healthy sweep (~20 s).
CHILD_TIMEOUT_S = 150.0


class SweepFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion; returns its result plus ``spawned``."""
    result = proc.out_dir("tmp") / f"{workload}-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    spawned = time.perf_counter()
    child = proc.spawn(
        ["-m", "perfbench.sweep_child", "--workload", workload, "--seed", str(seed),
         "--result", str(result), *extra]
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SweepFailed(f"sweep child exceeded {CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        proc.stop(child)
    if code != 0 or not result.exists():
        raise SweepFailed(f"sweep child exited with code {code}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    data["spawned"] = spawned
    return data


def _sweep_figures(data: dict) -> dict:
    """Wall time, throughput and cell-completion latencies of one sweep."""
    wall = data["end"] - data["ready"]
    cells = data["cells"]
    ok = [(c["done"] - data["ready"]) * 1000.0 for c in cells if not c["problems"]]
    failed = len(cells) - len(ok)
    return {
        "wall_s": wall,
        "qps": len(ok) / wall,
        "p50_ms": percentile(ok, 50, failed),
        "p90_ms": percentile(ok, 90, failed),
        "peak_rss_mb": data["peak_rss_mb"],
        "ops": len(cells),
        "failed_ops": failed,
        "problems": [f"{c['cell']}: {p}" for c in cells for p in c["problems"]],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, history) -> dict:
    """One benchmark run of a sweep workload; see :func:`perfbench.run.main`."""
    notes: List[str] = []
    stamp = {}
    if trace:
        plain = _child(workload, seed)
        spans_path = proc.out_dir("tmp") / f"{workload}-{os.getpid()}.spans.json"
        traced = _child(workload, seed, "--spans", str(spans_path))
        rows = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        plain_fig, traced_fig = _sweep_figures(plain), _sweep_figures(traced)
        digest_notes = history.check_digest(workload, seed, plain["digest"])
        history.record_untraced(workload, seed, plain["digest"], {"wall_s": plain_fig["wall_s"]})
        if traced["digest"] != plain["digest"]:
            digest_notes.append("traced report differs from the untraced report")
        base = history.median_untraced(workload, "wall_s")
        metrics = layer_metrics(
            Spans(rows), overhead_share=traced_fig["wall_s"] / base - 1.0
        )
        ops = plain_fig["ops"] + traced_fig["ops"]
        failed = ops if digest_notes else plain_fig["failed_ops"] + traced_fig["failed_ops"]
        notes += plain_fig["problems"] + traced_fig["problems"] + digest_notes
        stamp.update(kernel_backend=traced["kernel_backend"], numpy=traced["numpy"])
        return {"metrics": metrics, "attempted": ops, "failed": failed, "notes": notes,
                "stamp": stamp, "digest": traced["digest"]}

    setups = []
    for _ in range(SETUP_REPEATS["sweep"] - 1):
        data = _child(workload, seed, "--setup-only")
        setups.append(data["ready"] - data["spawned"])
    sweeps = []
    digests = set()
    began = time.perf_counter()
    while True:
        data = _child(workload, seed)
        setups.append(data["ready"] - data["spawned"])
        sweeps.append(_sweep_figures(data))
        digests.add(data["digest"])
        stamp.update(kernel_backend=data["kernel_backend"], numpy=data["numpy"])
        typical = statistics.median(s["wall_s"] for s in sweeps)
        if time.perf_counter() - began + typical > seconds:
            break
    digest = sorted(digests)[0]
    digest_notes = history.check_digest(workload, seed, digest)
    if len(digests) > 1:
        digest_notes.append("sweeps of one run rendered different reports")
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "qps", "p50_ms", "p90_ms", "peak_rss_mb"):
        metrics[key] = statistics.median(s[key] for s in sweeps)
    history.record_untraced(workload, seed, digest, {"wall_s": metrics["wall_s"]})
    for s in sweeps:
        notes += s["problems"]
    stamp["sweeps"] = len(sweeps)
    attempted = sum(s["ops"] for s in sweeps)
    failed = attempted if digest_notes else sum(s["failed_ops"] for s in sweeps)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes + digest_notes,
        "stamp": stamp,
        "digest": digest,
    }
