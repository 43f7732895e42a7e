"""Repository benchmark: routing and decomposition sweeps, hot and cold serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_route --seed 1 --seconds 25 --trace 0

Several workloads may follow ``--workload``; they run one after another,
each printing its own block (all four take about two minutes).

``--trace 0`` measures the end-to-end metrics of one workload; ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  Workloads and metrics are defined, with
the reason for each, in ``perfbench/spec.py``.

Human-readable lines (the stamp, each metric with its unit, ``ops`` and
``failed_ops``, any failed check) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results and digests accumulate under
``perfbench/out/``, the only place the benchmark writes; bytecode is cached
there too, so the checkout itself is left as found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.pycache_prefix = str(ROOT / "perfbench" / "out" / "pycache")
# Import the benchmark as the ``perfbench`` package, and the program from src.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench.proc import OUT  # noqa: E402 - needs the sys.path set above

#: Stands in for +inf in the JSON line (strict JSON has no infinity); only
#: a run that also reports failed operations can produce it.
INF_VALUE = 1e12


def source_digest() -> str:
    """sha256 over the program's source files, so runs of one tree can be matched."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class History:
    """Past runs on this checkout: report digests and untraced figures.

    Keyed by source digest and run length, so only runs of the same program
    over the same inputs are compared.
    """

    def __init__(self, source: str, seconds: float) -> None:
        self._path = OUT / "history.jsonl"
        self.source = source
        self._seconds = seconds
        self._rows = []
        if self._path.exists():
            for line in self._path.read_text(encoding="utf-8").splitlines():
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if row.get("source") == source and row.get("seconds") == seconds:
                    self._rows.append(row)

    def check_digest(self, workload: str, seed: int, digest: str) -> list:
        seen = {r["digest"] for r in self._rows if r["workload"] == workload and r["seed"] == seed}
        if seen and seen != {digest}:
            return [f"report digest differs from an earlier run of seed {seed} on this tree"]
        return []

    def record_untraced(self, workload: str, seed: int, digest: str, figures: dict) -> None:
        row = {"workload": workload, "seed": seed, "seconds": self._seconds,
               "source": self.source, "digest": digest, "figures": figures}
        self._rows.append(row)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")

    def median_untraced(self, workload: str, key: str) -> float:
        import statistics

        return statistics.median(
            r["figures"][key] for r in self._rows if r["workload"] == workload
        )


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=sorted(spec.WORKLOADS),
                        help="one workload, or several to run one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)

    history = History(source_digest(), args.seconds)
    return max(_run_one(workload, args, history) for workload in args.workload)


def _run_one(workload: str, args, history: History) -> int:
    """Run one workload and print its block; the block ends with the JSON line."""
    import numpy

    from perfbench import serve, spec, sweep

    runner = sweep.run if spec.WORKLOADS[workload]["kind"] == "sweep" else serve.run
    started = time.perf_counter()
    try:
        result = runner(workload, args.seed, args.seconds, bool(args.trace), history)
    except (sweep.SweepFailed, serve.ServeFailed) as exc:
        print(f"perfbench: {workload} failed: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1

    stamp = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": history.source,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **result["stamp"],
        "run_s": round(time.perf_counter() - started, 3),
    }
    defs = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = result["metrics"]
    if set(metrics) != set(defs):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(defs))}")
    correct = result["failed"] == 0 and not result["notes"]
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else INF_VALUE,
                   "unit": defs[name]["unit"]}
            for name in defs
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"stamp": stamp, "notes": result["notes"], **line}) + "\n")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name in defs:
        print(f"{name:32s} {metrics[name]:14.6g} {defs[name]['unit']}")
    print(f"{'ops':32s} {line['attempted']:14d}")
    print(f"{'failed_ops':32s} {line['failed']:14d}")
    if stamp.get("p90_supported") is False:
        print(f"note: {stamp['batches']} batches, fewer than the 100 p90 needs")
    for note in result["notes"]:
        print(f"check failed: {note}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
