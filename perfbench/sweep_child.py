"""One sweep in a fresh process: ``run_all`` + ``render_markdown``, then checks.

Run by ``perfbench/sweep.py``::

    python3 -m perfbench.sweep_child --workload sweep_route --seed 1 --result out.json

``--setup-only`` stops where the sweep would start, so the parent can time
set-up several times per run.  ``--spans FILE`` installs the layer tracer
before the sweep and writes its spans to FILE afterwards.

The result file records the moment ``run_all`` was called (``ready``), the
completion time and check outcome of every cell, the report digest and the
process's peak RSS.  All times are ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux and therefore comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time


def cell_problems(payload) -> list:
    """Why a cell payload is not a valid measurement (empty when it is).

    Every routed point (a dict with ``failed_trials``) must have zero failed
    trials, every number must be finite, and a cell must route something.
    """
    problems = []
    points = 0

    def walk(node, where):
        nonlocal points
        if isinstance(node, dict):
            if "failed_trials" in node:
                points += 1
                if node["failed_trials"] != 0:
                    problems.append(f"{where}: {node['failed_trials']} failed trials")
            for key, value in node.items():
                walk(value, f"{where}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{where}[{i}]")
        elif isinstance(node, float) and not math.isfinite(node):
            problems.append(f"{where}: non-finite value {node}")

    walk(payload, "payload")
    if not points:
        problems.append("cell routed no point")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from perfbench.proc import peak_rss_mb
    from perfbench.spec import WORKLOADS

    import numpy
    from repro.experiments import runner
    from repro.experiments.config import ExperimentConfig
    from repro.graphs import kernels

    spec = WORKLOADS[args.workload]
    config = ExperimentConfig(
        sizes=list(spec["sizes"]),
        num_pairs=spec["num_pairs"],
        trials=spec["trials"],
        seed=args.seed,
    )
    tracer = None
    if args.spans:
        from perfbench import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cells = []
    for module in runner.select_modules(spec["only"]):
        def capture(config, family, n, *rest, _run=module.run_cell, _id=module.EXPERIMENT_ID, **kw):
            payload = _run(config, family, n, *rest, **kw)
            cells.append(
                {"cell": f"{_id}/{family}/{n}", "done": time.perf_counter(),
                 "problems": cell_problems(payload)}
            )
            return payload

        module.run_cell = capture

    ready = time.perf_counter()
    out = {"ready": ready, "numpy": numpy.__version__,
           "kernel_backend": kernels.backend_stats()["active"]}
    if not args.setup_only:
        results = runner.run_all(config, only=spec["only"])
        report = runner.render_markdown(results)
        end = time.perf_counter()
        out.update(
            end=end,
            cells=cells,
            digest=hashlib.sha256(report.encode("utf-8")).hexdigest(),
            peak_rss_mb=peak_rss_mb(os.getpid()),
        )
        if tracer is not None:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
