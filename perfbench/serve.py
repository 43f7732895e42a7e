"""Serve workloads: a ``repro serve`` daemon driven over TCP by a closed loop.

The load comes from this process alone: one asyncio loop, at most two
pipelined connections, a fixed number of queries in flight.  The loop is
closed because the daemon's callers wait for their replies.  The daemon's
``--max-batch`` is half the queries in flight, so batches are always full
and their make-up does not depend on timing (see ``SERVE`` in ``spec.py``).

A run starts the daemon several times to time set-up (spawn to the first
answered route), then on the last daemon runs an untimed warm-up over warm-
pool targets and the timed phase: a fixed, seeded query set sized so that
it lasts about ``--seconds`` at the rate the workload was tuned for.

An operation is a query.  A query fails when its reply is missing, not
``ok`` or not ``success``, or when the seeded sample re-routed locally
through ``open_session`` disagrees with the reply.  The digest of every
reply must agree between traced and untraced daemons and between runs of
the same seed on the same source tree.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import re
import select
import statistics
import subprocess
import time
from typing import List, Optional

import numpy as np

from perfbench import proc
from perfbench.layers import Spans, layer_metrics
from perfbench.spec import SERVE, SETUP_REPEATS, WORKLOADS
from perfbench.stats import percentile, supports_percentile

READY_TIMEOUT_S = 90.0
LOAD_TIMEOUT_S = 150.0
_READY = re.compile(rb"listening on ([0-9.]+):(\d+)")


class ServeFailed(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# Daemon
# --------------------------------------------------------------------------- #


class Daemon:
    """One daemon process: started, awaited until listening, stopped on exit."""

    def __init__(self, seed: int, spans: Optional[str] = None) -> None:
        cli = [
            "serve", SERVE["family"], "-n", str(SERVE["n"]), "--scheme", SERVE["scheme"],
            "--warm-targets", str(SERVE["warm_targets"]), "--max-batch", str(SERVE["max_batch"]),
            "--seed", str(seed), "--port", "0",
        ]
        args = ["-m", "repro", *cli]
        if spans is not None:
            args = ["-m", "perfbench.serve_launcher", "--spans", spans, "--seed", str(seed),
                    "--", *cli]
        self.log = proc.out_dir("tmp") / f"daemon-{os.getpid()}.log"
        self.spawned = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = proc.spawn(args, stdout=subprocess.PIPE, stderr=log)
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self):
        deadline = self.spawned + READY_TIMEOUT_S
        buffered = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffered:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServeFailed(f"daemon not listening (see {self.log.name}): {buffered!r}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServeFailed(f"daemon closed stdout (see {self.log.name})")
                buffered += chunk
        match = _READY.search(buffered)
        if match is None:
            raise ServeFailed(f"unexpected daemon banner {buffered!r}")
        return match.group(1).decode(), int(match.group(2))

    def stop(self) -> int:
        code = proc.stop(self.proc)
        self.proc.stdout.close()
        return code


# --------------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------------- #


class Connection:
    """A pipelined NDJSON connection; replies are matched to requests by id.

    The receive time is taken when the reply line is read, before any
    waiting coroutine resumes, so the client's own scheduling stays out of
    the measured latency as far as one event loop allows.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._waiting = {}

    async def open(self, host: str, port: int) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(host, port, limit=1 << 20)
        self._task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                reply = json.loads(line)
                waiter = self._waiting.pop(reply.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((received, reply))
        finally:
            for waiter in self._waiting.values():
                if not waiter.done():
                    waiter.set_exception(ConnectionError("connection closed"))
            self._waiting.clear()

    async def request(self, message: dict):
        """Send *message*; returns ``(sent, received, reply)``."""
        request_id = next(self._ids)
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = waiter
        line = json.dumps(dict(message, id=request_id), separators=(",", ":")).encode() + b"\n"
        sent = time.perf_counter()
        self._writer.write(line)
        if self._writer.transport.get_write_buffer_size() > 1 << 16:
            await self._writer.drain()
        received, reply = await waiter
        return sent, received, reply

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def _connect(daemon: Daemon) -> List[Connection]:
    return [await Connection().open(daemon.host, daemon.port) for _ in range(SERVE["connections"])]


async def _close(conns: List[Connection]) -> None:
    for conn in conns:
        await conn.close()


def _route(source: int, target: int, nonce: int) -> dict:
    return {"op": "route", "source": int(source), "target": int(target), "nonce": int(nonce)}


async def _first_route(conns: List[Connection], nonce: int) -> dict:
    """``info`` then one route to a warm target: the end of set-up."""
    _, _, info = await conns[0].request({"op": "info"})
    warm = info["warmed_targets"]
    _, received, reply = await conns[0].request(_route(0, warm[0], nonce))
    if not (reply.get("ok") and reply.get("success")):
        raise ServeFailed(f"first route failed: {reply}")
    return {"info": info, "answered": received}


async def _closed_loop(conns: List[Connection], plan, nonce0: int) -> list:
    """Send *plan* (source, target) with ``in_flight`` queries outstanding.

    Returns ``(sent, received, reply)`` per query; a query whose connection
    dropped gets ``(sent, None, None)``.
    """
    results: list = [None] * len(plan)
    order = iter(range(len(plan)))

    async def worker(slot: int) -> None:
        conn = conns[slot % len(conns)]
        for i in order:  # one event loop: next() on the shared iterator is atomic
            source, target = plan[i]
            sent = time.perf_counter()
            try:
                results[i] = await conn.request(_route(source, target, nonce0 + i))
            except ConnectionError:
                results[i] = (sent, None, None)

    await asyncio.wait_for(
        asyncio.gather(*(worker(w) for w in range(SERVE["in_flight"]))), LOAD_TIMEOUT_S
    )
    return results


# --------------------------------------------------------------------------- #
# Inputs and checks
# --------------------------------------------------------------------------- #


def query_plan(seed: int, stream: int, count: int, warm, fresh_every: int):
    """Seeded ``(source, target)`` pairs: uniform sources, warm-pool targets.

    With *fresh_every* = k, one query in each block of k consecutive queries
    (at a seeded offset) targets a distinct node outside the warm pool,
    drawn uniformly, so every run carries exactly the same number of cold
    targets spread evenly over the run.  With k = ``max_batch`` the blocks
    are the daemon's batches, so each batch after the first two carries
    exactly one.
    """
    n = SERVE["n"]
    rng = np.random.default_rng([seed, stream])
    warm = np.asarray(warm, dtype=np.int64)
    sources = rng.integers(0, n, size=count)
    targets = warm[rng.integers(0, warm.size, size=count)]
    if fresh_every:
        blocks = count // fresh_every
        positions = np.arange(blocks) * fresh_every + rng.integers(0, fresh_every, size=blocks)
        candidates = np.setdiff1d(np.arange(n), warm)
        targets[positions] = rng.choice(candidates, size=blocks, replace=False)
    return list(zip(sources.tolist(), targets.tolist()))


def _reply_ok(reply) -> bool:
    return bool(reply) and bool(reply.get("ok")) and bool(reply.get("success"))


def reply_digest(results) -> str:
    """Digest of every timed reply's trajectory, in query order."""
    digest = hashlib.sha256()
    for _, _, reply in results:
        if reply and reply.get("ok"):
            fields = [reply.get(k) for k in ("seed", "steps", "success", "long_links", "distance")]
        else:
            fields = ["failed"]
        digest.update(json.dumps(fields).encode())
    return digest.hexdigest()


def verify_sample(seed: int, plan, results, nonce0: int) -> List[int]:
    """Re-route a seeded sample of answered queries locally; returns mismatched indices.

    The sample is every answered query to a few seeded targets (capped at
    ``verify_sample`` queries): each distinct target costs the local session
    a full BFS, and the targets are drawn from all answered ones, so the
    cold workload's fresh targets are checked as often as warm ones.
    """
    from repro.session import open_session

    answered = [i for i, r in enumerate(results) if _reply_ok(r[2])]
    rng = np.random.default_rng([seed, 3])
    targets = sorted({plan[i][1] for i in answered})
    chosen = set(rng.choice(targets, size=min(SERVE["verify_targets"], len(targets)),
                            replace=False).tolist()) if targets else set()
    pool = [i for i in answered if plan[i][1] in chosen]
    sample = sorted(rng.choice(pool, size=min(SERVE["verify_sample"], len(pool)),
                               replace=False).tolist()) if pool else []
    with open_session(SERVE["family"], SERVE["n"], seed=seed, scheme=SERVE["scheme"]) as session:
        queries = []
        for i in sample:
            source, target = plan[i]
            queries.append((source, target, session.query_seed(source, target, nonce0 + i)))
        outcomes = session.route_queries(queries)
    bad = []
    for i, query, outcome in zip(sample, queries, outcomes):
        reply = results[i][2]
        expected = (query[2], outcome.steps, outcome.long_links, outcome.graph_distance)
        served = (reply["seed"], reply["steps"], reply["long_links"], reply["distance"])
        if expected != served:
            bad.append(i)
    return bad


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #


def _set_up_only(seed: int) -> float:
    """Start a daemon, time spawn to first answered route, stop it."""
    daemon = Daemon(seed)
    try:
        async def go():
            conns = await _connect(daemon)
            try:
                return await _first_route(conns, nonce=1 << 40)
            finally:
                await _close(conns)

        first = asyncio.run(go())
        return first["answered"] - daemon.spawned
    finally:
        daemon.stop()


def _serve_pass(workload: str, seed: int, seconds: float, spans: Optional[str]) -> dict:
    """One daemon: set-up, warm-up, timed phase, counters; returns raw figures."""
    spec = WORKLOADS[workload]
    batch = SERVE["max_batch"]
    count = max(SERVE["in_flight"], batch * int(round(spec["nominal_qps"] * seconds / batch)))
    warmup = SERVE["warmup_queries"]
    daemon = Daemon(seed, spans)
    try:
        async def go():
            conns = await _connect(daemon)
            try:
                first = await _first_route(conns, nonce=count + warmup)
                warm = first["info"]["warmed_targets"]
                await _closed_loop(conns, query_plan(seed, 2, warmup, warm, 0), count)
                plan = query_plan(seed, 1, count, warm, spec["fresh_every"])
                _, _, before = await conns[0].request({"op": "info"})
                start = time.perf_counter()
                results = await _closed_loop(conns, plan, 0)
                end = time.perf_counter()
                _, _, after = await conns[0].request({"op": "info"})
                return first, plan, results, (start, end), before, after
            finally:
                await _close(conns)

        first, plan, results, window, before, after = asyncio.run(go())
        rss = proc.peak_rss_mb(daemon.proc.pid)
    finally:
        code = daemon.stop()
    if code != 0:
        raise ServeFailed(f"daemon exited with code {code} after SIGTERM")
    batcher = {
        k: after["batcher"][k] - before["batcher"].get(k, 0)
        for k in after["batcher"] if k != "max_batch_seen"
    }
    return {
        "setup_s": first["answered"] - daemon.spawned,
        "plan": plan,
        "results": results,
        "window": window,
        "peak_rss_mb": rss,
        "batcher": batcher,
        "block_resets": after["block_resets"] - before["block_resets"],
        "max_batch": after["max_batch"],
        "kernel_backend": after["kernel_backend"],
    }


def _figures(raw: dict) -> dict:
    results = raw["results"]
    ok = [r for r in results if _reply_ok(r[2])]
    failed = len(results) - len(ok)
    client_ms = [(r[1] - r[0]) * 1000.0 for r in ok]
    start, end = raw["window"]
    wall = max(r[1] for r in ok) - min(r[0] for r in results) if ok else end - start
    return {
        "wall_s": wall,
        "qps": len(ok) / wall,
        "p50_ms": percentile(client_ms, 50, failed),
        "p90_ms": percentile(client_ms, 90, failed),
        "client_ms": client_ms,
        "server_ms": [r[2]["latency_ms"] for r in ok],
        "failed": failed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, history) -> dict:
    """One benchmark run of a serve workload; see :func:`perfbench.run.main`."""
    notes: List[str] = []
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_REPEATS["serve"] - 1):
            setups.append(_set_up_only(seed))
    raw = _serve_pass(workload, seed, seconds, None)
    fig = _figures(raw)
    digest = reply_digest(raw["results"])
    mismatched = verify_sample(seed, raw["plan"], raw["results"], 0)
    if mismatched:
        notes.append(f"{len(mismatched)} sampled replies differ from a local re-route")
    digest_notes = history.check_digest(workload, seed, digest)
    history.record_untraced(workload, seed, digest, {"qps": fig["qps"]})
    batches = raw["batcher"].get("batches", 0)
    stamp = {
        "kernel_backend": raw["kernel_backend"],
        "numpy": np.__version__,
        "batches": batches,
        "p90_supported": supports_percentile(90, batches),
    }
    attempted = len(raw["results"])
    failed = fig["failed"] + len(mismatched)

    if trace:
        spans_path = str(proc.out_dir("tmp") / f"{workload}-{os.getpid()}.spans.json")
        traced = _serve_pass(workload, seed, seconds, spans_path)
        with open(spans_path, encoding="utf-8") as handle:
            rows = json.load(handle)
        os.unlink(spans_path)
        traced_fig = _figures(traced)
        if reply_digest(traced["results"]) != digest:
            digest_notes.append("traced replies differ from the untraced replies")
        overhead = history.median_untraced(workload, "qps") / traced_fig["qps"] - 1.0
        metrics = layer_metrics(
            Spans(rows),
            window=traced["window"],
            overhead_share=overhead,
            serve={
                "max_batch": traced["max_batch"],
                "batcher": traced["batcher"],
                "block_resets": traced["block_resets"],
                "client_ms": traced_fig["client_ms"],
                "server_ms": traced_fig["server_ms"],
            },
        )
        failed += traced_fig["failed"]
        attempted += len(traced["results"])
    else:
        setups.append(raw["setup_s"])
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({k: fig[k] for k in ("wall_s", "qps", "p50_ms", "p90_ms")})
        metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    if digest_notes:
        failed = attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes + digest_notes, "stamp": stamp, "digest": digest}
