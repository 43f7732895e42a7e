"""Lease files and ``shard`` mode: an artifact directory as a work queue.

Covers the lease primitive (atomic acquire, contention, release, refresh,
stale-lease takeover) and the drain loop built on it: two real OS processes
racing one artifact directory compute disjoint cell sets whose union is the
full sweep, and every shard assembles a report bitwise-identical to a serial
run.
"""

import json
import multiprocessing
import os
import shutil
import threading
import time

import pytest

from repro.analysis.reporting import CellArtifact, artifact_path, write_cell_artifact
from repro.experiments import exp_uniform, lease
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SweepExecutor, render_markdown, run_all

TINY = ExperimentConfig(sizes=[48, 96], num_pairs=3, trials=3, seed=7)


class TestLeasePrimitive:
    def test_acquire_then_contend(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact) is True
        assert lease.lease_path(artifact).is_file()
        # Second contender loses while the lease is fresh.
        assert lease.try_acquire(artifact) is False

    def test_release_reopens_the_cell(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact)
        lease.release(artifact)
        assert not lease.lease_path(artifact).exists()
        assert lease.try_acquire(artifact) is True

    def test_release_is_idempotent(self, tmp_path):
        artifact = tmp_path / "cell.json"
        lease.release(artifact)  # never acquired: no error
        assert lease.try_acquire(artifact)
        lease.release(artifact)
        lease.release(artifact)

    def test_payload_names_the_owner(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact, owner="worker-7")
        payload = json.loads(lease.lease_path(artifact).read_text())
        assert payload["owner"] == "worker-7"
        assert payload["pid"] == os.getpid()

    def test_stale_lease_taken_over(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact, owner="dead-worker")
        path = lease.lease_path(artifact)
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        assert lease.try_acquire(artifact, ttl=300.0, owner="live-worker") is True
        payload = json.loads(path.read_text())
        assert payload["owner"] == "live-worker"

    def test_refresh_prevents_takeover(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact)
        path = lease.lease_path(artifact)
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        lease.refresh(artifact)  # the holder touches its lease in time
        assert lease.try_acquire(artifact, ttl=300.0) is False

    def test_fresh_lease_not_taken_over(self, tmp_path):
        artifact = tmp_path / "cell.json"
        assert lease.try_acquire(artifact)
        assert lease.try_acquire(artifact, ttl=0.5) is False


class TestShardValidation:
    def test_shard_requires_artifacts_dir(self):
        with pytest.raises(ValueError, match="artifacts_dir"):
            SweepExecutor(TINY, shard=True)

    def test_shard_rejects_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="shard"):
            SweepExecutor(TINY, shard=True, jobs=2, artifacts_dir=tmp_path)


def _drain_worker(artifacts_dir, out_json):
    """One shard process: drain the directory, dump what it did."""
    stats = {}
    results = run_all(
        TINY,
        only=["EXP-1"],
        artifacts_dir=artifacts_dir,
        shard=True,
        stats=stats,
    )
    out = {
        "executed": sorted(
            (c.experiment_id, c.family, c.n) for c in stats["executed"]
        ),
        "skipped": sorted(
            (c.experiment_id, c.family, c.n) for c in stats["skipped"]
        ),
        "markdown": render_markdown(results),
    }
    with open(out_json, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


class TestShardedDrain:
    def test_single_shard_matches_serial(self, tmp_path):
        serial = run_all(TINY, only=["EXP-1"])
        stats = {}
        sharded = run_all(
            TINY,
            only=["EXP-1"],
            artifacts_dir=tmp_path / "artifacts",
            shard=True,
            stats=stats,
        )
        assert render_markdown(sharded) == render_markdown(serial)
        assert stats["skipped"] == []
        # No leases left behind.
        assert list((tmp_path / "artifacts").glob("*.lease")) == []

    def test_shard_resumes_finished_cells(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        run_all(TINY, only=["EXP-1"], artifacts_dir=artifacts)
        stats = {}
        run_all(TINY, only=["EXP-1"], artifacts_dir=artifacts, shard=True, stats=stats)
        assert stats["executed"] == []
        assert len(stats["skipped"]) > 0

    def test_artifact_landing_before_the_lease_is_loaded(self, tmp_path, monkeypatch):
        finished = tmp_path / "finished"
        serial = run_all(
            TINY, only=["EXP-1"], artifacts_dir=finished, stats=(serial_stats := {})
        )
        real_acquire = lease.try_acquire

        def acquire_after_another_shard_finished(artifact, **kwargs):
            # Another shard persists the cell and releases its lease between
            # this shard's artifact check and its acquire.
            shutil.copyfile(finished / artifact.name, artifact)
            return real_acquire(artifact, **kwargs)

        monkeypatch.setattr(lease, "try_acquire", acquire_after_another_shard_finished)
        artifacts = tmp_path / "artifacts"
        stats = {}
        results = run_all(
            TINY, only=["EXP-1"], artifacts_dir=artifacts, shard=True, stats=stats
        )
        assert stats["executed"] == []
        assert set(stats["skipped"]) == set(serial_stats["executed"])
        assert render_markdown(results) == render_markdown(serial)
        assert list(artifacts.glob("*.lease")) == []

    def test_two_processes_race_one_directory(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        outs = [tmp_path / "w0.json", tmp_path / "w1.json"]
        procs = [
            multiprocessing.Process(
                target=_drain_worker, args=(str(artifacts), str(out))
            )
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
            assert proc.exitcode == 0
        reports = [json.loads(out.read_text()) for out in outs]

        serial = run_all(TINY, only=["EXP-1"], stats=(serial_stats := {}))
        all_cells = sorted(
            (c.experiment_id, c.family, c.n) for c in serial_stats["executed"]
        )
        executed = [set(map(tuple, r["executed"])) for r in reports]
        # Leases kept the computed sets disjoint, and together the two
        # shards (compute + artifact-load) covered the whole sweep.
        assert executed[0] & executed[1] == set()
        for report in reports:
            covered = set(map(tuple, report["executed"])) | set(
                map(tuple, report["skipped"])
            )
            assert covered == set(all_cells)
        assert executed[0] | executed[1] == set(all_cells)
        # Every shard assembled the identical full report.
        expected = render_markdown(serial)
        for report in reports:
            assert report["markdown"] == expected
        assert list(artifacts.glob("*.lease")) == []

    def test_stale_takeover_unwedges_a_crashed_shard(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        # A "crashed" worker left a lease on one cell and never finished it.
        first = artifact_path(artifacts, "EXP-1", "ring", 48)
        assert lease.try_acquire(first, owner="crashed")
        path = lease.lease_path(first)
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        stats = {}
        results = run_all(
            TINY,
            only=["EXP-1"],
            artifacts_dir=artifacts,
            shard=True,
            lease_ttl=300.0,
            stats=stats,
        )
        done = {(c.experiment_id, c.family, c.n) for c in stats["executed"]}
        assert ("EXP-1", "ring", 48) in done
        assert render_markdown(results) == render_markdown(run_all(TINY, only=["EXP-1"]))

    def test_live_lease_defers_until_artifact_appears(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        held = artifact_path(artifacts, "EXP-1", "ring", 48)
        assert lease.try_acquire(held, owner="other-shard")

        def finish_elsewhere():
            # Simulate the lease holder: compute just this cell, persist it
            # under the shared fingerprint, then release the lease.
            payload = exp_uniform.run_cell(TINY, "ring", 48)
            write_cell_artifact(
                artifacts,
                CellArtifact(
                    experiment_id="EXP-1",
                    family="ring",
                    n=48,
                    config=TINY.fingerprint(),
                    payload=payload,
                ),
            )
            lease.release(held)

        helper = threading.Thread(target=finish_elsewhere)
        helper.start()
        try:
            stats = {}
            run_all(
                TINY,
                only=["EXP-1"],
                artifacts_dir=artifacts,
                shard=True,
                stats=stats,
            )
        finally:
            helper.join(timeout=120)
        done = {(c.experiment_id, c.family, c.n) for c in stats["executed"]}
        # This shard never computed the held cell: it arrived as an artifact.
        assert ("EXP-1", "ring", 48) not in done
        skipped = {(c.experiment_id, c.family, c.n) for c in stats["skipped"]}
        assert ("EXP-1", "ring", 48) in skipped
