"""Child processes of the benchmark: environment, spawning, reaping.

Every process the benchmark starts gets the same environment: the checkout's
``src`` on ``PYTHONPATH``, bytecode cached under the benchmark's output
directory (so the committed tree is never written), and single-threaded
BLAS so serial work stays serial on a 2-core machine.  Each child is asked
to die with its parent, and :func:`stop` reaps it, so an interrupted run
leaves no orphan behind to skew the next one.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

_PR_SET_PDEATHSIG = 1
# Resolved here, not in the forked child, so the child only makes the call.
_prctl = ctypes.CDLL(None, use_errno=True).prctl


def out_dir(*parts: str) -> Path:
    """A directory under the benchmark's output location (created on demand)."""
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONUNBUFFERED"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _die_with_parent() -> None:  # runs in the child between fork and exec
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def spawn(args: List[str], *, stdout=None, stderr=None) -> subprocess.Popen:
    """Start ``python3 args...`` from the checkout root with :func:`child_env`."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=stdout,
        stderr=stderr,
        stdin=subprocess.DEVNULL,
        preexec_fn=_die_with_parent,
    )


def stop(proc: Optional[subprocess.Popen], *, grace: float = 30.0) -> Optional[int]:
    """SIGTERM *proc*, wait up to *grace* seconds, then SIGKILL; returns its exit code."""
    if proc is None:
        return None
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")
