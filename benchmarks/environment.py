"""What a benchmark run ran on: versions, threads, CPU, source, host speed."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

PROBE_OPS = 11


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir):
    """SHA-256 over the package's .py files, so a non-git checkout is identified too."""
    h = hashlib.sha256()
    for path in sorted(Path(package_dir).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def steal_ticks():
    """Cumulative steal ticks of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


class HostProbe:
    """Time of one fixed numpy op: the conv3x3 forward contraction at the
    desk shape (batch 16, 8 -> 16 channels, 8x8), the einsum the kernel
    runs most. It touches no sflsim code, so a code change cannot move it;
    a slower host moves it and the rounds alike. One call returns the median
    of PROBE_OPS timed ops, in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 8, 10, 10)).astype(np.float32)
        self._w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        self._windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))

    def __call__(self, ops=PROBE_OPS):
        times = []
        for _ in range(ops):
            start = time.perf_counter()
            np.einsum("bchwij,ocij->bohw", self._windows, self._w, optimize=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def record(root, package_dir):
    """The environment record written with every result."""
    return {
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(Path(root)),
        "source_sha256": source_digest(package_dir),
    }
