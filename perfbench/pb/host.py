"""Host probe, order statistics and run provenance."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Sequence


#: The host speed at which host-normalised figures equal wall-clock ones:
#: :func:`calib_loop` taking this long (about its median on a 2-vCPU VM).
REFERENCE_CALIB_MS = 2.0


def calib_loop(iterations: int = 20_000) -> int:
    """A fixed pure-Python loop; its time tracks the host, not the program."""
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return acc


class HostProbe:
    """Times :func:`calib_loop` between op batches.

    The host's speed swings by a fifth within a second, so one call takes
    ``reps`` samples: the median of a run's few hundred samples tracks the
    speed the run's ops saw to a few percent."""

    def __init__(self, reps: int = 5) -> None:
        self.reps = reps
        self.samples_ms: List[float] = []

    def __call__(self) -> None:
        for _ in range(self.reps):
            start = perf_counter()
            calib_loop()
            self.samples_ms.append((perf_counter() - start) * 1000.0)

    def summary(self) -> Dict[str, float]:
        return {
            "host.calib_ms": median(self.samples_ms),
            "host.calib_spread": spread(self.samples_ms),
        }


def probe_now(samples: int = 50) -> float:
    """Median :func:`calib_loop` time of ``samples`` back-to-back runs, ms."""
    probe = HostProbe(reps=samples)
    probe()
    return median(probe.samples_ms)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def git_commit(root: str = ".") -> str:
    """The checked-out commit, read from ``.git`` under ``root`` only."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }
