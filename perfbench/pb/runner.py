"""One workload in one process: set up, then (for a measuring process)
measure, check and summarise.  ``perfbench/child.py`` is the entry."""

from __future__ import annotations

import os
import resource
import shutil
import time
from typing import Dict

from .big import BigArray
from .host import REFERENCE_CALIB_MS, HostProbe, probe_now
from .serve import ServeMixed
from .spans import NullTracer, Tracer, coverage
from .zoo import ZooSweep

WORKLOADS = {w.name: w for w in (ZooSweep, BigArray, ServeMixed)}


def run_role(role: str, workload: str, seed: int, seconds: float, trace: bool,
             root: str = ".", tiny: bool = False) -> Dict[str, object]:
    """Run one role (``setup`` or ``measure``) and return its summary.

    ``ready_at`` is the ``time.monotonic()`` reading when set-up ended;
    the parent subtracts its launch time from it.  ``calib_ms`` is the host
    probe taken right after set-up, which ``child.py`` averages with one
    taken before it; the parent normalises the set-up time by it.  The
    measured throughput is normalised by the median probe of the
    measurement: multiplied by it and divided by ``REFERENCE_CALIB_MS``.
    """
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else NullTracer()
    bench = WORKLOADS[workload](seed, workdir, tracer, tiny)
    try:
        bench.setup()
        ready_at = time.monotonic()
        setup_calib = probe_now()
        if role == "setup":
            return {"ready_at": ready_at, "calib_ms": setup_calib}
        probe = HostProbe()
        wall = bench.measure(seconds, probe)
        problems = bench.check_totals()
        throughput = bench.throughput()
        host = probe.summary()
        summary: Dict[str, object] = {
            "ready_at": ready_at,
            "calib_ms": setup_calib,
            "attempted": len(bench.ops),
            "failed": bench.failed,
            "errors": sorted({op.error for op in bench.ops if op.error})[:5] + problems,
            "problems": len(problems),
            "digest": bench.digest(),
            "metrics": {
                "host_norm_throughput_per_s":
                    throughput * host["host.calib_ms"] / REFERENCE_CALIB_MS,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "throughput_per_s": throughput,
            "classes": bench.classes(),
            "host": host,
        }
        if trace:
            layers = bench.span_layers()
            layers.update(bench.layers())
            layers.update(host)
            layers["trace.coverage"] = coverage(tracer.spans, wall)
            summary["layers"] = layers
            path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
            tracer.dump(path)
            summary["trace_file"] = path
        return summary
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
