"""``big-array``: explore-style build and run of a fresh large random tree.

Each op builds a random recursive tree and runs BFDN on it with
``backend="array"``.  One op in five goes through
``obs.run_telemetry_job`` with the metrics and budget observers, as
``--telemetry`` does.  One unit is a cycle of 15 ops: for each team size
k, four plain ops and one telemetry op, in a seeded order.
"""

from __future__ import annotations

import hashlib
import os
import random
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.obs import TelemetryConfig, TelemetryJob, run_telemetry_job
from repro.orchestrator import TreeSpec
from repro.scenario import ScenarioSpec

from .checks import check_row
from .host import median, percentile
from .layers import TracedSpec
from .workload import Op, Workload, rate

TEAM_SIZES = (16, 64, 256)
PLAIN_PER_TELEMETRY = 4
FULL_N = 50_000
TINY_N = 400


def cycle_ops(seed: int, cycle: int) -> List[Tuple[int, bool]]:
    """``(k, telemetry)`` for each op of one cycle, in seeded order."""
    ops = [(k, telemetry) for k in TEAM_SIZES
           for telemetry in [False] * PLAIN_PER_TELEMETRY + [True]]
    random.Random(f"{seed}:big-array:{cycle}").shuffle(ops)
    return ops


def op_spec(seed: int, index: int, k: int, n: int = FULL_N) -> ScenarioSpec:
    """Op ``index``'s scenario: a fresh tree, seeded from the workload seed."""
    digest = hashlib.sha256(f"{seed}:big-array:{index}".encode("utf-8")).hexdigest()
    tree_seed = int(digest[:8], 16) >> 1
    return ScenarioSpec(
        kind="tree", algorithm="bfdn",
        substrate=TreeSpec.named("random", n, tree_seed),
        k=k, seed=tree_seed, backend="array", label=f"big-{index}",
    )


class BigArray(Workload):
    name = "big-array"
    pin_ops = len(TEAM_SIZES) * (PLAIN_PER_TELEMETRY + 1)

    def setup(self) -> None:
        self.n = TINY_N if self.tiny else FULL_N
        self.config = TelemetryConfig.create(os.path.join(self.workdir, "telemetry"))
        self.trace_bytes: List[int] = []
        #: Ops whose row says they ran on the array backend.
        self.fast = 0
        # Warm-up: one full-size plain op and one small telemetry op.
        for telemetry, n in ((False, self.n), (True, TINY_N)):
            spec = op_spec(self.seed, -1, TEAM_SIZES[0], n)
            row, _ = self._execute(spec, telemetry)
            error = check_row(row, backend=None if telemetry else "array")
            if error:
                raise RuntimeError(f"warm-up op: {error}")

    def _execute(self, spec: ScenarioSpec, telemetry: bool, op: int = -1):
        """Build and run one op; returns its row and trace-file growth."""
        tracer = self.tracer
        if tracer.enabled:
            spec = TracedSpec.wrap(spec, tracer, op)
        before = os.path.getsize(self.config.path) if os.path.exists(self.config.path) else 0
        with tracer.span("bench.op", op=op):
            built = spec.build()
            if telemetry:
                with tracer.span("obs.run_telemetry_job", op=op):
                    row = run_telemetry_job(
                        TelemetryJob(spec=spec, config=self.config), built=built
                    )
            else:
                row = built.run()
        return row, os.path.getsize(self.config.path) - before if telemetry else 0

    def run_unit(self, unit: int, probe: Callable[[], None]) -> None:
        for position, (k, telemetry) in enumerate(cycle_ops(self.seed, unit)):
            index = unit * self.pin_ops + position
            spec = op_spec(self.seed, index, k, self.n)
            start = perf_counter()
            row, grown = self._execute(spec, telemetry, index)
            seconds = perf_counter() - start
            cls = "telemetry" if telemetry else "plain"
            with self.tracer.span("bench.check", op=index):
                error = check_row(row, backend=None if telemetry else "array")
                if not error and telemetry and row.get("violations", 0):
                    error = f"{row['violations']} budget violation(s)"
            if telemetry:
                self.trace_bytes.append(grown)
            self.ops.append(Op(index, cls, seconds, int(row.get("rounds", 0)),
                           int(row.get("wall_rounds", 0)), error, slot=(k, cls)))
            self.fast += row.get("backend") == "array"
            self.probe_span(probe)

    def _cycle_seconds(self, cls: str) -> float:
        """Time of one cycle's ``cls`` ops, each (k, class) at its median op.

        The ops of one (k, class) are draws from one distribution (fresh
        trees of one size), so the median drops ops that a slow spell of
        the host hit."""
        times: Dict[Tuple[int, str], List[float]] = {}
        for op in self.ops:
            times.setdefault(op.slot, []).append(op.seconds)
        per_cycle = PLAIN_PER_TELEMETRY if cls == "plain" else 1
        return sum(per_cycle * median(times.get((k, cls), [])) for k in TEAM_SIZES)

    def throughput(self) -> float:
        cycle = self._cycle_seconds("plain") + self._cycle_seconds("telemetry")
        return rate(self.pin_ops, cycle)

    def classes(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "explore_per_s": rate(PLAIN_PER_TELEMETRY * len(TEAM_SIZES),
                                  self._cycle_seconds("plain")),
            "traced_explore_per_s": rate(len(TEAM_SIZES), self._cycle_seconds("telemetry")),
        }
        for cls in ("plain", "telemetry"):
            ms = [op.seconds * 1000.0 for op in self.ops if op.cls == cls]
            out[f"{cls}_p50_ms"] = percentile(ms, 50)
            out[f"{cls}_p90_ms"] = percentile(ms, 90)
            out[f"{cls}_n"] = len(ms)
        return out

    def layers(self) -> Dict[str, float]:
        plain = median([op.seconds for op in self.ops if op.cls == "plain"])
        traced = median([op.seconds for op in self.ops if op.cls == "telemetry"])
        return {
            "sim.fastpath_ratio": self.fast / max(1, len(self.ops)),
            "obs.traced_run_s": traced,
            "obs.plain_run_s": plain,
            "obs.overhead_ratio": traced / plain if plain else 0.0,
            "obs.trace_bytes": median(self.trace_bytes),
        }
