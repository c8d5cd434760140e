"""What the three workloads share: op records, seeding, the measuring loop
and the per-layer metrics that come straight from spans."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List

from .checks import digest
from .host import median, percentile
from .spans import NullTracer, self_times

#: Algorithms that get their own ``sim.<phase>.<algorithm>`` metrics.
ALGORITHMS = (
    "bfdn", "bfdn-ell2", "bfdn-wr", "cte", "dfs", "tree-mining",
    "potential-cte", "async-cte", "graph-bfdn", "urn-game",
)
PHASES = (("select_s", "sim.select"), ("apply_s", "sim.apply"),
          ("observe_s", "sim.observe"), ("other_s", "sim.run"))


@dataclass
class Op:
    """One timed operation and the outcome of its check."""

    index: int
    cls: str
    seconds: float
    rounds: int = 0
    wall_rounds: int = 0
    error: str = ""
    #: Ops with equal slots are draws of the same kind of work.
    slot: object = None


class Workload:
    """Base class: subclasses define ``setup``, ``run_unit`` and ``throughput``.

    A *unit* is the smallest slice of the op sequence that holds every
    op class in its fixed proportion (a whole sweep, a whole cycle, or a
    batch of requests).  The loop runs whole units, so each run measures
    the same mix whatever the host's speed.
    """

    name = ""
    #: Ops with a smaller index enter the simulated-statistics digest.
    pin_ops = 0

    def __init__(self, seed: int, workdir: str, tracer: Any = None, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer if tracer is not None else NullTracer()
        self.tiny = tiny
        self.ops: List[Op] = []

    # -- subclass hooks ------------------------------------------------
    def setup(self) -> None:
        """Build everything and run one untimed warm-up op."""

    def run_unit(self, unit: int, probe: Callable[[], None]) -> None:
        raise NotImplementedError

    def throughput(self) -> float:
        """Ops per second of wall-clock time in this run."""
        raise NotImplementedError

    def classes(self) -> Dict[str, float]:
        """The workload's own end-to-end figures, named per op class."""
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        """Workload-specific per-layer metrics."""
        return {}

    def check_totals(self) -> List[str]:
        """Run-level checks beyond the per-op ones."""
        return []

    def close(self) -> None:
        """Release what ``setup`` started."""

    # -- shared --------------------------------------------------------
    def measure(self, seconds: float, probe: Callable[[], None]) -> float:
        """Run whole units until ``seconds`` have passed and the pinned
        prefix is complete; returns the measured wall time."""
        start = perf_counter()
        unit = 0
        while True:
            self.run_unit(unit, probe)
            unit += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(self.ops) >= self.pin_ops:
                return elapsed

    def probe_span(self, probe: Callable[[], None], lanes: int = 1) -> None:
        """Run the host probe, recorded as a span in every lane it blocks."""
        start = perf_counter()
        probe()
        end = perf_counter()
        for lane in range(lanes):
            self.tracer.add("host.calib", start, end, lane=lane)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error)

    def digest(self) -> str:
        return digest(
            (op.index, op.rounds, op.wall_rounds)
            for op in self.ops if op.index < self.pin_ops
        )

    def span_layers(self) -> Dict[str, float]:
        """Layer metrics read off the spans; times are self seconds per op."""
        spans = self.tracer.spans
        own = self_times(spans)
        ops = max(1, len(self.ops))
        total: Dict[str, float] = {}
        by_alg: Dict[tuple, float] = {}
        runs_by_alg: Dict[str, int] = {}
        nodes = 0
        rounds = reveals = 0
        pinned = {op.index for op in self.ops if op.index < self.pin_ops}
        for s, t in zip(spans, own):
            total[s.name] = total.get(s.name, 0.0) + t
            alg = s.attrs.get("algorithm")
            if alg is not None:
                by_alg[(s.name, alg)] = by_alg.get((s.name, alg), 0.0) + t
            if s.name == "trees.build":
                nodes += int(s.attrs.get("nodes", 0))
            if s.name == "sim.run":
                runs_by_alg[alg] = runs_by_alg.get(alg, 0) + 1
                if s.op in pinned:
                    rounds += int(s.attrs.get("rounds", 0))
                    reveals += int(s.attrs.get("reveals", 0))
        out = {
            "trees.build_s": total.get("trees.build", 0.0) / ops,
            "trees.build_us_per_node": (
                total.get("trees.build", 0.0) / nodes * 1e6 if nodes else 0.0
            ),
            "sim.array_s": total.get("sim.array", 0.0) / ops,
            "sim.rounds": rounds,
            "sim.reveals": reveals,
        }
        for metric, span_name in PHASES:
            out[f"sim.{metric}"] = total.get(span_name, 0.0) / ops
            for alg in ALGORITHMS:
                runs = runs_by_alg.get(alg, 0)
                out[f"sim.{metric}.{alg}"] = (
                    by_alg.get((span_name, alg), 0.0) / runs if runs else 0.0
                )
        return out


def store_layers(put_s: List[float], get_s: List[float],
                 opens: List[float]) -> Dict[str, float]:
    """``orchestrator.store_*`` metrics from store call durations."""
    puts = [s * 1000.0 for s in put_s]
    gets = [s * 1e6 for s in get_s]
    return {
        "orchestrator.store_put_ms.p50": percentile(puts, 50),
        "orchestrator.store_put_ms.p90": percentile(puts, 90),
        "orchestrator.store_get_us": percentile(gets, 50),
        "orchestrator.store_open_s": median(opens),
    }


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
