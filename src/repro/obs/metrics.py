"""Metrics primitives and the per-round engine metrics observer.

The registry half is a small, dependency-free take on the counter /
gauge / histogram trio of serving-stack metric systems: every metric has
a name and optional labels, values are plain floats, and
:meth:`MetricsRegistry.collect` renders the whole registry as flat
sample dicts (rows for tables, payloads for telemetry events).

:class:`MetricsObserver` is the bridge from the shared
:class:`~repro.sim.runloop.RoundEngine` into that registry *and* into
the telemetry event log: per round it records moves, idles, reveals,
re-anchors and interference blocks, plus the engine's per-phase wall
times (via the existing ``on_phase_times`` hook), and periodically
flushes cumulative ``round`` events carrying its trace/span ids.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from ..sim.runloop import (
    RoundObserver,
    RoundRecord,
    RoundState,
    RunOutcome,
    batch_rounds,
)
from .writer import NullWriter

logger = logging.getLogger(__name__)

#: Canonical label encoding: a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of labelled float values."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        if not name:
            raise ValueError("metrics need a non-empty name")
        self.name = name
        self.help = help
        self._values: Dict[LabelSet, float] = {}

    def value(self, **labels: Any) -> float:
        """The current value for one label combination (0.0 if unseen)."""
        return self._values.get(_labelset(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        """Flat sample dicts: ``{"name", "kind", "labels", "value"}``."""
        return [
            {
                "name": self.name,
                "kind": self.kind,
                "labels": dict(labelset),
                "value": value,
            }
            for labelset, value in sorted(self._values.items())
        ]

    def reset(self) -> None:
        """Drop every labelled value."""
        self._values.clear()

    def merge(self, other: "Metric") -> None:
        """Fold another instance of this metric into this one.

        Merging is commutative and associative (values add per label
        set), so folding per-worker registries from a process pool
        yields the same totals in any arrival order.  Gauges merge by
        summation too — the pool-aggregation reading of a gauge is
        "each worker's contribution", not "last writer wins", which
        would be order-dependent.
        """
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {other.kind} {other.name!r} into "
                f"{self.kind} {self.name!r}"
            )
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Counter(Metric):
    """Monotonically increasing count (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(Metric):
    """A value that can move both ways (per label combination)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled gauge."""
        self._values[_labelset(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (either sign) to the labelled gauge."""
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(Metric):
    """Cumulative-bucket histogram (per label combination).

    Buckets are fixed upper bounds; ``observe`` also maintains ``sum``
    and ``count`` so means survive aggregation.
    """

    kind = "histogram"

    #: Default buckets sized for per-phase engine times (seconds).
    DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histograms need at least one bucket")
        self._counts: Dict[LabelSet, List[int]] = {}
        self._totals: Dict[LabelSet, Tuple[int, float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation."""
        key = _labelset(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        counts[bisect_right(self.buckets, value)] += 1
        count, total = self._totals.get(key, (0, 0.0))
        self._totals[key] = (count + 1, total + value)
        self._values[key] = total + value  # `value()` returns the sum

    def samples(self) -> List[Dict[str, Any]]:
        """Sum/count/bucket samples per label combination."""
        out: List[Dict[str, Any]] = []
        for key in sorted(self._counts):
            count, total = self._totals[key]
            out.append(
                {
                    "name": self.name,
                    "kind": self.kind,
                    "labels": dict(key),
                    "value": total,
                    "count": count,
                    "buckets": {
                        str(bound): n
                        for bound, n in zip(
                            list(self.buckets) + ["inf"], self._counts[key]
                        )
                    },
                }
            )
        return out

    def reset(self) -> None:
        super().reset()
        self._counts.clear()
        self._totals.clear()

    def merge(self, other: "Metric") -> None:
        """Fold another histogram in: bucket-wise and sum/count adds."""
        if type(other) is not type(self) or other.buckets != self.buckets:  # type: ignore[attr-defined]
            raise ValueError(
                f"cannot merge into histogram {self.name!r}: "
                "kind or bucket bounds differ"
            )
        assert isinstance(other, Histogram)
        for key, counts in other._counts.items():
            mine = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            for i, n in enumerate(counts):
                mine[i] += n
            count, total = self._totals.get(key, (0, 0.0))
            ocount, ototal = other._totals.get(key, (0, 0.0))
            self._totals[key] = (count + ocount, total + ototal)
            self._values[key] = total + ototal


class MetricsRegistry:
    """A named collection of metrics (one per run, sweep, or process)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create a :class:`Counter`."""
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get-or-create a :class:`Gauge`."""
        return self._register(Gauge(name, help))  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets=Histogram.DEFAULT_BUCKETS
    ) -> Histogram:
        """Get-or-create a :class:`Histogram`."""
        return self._register(Histogram(name, help, buckets))  # type: ignore[return-value]

    def collect(self) -> List[Dict[str, Any]]:
        """Every sample of every metric, in name order."""
        samples: List[Dict[str, Any]] = []
        for name in sorted(self._metrics):
            samples.extend(self._metrics[name].samples())
        return samples

    def reset(self) -> None:
        """Reset every metric (the registry keeps its families)."""
        for metric in self._metrics.values():
            metric.reset()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, metric by metric.

        Unknown families are adopted (same kind, same buckets); known
        ones merge commutatively — see :meth:`Metric.merge` — so
        per-worker registries can be folded in any order with identical
        results.  A name registered under two different kinds raises.
        """
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(name, metric.help, metric.buckets)
                else:
                    mine = type(metric)(name, metric.help)
                self._metrics[name] = mine
            mine.merge(metric)


def _is_mover(move: Any) -> bool:
    """Whether a selected move is an actual move (not a stay)."""
    return isinstance(move, tuple) and bool(move) and move[0] != "stay"


class MetricsObserver(RoundObserver):
    """Streams per-round engine metrics into a registry and the event log.

    Counts, per run: mover moves executed, interference-struck moves,
    idle robot-rounds, reveal events and re-anchor calls (tree states
    expose them through ``state.expl.metrics.reanchors``); accumulates
    the engine's select/apply/observe phase times.  Every ``every``
    rounds — and once at termination — the cumulative counters are
    flushed as one ``round`` telemetry event carrying the observer's
    trace/span ids.

    Batch-capable: on the array backend :meth:`on_batch` replays the
    run's per-round series through the same counting step, so the
    ``round`` events match the reference loop's except for their phase
    times, which a batch run only knows as whole-run totals (flushed
    with the final event; ``engine_phase_seconds`` gets one sample per
    phase per batch).
    """

    wants_phase_timing = True
    supports_batch = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        writer=None,
        span_id: str = "",
        fingerprint: str = "",
        label: str = "",
        every: int = 100,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.writer = writer if writer is not None else NullWriter()
        self.span_id = span_id
        self.fingerprint = fingerprint
        self.label = label
        self.every = every
        self._phase_hist = self.registry.histogram(
            "engine_phase_seconds", "per-round engine phase wall time"
        )
        self._reset_run()

    def _reset_run(self) -> None:
        self.rounds = 0
        self.billed_rounds = 0
        self.moves = 0
        self.blocked = 0
        self.idle = 0
        self.reveals = 0
        self.reanchors = 0
        self.select_s = 0.0
        self.apply_s = 0.0
        self.observe_s = 0.0
        self._reanchor_seen = 0

    # ------------------------------------------------------------------
    def on_attach(self, state: RoundState) -> None:
        """Reset the per-run counters (the registry accumulates)."""
        self._reset_run()

    def on_phase_times(
        self, select_s: float, apply_s: float, observe_s: float
    ) -> None:
        """Accumulate one round's phase durations into the histograms."""
        self.select_s += select_s
        self.apply_s += apply_s
        self.observe_s += observe_s
        self._phase_hist.observe(select_s, phase="select")
        self._phase_hist.observe(apply_s, phase="apply")
        self._phase_hist.observe(observe_s, phase="observe")

    def on_round(self, state: RoundState, record: RoundRecord) -> None:
        """Fold one :class:`RoundRecord` into the counters."""
        moves = record.moves
        movers = blocked = 0
        if isinstance(moves, dict):
            for agent, move in moves.items():
                if not _is_mover(move):
                    continue
                if agent in record.struck:
                    blocked += 1
                else:
                    movers += 1
        team = state.team()
        idle = 0
        if team is not None and record.billed > record.billed_before:
            idle = len(team) - movers
        reveals = 0
        events = record.events
        if events is not None:
            try:
                reveals = len(events)
            except TypeError:
                pass
        reanchors = 0
        metrics = getattr(getattr(state, "expl", None), "metrics", None)
        if metrics is not None:
            total = len(metrics.reanchors)
            reanchors = total - self._reanchor_seen
            self._reanchor_seen = total
        self._count(record.t, record.billed, 1, movers, blocked, idle,
                    reveals, reanchors)

    def on_batch(self, state: RoundState, summary: Dict[str, Any]) -> None:
        """Replay a batch backend's run round by round.

        The rounds from :func:`~repro.sim.runloop.batch_rounds` go
        through the same counting step as :meth:`on_round`, in spans that
        end at the rounds that flush: the counters are sums, so a span
        adds what its rounds add one by one.  The whole-run phase times
        are folded in last.
        """
        team = summary["team"]
        billed, moved, revealed, reanchors = batch_rounds(summary)
        start = 0
        while start < len(billed):
            end = min(len(billed), start + self.every - self.rounds % self.every)
            movers = sum(moved[start:end])
            # A billed round leaves its non-movers idle; an unbilled one
            # (a quiescent stop's final all-stay round) moved nobody.
            billed_here = billed[end - 1] - (billed[start - 1] if start else 0)
            self._count(
                end - 1, billed[end - 1], end - start, movers, 0,
                team * billed_here - movers, sum(revealed[start:end]),
                sum(reanchors[start:end]),
            )
            start = end
        phases = summary["phases"]
        self.on_phase_times(
            phases["select"], phases["apply"], phases["observe"]
        )

    def _count(
        self, t: int, billed: int, rounds: int, movers: int, blocked: int,
        idle: int, reveals: int, reanchors: int,
    ) -> None:
        """Add ``rounds`` observed rounds, the last with wall index ``t``,
        to the counters."""
        self.rounds += rounds
        self.billed_rounds = billed
        self.moves += movers
        self.blocked += blocked
        self.idle += idle
        self.reveals += reveals
        self.reanchors += reanchors
        if self.rounds % self.every == 0:
            self._flush(t + 1, final=False)

    def on_stop(self, state: RoundState, outcome: RunOutcome) -> None:
        """Flush the final cumulative ``round`` event and the gauges.

        Asynchronous runs publish their per-robot clock on the state
        (:class:`~repro.sim.scheduler.AsyncClock`); when present, its
        summary goes out as one ``clock`` event so trace readers
        (``repro tail``) can attribute wall time to the slowest robot.
        """
        self.billed_rounds = outcome.billed_rounds
        counters = self.registry.counter(
            "run_totals", "cumulative per-run engine counters"
        )
        for key, value in self.snapshot().items():
            if isinstance(value, (int, float)):
                counters.inc(float(value), field=key)
        self._flush(outcome.wall_rounds, final=True)
        clock = getattr(state, "clock", None)
        if clock is not None and hasattr(clock, "summary"):
            self.writer.emit(
                "clock",
                span_id=self.span_id,
                fingerprint=self.fingerprint,
                label=self.label,
                data=clock.summary(),
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat cumulative counters (merged into orchestrator rows)."""
        return {
            "rounds": self.rounds,
            "billed_rounds": self.billed_rounds,
            "moves": self.moves,
            "blocked": self.blocked,
            "idle": self.idle,
            "reveals": self.reveals,
            "reanchors": self.reanchors,
            "select_s": round(self.select_s, 6),
            "apply_s": round(self.apply_s, 6),
            "observe_s": round(self.observe_s, 6),
        }

    def _flush(self, wall_round: int, final: bool) -> None:
        data = self.snapshot()
        data["wall_round"] = wall_round
        data["final"] = final
        self.writer.emit(
            "round",
            span_id=self.span_id,
            fingerprint=self.fingerprint,
            label=self.label,
            data=data,
        )


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "Metric",
    "MetricsObserver",
    "MetricsRegistry",
]
