"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end, the span that caused it, the op it
belongs to and a *lane*: the sequential thread of control it ran on.
Lane 0 is the measuring loop; the serving workload gives each closed-loop
client its own lane, because two clients have requests in flight at once.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Within one lane, self times add up to the time the
lane was traced, which is what :func:`coverage` checks.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One recorded interval (``perf_counter`` seconds)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    op: Optional[int] = None
    lane: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end.

    :meth:`span` nests through a stack and serves single-threaded code;
    :meth:`add` records an interval measured elsewhere (a client's
    request, or an engine phase total reported by a timing observer).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def current(self) -> Optional[int]:
        """Id of the innermost open :meth:`span`, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, **attrs: Any) -> Iterator[Span]:
        record = self.add(name, perf_counter(), 0.0, parent=self.current(), op=op, **attrs)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        lane: int = 0,
        **attrs: Any,
    ) -> Span:
        record = Span(len(self.spans), name, start, end, parent, op, lane, dict(attrs))
        self.spans.append(record)
        return record

    def add_phases(self, parent: Span, phases: Iterable[Tuple[str, float]]) -> None:
        """Lay phase totals end to end inside ``parent`` as child spans.

        A timing observer reports how long each engine phase took in
        total, not when; placing the totals one after another from the
        parent's start keeps the self-time arithmetic exact.
        """
        cursor = parent.start
        for name, seconds in phases:
            if seconds <= 0.0:
                continue
            end = min(cursor + seconds, parent.end)
            self.add(name, cursor, end, parent=parent.id, op=parent.op,
                     lane=parent.lane, **parent.attrs)
            cursor = end

    def dump(self, path: str) -> None:
        """Write one JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for s, own in zip(self.spans, self_times(self.spans)):
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "lane": s.lane,
                    "self": own, **s.attrs,
                }) + "\n")


class NullTracer:
    """The untraced run's tracer: records nothing."""

    enabled = False
    spans: Tuple[Span, ...] = ()

    def current(self) -> Optional[int]:
        return None

    def span(self, name: str, op: Optional[int] = None, **attrs: Any):
        return nullcontext()

    def add(self, *args: Any, **kwargs: Any) -> None:
        return None

    def add_phases(self, parent: Any, phases: Any) -> None:
        return None


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span, indexed like ``spans`` (ids are indices)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return [
        s.duration - _union_length(children.get(s.id, [])) for s in spans
    ]


def coverage(spans: List[Span], wall: float) -> float:
    """Summed self time over (lanes x traced wall time); 1.0 is full cover."""
    lanes = {s.lane for s in spans}
    if not lanes or wall <= 0:
        return 0.0
    return sum(self_times(spans)) / (len(lanes) * wall)


def self_by_name(spans: List[Span]) -> Dict[str, float]:
    """Self seconds summed per span name."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals
