"""Traced stand-ins for the program's public types.

The traced run hands the program these subclasses instead of the plain
types, so each call into a layer (``ScenarioSpec.build``,
``BuiltScenario.run``, ``ResultStore.get``/``put``) is recorded as a
span by the benchmark's own code while the program's call path stays
the one users run.  The untraced run uses the plain types.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, List, Optional

from repro.orchestrator import ResultStore
from repro.perf import TimingObserver
from repro.scenario import BuiltScenario, ScenarioSpec

#: The build span's layer per scenario kind (modules the substrate comes from).
BUILD_LAYER = {
    "tree": "trees.build", "async-tree": "trees.build",
    "graph": "graphs.build", "game": "game.build",
}


class TracedBuilt(BuiltScenario):
    """A built scenario whose runs are spans with engine phase children."""

    def __init__(self, spec: "TracedSpec") -> None:
        super().__init__(spec)
        self.tracer = spec.tracer

    def run(self, observers=()):
        timing = TimingObserver()
        with self.tracer.span("sim.run", op=self.spec.op,
                              algorithm=self.spec.algorithm) as span:
            row = super().run(observers=[*observers, timing])
        span.attrs.update(rounds=timing.rounds, reveals=timing.reveals,
                          backend=timing.backend)
        if timing.backend == "reference":
            phases = [("sim.select", timing.select_s), ("sim.apply", timing.apply_s),
                      ("sim.observe", timing.observe_s)]
        else:
            # A batch backend runs one fused kernel with no phase split.
            phases = [("sim.array", timing.select_s + timing.apply_s + timing.observe_s)]
        self.tracer.add_phases(span, phases)
        return row


@dataclass(frozen=True)
class TracedSpec(ScenarioSpec):
    """A scenario spec whose ``build`` is a span returning :class:`TracedBuilt`.

    ``tracer`` and ``op`` (the benchmark's op id) are not part of the
    spec's identity: fingerprints and cache keys are those of the plain spec.
    """

    tracer: Any = field(default=None, compare=False, repr=False)
    op: Optional[int] = field(default=None, compare=False)

    @classmethod
    def wrap(cls, spec: ScenarioSpec, tracer: Any, op: Optional[int] = None) -> "TracedSpec":
        fields = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
        return cls(**fields, tracer=tracer, op=op)

    def build(self) -> TracedBuilt:
        with self.tracer.span(BUILD_LAYER[self.kind], op=self.op,
                              algorithm=self.algorithm) as span:
            built = TracedBuilt(self)
        span.attrs["nodes"] = built.size
        return built


class TracedStore(ResultStore):
    """A result store that times every ``get`` and ``put``.

    Durations are kept for every call, from any thread (the server's
    pool threads write the store).  With a tracer, calls made on the
    thread that created the store also become spans.
    """

    def __init__(self, cache_dir: str, tracer: Any = None) -> None:
        self.get_s: List[float] = []
        self.put_s: List[float] = []
        self._tracer = tracer
        self._owner = threading.get_ident()
        super().__init__(cache_dir)

    def _record(self, name: str, durations: List[float], start: float) -> None:
        end = perf_counter()
        durations.append(end - start)
        if self._tracer is not None and threading.get_ident() == self._owner:
            self._tracer.add(name, start, end, parent=self._tracer.current())

    def get(self, fingerprint):
        start = perf_counter()
        row = super().get(fingerprint)
        self._record("orchestrator.store_get", self.get_s, start)
        return row

    def put(self, fingerprint, row) -> None:
        start = perf_counter()
        super().put(fingerprint, row)
        self._record("orchestrator.store_put", self.put_s, start)
