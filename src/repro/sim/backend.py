"""Engine backends: pluggable executors behind :class:`RoundEngine`.

The round engine's *protocol* (state / policy / interference /
observers) is fixed; **how** a run is driven to termination is a
backend decision.  Two backends ship:

* ``reference`` — the dict-based per-round loop in
  :mod:`repro.sim.runloop`, the semantics oracle.  Every model and every
  observer runs here.
* ``array`` — :mod:`repro.sim.array_backend`: flat-array state plus an
  event-driven round loop for the standard BFDN-on-tree model, ~10-30x
  the reference's rounds/sec.  It *declines* configurations outside its
  supported envelope (other algorithms, adversaries, non-batch
  observers, graph/game states) and the engine falls back to the
  reference loop — same results, reference speed — logging the reason
  once per process and recording it in the run's outcome.

Backends are looked up by name through :func:`resolve_backend`; unknown
names raise the registry-style "known names" ValueError, so the same
message surfaces from the CLI, :class:`~repro.scenario.ScenarioSpec`
validation and the serve daemon.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runloop import RoundEngine, RunOutcome

logger = logging.getLogger(__name__)

#: The default backend: the dict-based loop, able to run everything.
DEFAULT_BACKEND = "reference"

#: Known backend names (sorted; the single authority for validation).
BACKENDS: Tuple[str, ...] = ("array", "reference")


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise ValueError."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r} (known: {', '.join(BACKENDS)})"
        )
    return name


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process.

    Both shipped backends are always available — ``array`` degrades to
    its pure-python path when numpy is missing rather than disappearing.
    The indirection exists so the serve daemon can refuse requests for
    backends a *differently built* server does not carry.
    """
    return BACKENDS


class EngineBackend:
    """One way of driving a :class:`~repro.sim.runloop.RoundEngine`.

    ``execute`` either runs the engine to termination and returns the
    :class:`~repro.sim.runloop.RunOutcome`, or returns ``None`` to
    decline, after setting ``engine.fallback_reason`` — the engine then
    falls back to the reference loop, whose outcome (and every row built
    from it) carries that reason.  A backend must be *exact*: any
    outcome it returns (including all state and metrics mutations) must
    be indistinguishable from the reference loop's.
    """

    name = "abstract"

    def execute(self, engine: "RoundEngine") -> Optional["RunOutcome"]:
        raise NotImplementedError


class ReferenceBackend(EngineBackend):
    """The dict-based per-round loop (see ``RoundEngine._run_reference``)."""

    name = "reference"

    def execute(self, engine: "RoundEngine") -> Optional["RunOutcome"]:
        """Always decline, routing the engine to its own loop."""
        return None


#: Reasons already logged for declined array runs (log once per process,
#: not once per run — sweeps run thousands of scenarios).
_warned_fallbacks: Set[str] = set()


def note_fallback(reason: str) -> None:
    """Log one warning per distinct fallback reason per process."""
    if reason not in _warned_fallbacks:
        _warned_fallbacks.add(reason)
        logger.warning("backend=array falling back to reference: %s", reason)


def resolve_backend(name: str) -> EngineBackend:
    """The backend instance for ``name`` (validates the name)."""
    validate_backend(name)
    if name == "array":
        from .array_backend import ArrayBackend

        return ArrayBackend.instance()
    return _REFERENCE


_REFERENCE = ReferenceBackend()


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "EngineBackend",
    "ReferenceBackend",
    "available_backends",
    "note_fallback",
    "resolve_backend",
    "validate_backend",
]
