"""Telemetry on the array backend: batch replay matches the reference loop.

``MetricsObserver`` and ``BudgetObserver`` are batch-capable, so a
``--telemetry`` run on ``backend="array"`` stays on the fast path and
replays its rounds after the kernel finishes.  These tests pin that the
replay is exact: per event type, the ``round`` / ``budget`` /
``violation`` payloads equal the reference loop's (phase times aside),
and so do the row's ``obs_*`` / ``margin_*`` / ``violations`` columns.
"""

import pytest

from repro.core.bfdn import BFDN
from repro.obs import (
    Budget,
    BudgetObserver,
    MetricsObserver,
    TelemetryConfig,
    TelemetryJob,
    TelemetryWriter,
    read_events,
    run_telemetry_job,
)
from repro.obs.tail import tail
from repro.orchestrator import TreeSpec
from repro.perf import TimingObserver
from repro.registry import make_tree
from repro.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.sim.runloop import RoundCapExceeded, batch_rounds

TIMING_FIELDS = {"select_s", "apply_s", "observe_s"}
REPLAYED = ("round", "budget", "violation")
FAMILIES = ("random", "comb", "spider", "star", "caterpillar", "reanchor-stress")


def _payloads(path):
    """Per event type, the ordered payloads with timing fields dropped."""
    out = {name: [] for name in REPLAYED}
    for event in read_events(path):
        if event.event in out:
            out[event.event].append(
                {k: v for k, v in event.data.items() if k not in TIMING_FIELDS}
            )
    return out


def _telemetry_run(tmp_path, backend, family, n, k, every):
    config = TelemetryConfig.create(str(tmp_path / backend), round_every=every)
    spec = ScenarioSpec(
        kind="tree", algorithm="bfdn",
        substrate=TreeSpec.named(family, n, seed=2), k=k, seed=2,
        backend=backend,
    )
    row = run_telemetry_job(TelemetryJob(spec=spec, config=config))
    return row, _payloads(config.path)


def _observed_columns(row):
    return {
        key: value
        for key, value in row.items()
        if (key.startswith(("obs_", "margin_")) or key == "violations")
        and key[len("obs_"):] not in TIMING_FIELDS
    }


@pytest.mark.parametrize("every", (1, 7, 100))
@pytest.mark.parametrize("k", (1, 4, 16, 64))
@pytest.mark.parametrize("family", FAMILIES)
def test_telemetry_job_parity(tmp_path, family, k, every):
    ref_row, ref_events = _telemetry_run(tmp_path, "reference", family, 150, k, every)
    arr_row, arr_events = _telemetry_run(tmp_path, "array", family, 150, k, every)
    assert arr_row["backend"] == "array"
    assert "fallback_reason" not in arr_row
    assert ref_events["round"] and ref_events["budget"]
    for name in REPLAYED:
        assert arr_events[name] == ref_events[name], name
    assert _observed_columns(arr_row) == _observed_columns(ref_row)


def _observers(tmp_path, backend, budgets, every):
    writer = TelemetryWriter(str(tmp_path / f"{backend}.jsonl"), "feed0000feed0000")
    metrics = MetricsObserver(writer=writer, every=every)
    budget = BudgetObserver(budgets, writer=writer, every=every)
    return writer, metrics, budget


def _simulate(tmp_path, backend, tree, k, budgets, every, **kwargs):
    """Run BFDN with metrics + budget observers; returns the observers,
    the payloads and the raised cap error (or ``None``)."""
    timing = TimingObserver()
    writer, metrics, budget = _observers(tmp_path, backend, budgets, every)
    raised = None
    with writer:
        try:
            Simulator(
                tree, BFDN(), k, observers=[timing, metrics, budget],
                backend=backend, **kwargs,
            ).run()
        except RoundCapExceeded as exc:
            raised = str(exc)
    return timing, metrics, budget, _payloads(writer.path), raised


def _billed(state, record):
    return float(record.billed)


@pytest.mark.parametrize("family", ("random", "comb", "caterpillar"))
@pytest.mark.parametrize("k", (1, 5, 32))
def test_stop_when_complete_has_no_trailing_round(tmp_path, family, k):
    tree = make_tree(family, 200, seed=4)
    budgets = [Budget(name="b", limit=1e9, value=_billed)]
    runs = {
        backend: _simulate(
            tmp_path, backend, tree, k, budgets, 5, stop_when_complete=True,
        )
        for backend in ("reference", "array")
    }
    (ref_t, ref_m, _, ref_ev, _), (arr_t, arr_m, _, arr_ev, _) = (
        runs["reference"], runs["array"],
    )
    assert arr_t.backend == "array"
    assert arr_t.stop_reason == ref_t.stop_reason == "complete"
    assert arr_m.rounds == ref_m.rounds == ref_t.billed_rounds
    assert arr_ev == ref_ev


@pytest.mark.parametrize("family,k", [("random", 4), ("comb", 3), ("star", 8)])
def test_too_small_budget_fires_at_same_round(tmp_path, family, k):
    tree = make_tree(family, 300, seed=1)
    budgets = [Budget(name="tiny", limit=40.0, value=_billed)]
    runs = {
        backend: _simulate(tmp_path, backend, tree, k, budgets, 10)
        for backend in ("reference", "array")
    }
    ref_budget, arr_budget = runs["reference"][2], runs["array"][2]
    assert runs["array"][0].backend == "array"
    assert len(ref_budget.violations) == 1
    assert arr_budget.violations == ref_budget.violations
    assert arr_budget.violations[0].t == 40
    assert runs["array"][3]["violation"] == runs["reference"][3]["violation"]


@pytest.mark.parametrize("family,k,cap", [
    ("random", 4, 60),    # overrun on an ordinary round
    ("comb", 3, 30),
    ("caterpillar", 2, 45),
])
def test_capped_run_loses_no_violation(tmp_path, family, k, cap):
    tree = make_tree(family, 300, seed=1)
    budgets = [Budget(name="tiny", limit=cap - 5.0, value=_billed)]
    runs = {
        backend: _simulate(tmp_path, backend, tree, k, budgets, 7, max_rounds=cap)
        for backend in ("reference", "array")
    }
    ref, arr = runs["reference"], runs["array"]
    assert ref[4] is not None and arr[4] == ref[4]
    assert len(ref[2].violations) == 1
    assert arr[2].violations == ref[2].violations
    # Observers saw every round through the overrunning one.
    assert arr[1].rounds == ref[1].rounds == cap + 1
    assert arr[1].snapshot()["moves"] == ref[1].snapshot()["moves"]
    assert arr[3] == ref[3]


def test_timing_rounds_agree_across_backends():
    # The reference loop shows observers the trailing all-stay round of
    # a quiescent stop; the batch summary counts it the same way.
    tree = make_tree("random", 2000, seed=0)
    rounds = {}
    for backend in ("reference", "array"):
        timing = TimingObserver()
        result = Simulator(tree, BFDN(), 8, observers=[timing], backend=backend).run()
        assert timing.backend == backend
        rounds[backend] = (timing.rounds, timing.billed_rounds, result.rounds)
    assert rounds["array"] == rounds["reference"]
    assert rounds["array"][0] == rounds["array"][1] + 1


def _summary(stop_reason, billed=3):
    return {
        "rounds": billed + (stop_reason == "quiescent"),
        "billed": billed,
        "team": 4,
        "moved": [4, 3, 2][:billed],
        "revealed": [2, 1, 0][:billed],
        "reanchor_log": [(0, 0, 1, 1), (0, 1, 2, 1), (2, 3, 5, 2)],
        "stop_reason": stop_reason,
    }


def test_batch_rounds_adds_the_trailing_all_stay_round_on_quiescence():
    billed, moved, revealed, reanchors = batch_rounds(_summary("quiescent"))
    # The last round is the unbilled all-stay round: billed[3] == 3.
    assert billed == [1, 2, 3, 3]
    assert moved == [4, 3, 2, 0]
    assert revealed == [2, 1, 0, 0]
    assert reanchors == [2, 0, 1, 0]


@pytest.mark.parametrize("stop_reason", ("complete", None))
def test_batch_rounds_has_no_trailing_round_otherwise(stop_reason):
    billed, moved, revealed, reanchors = batch_rounds(_summary(stop_reason))
    assert billed == [1, 2, 3]
    assert len(moved) == len(revealed) == len(reanchors) == 3


def test_declined_run_records_fallback_reason(tmp_path):
    config = TelemetryConfig.create(str(tmp_path))
    spec = ScenarioSpec(
        kind="tree", algorithm="cte",
        substrate=TreeSpec.named("random", 80, seed=0), k=3, seed=0,
        backend="array",
    )
    row = run_telemetry_job(TelemetryJob(spec=spec, config=config))
    assert row["backend"] == "reference"
    assert row["fallback_reason"] == "algorithm 'CTE'"
    ends = [ev for ev in read_events(config.path) if ev.event == "run_end"]
    assert ends[-1].data["fallback_reason"] == "algorithm 'CTE'"
    assert ends[-1].data["backend"] == "reference"
    assert "ran on reference (algorithm 'CTE')" in tail(str(tmp_path))


def test_rows_that_ran_as_requested_have_no_fallback_column(tmp_path):
    for backend in ("reference", "array"):
        spec = ScenarioSpec(
            kind="tree", algorithm="bfdn",
            substrate=TreeSpec.named("random", 80, seed=0), k=3, seed=0,
            backend=backend,
        )
        row = spec.build().run()
        assert row["backend"] == backend
        assert "fallback_reason" not in row
