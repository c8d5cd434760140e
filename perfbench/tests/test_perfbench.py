"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from pb.big import PLAIN_PER_TELEMETRY, TEAM_SIZES, cycle_ops
from pb.checks import budget, check_row, digest
from pb.host import REFERENCE_CALIB_MS
from pb.runner import WORKLOADS, run_role
from pb.serve import WARM_SET, cold_payload, cold_seed, requests, warm_seeds
from pb.spans import Span, Tracer, coverage, self_times
from pb.zoo import pass_order, zoo_specs

from repro.bounds import bfdn_bound
from repro.serve import default_payloads
from run import SEED_SPACE, class_unit, parse_args

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- op lists ----------------------------------------------------------

def test_zoo_jobs_and_order_are_deterministic_per_seed():
    specs = zoo_specs(5)
    assert len(specs) == 79
    assert [s.fingerprint() for s in specs] == [s.fingerprint() for s in zoo_specs(5)]
    assert [s.fingerprint() for s in specs] != [s.fingerprint() for s in zoo_specs(6)]
    assert pass_order(5, 0, 79) == pass_order(5, 0, 79)
    assert sorted(pass_order(5, 0, 79)) == list(range(79))
    assert pass_order(5, 0, 79) != pass_order(6, 0, 79)
    assert pass_order(5, 0, 79) != pass_order(5, 1, 79)


def test_big_array_cycle_keeps_the_class_mix():
    ops = cycle_ops(3, 0)
    assert ops == cycle_ops(3, 0) and ops != cycle_ops(4, 0)
    for k in TEAM_SIZES:
        assert ops.count((k, False)) == PLAIN_PER_TELEMETRY
        assert ops.count((k, True)) == 1


def test_serve_requests_are_deterministic_with_one_cold_per_group():
    first = [next(gen) for gen in [requests(7)] for _ in range(400)]
    again = [next(gen) for gen in [requests(7)] for _ in range(400)]
    other = [next(gen) for gen in [requests(8)] for _ in range(400)]
    assert first == again and first != other
    assert [r.index for r in first] == list(range(400))
    for group in range(100):
        members = first[group * 4:group * 4 + 4]
        assert [r.slot for r in members if r.cold] == [group]
        assert all(0 <= r.slot < WARM_SET for r in members if not r.cold)


@pytest.mark.parametrize("seed", [0, 1, 2, 99, 10 ** 9 - 1])
def test_cold_seeds_are_disjoint_from_the_warm_set(seed):
    warm = set(warm_seeds(seed))
    assert len(warm) == WARM_SET
    cold = {cold_seed(seed, slot) for slot in range(-2, 20000)}
    assert not warm & cold
    payloads = default_payloads(kinds=("tree", "graph", "game", "async-tree"),
                                distinct=WARM_SET, n=60, k=4, base_seed=warm_seeds(seed).start)
    assert {p["seed"] for p in payloads} == warm
    keys = {json.dumps({k: v for k, v in p.items() if k != "label"}, sort_keys=True)
            for p in payloads}
    for slot in range(-2, 50):
        payload = cold_payload(seed, slot, 60)
        assert json.dumps({k: v for k, v in payload.items() if k != "label"},
                          sort_keys=True) not in keys


# -- output checks -----------------------------------------------------

def tree_row(**overrides):
    row = {"kind": "tree", "algorithm": "bfdn", "n": 1000, "depth": 10, "k": 8,
           "max_degree": 5, "rounds": 300, "wall_rounds": 300, "complete": True,
           "all_home": True, "backend": "array"}
    row.update(overrides)
    return row


def test_check_accepts_a_good_row():
    assert check_row(tree_row()) == ""
    assert check_row(tree_row(), backend="array") == ""


def test_check_rejects_incomplete_rows():
    assert "incomplete" in check_row(tree_row(complete=False))
    assert "home" in check_row(tree_row(all_home=False))
    assert check_row(None) == "no result row"


def test_check_rejects_an_over_budget_row():
    limit = bfdn_bound(1000, 10, 8, 5)
    assert check_row(tree_row(rounds=int(limit))) == ""
    assert "bfdn_bound" in check_row(tree_row(rounds=int(limit) + 1))


def test_check_rejects_a_fallback_row_where_array_was_asked():
    assert "backend" in check_row(tree_row(backend="reference"), backend="array")


def test_budgets_follow_the_algorithm():
    assert budget(tree_row(algorithm="cte")) is None
    assert budget(tree_row(algorithm="dfs")) is None
    assert budget(tree_row(algorithm="bfdn-ell2"))[0] == "bfdn_ell_bound"
    assert budget(tree_row(algorithm="tree-mining"))[0] == "tree_mining_bound"
    assert budget(tree_row(algorithm="potential-cte"))[0] == "potential_cte_bound"
    name, _, value = budget(tree_row(kind="async-tree", algorithm="async-cte",
                                     clock_time=12.5))
    assert (name, value) == ("async_cte_bound", 12.5)
    assert budget(tree_row(kind="graph", algorithm="graph-bfdn"))[0] == "proposition9_bound"
    assert budget(tree_row(kind="game", algorithm="urn-game"))[0] == "theorem3_bound"


def test_digest_is_order_free_and_sensitive_to_rounds():
    assert digest([(1, 5, 5), (0, 3, 4)]) == digest([(0, 3, 4), (1, 5, 5)])
    assert digest([(0, 3, 4)]) != digest([(0, 3, 5)])


# -- spans -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: covered 1..5 once
        Span(3, "c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        Span(4, "d", 2.5, 3.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2.0, 2.0, 3.0, 1.0])


def test_self_times_add_up_to_the_traced_wall_per_lane():
    spans = [Span(0, "root", 0.0, 4.0), Span(1, "x", 1.0, 2.0, parent=0),
             Span(2, "req", 0.0, 3.0, lane=1), Span(3, "calib", 3.0, 4.0, lane=1)]
    assert coverage(spans, 4.0) == pytest.approx(1.0)
    assert coverage(spans[:2], 8.0) == pytest.approx(0.5)


def test_phases_are_laid_end_to_end_inside_the_parent():
    tracer = Tracer()
    parent = tracer.add("sim.run", 10.0, 11.0, algorithm="bfdn")
    tracer.add_phases(parent, [("sim.select", 0.25), ("sim.apply", 0.0),
                               ("sim.observe", 0.5), ("sim.extra", 0.5)])
    children = tracer.spans[1:]
    assert [(c.name, c.start, c.end) for c in children] == [
        ("sim.select", 10.0, 10.25), ("sim.observe", 10.25, 10.75),
        ("sim.extra", 10.75, 11.0)]
    assert all(c.parent == parent.id and c.attrs["algorithm"] == "bfdn" for c in children)
    assert self_times(tracer.spans)[0] == pytest.approx(0.0)


# -- smoke runs --------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_passes_a_tiny_smoke_run(workload, tmp_path):
    spec = load_spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    for trace in (False, True):
        summary = run_role("measure", workload, 1, 0.2, trace, root=str(tmp_path), tiny=True)
        assert summary["failed"] == 0 and summary["problems"] == 0, summary["errors"]
        assert summary["attempted"] >= WORKLOADS[workload].pin_ops > 0
        assert all(value > 0 for value in summary["metrics"].values())
        assert summary["metrics"]["host_norm_throughput_per_s"] == pytest.approx(
            summary["throughput_per_s"] * summary["host"]["host.calib_ms"] / REFERENCE_CALIB_MS)
        assert summary["calib_ms"] > 0
        assert {m["name"] for m in spec["end_to_end"]} == set(summary["metrics"]) | {"setup_s"}
        assert all(class_unit(name) for name in summary["classes"])
        if trace:
            assert set(summary["layers"]) <= per_layer
            assert 0.9 <= summary["layers"]["trace.coverage"] <= 1.1
            if workload != "serve-mixed":  # the server runs scenarios out of sight
                assert summary["layers"]["sim.rounds"] > 0
            assert os.path.getsize(summary["trace_file"]) > 0
    assert os.listdir(tmp_path / ".perfbench") == [f"trace-{workload}-seed1.jsonl"]


def test_every_per_layer_metric_is_produced_somewhere(tmp_path):
    spec = load_spec()
    produced = {f"traced.{m['name']}" for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        produced |= set(run_role("measure", workload, 2, 0.1, True,
                                 root=str(tmp_path), tiny=True)["layers"])
    assert produced == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("seed", ["0", "7", "3141592653", str(2 ** 64 + 5), "-1"])
def test_any_integer_seed_is_accepted_and_folded(seed):
    args = parse_args(load_spec(), ["--workload", "zoo-sweep", "--seed", seed])
    assert 0 <= args.seed < SEED_SPACE
    assert args.seed == int(seed) % SEED_SPACE


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
