"""End-to-end benchmark of the ``repro`` system: one workload per call.

    python3 perfbench/run.py --workload {zoo-sweep,big-array,serve-mixed} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It runs the workload's set-up in
five fresh processes, one after another; the third also measures for
``--seconds`` (in whole units, see ``perfbench/README.md``), so the
set-ups sample the host before, at the start of and after the
measurement.  ``setup_s`` is their median, each counted from launching
the process to the end of its warm-up op, less the host probe that runs
first.  Every op's output is checked.

The bounded times are host-normalised: each is scaled by the host probe
(``pb.host.calib_loop``) taken in the same process around it, relative to
``REFERENCE_CALIB_MS``, so they read as on a host of that speed.  The
wall-clock figures are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print the same metrics, each
workload's own figures by op class, the host probe and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb.host import REFERENCE_CALIB_MS, provenance  # noqa: E402  (stdlib only)

#: Runs must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0
PINS = os.path.join(HERE, "pins.json")
#: Any integer is a valid ``--seed``; the workloads see it modulo this, so
#: their derived seeds (tree seeds, cold request seeds) stay in range.
SEED_SPACE = 10 ** 9


def run_child(role: str, args, deadline: float) -> dict:
    """Run one child process; returns its summary plus ``setup_wall_s``."""
    launched = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "child.py"), role, args.workload,
               str(args.seed), repr(args.seconds), str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {role} process of {args.workload} timed out")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {role} process of {args.workload} "
                         f"exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    summary["setup_wall_s"] = summary["ready_at"] - launched - summary["probe_s"]
    return summary


def class_unit(name: str) -> str:
    """Unit of a per-class figure, read from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_n", "count")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name!r}")


def pinned_digest(workload: str, seed: int):
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins["digests"].get(workload) if seed == pins["seed"] else None


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= SEED_SPACE
    return args


def main(argv=None) -> int:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError:
        print("perfbench: run from the root of a checkout (no BENCHMARK.json here)",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    args = parse_args(spec, argv)

    deadline = time.monotonic() + DEADLINE_S
    roles = ("setup", "setup", "measure", "setup", "setup")
    runs = [run_child(role, args, deadline) for role in roles]
    result = runs[roles.index("measure")]
    walls = [r["setup_wall_s"] for r in runs]
    setups = [r["setup_wall_s"] * REFERENCE_CALIB_MS / r["calib_ms"] for r in runs]

    e2e = dict(result["metrics"], setup_s=statistics.median(setups))
    pin = pinned_digest(args.workload, args.seed)
    pin_ok = pin is None or pin == result["digest"]
    correct = result["failed"] == 0 and result["problems"] == 0 and pin_ok

    info = provenance(args.seed)
    print(f"workload {args.workload}  seconds {args.seconds:g}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    host = result["host"]
    print(f"host.calib_ms {host['host.calib_ms']:.4f} ms  "
          f"(spread {host['host.calib_spread']:.3f})")
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups)
          + "  (wall-clock " + " ".join(f"{s:.4f}" for s in walls) + ")")
    print(f"throughput_per_s {result['throughput_per_s']:.6g} 1/s  (wall-clock)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(e2e.items()):
        print(f"{name} {value:.6g} {units.get(name, '')}")
    for name, value in result["classes"].items():
        print(f"{args.workload}.{name} {value:.6g} {class_unit(name)}")
    print(f"digest {result['digest']} "
          + ("(not pinned for this seed)" if pin is None
             else "(matches pin)" if pin_ok else f"(PIN MISMATCH: expected {pin})"))
    print(f"ops attempted {result['attempted']} failed {result['failed']}")
    for error in result["errors"]:
        print(f"error: {error}")

    if args.trace:
        layers = dict(result["layers"])
        for name, value in e2e.items():
            layers[f"traced.{name}"] = value
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        unknown = sorted(set(layers) - set(metrics))
        if unknown:
            print(f"perfbench: per-layer metrics missing from BENCHMARK.json: {unknown}",
                  file=sys.stderr)
            return 1
        for name, value in sorted(metrics.items()):
            print(f"{name} {value:.6g} {units[name]}")
        print(f"spans {result['trace_file']}")
        units_for = spec["per_layer"]
    else:
        metrics = e2e
        units_for = spec["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in units_for},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
