"""Tracing overhead: one untraced and one traced run of a workload.

    python3 perfbench/overhead.py --workload zoo-sweep [--seed N] [--seconds S]

Run from the root of a checkout.  Prints, for every end-to-end metric,
its value with tracing off, the ``traced.<metric>`` value the traced run
measured, and their difference.
"""

import argparse
import json
import subprocess
import sys


def run(args, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    plain, traced = run(args, 0), run(args, 1)
    print(f"{'metric':14s} {'untraced':>12s} {'traced':>12s} {'overhead':>12s}")
    for name, metric in plain.items():
        off, on = metric["value"], traced[f"traced.{name}"]["value"]
        print(f"{name:14s} {off:12.5g} {on:12.5g} {on - off:+12.5g} {metric['unit']}"
              f"  ({(on - off) / off:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
