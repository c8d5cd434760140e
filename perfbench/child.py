"""Child process of ``perfbench/run.py``; prints its summary as one JSON line.

    python3 perfbench/child.py {setup,measure} WORKLOAD SEED SECONDS TRACE

Run from the root of a checkout: the program is imported from ``src/``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    role, workload, seed, seconds, trace = argv
    from pb.host import probe_now

    # A host probe before the set-up, so two probes bracket it; the
    # parent does not count this one as set-up time.
    start = time.monotonic()
    calib_before = probe_now()
    probe_s = time.monotonic() - start
    from pb.runner import run_role

    summary = run_role(role, workload, int(seed), float(seconds), trace == "1")
    summary["calib_ms"] = (calib_before + summary["calib_ms"]) / 2.0
    summary["probe_s"] = probe_s
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
