#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: for each metric, the
distance between the first and third quartile of the per-seed values over
their median.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5] [--seconds S]

Run from the repository root. Prints one row per metric with the median,
the spread and the metric's bound from BENCHMARK.json; exits non-zero when
a run fails or a spread (setup_s excepted) exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    worst = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = m["name"] == "setup_s" or spread <= m["bound"] / 3
        worst |= not ok
        print(f"{m['name']:<22} median {med:<12.6g} spread {spread:7.4f} "
              f"bound {m['bound']:.3f} {'ok' if ok else 'WIDE'}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
