#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds `perfbench/` (the benchmark
binary and the `flowd` daemon, against the repository's crates) with cargo
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, prints
the binary's human-readable lines, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the `end_to_end` metrics of BENCHMARK.json (or, with `--trace 1`,
its `per_layer` metrics). It exits non-zero, without that line, when the
build or the run fails, and non-zero after it when any answer was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

DEFAULT_SEED = 1
# Not used while the benchmark was written; confirms later claims.
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 170


def target_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(root, *args):
    """Runs cargo on the benchmark package, build output to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path",
           os.path.join(root, "perfbench", "Cargo.toml")]
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def output_of(cmd, root):
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=20)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def commit_id(root):
    return (output_of(["git", "rev-parse", "HEAD"], root)
            or os.environ.get("BENCH_COMMIT") or "unknown")


def run_group(cmd, cwd, timeout):
    """Runs cmd in its own process group; kills the whole group afterwards
    so nothing it started (the daemon) outlives it."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def metric_names(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    root = os.getcwd()

    if args.self_test:
        return cargo(root, "test")
    if not args.workload:
        parser.error("--workload is required")
    names = metric_names(root, args.trace)
    if cargo(root, "build") != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    bins = os.path.join(target_dir(root), "release")
    rustc = output_of(["rustc", "-V"], root) or "unknown"
    cmd = [os.path.join(bins, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--flowd", os.path.join(bins, "flowd"),
           "--commit", commit_id(root), "--rustc", rustc]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            target_dir(root), f"spans-{args.workload}-{args.seed}.jsonl")]
    code, out = run_group(cmd, root, RUN_TIMEOUT_S)
    if out is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        print(f"perfbench: no result (exit {code})", file=sys.stderr)
        return 1
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    meta = {k: v for k, v in result.items() if k != "metrics"}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
