#!/usr/bin/env python3
"""Continuous-verification benchmark for covern.

Builds `covern_cli` (the daemon the service workloads spawn) and the
harness from source, then runs one workload:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is the result object; the line before it
holds the run's provenance. Run from the repository root. Build output
goes to $CARGO_TARGET_DIR (default `.bench_build`).

Steadiness mode runs one workload ten times, on seeds 1 to 10, each for
BENCHMARK.json's run_seconds, and prints for each end-to-end metric the
median, the quartiles and the spread (quartile distance / median) next to
the metric's bound:

    python3 perfbench/run.py --steady W
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
# Steadiness mode: runs per proof and the first seed.
STEADY_RUNS = 10
STEADY_FIRST_SEED = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds both binaries; returns (harness, covern_cli) paths."""
    for manifest in (os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")):
        if not os.path.isfile(manifest):
            fail(f"missing {manifest}: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "covern_cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr so stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "covern-perfbench"), os.path.join(release, "covern_cli")


def run_workload(harness, cli, workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, stdout)."""
    scratch = os.path.join(target_dir(), "perfbench")
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", cli, "--scratch", scratch]
    env = dict(os.environ, COVERN_LOG="off")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def steady(harness, cli, workload):
    with open(BENCHMARK) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values = {name: [] for name in bounds}
    for seed in range(STEADY_FIRST_SEED, STEADY_FIRST_SEED + STEADY_RUNS):
        code, out = run_workload(harness, cli, workload, seed, seconds, 0)
        if code != 0:
            fail(f"{workload} seed {seed} exited {code}")
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            fail(f"{workload} seed {seed} failed its verdict gate")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
        if verdict != "ok":
            worst = "noisy"
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}  {verdict}")
    print(f"{workload}: {worst}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", metavar="WORKLOAD")
    args = p.parse_args()
    if bool(args.workload) == bool(args.steady):
        fail("pass exactly one of --workload and --steady")
    if args.steady and args.seconds is not None:
        fail("--steady always runs for BENCHMARK.json's run_seconds")
    harness, cli = build()
    if args.steady:
        steady(harness, cli, args.steady)
        return
    if args.seconds is None:
        fail("--seconds is required")
    code, out = run_workload(harness, cli, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
