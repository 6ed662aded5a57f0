#!/usr/bin/env python3
"""Build archrel and its benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 relbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Builds the `archrel` CLI (whose `serve` subcommand the daemon workload
spawns) and the `relbench` binary in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the binary. Its last stdout
line is the JSON result; build output goes to stderr. Any ARCHREL_*
variables are removed from the environment so that every run measures the
engine's defaults.

The binary and everything it spawns (the daemon included) run pinned to one
CPU. On small virtual machines a wake-up that crosses CPUs is expensive and
its cost varies from run to run, so unpinned daemon throughput varied by a
factor of two to three between identical runs; pinned, it repeats within a
few percent.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"relbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARCHREL_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} is not an archrel checkout (no Cargo.toml and crates/)")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "archrel-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "relbench/Cargo.toml"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def bench_cpu():
    """The CPU the run is pinned to: the highest one this process may use."""
    return max(os.sched_getaffinity(0))


def rustc_version(env):
    try:
        out = subprocess.run(
            ["rustc", "--version"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve_mixed", "design_batch", "fleet_stream"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    env = clean_env()
    build(env)
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release")
    cpu = bench_cpu()
    cmd = [
        os.path.join(target, "relbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--archrel", os.path.join(target, "archrel"),
        "--rustc", rustc_version(env),
        "--nproc", str(os.cpu_count() or 0),
        "--cpu", str(cpu),
    ]
    sys.stdout.flush()
    pin = lambda: os.sched_setaffinity(0, {cpu})
    # A session of its own, so that a timeout also stops the daemon the
    # binary spawned.
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, preexec_fn=pin, start_new_session=True
    ) as child:
        try:
            code = child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
