#!/usr/bin/env python3
"""Build and run the gcnn benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (release, offline) into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs it with the given arguments. The binary's standard output is passed
through unchanged; its last line is the JSON result. Build output goes
to standard error. The exit code is the binary's, or 3 when the build
fails, in which case no result is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", "perfbench",
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    # Only a checkout that is itself a git work tree names its commit.
    if os.path.exists(os.path.join(ROOT, ".git")):
        env["PERFBENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
