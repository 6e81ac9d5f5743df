#!/usr/bin/env python3
"""Build the coverage suite and its benchmark, then run one workload.

Usage, from the repository root:

    python3 covbench/run.py --workload uniform|skewed --seed N \
        --seconds S --trace 0|1

Builds the `coverage` binary (the daemon and the worker processes) and
the `covbench` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs `covbench`, and passes its exit code through. Its
last stdout line is the JSON result; build output goes to stderr.
With `--trace 1` the recorded spans are written under the target
directory, in `covbench-spans/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def flag(args, name):
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.exit(f"run.py: no repository to build at {ROOT}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(root_manifest, "--bin", "coverage")
    build(os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "covbench"), *args,
           "--coverage-bin", os.path.join(release, "coverage")]
    if flag(args, "--trace") == "1":
        spans = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.jsonl"
        cmd += ["--trace-out", os.path.join(target, "covbench-spans", spans)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
