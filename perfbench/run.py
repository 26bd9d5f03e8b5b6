#!/usr/bin/env python3
"""Build ontodq-server and the perfbench client from source, then run one
benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Both binaries are built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`, relative to the current
directory); cargo's own output goes to standard error, so the last line of
standard output is the run's JSON result.  Exits non-zero without a result
when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra, env):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
    result = subprocess.run(command, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"error: build failed: {' '.join(command)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "ontodq-server", "--bin", "ontodq-server", env=env)
    build(os.path.join(HERE, "Cargo.toml"), env=env)
    binary = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "ontodq-server")
    work_dir = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--server", server, "--work-dir", work_dir])


if __name__ == "__main__":
    main()
