#!/usr/bin/env python3
"""Build and run the SciBORQ benchmark.

    python3 perfbench/run.py --workload explore|serve|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by path;
this script builds it in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build), then runs it with the same arguments. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
