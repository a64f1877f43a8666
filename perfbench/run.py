#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default .bench_build), then run from the
repository root with the same arguments. Its last line of standard
output is the JSON result; progress and a readable summary go to
standard error. The exit code is the benchmark's, or 2 when the build
fails (for example when the repository's sources are not present).
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(bench / "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "qap-perfbench"
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
