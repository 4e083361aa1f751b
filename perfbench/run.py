#!/usr/bin/env python3
"""Build and run the repository benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload zoo_b1 --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark and the `mnn_http` server
from source (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. The last line of standard output is
the result JSON; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env.pop("MNN_TUNE_CACHE", None)  # every run tunes into its own fresh cache
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    for extra in ([], ["-p", "mnn-http", "--bin", "mnn_http"]):
        built = subprocess.run(base + extra, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:]]
    command += ["--server-bin", os.path.join(release, "mnn_http")]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
