#!/usr/bin/env python3
"""Build the service and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kv-durable-write --seed 1 --seconds 10 --trace 0

Builds `indulgent_server` from the repository workspace and the
`perfbench` generator from this directory (both with `--release
--offline` into `$CARGO_TARGET_DIR`, default `.bench_build`), then
replaces itself with the generator. Build output goes to stderr so the
last line of stdout stays the generator's JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest, *extra]
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
        sys.exit(2)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "indulgent-server", "--bin", "indulgent_server")
    build(os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench")
    exe = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "indulgent_server")
    out_dir = os.path.join(ROOT, ".bench_out")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:], "--server-bin", server, "--out-dir", out_dir])


if __name__ == "__main__":
    main()
