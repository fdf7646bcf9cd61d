#!/usr/bin/env python3
"""Build the benchmark under the release profile and run one workload.

    python3 gcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The OCaml program is built with
dune into .gcbench_build/ (release profile, no shared dune cache), then
run once; its stdout is passed through, and its last line is the JSON
result.  Extra flags (--ops, --exact-out) are passed to the program
unchanged.  Exits non-zero, printing no result, if the build or the run
fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".gcbench_build"
TARGET = "./gcbench/gcbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("gcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, TARGET]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "gcbench", "gcbench.exe")


def main():
    exe = build()
    try:
        r = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    out = r.stdout.decode()
    if r.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % r.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("no JSON result on the last line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
