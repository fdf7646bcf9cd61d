#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

    python3 gcbench/selftest.py

For each workload, runs a fixed number of ops three times: twice with
seed 1 and once with seed 2.  Every exact counter (the Stats work
counters, peak_heap_words, cleanup_lag_p99_gcs, image.bytes, ...) must
repeat bit for bit under the same seed; the other seed must change some
counter but keep the op count.  Exits 1 on any mismatch.
"""

import json
import os
import subprocess
import sys

OPS = {
    "scheme-compute": 64,
    "guardian-churn": 2 * 65536,
    "image-restart": 8,
}
OUT = ".gcbench_out"


def run(workload, seed, tag):
    path = os.path.join(OUT, "exact-%s-%s.json" % (workload, tag))
    cmd = [sys.executable, os.path.join("gcbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "0", "--ops", str(OPS[workload]), "--exact-out", path]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
    if r.returncode != 0:
        sys.exit("selftest: %s seed %d failed to run" % (workload, seed))
    result = json.loads(r.stdout.decode().rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.exit("selftest: %s seed %d reported incorrect output" % (workload, seed))
    with open(path) as f:
        return json.load(f)


def main():
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for w in OPS:
        a, b, c = run(w, 1, "a"), run(w, 1, "b"), run(w, 2, "c")
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff or a.keys() != b.keys():
            ok = False
            print("FAIL %s: same seed, counters differ: %s" % (w, ", ".join(diff)))
        elif a == c:
            ok = False
            print("FAIL %s: another seed left every counter unchanged" % w)
        elif a["ops"] != c["ops"]:
            ok = False
            print("FAIL %s: another seed changed the op count" % w)
        else:
            changed = sum(1 for k in a if a[k] != c.get(k))
            print("ok   %s: %d counters repeat; seed 2 changes %d of them"
                  % (w, len(a), changed))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
