#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, on seed 1 with one drive per run:
  - every workload prints every metric BENCHMARK.json names, with its
    unit, untraced and traced, and passes its correctness gate;
  - two traced runs give identical per-layer counts and digests;
  - a traced and an untraced run give the same digest (tracing only
    observes; each traced run also checks its traced against its
    untraced repetitions internally);
  - clos3-brownout-pdes gives the same digest at shards 1 and shards 2.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

# Per-layer metrics that are wall-clock or GC measurements, not counts
# fixed by the seed.
TIMED = ("_ns", "_s")
UNTIMED_BUT_VARIABLE = {
    "engine.cpu_per_wall",
    "engine.minor_words_per_event",
    "engine.promoted_words_per_event",
    "drive.unattributed_share",
    "trace.overhead_share",
}


def run(workload, trace, shards=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if shards is not None:
        cmd += ["--shards", str(shards)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {' '.join(cmd)}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    digest = next(l.split()[-1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


def check(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)
    print("ok  ", msg)


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(TIMED) and k not in UNTIMED_BUT_VARIABLE}


def main():
    spec = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (x["name"] for x in spec["workloads"]):
        plain, d0 = run(w, 0)
        traced1, d1 = run(w, 1)
        traced2, d2 = run(w, 1)
        for res, names, label in ((plain, e2e, "untraced"), (traced1, layer, "traced")):
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} {label}: correctness gate passes")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == names, f"{w} {label}: every named metric, with its unit")
        check(d1 == d2 and deterministic(traced1["metrics"]) == deterministic(traced2["metrics"]),
              f"{w}: two traced runs give identical counts and digests")
        check(d0 == d1, f"{w}: traced and untraced runs give the same digest")
    _, s1 = run("clos3-brownout-pdes", 0, shards=1)
    _, s2 = run("clos3-brownout-pdes", 0, shards=2)
    check(s1 == s2, "clos3-brownout-pdes: same digest at shards 1 and 2")


if __name__ == "__main__":
    main()
