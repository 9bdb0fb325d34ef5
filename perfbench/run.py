#!/usr/bin/env python3
"""Build the simulator's benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The program
(perfbench/perfbench.ml) is built with dune against the simulator's
libraries and run in a fresh process; its standard output is passed
through, so the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is the
program's: 0 when every correctness check held, non-zero otherwise (and
non-zero, with no result line, when the simulator sources are missing or
do not build).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("websearch-asym70", "incast-mptcp15", "clos3-brownout-pdes")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--shards", type=int, help="clos3 only: override the PDES width")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2

    # build output goes to stderr: stdout carries only the program's report.
    # No shared dune cache: the build reads and writes only the checkout.
    rc = run(["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled",
              "perfbench/perfbench.exe"],
             BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc or 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.shards is not None:
        cmd += ["--shards", str(args.shards)]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
