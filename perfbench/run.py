#!/usr/bin/env python3
"""Run one workload of the layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Builds racedet and
the perfbench harness from source with dune, runs the harness for the
workload, forwards its human-readable report and prints the result
object as the last line of standard output.  The result's metric names
and units must be exactly those BENCHMARK.json lists for the mode
(end_to_end with --trace 0, per_layer with --trace 1); otherwise, or if
the build or the run fails, it exits non-zero without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["explore-tsp", "explore-sor2-hb", "serve-mix", "check-corpus"]
HARNESS = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RACEDET = os.path.join("_build", "default", "bin", "racedet.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for needed in ["dune-project", "BENCHMARK.json", os.path.join("lib", "harness"),
                   os.path.join("bin", "racedet.ml"), os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("not the root of a repository checkout (missing %s)" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", HARNESS, RACEDET],
                  BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail("build failed")

    code, out = run([HARNESS, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--racedet", RACEDET],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        fail("harness exited with code %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
