#!/usr/bin/env python3
"""Build and run the closed-loop CloudMirror benchmark.

    python3 loopbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds loopbench/main.exe with dune
(build output goes to stderr), runs it, and forwards its report: every
metric by name, unit and sample count, then, as the last line of standard
output, one JSON object {"correct", "attempted", "failed", "metrics"}.
`--trace 1` runs the traced variant, which reports per-layer metrics and
writes a Chrome trace to loopbench/out/trace-<workload>.json.

`--workload all` runs every workload in turn; its last line then holds
each workload's metrics under "<workload>/<metric>".

Exits non-zero when a correctness check fails (the result line then
says "correct": false), and without a result line when the build or a
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "_build")
EXE = os.path.join(BUILD_DIR, "default", "loopbench", "main.exe")
WORKLOADS = ["admit-region", "enforce-churn", "drift-reneg"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--display", "quiet", "./loopbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("loopbench: build failed: %s" % e, file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_one(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "trace-%s.json" % workload)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("loopbench: %s timed out" % workload, file=sys.stderr)
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print("loopbench: %s exited with %d" % (workload, done.returncode),
              file=sys.stderr)
        return None
    # A failed correctness check still reports, with "correct": false,
    # and makes the whole run exit non-zero.
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not build():
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        r = run_one(name, args)
        if r is None:
            return 1
        results[name] = r
    code = max(r.pop("exit") for r in results.values())
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
