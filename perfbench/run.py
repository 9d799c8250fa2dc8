#!/usr/bin/env python3
"""End-to-end simulation benchmark runner.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload pert-quick --seed 1 --seconds 30 --trace 0

It builds the benchmark executable from source with dune (into
.bench_build/), then runs the named workload in its own process and
passes that process's output and exit code through. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Without --workload it runs every workload, one
process each, and ends with one JSON object whose metric names are
prefixed by the workload name.

Exit codes: 0 when every output check passed, 1 when a check failed,
2 on a usage or build error, 3 when a workload process timed out.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["pert-quick", "red-web", "pert-paper"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        fail(2, "run from the root of a repository checkout (missing: %s)"
             % ", ".join(missing))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(2, "dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if proc.returncode != 0:
        fail(2, "build failed (dune exit %d)" % proc.returncode)


def run_workload(name, args):
    """Run one workload in its own process; echo its output and return
    (exit code, parsed JSON result or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # The runtime's event ring (read by the traced run) is a file; keep
    # it inside the build directory.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    cmd = [EXE, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: workload %s timed out" % name, file=sys.stderr)
        return 3, None
    # a process killed by a signal has a negative return code
    code = proc.returncode if proc.returncode >= 0 else 1
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, (lines, result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    check_checkout()
    build()
    names = [args.workload] if args.workload else WORKLOADS
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, got = run_workload(name, args)
        worst = max(worst, code)
        if got is None:
            combined["correct"] = False
            continue
        lines, result = got
        if len(names) == 1:
            print("\n".join(lines), flush=True)
            return code if result is not None else max(code, 1)
        print("\n".join(lines[:-1]), flush=True)
        if result is None:
            combined["correct"] = False
            worst = max(worst, 1)
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = v
    if combined["attempted"] == 0:
        return max(worst, 1)
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
