#!/usr/bin/env python3
"""Builds the ecas benchmark and runs one workload.

    python3 perfbench/run.py --workload paper-figs|serve-warm|learn-dvfs|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of an ecas checkout. It builds perfbench/ (libecas
plus the ecas_perfbench program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, and keeps run artifacts (journal files,
span dumps) in its runs/ subdirectory. The program's report goes to
stdout; its last line is the result object, checked against
BENCHMARK.json before it is printed. Exit codes: the program's own (0 ok,
1 a correctness check failed, 2 usage), or 3 when the build fails, the
run times out or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds ecas_perfbench; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "ecas_perfbench")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, catalogue):
    """Returns a list of ways \\p line breaks the result contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if not isinstance(result, dict) or list(result) != [
            "correct", "attempted", "failed", "metrics"]:
        return ["keys are not correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in catalogue}
    if not isinstance(metrics, dict) or set(metrics) != set(wanted):
        return problems + ["metric names differ from BENCHMARK.json"]
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != wanted[name]:
            problems.append(f"{name}: wrong keys or unit")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    benchmark = load_benchmark()
    binary = build()
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", runs]
    timeout = RUN_TIMEOUT_S if args.workload != "all" else 6 * RUN_TIMEOUT_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if done.returncode == 2:
        sys.exit(2)
    if args.workload != "all":
        catalogue = benchmark["per_layer" if args.trace == "1" else
                              "end_to_end"]
        problems = check_result(lines[-1], catalogue)
        if problems:
            fail("result breaks the contract: " + "; ".join(problems))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
