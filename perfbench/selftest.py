#!/usr/bin/env python3
"""The benchmark's self-tests.

    python3 perfbench/selftest.py [--quick]

Runs ecas_perfbench's own tests (the percentile rule through support/Stats'
quantileSorted, the result line's schema, the catalogue's naming rules),
checks that BENCHMARK.json names exactly the program's workloads and
metrics with their units and directions, and runs every workload for one
second in both modes, checking each result against the contract. --quick
skips the runs.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK_KEYS = ["command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"]


def triples(entries):
    return [(e["name"], e["unit"], e["better"]) for e in entries]


def check_benchmark_json(bench, catalogue):
    problems = []
    if list(bench) != BENCHMARK_KEYS:
        problems.append("BENCHMARK.json keys or their order changed")
    if bench["command"] != ["python3", "perfbench/run.py"]:
        problems.append("command is not python3 perfbench/run.py")
    if not isinstance(bench["run_seconds"], int) or not (
            1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds is not a whole number in [1, 60]")
    names = [w["name"] for w in bench["workloads"]]
    if names != catalogue["workloads"]:
        problems.append(f"workloads {names} != {catalogue['workloads']}")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: bad keys or why")
    for section in ("end_to_end", "per_layer"):
        if triples(bench[section]) != triples(catalogue[section]):
            problems.append(f"{section} differs from the program's catalogue")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not (
                0 < m["bound"] <= 0.25):
            problems.append(f"end_to_end {m['name']}: bad keys or bound")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(
            m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must exist and carry the largest bound")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']}: bad keys")
    return problems


def check_runs(bench):
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace],
                stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
            last = done.stdout.rstrip("\n").split("\n")[-1]
            catalogue = bench["per_layer" if trace == "1" else "end_to_end"]
            found = run.check_result(last, catalogue)
            if done.returncode != 0 or found:
                problems.append(f"{workload} --trace {trace}: exit "
                                f"{done.returncode} {found}")
            elif not json.loads(last)["correct"]:
                problems.append(f"{workload} --trace {trace}: incorrect")
    return problems


def main():
    binary = run.build()
    problems = []
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        problems.append("ecas_perfbench --self-test failed")
    listing = subprocess.run([binary, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    bench = run.load_benchmark()
    problems += check_benchmark_json(bench, json.loads(listing))
    if "--quick" not in sys.argv[1:]:
        problems += check_runs(bench)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"perfbench selftest.py: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
