#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on small problems (quick mode).

Run from the repository root (about a minute after the build):

    python3 perfbench/smoke_test.py

For every workload it checks that
  * the untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, all positive, and reports correct with no failed operation;
  * the traced run prints every per-layer metric with its unit, reproduces
    the untraced solve bitwise (the benchmark reports correct=false
    otherwise), and its stages plus the bounds pass cover at least 95% of
    the solve wall on the solver workloads;
  * a second traced run with the same seed repeats core.iterations and
    core.matvecs exactly;
  * the Chrome trace parses, and every span lies inside its parent, on the
    same rank and in the same solve.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
SEED = 3


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")


def check_metrics(result, declared, what):
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{what}: not correct: {result}")
    got = result["metrics"]
    names = [m["name"] for m in declared]
    check(sorted(got) == sorted(names),
          f"{what}: metric names differ: {sorted(set(got) ^ set(names))}")
    for m in declared:
        check(got[m["name"]]["unit"] == m["unit"],
              f"{what}: unit of {m['name']}")


def check_trace(path, what):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
    check(spans, f"{what}: empty trace")
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent == 0:
            check(e["name"] == "solve", f"{what}: root span {e['name']}")
            continue
        p = spans.get(parent)
        check(p is not None, f"{what}: span {e['name']} has no parent")
        check(p["tid"] == e["tid"] and
              p["args"]["solve_id"] == e["args"]["solve_id"],
              f"{what}: {e['name']} crosses rank or solve")
        check(p["ts"] <= e["ts"] + 1e-3 and
              e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3,
              f"{what}: {e['name']} outside its parent {p['name']}")
    tids = {e["tid"] for e in spans.values()}
    return len(spans), len(tids)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        plain = run(name, 0)
        check_metrics(plain, bench["end_to_end"], f"{name} trace=0")
        for m in bench["end_to_end"]:
            check(plain["metrics"][m["name"]]["value"] > 0,
                  f"{name}: {m['name']} is not positive")
        first = run(name, 1)
        check_metrics(first, bench["per_layer"], f"{name} trace=1")
        second = run(name, 1)
        for m in ("core.iterations", "core.matvecs"):
            a = first["metrics"][m]["value"]
            b = second["metrics"][m]["value"]
            check(a == b and a > 0, f"{name}: {m} {a} != {b} for one seed")
        if not name.startswith("svc"):
            coverage = first["metrics"]["core.stage_coverage"]["value"]
            check(coverage >= 0.95, f"{name}: stage coverage {coverage:.3f}")
        spans, ranks = check_trace(
            os.path.join(OUT_DIR, f"trace-{name}-seed{SEED}.json"), name)
        print(f"ok {name}: {plain['attempted']} + {first['attempted']} "
              f"operations, {spans} spans on {ranks} rank(s)", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
