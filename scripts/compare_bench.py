#!/usr/bin/env python3
"""Check the recorded benchmark invariants.

Run the sweeps first (from the repo root, so the default output paths land
in results/):

    ./build/bench/micro_kernels results/bench_kernels.json
    ./build/bench/micro_engine  results/bench_engine.json
    python3 scripts/compare_bench.py [results/*.json ...]

The checker dispatches on the JSON shape, so any mix of result files can be
passed; with no arguments it checks every default result file that exists.
`--only <name>` restricts the run to one bench — the name maps to
results/bench_<name>.json (e.g. `--only mixed`), or pass a .json path.

Mixed-precision invariants (results/bench_mixed.json, hard failures):
  * the fp32 filter (including demote/promote boundary copies) below 1.5x
    the fp64 filter at n=1024;
  * the 2x2 filter collective payload above 0.55x of fp64 (pure fp32
    applies move exactly half the bytes);
  * CHASE_PRECISION=double results not bitwise identical across an
    intervening mixed solve, or the mixed solve's eigenvalues drifting
    more than 1e-6 from the fp64 solve's;
  * the mixed solve never filtering a column in fp32.

Kernel-engine invariants (results/bench_kernels.json, hard failures):
  * the micro engine is slower than the seed naive oracle at n=512 for any
    type — the engine must never lose to the reference triple loop;
  * micro is below 2x naive on double / complex<double> GEMM at n=1024 —
    the engine's headline requirement;
  * hemm falls below 0.9x gemm anywhere — the Hermitian engine must stay in
    the same performance class as the plain engine.

Solver-engine invariants (results/bench_engine.json, hard failures):
  * the staged pipeline is more than 5% slower than the frozen seed driver
    on any case (scheme x grid x type) — the layered refactor must not tax
    the hot path;
  * any steady-state workspace growth ("workspace.steady_growth" > 0) or
    any per-iteration arena allocation — the zero-allocation contract.

Factorization-engine invariants (results/bench_factor.json, hard failures):
  * blocked below 2x naive at n=1024 for TRSM/POTRF/HERK on double or
    complex<double> — the GEMM lowering must actually pay;
  * blocked slower than naive at n >= 512 for HETRD (informational at
    other sizes).

Checkpoint invariants (results/bench_checkpoint.json, hard failures):
  * snapshot capture exceeding 5% of the filter time per solve — the
    fault-tolerance machinery must stay a footnote next to the kernel it
    protects.

Service invariants (results/bench_service.json, hard failures):
  * any steady-state arena growth — the size-bucketed pool must give the
    whole fleet zero steady-state allocation;
  * mean batch occupancy below 1.5 on the submit-all run — the batching
    scheduler must actually coalesce same-size jobs;
  * the oversubscription segment accepting more than the bounded queue
    depth, or rejecting nothing — admission control must reject typed;
  * batched submission below 1.5x serial one-at-a-time jobs/sec when the
    run had parallel hardware (workers > 1 and cpus > 1). On a single-CPU
    host batching cannot beat serial by running jobs concurrently and every
    job's arithmetic is bitwise-pinned to its solo run, so the gate there
    is "batching must not lose" (>= 0.95x, the recorded cpu count makes
    the mode auditable).

Hierarchy invariants (results/bench_hierarchy.json, hard failures):
  * hierarchical allreduce below 1.3x the flat ring on the emulated
    2-node x 4-rank slow-inter topology — the two-level routing must beat
    dragging the payload across the boundary twice;
  * any hierarchical routine not bitwise-identical to the naive reference;
  * CHASE_COLL_ALGO=auto disagreeing with the per-link cost model about
    when the hierarchy wins.

Informational: the hemm-vs-gemm median ratios, staged-vs-seed ratios below
parity (the staged engine being faster is fine), and the wall-clock cost of
arming the ABFT checksummed collectives.
"""

import json
import os
import sys


def check_kernels(data: dict, failures: list) -> None:
    rate = {}
    for row in data["gemm"]:
        rate[(row["kernel"], row["type"], row["n"])] = row["gflops"]

    types = sorted({t for (_, t, _) in rate})

    for t in types:
        naive = rate.get(("naive", t, 512))
        micro = rate.get(("micro", t, 512))
        if naive is None or micro is None:
            failures.append(f"missing naive/micro rows for {t} at n=512")
            continue
        print(f"n=512  {t:16s} micro {micro:8.2f} vs naive {naive:6.2f} "
              f"({micro / naive:6.1f}x)")
        if micro <= naive:
            failures.append(
                f"micro ({micro:.2f}) slower than naive ({naive:.2f}) "
                f"for {t} at n=512")

    for t in ("double", "complex<double>"):
        naive = rate.get(("naive", t, 1024))
        micro = rate.get(("micro", t, 1024))
        if naive is None or micro is None:
            failures.append(f"missing naive/micro rows for {t} at n=1024")
            continue
        speedup = micro / naive
        print(f"n=1024 {t:16s} micro {micro:8.2f} vs naive {naive:6.2f} "
              f"({speedup:6.1f}x)")
        if speedup < 2.0:
            failures.append(
                f"micro only {speedup:.2f}x naive for {t} at n=1024 "
                "(need >= 2x)")

    for row in data["hemm_vs_gemm"]:
        r = row["median_ratio"]
        print(f"hemm/gemm {row['type']:16s} n={row['n']:<5d} "
              f"gemm {row['gemm_gflops']:7.2f}  hemm {row['hemm_gflops']:7.2f}"
              f"  median ratio {r:.3f}")
        if r < 0.9:
            failures.append(
                f"hemm at {r:.3f}x gemm for {row['type']} n={row['n']} "
                "(must stay >= 0.9x)")


def check_engine(data: dict, failures: list) -> None:
    for c in data["cases"]:
        tag = f"{c['scheme']:5s} {c['grid']:5s} n={c['n']}"
        print(f"engine {tag}  staged {c['staged_seconds']:.4f}s  "
              f"seed {c['seed_seconds']:.4f}s  ratio {c['ratio']:.3f}  "
              f"growth {c['steady_growth']:.0f}  "
              f"allocs {c['workspace_allocs']}")
        if c["ratio"] > 1.05:
            failures.append(
                f"staged engine {c['ratio']:.3f}x seed driver for {tag} "
                "(parity budget is 1.05x)")
        if c["steady_growth"] != 0:
            failures.append(
                f"steady-state workspace growth ({c['steady_growth']:.0f} "
                f"events) for {tag} — the arena must not grow after setup")
        if c["workspace_allocs"] != 0:
            failures.append(
                f"{c['workspace_allocs']} per-iteration arena allocations "
                f"for {tag} — iterations must be allocation-free")


def check_factor(data: dict, failures: list) -> None:
    rate = {}
    for row in data["factor"]:
        rate[(row["op"], row["kernel"], row["type"], row["n"])] = \
            row["gflops"]

    gated_ops = ("trsm", "potrf", "herk")
    types = ("double", "complex<double>")
    sizes = sorted({n for (_, _, _, n) in rate})
    for op in gated_ops + ("hetrd",):
        for t in types:
            for n in sizes:
                naive = rate.get((op, "naive", t, n))
                blocked = rate.get((op, "blocked", t, n))
                if naive is None or blocked is None:
                    continue
                speedup = blocked / naive
                print(f"{op:6s} {t:16s} n={n:<5d} blocked {blocked:8.2f} "
                      f"vs naive {naive:7.2f} ({speedup:5.1f}x)")
                if op in gated_ops and n == 1024 and speedup < 2.0:
                    failures.append(
                        f"blocked {op} only {speedup:.2f}x naive for {t} "
                        f"at n={n} (need >= 2x)")
                if op == "hetrd" and n >= 512 and speedup < 1.0:
                    failures.append(
                        f"blocked hetrd {speedup:.2f}x naive for {t} at "
                        f"n={n} (must not lose to the seed kernel)")
    for op in gated_ops:
        for t in types:
            if (op, "naive", t, 1024) not in rate:
                failures.append(
                    f"missing naive/blocked rows for {op} {t} at n=1024")


def check_checkpoint(data: dict, failures: list) -> None:
    c = data["checkpoint"]
    print(f"checkpoint n={c['n']} ne={c['ne']} iterations={c['iterations']} "
          f"captures={c['captures']:.0f} "
          f"snapshot {c['snapshot_bytes']:.0f} B")
    print(f"  capture {c['snapshot_seconds']:.4f}s  "
          f"filter {c['filter_seconds']:.4f}s  "
          f"overhead ratio {c['overhead_ratio']:.4f}  "
          f"decode {c['resume_decode_seconds']:.4f}s")
    if c["overhead_ratio"] > 0.05:
        failures.append(
            f"checkpoint capture is {c['overhead_ratio']:.3f}x the filter "
            "time (budget is 0.05x)")
    if c["captures"] <= 0:
        failures.append("checkpointed solve recorded no captures")
    a = c.get("abft")
    if a:
        print(f"  abft (n={a['n']}): off {a['off_seconds']:.4f}s  "
              f"on {a['on_seconds']:.4f}s  ratio {a['ratio']:.3f} "
              "(informational)")


def check_service(data: dict, failures: list) -> None:
    s = data["service"]
    print(f"service {s['jobs']} jobs, {s['workers']} workers, "
          f"{s['cpus']} cpus, max_batch {s['max_batch']}")
    print(f"  standalone {s['standalone_jobs_per_sec']:8.1f} jobs/s  "
          f"serial {s['serial_jobs_per_sec']:8.1f}  "
          f"batched {s['batched_jobs_per_sec']:8.1f}  "
          f"(batched/serial {s['speedup_vs_serial']:.2f}x, "
          f"/standalone {s['speedup_vs_standalone']:.2f}x)")
    print(f"  latency p50 {s['p50_ms']:.2f}ms p99 {s['p99_ms']:.2f}ms  "
          f"occupancy {s['mean_batch_occupancy']:.2f}  "
          f"pool {s['pool_entries']} arenas "
          f"(high-water {s['pool_high_water']})  "
          f"steady growth {s['steady_arena_growth']}")
    print(f"  oversubscription: {s['oversub_submitted']} submitted, "
          f"{s['oversub_accepted']} accepted, "
          f"{s['oversub_rejected']} rejected typed")

    if s["steady_arena_growth"] != 0:
        failures.append(
            f"warm arenas grew by {s['steady_arena_growth']} alloc events "
            "— the pooled fleet must run at zero steady-state allocation")
    if s["mean_batch_occupancy"] < 1.5:
        failures.append(
            f"mean batch occupancy {s['mean_batch_occupancy']:.2f} on the "
            "submit-all run — same-size jobs were not coalesced")
    if s["oversub_rejected"] <= 0 or \
            s["oversub_accepted"] + s["oversub_rejected"] != \
            s["oversub_submitted"]:
        failures.append(
            "oversubscribed queue did not reject the overflow typed "
            f"({s['oversub_accepted']} accepted + {s['oversub_rejected']} "
            f"rejected != {s['oversub_submitted']} submitted)")
    parallel_host = s["workers"] > 1 and s["cpus"] > 1
    required = 1.5 if parallel_host else 0.95
    if s["speedup_vs_serial"] < required:
        failures.append(
            f"batched submission only {s['speedup_vs_serial']:.2f}x serial "
            f"jobs/sec (need >= {required:.2f}x "
            f"{'on parallel hardware' if parallel_host else 'even single-cpu'}"
            ")")
    if not parallel_host:
        print(f"  note: single-cpu host ({s['cpus']} cpu) — the 1.5x "
              "batching gate needs parallel workers; gating at 0.95x "
              "(batching must not lose)")


def check_hierarchy(data: dict, failures: list) -> None:
    print(f"hierarchy {data['topology']} ({data['ranks']} ranks, "
          f"{data['allreduce_bytes']} B allreduce)")
    print(f"  flat ring {data['ring_seconds_per_op'] * 1e3:8.3f} ms  "
          f"hier {data['hier_seconds_per_op'] * 1e3:8.3f} ms  "
          f"speedup {data['hierarchy_speedup']:.2f}x")
    print(f"  bitwise identical: {data['bitwise_identical']}  "
          f"auto matches model: {data['auto_matches_model']}")
    if data["hierarchy_speedup"] < 1.3:
        failures.append(
            f"hierarchical allreduce only {data['hierarchy_speedup']:.2f}x "
            "the flat ring on the emulated slow-inter topology "
            "(need >= 1.3x)")
    if not data["bitwise_identical"]:
        failures.append(
            "hierarchical routines are not bitwise-identical to the naive "
            "reference")
    if not data["auto_matches_model"]:
        failures.append(
            "CHASE_COLL_ALGO=auto disagrees with the per-link cost model "
            "about when the hierarchy wins")


DEFAULT_RESULTS = ("results/bench_kernels.json",
                   "results/bench_engine.json",
                   "results/bench_factor.json",
                   "results/bench_checkpoint.json",
                   "results/bench_service.json",
                   "results/bench_mixed.json",
                   "results/bench_hierarchy.json")


def check_mixed(data: dict, failures: list) -> None:
    m = data["mixed"]
    print(f"mixed filter n={m['n']} cols={m['cols']} deg={m['degree']}: "
          f"fp64 {m['fp64_seconds']:.4f}s  fp32 {m['fp32_seconds']:.4f}s  "
          f"speedup {m['speedup']:.2f}x")
    print(f"  2x2 filter coll bytes: fp64 {m['coll_bytes_fp64']:.0f}  "
          f"fp32 {m['coll_bytes_fp32']:.0f}  ratio {m['coll_ratio']:.3f}")
    print(f"  solve n={m['solve_n']}: max eig diff {m['max_eig_diff']:.2e} "
          f"(tol {m['tol']:.0e})  fp32 cols {m['fp32_cols']:.0f}  "
          f"fp64 cols {m['fp64_cols']:.0f}  "
          f"double identical: {m['double_identical']}")
    if m["speedup"] < 1.5:
        failures.append(
            f"mixed filter only {m['speedup']:.2f}x fp64 at n={m['n']} "
            "(need >= 1.5x — low precision must actually pay)")
    if m["coll_ratio"] > 0.55:
        failures.append(
            f"fp32 filter moved {m['coll_ratio']:.3f}x the fp64 collective "
            "bytes (must be <= 0.55x — payloads must halve)")
    if not m["double_identical"]:
        failures.append(
            "CHASE_PRECISION=double results changed across an intervening "
            "mixed solve — the precision policy leaks state")
    if m["max_eig_diff"] > 1e-6:
        failures.append(
            f"mixed solve eigenvalues off by {m['max_eig_diff']:.2e} from "
            "fp64 (must converge to the same pairs)")
    if m["fp32_cols"] <= 0:
        failures.append(
            "mixed solve filtered no columns in fp32 — the low-precision "
            "path never engaged")


def main() -> int:
    args = sys.argv[1:]
    paths = []
    only = None
    i = 0
    while i < len(args):
        if args[i] == "--only":
            if i + 1 >= len(args):
                print("--only requires a bench name or result path")
                return 1
            only = args[i + 1]
            i += 2
        else:
            paths.append(args[i])
            i += 1
    if only is not None:
        # Accept either a bench name ("mixed", "engine", ...) or a path.
        path = only if only.endswith(".json") else f"results/bench_{only}.json"
        if not os.path.exists(path):
            print(f"--only {only}: {path} not found (run that bench first)")
            return 1
        paths = [path]
    if not paths:
        paths = [p for p in DEFAULT_RESULTS if os.path.exists(p)]
        if not paths:
            print("no result files found (run the micro benches first)")
            return 1

    failures = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        print(f"== {path}")
        if "gemm" in data:
            check_kernels(data, failures)
        elif "cases" in data:
            check_engine(data, failures)
        elif "factor" in data:
            check_factor(data, failures)
        elif "checkpoint" in data:
            check_checkpoint(data, failures)
        elif "service" in data:
            check_service(data, failures)
        elif "mixed" in data:
            check_mixed(data, failures)
        elif "hierarchy_speedup" in data:
            check_hierarchy(data, failures)
        else:
            failures.append(f"{path}: unrecognized result shape")
        print()

    if failures:
        print("FAIL:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("OK: all benchmark invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
