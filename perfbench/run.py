#!/usr/bin/env python3
"""Build and run the ChASE end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload seq-z1000 --seed 1 --seconds 10 --trace 0

The script configures and builds perfbench/ (which compiles the library from
src/ with the repository's own CMake rules) into .bench_build/perfbench, runs
one workload, and prints the benchmark's JSON result as the last line of
stdout. Build output and the human-readable report go to stderr; the JSON
report with the host fingerprint and, for --trace 1, the Chrome trace land in
.bench_build/perfbench-out/.

Workloads, metrics and the seed's first numbers are described in
perfbench/METRICS.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "chase_perfbench")
WORKLOADS = ("seq-z1000", "grid2x2-z1000-nccl", "seq-z1000-mixed",
             "svc-scf-closed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns (returncode, stdout bytes or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, _ = run_group(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                          stdout=sys.stderr)
        if rc != 0:
            return False
    rc, _ = run_group(["cmake", "--build", BUILD_DIR, "--target",
                       "chase_perfbench", "-j", jobs], BUILD_TIMEOUT_S,
                      stdout=sys.stderr)
    return rc == 0 and os.path.exists(BINARY)


def source_rev():
    """git revision when available, else a hash of the sources built."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small problems (the smoke test's mode)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--rev", source_rev()]
    if args.quick:
        cmd.append("--quick")
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if rc != 0:
        log(f"chase_perfbench exited with {rc}")
        return 1
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no JSON result from chase_perfbench")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
