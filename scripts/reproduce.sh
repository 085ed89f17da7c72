#!/usr/bin/env bash
# End-to-end reproduction driver: configure, build, run the full test suite,
# every paper experiment and every ablation, collecting outputs under
# results/.
#
#   scripts/reproduce.sh [build-dir]
#
# Environment:
#   CHASE_BENCH_QUICK=1   shrink the real-execution benches (smoke run)
set -euo pipefail

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# No generator pin: an existing build directory keeps the generator it was
# configured with (the tier-1 build/ uses CMake's default, Unix Makefiles).
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"

mkdir -p results
ctest --test-dir "$BUILD" 2>&1 | tee results/test_output.txt

for b in "$BUILD"/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "===== $b ====="
    CHASE_BENCH_CSV_DIR="$ROOT/results" "$b"
  fi
done 2>&1 | tee results/bench_output.txt

echo
echo "Done. Text reports: results/{test,bench}_output.txt;"
echo "CSV series: results/*.csv; paper comparison: EXPERIMENTS.md."
