#!/usr/bin/env bash
# Configure, build and test one sanitizer preset (CMakePresets.json):
#
#   scripts/run_sanitizers.sh tsan [ctest args...]
#   scripts/run_sanitizers.sh asan [ctest args...]
#
# tsan: ThreadSanitizer Debug build in build-tsan/, running the
# thread-per-rank suites (ctest labels comm, fault, coll, engine, factor,
# ckpt, svc, mixed, hier, tune, policy, parallel). The in-process SPMD
# runtime (comm::Team, the poisoned-barrier protocol, the fault registry),
# the src/coll chunk channels, the staged solver pipeline running one rank
# per thread, the multi-tenant service and the kernels' row-parallel helper
# pool are exactly the code a data race would corrupt silently, so these
# suites are the ones worth the ~10x slowdown.
#
# asan: AddressSanitizer + UBSan Debug build in build-asan/, running the
# full suite.
#
# Extra arguments go to ctest (e.g. -R HierSweep, -j2).
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-}"
case "$preset" in
  tsan | asan) shift ;;
  *)
    echo "usage: $0 <tsan|asan> [ctest args...]" >&2
    exit 2
    ;;
esac

cmake --preset "$preset"
cmake --build --preset "$preset" -j"$(nproc)"
ctest --preset "$preset" "$@"
