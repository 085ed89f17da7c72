#!/usr/bin/env bash
# Build the tsan preset and run the thread-per-rank comm, fault-tolerance,
# collective-engine, solver-engine, factorization, checkpoint and solver-
# service suites (ctest labels: comm, fault, coll, engine, factor, ckpt, hier,
# svc, mixed, tune, policy) under ThreadSanitizer. The in-process SPMD runtime (comm::Team, the
# poisoned-barrier protocol, the fault registry), the src/coll chunk
# channels, the staged solver pipeline running one rank per thread, the
# policy-dispatched factorization kernels called from those ranks, and the
# multi-tenant service (worker pool + shared metrics tracker + arena pool)
# are exactly the code a data race would corrupt silently, so these suites
# are the ones worth the ~10x tsan slowdown.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan "$@"
