#!/usr/bin/env bash
# Sanitizer gates:
#  1. Build the parallel kernel tests under ThreadSanitizer and run them with
#     a pool wide enough to exercise the cross-thread paths. The determinism
#     ctest proves results are right; this proves they are right for the
#     right reason (no data races hiding behind x86's strong memory model).
#  2. Build the Bookshelf fuzzer under ASan/UBSan and run the seeded mutation
#     corpus, so parser robustness bugs (overflows, OOB reads on truncated
#     records) fail loudly instead of silently corrupting the Design; the
#     SIMD, model, route and DP suites run under the same build.
#
# Usage: scripts/tsan_check.sh [build-dir] [asan-build-dir]
#        (defaults: build-tsan build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"
ASAN_BUILD_DIR="${2:-build-asan}"
FUZZ_SEEDS="${RP_FUZZ_SEEDS:-500}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRP_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_parallel test_model test_solver test_route test_simd test_obs

# TSan findings must fail the run, not just print.
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
# Force a real multi-worker pool even on small CI boxes.
export RP_THREADS="${RP_THREADS:-4}"

# test_obs runs two whole placement flows at once on separate observability
# contexts (ConcurrentRunsOnSeparateContextsMatchFreshBaseline) — the one
# suite where flows race each other, not just pool workers.
for t in test_parallel test_model test_solver test_route test_simd test_obs; do
  echo "== TSan: $t (RP_THREADS=$RP_THREADS) =="
  "$BUILD_DIR/tests/$t"
done
echo "tsan_check: OK (no data races reported)"

# --- ASan/UBSan fuzz pass -------------------------------------------------
cmake -B "$ASAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRP_SANITIZE=address,undefined
cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" \
  --target rp_fuzz_bookshelf test_robustness test_simd test_model test_route \
           test_dp

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=0:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"

echo "== ASan/UBSan: test_robustness =="
"$ASAN_BUILD_DIR/tests/test_robustness"
# The SIMD intrinsics + incremental-eval index arithmetic and the DP paths
# that consume them are exactly where an OOB read would hide; run both
# suites under ASan/UBSan so a bad lane or stale scratch fails loudly.
echo "== ASan/UBSan: test_simd =="
"$ASAN_BUILD_DIR/tests/test_simd"
# The wirelength chunk kernel indexes per-worker staging planes by pin
# offset within a chunk, and the router's reused A* scratch is indexed by
# tile and edge id; an off-by-one in either must fail loudly here.
echo "== ASan/UBSan: test_model =="
"$ASAN_BUILD_DIR/tests/test_model"
echo "== ASan/UBSan: test_route =="
"$ASAN_BUILD_DIR/tests/test_route"
echo "== ASan/UBSan: test_dp =="
"$ASAN_BUILD_DIR/tests/test_dp"
echo "== ASan/UBSan: rp_fuzz_bookshelf ($FUZZ_SEEDS seeds) =="
python3 scripts/fuzz_smoke.py "$ASAN_BUILD_DIR/src/core/rp_fuzz_bookshelf" \
  --seeds "$FUZZ_SEEDS"
echo "sanitizer_check: OK (TSan kernels clean, ASan/UBSan fuzz clean)"
