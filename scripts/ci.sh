#!/bin/bash
# Pre-merge gate: the full correctness matrix, one command.
#
#   scripts/ci.sh
#
# Steps (each in its own build tree, all warning-clean via PAFEAT_WERROR):
#   release   Release build + full ctest suite — includes pafeat_lint_test
#             (tree-wide determinism/concurrency lint), the lint self-test,
#             and the generated per-header self-containment TUs
#   analyze   The cross-TU semantic pass (pafeat-analyze) standalone: rule
#             self-tests, then the tree gate over src/ with tools/,
#             examples/, bench/, bench_e2e/ and tests/ indexed as callers —
#             any new rng-escape / borrow-across-mutation / hot-path-alloc /
#             pool-reentrancy / test-only-api finding fails the run (ctest
#             covers this too via
#             pafeat_analyze_{selftest,tree}; the dedicated step makes the
#             analyzer's verdict a first-class row in the summary table)
#   generic   The same release binaries re-tested under PAFEAT_SIMD=generic:
#             the capability ladder's forced-downgrade contract (fp32 plane
#             bit-identical at every compiled-in level) exercised with the
#             portable kernels dispatched process-wide, not just through the
#             per-level test entry points
#   asan      scripts/check.sh asan  (ASan + UBSan + checked assertions),
#             with PAFEAT_SERVE_QUANTIZED=1 so the quantized-serving sweep
#             widens to its extended seed set under instrumentation, and
#             PAFEAT_CACHE_BUDGET=65536 so every reward cache that doesn't
#             set an explicit budget runs under a binding ~64KB ceiling —
#             the clock-sweep eviction and slab-reuse paths churn
#             continuously while ASan watches the freed slots
#   tsan      scripts/check.sh tsan  (ThreadSanitizer), with
#             PAFEAT_SHARD_STRESS_SHARDS=4 so the shard rendezvous stress
#             runs at num_threads=4, i.e. four collector shards — several
#             shards racing on the pool and the shared reward-cache locks
#             is exactly the traffic TSan should see
#
# Prints a summary table, then the net src/ line change against HEAD~1
# (scripts/src_delta.sh), and exits nonzero if any step failed. Steps keep
# running after a failure so one run reports the whole matrix.
set -u
cd "$(dirname "$0")/.."

declare -a STEP_NAMES=()
declare -a STEP_STATUS=()
declare -a STEP_SECONDS=()
FAILED=0

run_step() {
  local name="$1"
  shift
  echo
  echo "=== ci: ${name} ==="
  local start
  start=$(date +%s)
  if "$@"; then
    STEP_STATUS+=("PASS")
  else
    STEP_STATUS+=("FAIL")
    FAILED=1
  fi
  STEP_NAMES+=("$name")
  STEP_SECONDS+=($(( $(date +%s) - start )))
}

release_step() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPAFEAT_WERROR=ON &&
  cmake --build build -j "$(nproc)" &&
  ctest --test-dir build --output-on-failure -j "$(nproc)"
}

# Re-runs the release tree's tests with the SIMD ladder clamped to the
# portable kernels. No rebuild: the clamp is a process-wide env override, so
# this leg proves the shipped binary — not a special build — passes with
# generic dispatch (downgrade tests inside the suite still compare levels
# pairwise; this leg catches anything that only goes through Impl()).
forced_generic_step() {
  PAFEAT_SIMD=generic ctest --test-dir build --output-on-failure -j "$(nproc)"
}

# ASan leg with the quantized serving gate's extended sweep enabled:
# PAFEAT_SERVE_QUANTIZED=1 widens QuantizedServingSweepTest to its full seed
# set, so the int8 tier's buffers get their widest exercise under ASan.
asan_step() {
  PAFEAT_SERVE_QUANTIZED=1 PAFEAT_CACHE_BUDGET=65536 scripts/check.sh asan
}

# Semantic analyzer leg: reuses the release tree's binary (built above).
analyze_step() {
  ./build/tools/lint/pafeat-analyze --self-test &&
  ./build/tools/lint/pafeat-analyze --root . \
    src tools examples bench bench_e2e tests
}

run_step "release+lint+werror" release_step
run_step "analyze (semantic)" analyze_step
run_step "release simd=generic" forced_generic_step
run_step "asan+ubsan+checked" asan_step
# TSan leg with the sharded collector stress pinned to a 4-shard fan-out
# (ShardedCollectionRendezvousStress reads the override).
tsan_step() {
  PAFEAT_SHARD_STRESS_SHARDS=4 scripts/check.sh tsan
}

run_step "tsan" tsan_step

echo
echo "=== ci summary ==="
printf '%-22s %-6s %8s\n' "step" "status" "seconds"
for i in "${!STEP_NAMES[@]}"; do
  printf '%-22s %-6s %8s\n' "${STEP_NAMES[$i]}" "${STEP_STATUS[$i]}" \
    "${STEP_SECONDS[$i]}"
done
# The net src/ line change every change reports (a report, not a gate).
scripts/src_delta.sh || true
if [ "$FAILED" -ne 0 ]; then
  echo "ci: FAILED"
else
  echo "ci: all steps passed"
fi
exit "$FAILED"
