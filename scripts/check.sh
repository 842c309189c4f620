#!/usr/bin/env bash
# Full pre-merge check: the tier-1 build+test sweep, the static-analysis
# gate (lint + Clang thread-safety + clang-tidy where available), then a
# ThreadSanitizer build of the concurrency-heavy netsim/lbc/obs tests (the
# chaos suite doubles as the data-race check for the obs instruments, which
# every stats() reads without a lock while other threads count; the
# incremental-recovery, standby and extensions tests cover the drain worker
# pool that restarts, trims and the standby checkpoint replay on), an
# ASan+UBSan pass over the full tier-1 suite minus the chaos tests
# (excluded via `ctest -LE chaos` — their real-sleep timing does not
# survive sanitizer slowdown),
# the exhaustive crash-schedule sweep, and the resource-exhaustion sweep
# (ENOSPC quota ladder with crash-at-every-op, backpressure watermarks,
# admission shedding, gray-liveness deadlines).
#
# Usage: scripts/check.sh [--tsan-only | --tier1-only | --crash-sweep |
#                          --static | --asan | --corruption-sweep |
#                          --exhaustion-sweep | --recovery-sweep |
#                          --bench-smoke]
#
# --bench-smoke runs the group-commit throughput smoke on its own: the
# 16-writer kFlush section of bench_fig5 over the latency-injected store,
# compared against bench/BENCH_baseline.json. Fails when the 16-writer
# speedup over one writer regresses more than 20% below the checked-in
# baseline, or when the batch sync amortization stops happening
# (fsyncs_saved == 0). It runs bench_fig5 twice more and fails unless the
# Unordered per-update cost exceeds the Ordered one at 5000 updates/txn,
# each the median of the three runs: the paper's ordered-insertion fast
# path (§3.1) must stay measurably cheaper than out-of-order insertion.
# It runs bench_microops and fails unless decoding a 500-range update costs
# at most 3x encoding it (median of three repetitions each): receive must
# stay as zero-copy as send. It also runs bench_recovery_ttfc and fails when the
# replay-before-serve / serve-first time-to-first-commit ratio regresses
# more than 20% below the checked-in recovery_ttfc baseline.
#
# --recovery-sweep runs the incremental-recovery gate on its own:
# recovery_sweep_test (the crash-schedule sweep driven through
# LogIndex + IncrementalRecovery, including power cuts during the recovery
# itself with a serving-window probe between crash and re-boot, run over
# one-page regions, again over the multi-page batch case: a three-page
# region whose every write covers pages 0 and 2 partially and page 1
# fully, so power is cut inside one three-page file replay, and again over
# the blind batch case: a two-page region whose every write covers both
# pages whole, so power is cut at every op of a replay that reads no
# pre-image, torn prefixes of its header-and-entries sidecar Write
# included) plus incremental_recovery_test (serve-before-drain byte
# identity, seven database-file ops per replayed file and five for a file
# of whole-page redo, blind replay over rot, deadline bounds,
# lazy-rot-through-scrubber, bounded drain repair, heartbeats-mid-recovery,
# the drain worker pool).
#
# --static runs the concurrency-discipline gate on its own:
#   * scripts/lint.py (always — no toolchain dependency), including rule 6:
#     no stats_ members or shadow *Stats structs under src/,
#   * a clang++ build with -DLBC_THREAD_SAFETY=ON, promoting
#     -Wthread-safety to errors (skipped with a note if clang++ is absent),
#   * clang-tidy over src/ using the repo .clang-tidy and the exported
#     compile_commands.json (skipped with a note if clang-tidy is absent).
#
# --corruption-sweep runs the silent-corruption gate on its own: the
# deterministic bit-rot sweep (every page x replica x fault kind, both the
# replica and merged-log repair paths) plus the replicated-store conformance
# and resync-crash suites that back it.
#
# --exhaustion-sweep runs the resource-exhaustion gate on its own:
# resource_exhaustion_test's quota ladder (each quota crash-swept at every
# mutating op while the workload is fighting ENOSPC), the log-watermark
# backpressure scenarios, admission-control shedding, and the gray
# suspect-slow-vs-dead liveness checks.
#
# The crash sweep re-runs crash_explorer_test with the full (unbudgeted)
# schedule set — including the token-pass window sweep (TokenPassWindow.*:
# on 2 and 3 nodes, a power cut at every store op between a token pass and
# each holder's force must recover a gap-free merged log); the exhaustion sweep's embedded crash sweeps honour the same
# knobs. Tune them through the environment:
#   LBC_CRASH_BUDGET  max schedules per sweep (0 = exhaustive, the default)
#   LBC_CRASH_SEED    sample-selection seed when a budget is set
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_static=1
run_tsan=1
run_asan=1
run_crash=1
run_corrupt=1
run_exhaust=1
run_recovery=1
run_bench=0
case "${1:-}" in
  --tsan-only) run_tier1=0; run_static=0; run_asan=0; run_crash=0; run_corrupt=0; run_exhaust=0; run_recovery=0 ;;
  --tier1-only) run_static=0; run_tsan=0; run_asan=0; run_crash=0; run_corrupt=0; run_exhaust=0; run_recovery=0 ;;
  --crash-sweep) run_tier1=0; run_static=0; run_tsan=0; run_asan=0; run_corrupt=0; run_exhaust=0; run_recovery=0 ;;
  --static) run_tier1=0; run_tsan=0; run_asan=0; run_crash=0; run_corrupt=0; run_exhaust=0; run_recovery=0 ;;
  --asan) run_tier1=0; run_static=0; run_tsan=0; run_crash=0; run_corrupt=0; run_exhaust=0; run_recovery=0 ;;
  --corruption-sweep) run_tier1=0; run_static=0; run_tsan=0; run_asan=0; run_crash=0; run_exhaust=0; run_recovery=0 ;;
  --exhaustion-sweep) run_tier1=0; run_static=0; run_tsan=0; run_asan=0; run_crash=0; run_corrupt=0; run_recovery=0 ;;
  --recovery-sweep) run_tier1=0; run_static=0; run_tsan=0; run_asan=0; run_crash=0; run_corrupt=0; run_exhaust=0 ;;
  --bench-smoke) run_tier1=0; run_static=0; run_tsan=0; run_asan=0; run_crash=0; run_corrupt=0; run_exhaust=0; run_recovery=0; run_bench=1 ;;
  "") ;;
  *) echo "usage: $0 [--tsan-only | --tier1-only | --crash-sweep | --static | --asan | --corruption-sweep | --exhaustion-sweep | --recovery-sweep | --bench-smoke]" >&2; exit 2 ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "$run_tier1" == 1 ]]; then
  echo "=== tier-1: full build + ctest ==="
  cmake -B build -S .
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")
fi

if [[ "$run_static" == 1 ]]; then
  echo "=== static: lint + thread-safety analysis ==="
  python3 scripts/lint.py

  if command -v clang++ >/dev/null 2>&1; then
    echo "--- clang build with -Werror=thread-safety"
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ -DLBC_THREAD_SAFETY=ON
    cmake --build build-tsa -j "$jobs"
  else
    echo "--- clang++ not found; skipping -Wthread-safety build (annotations"
    echo "    are checked on any machine with clang installed)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "--- clang-tidy (bugprone-*, concurrency-*, performance-*)"
    # compile_commands.json is exported by every configure
    # (CMAKE_EXPORT_COMPILE_COMMANDS=ON); prefer the clang build dir when
    # it exists so tidy sees clang-compatible flags.
    tidy_build=build
    [[ -f build-tsa/compile_commands.json ]] && tidy_build=build-tsa
    find src -name '*.cc' | xargs clang-tidy -p "$tidy_build" --quiet
  else
    echo "--- clang-tidy not found; skipping"
  fi
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== TSan: netsim/lbc/obs concurrency tests ==="
  # incremental_recovery_test is here because every server restart and
  # dead-client recovery starts the background drain worker pool;
  # lbc_extensions_test (OnlineTrim) and lbc_standby_test because trims and
  # the standby checkpoint replay on that pool while committers run;
  # history_oracle_test and lbc_ordered_durable_test because the token now
  # passes while the holder's log force (and its carried records) are still
  # in flight; rvm_concurrency_test also because SetRange through a
  # transaction handle takes no lock; lbc_record_lifetime_test because held,
  # carried and version-buffered records cross the receiver and application
  # threads as bare Buffers (a record is its payload).
  cmake -B build-tsan -S . -DLBC_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target \
    netsim_chaos_test netsim_fabric_test netsim_multicast_test \
    netsim_reliable_wakeup_test obs_metrics_test \
    lbc_lock_protocol_test lbc_robustness_test rvm_concurrency_test \
    incremental_recovery_test lbc_standby_test lbc_extensions_test base_sync_test \
    history_oracle_test lbc_ordered_durable_test crash_explorer_test \
    lbc_record_lifetime_test
  for t in netsim_chaos_test netsim_fabric_test netsim_multicast_test \
           netsim_reliable_wakeup_test obs_metrics_test \
           lbc_lock_protocol_test lbc_robustness_test rvm_concurrency_test \
           incremental_recovery_test lbc_standby_test lbc_extensions_test base_sync_test \
           history_oracle_test lbc_ordered_durable_test lbc_record_lifetime_test; do
    echo "--- tsan: $t"
    # base_sync_test constructs intentional ABBA inversions to exercise the
    # repo's own lock-order detector; TSan's deadlock detector flags the same
    # inversions (a good cross-check, but it would fail the run). Keep race
    # detection on and disable only TSan's deadlock pass for that binary.
    opts=""
    [[ "$t" == base_sync_test ]] && opts="detect_deadlocks=0"
    TSAN_OPTIONS="$opts" ./build-tsan/tests/"$t"
  done
  # The crash sweep of the token-pass window: committer threads park
  # ordered commits while peers receive, carry and take the token.
  echo "--- tsan: crash_explorer_test (token-pass window sweep)"
  ./build-tsan/tests/crash_explorer_test --gtest_filter='TokenPassWindow.*'
  # Lock-free SetRange through transaction handles, repeated: four
  # declaring threads race a thread mapping, unmapping and refused
  # unmapping (pinned regions) and a thread applying external updates.
  echo "--- tsan: rvm_concurrency_test (lock-free declares, 20 repeats)"
  ./build-tsan/tests/rvm_concurrency_test \
    --gtest_filter=RvmConcurrency.LockFreeDeclaresRaceMappingAndExternalUpdates \
    --gtest_repeat=20
  # The ordered/durable suite, repeated: the batch leader, Carry (receiver
  # threads) and DropFolded share one table of what each node's log owes,
  # and the leader writes it with that table's lock released.
  echo "--- tsan: lbc_ordered_durable_test (one owed table, 5 repeats)"
  ./build-tsan/tests/lbc_ordered_durable_test --gtest_repeat=5
  # The drain worker pool's concurrency test, repeated: replays of
  # different region files overlap, one file's never do, and a page
  # re-pended mid-flight replays again.
  echo "--- tsan: incremental_recovery_test (worker pool, 50 repeats)"
  ./build-tsan/tests/incremental_recovery_test \
    --gtest_filter=IncrementalRecovery.WorkerPoolOverlapsFilesButNeverOneFile \
    --gtest_repeat=50
fi

if [[ "$run_asan" == 1 ]]; then
  echo "=== ASan+UBSan: full tier-1 suite (minus chaos) ==="
  # Everything tier-1 runs under the sanitizers except the chaos suite,
  # whose real-sleep timing assumptions do not survive sanitizer slowdown
  # (it is labeled `chaos` in tests/CMakeLists.txt for exactly this).
  cmake -B build-asan -S . -DLBC_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs" -LE chaos)
fi

if [[ "$run_corrupt" == 1 ]]; then
  echo "=== corruption sweep: bit-rot injection + scrub-and-repair ==="
  cmake -B build -S . >/dev/null
  corrupt_tests=(corruption_sweep_test store_test store_replicated_test)
  cmake --build build -j "$jobs" --target "${corrupt_tests[@]}"
  for t in "${corrupt_tests[@]}"; do
    echo "--- corruption: $t"
    ./build/tests/"$t"
  done
fi

if [[ "$run_exhaust" == 1 ]]; then
  echo "=== exhaustion sweep: ENOSPC quota ladder + backpressure + overload ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target resource_exhaustion_test
  LBC_CRASH_BUDGET="${LBC_CRASH_BUDGET:-0}" \
  LBC_CRASH_SEED="${LBC_CRASH_SEED:-24301}" \
    ./build/tests/resource_exhaustion_test
fi

if [[ "$run_recovery" == 1 ]]; then
  echo "=== recovery sweep: incremental recovery crash-swept end to end ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target recovery_sweep_test incremental_recovery_test
  LBC_CRASH_BUDGET="${LBC_CRASH_BUDGET:-0}" \
  LBC_CRASH_SEED="${LBC_CRASH_SEED:-24301}" \
    ./build/tests/recovery_sweep_test
  ./build/tests/incremental_recovery_test
fi

if [[ "$run_crash" == 1 ]]; then
  echo "=== crash sweep: every mutating store op, torn variants included ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target crash_explorer_test
  LBC_CRASH_BUDGET="${LBC_CRASH_BUDGET:-0}" \
  LBC_CRASH_SEED="${LBC_CRASH_SEED:-24301}" \
    ./build/tests/crash_explorer_test
fi

if [[ "$run_bench" == 1 ]]; then
  echo "=== bench smoke: group-commit throughput vs checked-in baseline ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target bench_fig5_update_overhead
  bench_out="$(./build/bench/bench_fig5_update_overhead)"
  smoke_line="$(printf '%s\n' "$bench_out" | grep '^commit_smoke:' | tail -n 1)"
  if [[ -z "$smoke_line" ]]; then
    echo "bench smoke: bench_fig5 printed no commit_smoke line" >&2
    exit 1
  fi
  echo "$smoke_line"
  speedup="$(printf '%s\n' "$smoke_line" | sed -n 's/.*speedup=\([0-9.]*\).*/\1/p')"
  fsyncs_saved="$(printf '%s\n' "$smoke_line" | sed -n 's/.*fsyncs_saved=\([0-9]*\).*/\1/p')"
  baseline="$(python3 -c 'import json; print(json.load(open("bench/BENCH_baseline.json"))["commit_smoke"]["speedup_16_writers"])')"
  echo "bench smoke: measured speedup=${speedup}x (baseline ${baseline}x, floor 80%), fsyncs_saved=${fsyncs_saved}"
  if [[ "$fsyncs_saved" -eq 0 ]]; then
    echo "bench smoke FAILED: fsyncs_saved == 0 — batch sync amortization is gone" >&2
    exit 1
  fi
  python3 - "$speedup" "$baseline" <<'EOF'
import sys
measured, baseline = float(sys.argv[1]), float(sys.argv[2])
floor = 0.8 * baseline
if measured < floor:
    sys.exit(f"bench smoke FAILED: 16-writer speedup {measured:.2f}x is below "
             f"80% of the checked-in baseline {baseline:.2f}x (floor {floor:.2f}x)")
EOF

  echo "=== bench smoke: Figure 5 shape, unordered > ordered at 5000 updates/txn ==="
  fig5_out="$(printf '%s\n' "$bench_out"; ./build/bench/bench_fig5_update_overhead; \
              ./build/bench/bench_fig5_update_overhead)"
  printf '%s\n' "$fig5_out" | python3 -c '
import statistics, sys
rows = [line.split() for line in sys.stdin]
rows = [r for r in rows if len(r) == 4 and r[0] == "5000"]
if len(rows) != 3:
    sys.exit(f"bench smoke: expected 3 Figure 5 rows at 5000 updates/txn, found {len(rows)}")
unordered = statistics.median(float(r[1]) for r in rows)
ordered = statistics.median(float(r[2]) for r in rows)
print(f"bench smoke: 5000 updates/txn median of 3: unordered={unordered:.3f}us "
      f"ordered={ordered:.3f}us")
if not unordered > ordered:
    sys.exit("bench smoke FAILED: unordered set_range is no slower than ordered at "
             "5000 updates/txn - the ordered-insertion fast path is gone")
'

  echo "=== bench smoke: receive vs send, DecodeUpdate <= 3x EncodeUpdate at 500 ranges ==="
  cmake --build build -j "$jobs" --target bench_microops
  ./build/bench/bench_microops --benchmark_filter='^BM_(En|De)codeUpdate/500$' \
      --benchmark_repetitions=3 --benchmark_format=json | python3 -c '
import json, sys
runs = json.load(sys.stdin)["benchmarks"]
median = {r["run_name"]: r["cpu_time"] for r in runs if r.get("aggregate_name") == "median"}
encode = median["BM_EncodeUpdate/500"]
decode = median["BM_DecodeUpdate/500"]
print(f"bench smoke: 500 ranges median of 3: encode={encode:.0f}ns decode={decode:.0f}ns "
      f"ratio={decode / encode:.2f}x (ceiling 3x)")
if decode > 3 * encode:
    sys.exit("bench smoke FAILED: DecodeUpdate is more than 3x EncodeUpdate at 500 ranges - "
             "the receive path copies per range again")
'

  echo "=== bench smoke: recovery time-to-first-commit vs checked-in baseline ==="
  cmake --build build -j "$jobs" --target bench_recovery_ttfc
  ttfc_out="$(./build/bench/bench_recovery_ttfc)"
  ttfc_line="$(printf '%s\n' "$ttfc_out" | grep '^recovery_ttfc:' | tail -n 1)"
  if [[ -z "$ttfc_line" ]]; then
    echo "bench smoke: bench_recovery_ttfc printed no recovery_ttfc line" >&2
    exit 1
  fi
  echo "$ttfc_line"
  ttfc_ratio="$(printf '%s\n' "$ttfc_line" | sed -n 's/.*ratio=\([0-9.]*\).*/\1/p')"
  ttfc_baseline="$(python3 -c 'import json; print(json.load(open("bench/BENCH_baseline.json"))["recovery_ttfc"]["ttfc_ratio"])')"
  echo "bench smoke: measured TTFC ratio=${ttfc_ratio}x (baseline ${ttfc_baseline}x, floor 80%)"
  python3 - "$ttfc_ratio" "$ttfc_baseline" <<'EOF'
import sys
measured, baseline = float(sys.argv[1]), float(sys.argv[2])
floor = 0.8 * baseline
if measured < floor:
    sys.exit(f"bench smoke FAILED: replay-before-serve/serve-first TTFC ratio {measured:.2f}x "
             f"is below 80% of the checked-in baseline {baseline:.2f}x "
             f"(floor {floor:.2f}x) — page replay is back on the boot or "
             f"first-commit path")
EOF
fi

echo "All checks passed."
