#!/bin/bash
# CI entry point: builds and tests the four configurations the project
# promises to keep green —
#   release   plain Release, all targets (tests + benches + examples)
#   asan      ASan + UBSan, tests only
#   tsan      TSan, tests only (ingest/scan/scrub and coordinator
#             fan-out concurrency races)
#   portable  Release without -march=native (TRASS_NATIVE_SIMD=OFF),
#             tests only: the slicing-by-8 CRC32C and every other
#             non-native code path are built and tested too
#
# Plus one opt-in stage (never part of the default set):
#   chaos     ASan build of the four seeded fault matrices (single-store
#             resource exhaustion, coordinator read faults, coordinator
#             write faults, filter-tier crash recovery), run once per
#             seed in a fixed schedule. A failing run prints the seed;
#             rerun just it with TRASS_CHAOS_SEED=<seed>.
#
# Usage: ci.sh [release|asan|tsan|portable|chaos ...]
#        (default: release asan tsan portable)
#
# Each configuration gets its own build tree under build-ci/ so a local
# developer build/ is never clobbered. Fails fast on the first broken
# configuration.
set -euo pipefail
cd "$(dirname "$0")"

configs=("$@")
if [ "${#configs[@]}" -eq 0 ]; then
  configs=(release asan tsan portable)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"
  shift
  local dir="build-ci/$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "=== [$name] OK ==="
}

for config in "${configs[@]}"; do
  case "$config" in
    release)
      run_config release
      echo "=== [release] bench smoke ==="
      build-ci/release/bench/bench_micro_similarity --smoke
      build-ci/release/bench/bench_fig09_threshold --smoke
      build-ci/release/bench/bench_fig10_topk --smoke
      # Filter-tier gate: byte-identical answers filter-on vs -off and
      # the >= 5x sparse-region reduction (non-zero exit on either).
      build-ci/release/bench/bench_fig11_pruning --smoke
      # Shard-tier top-k gate: the 4-shard tier's top-k answers equal one
      # store's (non-zero exit on any difference); prints both paths'
      # rows retrieved and DPs per query.
      TRASS_BENCH_N=2000 TRASS_BENCH_QUERIES=8 \
        build-ci/release/bench/bench_fig19_shards --shards 4
      # KV-engine mixed-load gate: under concurrent writes and scans the
      # final row count equals what was written, scans actually used
      # readahead, the background thread actually compacted past L0
      # (non-zero exit on any).
      build-ci/release/bench/bench_kv_mixed --smoke
      # Ingest gate: write path + sustained ingest/query mix complete
      # with zero failed queries while compactions run in background.
      build-ci/release/bench/bench_ingest --smoke
      # End-to-end gate: all four e2e workloads (read, top-k + filter
      # tier, ingest under queries, 4-shard tier) on a short window;
      # non-zero exit on any wrong answer. Builds into build-e2e/.
      bash bench/e2e/run.sh --smoke
      echo "=== [release] bench smoke OK ==="
      ;;
    asan)
      run_config asan \
        -DTRASS_SANITIZE=address,undefined \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      ;;
    tsan)
      run_config tsan \
        -DTRASS_SANITIZE=thread \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      ;;
    portable)
      run_config portable \
        -DTRASS_NATIVE_SIMD=OFF \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      ;;
    chaos)
      dir="build-ci/chaos"
      echo "=== [chaos] configure ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DTRASS_SANITIZE=address,undefined \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      echo "=== [chaos] build ==="
      cmake --build "$dir" -j "$jobs" \
        --target resource_exhaustion_test coordinator_test filter_tier_test
      # Fixed seed schedule so CI runs are comparable across commits.
      # Each seed drives:
      #  * ResourceExhaustionChaos — one randomized ENOSPC/budget/crash
      #    trial of a single store's regions (no watermark-visible row
      #    lost, Resume restores writes), plus the crash-during-
      #    background-compaction schedule (synced rows survive reopen);
      #  * CoordinatorChaos — one drop/delay/duplicate/error/wedge
      #    schedule of the coordinator read path;
      #  * CoordinatorWriteChaos — one kill/wedge-a-shard schedule under
      #    R=2 W=1 ingest, the only replication layer (quorum acks +
      #    hinted handoff + replay: no acked write lost, no strict query
      #    partial);
      #  * FilterChaos — one crash-mid-ingest schedule; the crashed
      #    store's filter_tier.enable is drawn from the seed, so the
      #    values-only snapshot's recovery runs too. Reopened with the
      #    columns on and off, both answer byte-identically and match a
      #    brute-force oracle over a raw scan of what the WAL recovered.
      seeds=(20240808 1 7 42 1337 99991 2718281 31415926)
      for seed in "${seeds[@]}"; do
        for matrix in \
            "resource_exhaustion_test ResourceExhaustionChaos.*" \
            "coordinator_test CoordinatorChaos.*" \
            "coordinator_test CoordinatorWriteChaos.*" \
            "filter_tier_test FilterChaos.*"; do
          binary="${matrix%% *}"
          filter="${matrix#* }"
          echo "=== [chaos] $binary seed $seed ==="
          if ! TRASS_CHAOS_SEED="$seed" "$dir/tests/$binary" \
              --gtest_filter="$filter"; then
            echo "ci.sh: chaos schedule failed at seed $seed ($binary)" >&2
            echo "ci.sh: reproduce with: TRASS_CHAOS_SEED=$seed $dir/tests/$binary --gtest_filter='$filter'" >&2
            exit 1
          fi
        done
      done
      echo "=== [chaos] OK ==="
      ;;
    *)
      echo "ci.sh: unknown configuration: $config (want release|asan|tsan|portable|chaos)" >&2
      exit 1
      ;;
  esac
done
echo "ci.sh: all configurations green"
