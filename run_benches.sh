#!/bin/bash
# Runs every benchmark binary sequentially, appending to bench_output.txt.
# Fails fast: a missing bench directory, an empty binary set, or a
# non-zero bench exit aborts the run with a diagnostic instead of
# silently producing a partial bench_output.txt.
#
# Usage: run_benches.sh [--replication N]
#   --replication N   coordinator replication factor for the
#                     availability pass (bench_fig18_tail_latency's
#                     failover-vs-skip table over 4 shards); exported
#                     as TRASS_BENCH_REPLICATION.
set -u
cd /root/repo || exit 1

while [ $# -gt 0 ]; do
  case "$1" in
    --replication)
      if [ $# -lt 2 ]; then
        echo "run_benches.sh: --replication needs a value" >&2
        exit 1
      fi
      export TRASS_BENCH_REPLICATION="$2"
      shift 2
      ;;
    --replication=*)
      export TRASS_BENCH_REPLICATION="${1#--replication=}"
      shift
      ;;
    *)
      echo "run_benches.sh: unknown argument: $1" >&2
      exit 1
      ;;
  esac
done

if [ ! -d build/bench ]; then
  echo "run_benches.sh: build/bench not found (build with -DTRASS_BUILD_BENCHMARKS=ON first)" >&2
  exit 1
fi

benches=()
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    benches+=("$b")
  fi
done
if [ "${#benches[@]}" -eq 0 ]; then
  echo "run_benches.sh: no executable benchmarks in build/bench" >&2
  exit 1
fi

: > bench_output.txt
: > bench_status.txt
for b in "${benches[@]}"; do
  echo "##### $b" >> bench_output.txt
  timeout 1200 "$b" >> bench_output.txt 2>&1
  rc=$?
  echo "[exit $rc] $b" >> bench_status.txt
  if [ "$rc" -ne 0 ]; then
    echo "run_benches.sh: $b exited with $rc (see bench_output.txt)" >&2
    exit "$rc"
  fi
done

# Coordinator-mode passes: the same fig17/fig19 workloads served by a
# 4-shard scatter-gather tier, so the snapshot records the serving-tier
# latency medians plus its hedge/partial rates next to the
# single-store numbers above.
for b in build/bench/bench_fig17_scalability build/bench/bench_fig19_shards; do
  if [ -x "$b" ]; then
    echo "##### $b --shards 4" >> bench_output.txt
    timeout 1200 "$b" --shards 4 >> bench_output.txt 2>&1
    rc=$?
    echo "[exit $rc] $b --shards 4" >> bench_status.txt
    if [ "$rc" -ne 0 ]; then
      echo "run_benches.sh: $b --shards 4 exited with $rc (see bench_output.txt)" >&2
      exit "$rc"
    fi
  fi
done

# Filter-tier snapshot: the fig11 supplement re-runs just the filter
# pass and records the sparse-region reduction ratios plus the prune
# counters in BENCH_fig11_filter.json (a per-run output, not a committed
# baseline); the pass itself exits non-zero if answers diverge
# filter-on vs filter-off or the reduction drops below 5x.
if [ -x build/bench/bench_fig11_pruning ]; then
  timeout 1200 build/bench/bench_fig11_pruning --filter-only \
    --filter_out=BENCH_fig11_filter.json >> bench_output.txt 2>&1
  rc=$?
  echo "[exit $rc] BENCH_fig11_filter.json" >> bench_status.txt
  if [ "$rc" -ne 0 ]; then
    echo "run_benches.sh: filter-tier snapshot failed with $rc" >&2
    exit "$rc"
  fi
fi

echo ALL_BENCHES_DONE >> bench_status.txt
