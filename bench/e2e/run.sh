#!/usr/bin/env bash
# End-to-end benchmark entry point. Builds the libraries in Release into
# build-e2e/ (tests, benches and examples off) and the harness against
# them, then runs one workload, or all four each in its own process:
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace [0|1]] [--smoke] [--out FILE]
#
# The last line of standard output is the workload's JSON result. Build
# output goes to standard error. Stores and trace files go to
# bench/e2e/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no program sources (CMakeLists.txt, src/) under $root" >&2
  exit 2
fi

build="$root/build-e2e"
{
  # Configure once; `cmake --build` re-runs configuration when needed.
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DTRASS_BUILD_TESTS=OFF -DTRASS_BUILD_BENCHMARKS=OFF \
      -DTRASS_BUILD_EXAMPLES=OFF
  fi
  cmake --build "$build" -j 4
  if [[ ! -f "$build/harness/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build/harness" -DTRASS_BUILD_DIR="$build"
  fi
  cmake --build "$build/harness" -j 4
} >&2

workload=""
args=()
while (($#)); do
  case "$1" in
    --workload)
      workload="${2:?--workload needs a name}"
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

out="$here/out"
mkdir -p "$out"
sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
bench=("$build/harness/trass_e2e" --work-dir "$out" --git-sha "$sha")

if [[ -n "$workload" ]]; then
  exec "${bench[@]}" --workload "$workload" "${args[@]}"
fi
for w in tdrive-read lorry-topk tdrive-ingest sharded-4; do
  "${bench[@]}" --workload "$w" "${args[@]}"
done
