#!/usr/bin/env bash
# End-to-end benchmark of the qaoa_serve daemon (see bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed=N] [--sets=K] [--trace] [--seconds=S]
#                    [--workload=NAME]
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the library, qaoa_serve and qaoa_e2e under .bench_build/e2e from the
# source tree this script sits in, then runs qaoa_e2e from the tree's root.
# Every metric is printed as "<workload> <metric> <value> <unit>"; the last
# line is one JSON object. Exits non-zero when the build, a request or a
# correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -f tools/qaoa_serve.cpp ]]; then
  echo "run.sh: $root holds no fastqaoa source tree to build" >&2
  exit 2
fi

args=()
while (($#)); do
  case "$1" in
    --trace)
      # "--trace 0|1" (value form) or a bare "--trace" flag.
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        args+=("--trace=$2"); shift 2
      else
        args+=("--trace=1"); shift
      fi ;;
    --workload|--seed|--seconds|--sets)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      args+=("$1=$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

build=.bench_build/e2e
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target qaoa_serve qaoa_e2e -j 4 >&2

commit=unknown
if [[ -d .git ]]; then commit="$(git rev-parse --short HEAD)"; fi

# One OpenMP thread per daemon worker: a request's CPU time is then its work,
# with no time spent spinning at barriers for a descheduled team-mate.
# qaoa_e2e sets its own thread counts for the in-process probes.
export OMP_NUM_THREADS=1
exec "$build/qaoa_e2e" --serve="$build/fastqaoa/tools/qaoa_serve" \
  --work="$build/run" --commit="$commit" "${args[@]}"
