#!/usr/bin/env bash
# The registry-path end-to-end benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed N] [--quick] [--trace] [--out DIR] [--seconds S]
#       Every workload, one rio_e2e process each. Prints one table per
#       workload and writes one rio.e2e.v1 JSON file into DIR (default
#       .bench_build/e2e-results).
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last line of standard output is its summary
#       object: end-to-end metrics with --trace 0, per-layer with --trace 1.
#
# Both first build bench/e2e as a standalone CMake project (Release) in
# .bench_build/e2e at the repository root. Exit status: 0 clean, 1 the
# build failed, 2 bad arguments, 3 a run failed or a traced identity did
# not hold.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/e2e"
workloads=(fine-independent random-deps chain-handoff cholesky-numeric)

usage() {
  echo "run.sh: $1" >&2
  echo "usage: run.sh [--seed N] [--quick] [--trace [0|1]] [--out DIR]" \
    "[--seconds S] [--workload NAME]" >&2
  exit 2
}

workload="" seed=42 trace=0 out="$root/.bench_build/e2e-results"
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--seed|--seconds|--out)
      [ $# -ge 2 ] || usage "missing value for $1"
      case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) extra+=(--seconds "$2") ;;
        --out) out=$2 ;;
      esac
      shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
        trace=$2
        shift 2
      else
        trace=1
        shift
      fi ;;
    --quick) extra+=(--quick); shift ;;
    *) usage "unknown option '$1'" ;;
  esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 || exit 1
cmake --build "$build" --target rio_e2e -j "$(nproc)" >&2 || exit 1
bin="$build/rio_e2e"

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
    "${extra[@]}"
fi

mkdir -p "$out"
tmp=$(mktemp -d "$build/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
status=0
for w in "${workloads[@]}"; do
  rc=0
  "$bin" --workload "$w" --seed "$seed" --trace "$trace" --json "$tmp/$w.json" \
    "${extra[@]}" > /dev/null || rc=$?
  case $rc in
    0) ;;
    3) status=3 ;;
    *) exit "$rc" ;;
  esac
done

file="$out/e2e-$(date -u +%Y%m%dT%H%M%SZ)-seed$seed"
[ "$trace" = 1 ] && file="$file-trace"
file="$file.json"
{
  printf '{"schema": "rio.e2e.v1", "commit": "%s", "seed": %s, "trace": %s,\n' \
    "$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)" "$seed" \
    "$([ "$trace" = 1 ] && echo true || echo false)"
  printf '"nproc": %s, "workloads": [\n' "$(nproc)"
  sep=""
  for w in "${workloads[@]}"; do
    printf '%s' "$sep"
    cat "$tmp/$w.json"
    sep=","
  done
  printf ']}\n'
} > "$file"
echo "wrote $file"
[ "$status" = 0 ] ||
  echo "FAILED: a run failed or a traced identity did not hold" >&2
exit "$status"
