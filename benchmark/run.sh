#!/usr/bin/env bash
# Builds the benchmark in Release and runs it, each workload in its own
# process.
#
#   bash benchmark/run.sh                          # every workload, seed 1
#   bash benchmark/run.sh --trace                  # per-layer metrics
#   bash benchmark/run.sh --workload serve-repeat --seed 3 --seconds 25 --trace 0
#
# Options: --workload NAME (repeatable; default: every workload in
# BENCHMARK.json), --seed N (default 1), --seconds S (how long each
# workload replays its passes; default 25), --trace [0|1] (default 0; a
# bare --trace means 1), --out FILE.
#
# Every metric is printed by name and unit. A run of one workload without
# --out ends its standard output with the driver's JSON result line. With
# --out, or when several workloads run, the results of all of them are
# written as one JSON document (default: benchmark/out/results-*.json),
# the input of benchmark/compare.py. The exit status is 0 only when every
# answer passed its checks.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"

workloads=()
seed=1
cap=()
trace=0
out=""
while [ $# -gt 0 ]; do
    case "$1" in
    --workload | --seed | --seconds | --out)
        [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
        case "$1" in
        --workload) workloads+=("$2") ;;
        --seed) seed="$2" ;;
        --seconds) cap=(--seconds "$2") ;;
        --out) out="$2" ;;
        esac
        shift 2
        ;;
    --trace)
        if [ $# -ge 2 ] && [[ "$2" =~ ^[01]$ ]]; then
            trace="$2"
            shift 2
        else
            trace=1
            shift
        fi
        ;;
    *)
        echo "run.sh: unknown argument '$1'" >&2
        exit 2
        ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$here/../BENCHMARK.json")
fi

# Build output goes to stderr: standard output carries the results.
jobs="$(nproc 2>/dev/null || echo 2)"
if [ ! -f "$build/.configured" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
    touch "$build/.configured"
fi
cmake --build "$build" --target benchmark_driver --parallel "$jobs" >&2
driver="$build/sunstone_benchmark"

if [ ${#workloads[@]} -eq 1 ] && [ -z "$out" ]; then
    exec "$driver" --workload "${workloads[0]}" --seed "$seed" \
        "${cap[@]}" --trace "$trace"
fi

mkdir -p "$here/out"
if [ -z "$out" ]; then
    out="$here/out/results-seed$seed-trace$trace.json"
fi
parts=()
status=0
for w in "${workloads[@]}"; do
    part="$here/out/.part-$w-$seed-$trace.json"
    rm -f "$part"
    "$driver" --workload "$w" --seed "$seed" "${cap[@]}" \
        --trace "$trace" --out "$part" || status=1
    [ -f "$part" ] && parts+=("$part")
done

commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
{
    printf '{"seed": %s, "trace": %s, "commit": "%s", ' \
        "$seed" "$trace" "$commit"
    printf '"host": "%s", "nproc": %s, "results": [' "$(uname -n)" "$jobs"
    sep=""
    for part in "${parts[@]}"; do
        printf '%s' "$sep"
        tr -d '\n' <"$part"
        sep=", "
    done
    printf ']}\n'
} >"$out"
rm -f "${parts[@]}"
echo "wrote $out" >&2
exit "$status"
