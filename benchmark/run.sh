#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <T> --trace <0|1>
#
# builds the release `pubsub` binary and the harness, runs one workload
# against a freshly spawned `pubsub serve`, and prints every metric by name;
# the last line of stdout is the result as one JSON object.
#
#   bash benchmark/run.sh --smoke
#       every workload, 2 s, 5k subscriptions, untraced and traced: exercises
#       the harness itself in well under a minute.
#   bash benchmark/run.sh --repeat N --set NAME [--seed first] [--workload W] [--engine E]
#       N untraced runs per workload on seeds first..first+N-1, appended to
#       benchmark/results/NAME.jsonl. To compare two checkouts, alternate
#       between them (`--repeat 1 --seed i` in one, then the other) so both
#       sets sample the same stretches of host time.
#   bash benchmark/run.sh compare A.jsonl B.jsonl
#       judges set B against set A by the benchmark's own bounds.
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

results=benchmark/results
work=""
harness_pid=""

# On every way out: stop the harness, kill and wait for any server it left
# (it keeps a <pid> file per live server in $work), remove the scratch dir.
cleanup() {
    local status=$?
    trap - EXIT INT TERM
    if [ -n "$harness_pid" ] && kill -0 "$harness_pid" 2>/dev/null; then
        kill "$harness_pid" 2>/dev/null || true
        wait "$harness_pid" 2>/dev/null || true
    fi
    if [ -n "$work" ] && [ -d "$work" ]; then
        for f in "$work"/[0-9]*; do
            [ -e "$f" ] || continue
            pid=${f##*/}
            kill -9 "$pid" 2>/dev/null || true
            for _ in $(seq 100); do
                kill -0 "$pid" 2>/dev/null || break
                sleep 0.05
            done
        done
        rm -rf "$work"
    fi
    exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Builds go to stderr; a second call costs two up-to-date checks.
root_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet -p pubsub-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
server_bin=$root_target/release/pubsub
harness=$bench_target/release/pubsub-benchmark

mkdir -p "$results"

# Runs the harness in the background and waits, so a signal to this script
# is handled at once instead of after the harness ends.
harness() {
    work=$(mktemp -d "$results/run.XXXXXX")
    "$harness" "$@" --server-bin "$server_bin" --work-dir "$work" --results-dir "$results" &
    harness_pid=$!
    local status=0
    wait "$harness_pid" || status=$?
    harness_pid=""
    rm -rf "$work"
    work=""
    return "$status"
}

case "${1:-}" in
compare)
    shift
    exec "$harness" compare "$@"
    ;;
--smoke)
    for w in match_eq match_range forward_small churn_durable; do
        for trace in 0 1; do
            echo "== smoke: $w, trace $trace" >&2
            harness --workload "$w" --seed 1 --seconds 2 --trace "$trace" --population 5000
        done
    done
    ;;
--repeat)
    repeat=$2
    shift 2
    failed_runs=0 set_name="" first=1 workloads="match_eq match_range forward_small churn_durable"
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
    extra=()
    while [ $# -gt 0 ]; do
        case "$1" in
        --set) set_name=$2 ;;
        --seed) first=$2 ;;
        --workload) workloads=$2 ;;
        --seconds) seconds=$2 ;;
        *) extra+=("$1" "$2") ;;
        esac
        shift 2
    done
    [ -n "$set_name" ] || { echo "run.sh: --repeat needs --set NAME" >&2; exit 2; }
    for ((seed = first; seed < first + repeat; seed++)); do
        for w in $workloads; do
            echo "== $set_name: $w, seed $seed" >&2
            # Not piped: the function must run in this shell for the trap
            # to know what to clean up.
            if harness --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$results/$set_name.jsonl" ${extra[@]+"${extra[@]}"} >"$results/last.stdout"; then
                tail -n 1 "$results/last.stdout"
            else
                echo "run.sh: $w seed $seed failed" >&2
                failed_runs=$((failed_runs + 1))
            fi
        done
    done
    [ "$failed_runs" -eq 0 ] || { echo "run.sh: $failed_runs run(s) failed" >&2; exit 1; }
    ;;
*)
    harness "$@"
    ;;
esac
