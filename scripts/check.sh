#!/usr/bin/env bash
# Repository gate: formatting, lints, release build, full test suite.
#
# Usage: scripts/check.sh [--online] [--bench-smoke] [--chaos] [--durability]
#                         [--contention] [--net] [--replication] [--sessions]
#                         [--perf] [--bless]
#
# Lanes
#   (default)      fmt + clippy + a rustdoc pass that denies broken and
#                  private intra-doc links + release build + each
#                  examples/*.rs run once in release (most assert their
#                  results) + tests with
#                  default features and with --features metrics.
#   --bench-smoke  every Criterion bench target once in test mode (one
#                  iteration, no measurement) so bench code can't bit-rot,
#                  the cross-engine differential proptest with a bounded
#                  case count, and one snapshot_publish pass at 5k
#                  subscriptions.
#   --chaos        fault-injection lane: build and test the workspace with
#                  --features faults,metrics, which compiles the
#                  deterministic fault registry in. The runtime-gated chaos
#                  tests (durability, net, replication fault points) only
#                  exercise injection here.
#   --durability   crash-recovery lane: build and test with --features
#                  faults,metrics so the WAL's fault points (append/fsync/
#                  snapshot failures -> degraded read-only mode) actually
#                  fire, then run the kill-at-any-byte recovery suite and
#                  its randomized proptest with a bounded case count.
#   --contention   snapshot-handle stress lane: the RCU stress/differential
#                  suite with the test-thread count unpinned (so racing
#                  publishers really race the churn threads), a
#                  publish_scaling bench smoke (1/2/4/8 publishers, one
#                  iteration), and — when a nightly
#                  toolchain with ThreadSanitizer happens to be installed —
#                  a TSan pass over the stress suite. The TSan step skips
#                  gracefully when nightly or the rust-src component is
#                  unavailable (the offline container ships stable only).
#   --net          network-server lane: the pubsub-net suites (protocol
#                  conformance + adversarial decoder, e2e differential,
#                  kill-anywhere reconnect sweep) with default features and
#                  again with --features faults,metrics so the chaos
#                  scenarios actually inject, then a release netload smoke:
#                  `pubsub serve` on loopback, one netload run gated by a
#                  one-shot RPS floor (it writes no file).
#   --replication  WAL-shipping lane: the leader/follower suites at every
#                  layer (durability read_tail/snapshot transfer, broker
#                  follower apply/promote, socket-level replication, session
#                  GC + client reconnect, kill-the-leader chaos sweep) with
#                  --features faults,metrics so the net.repl.* fault points
#                  inject, then a release loopback smoke: a durable leader
#                  `serve`, a `--follow` replica, netload against the
#                  leader, poll `repl status --json` until lag reaches 0,
#                  and `promote` the replica.
#   --sessions     durable-session lane: the session WAL/broker suites and
#                  the kill-the-server-at-any-frame restart + failover
#                  resume sweeps with --features faults,metrics (bounded by
#                  PROPTEST_CASES and FP_SWEEP_STRIDE), then a release
#                  loopback smoke: `serve --durable`, a netload run,
#                  SIGKILL the server mid-run, restart it on the same
#                  address and WAL dir, and require the run to complete —
#                  every client must ride through the restart by resuming
#                  its durable session.
#   --perf         benchmark lane: `benchmark/run.sh --smoke` (every workload
#                  must report `"correct": true` with 0 failed operations),
#                  then two interleaved `--repeat 1` runs of match_eq and
#                  forward_small in this checkout and in a temporary git
#                  worktree of `git merge-base HEAD main` (removed on exit),
#                  printed by `run.sh compare`. Reports without gating: it
#                  fails on a smoke failure or a compare error, never on a
#                  verdict. Two pairs cannot gate (on a shared 2-vCPU host
#                  they read `worse` on noise), so a `worse` row adds one
#                  stderr note that ten interleaved pairs are needed.
#                  Builds offline from the tree; downloads nothing.
#   --bless       regenerate the golden fixtures (tests/golden/*: the
#                  MetricsSnapshot JSON schema and the WAL on-disk format
#                  pins) from the current code by running the golden tests
#                  under UPDATE_GOLDEN=1, then re-run them without it to
#                  prove the blessed files round-trip. Only for deliberate
#                  format/schema changes — review the diff before committing.
#
# Environment knobs
#   PROPTEST_CASES  caps randomized-test case counts (the proptest shim
#                   honours it); the smoke lanes above set it themselves.
#   UPDATE_GOLDEN   =1 rewrites golden fixtures instead of asserting
#                   (what --bless does for you).
#
# By default every cargo invocation runs with --offline: the workspace
# resolves all external dependencies to the in-tree shims (shims/README.md),
# so a network-less container builds from the committed Cargo.lock alone.
# Pass --online to let cargo touch the network (e.g. after intentionally
# updating the lockfile).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE="--offline"
BENCH_SMOKE=0
CHAOS=0
DURABILITY=0
CONTENTION=0
NET=0
REPLICATION=0
SESSIONS=0
PERF=0
BLESS=0
for arg in "$@"; do
    case "$arg" in
        --online) OFFLINE="" ;;
        --bench-smoke) BENCH_SMOKE=1 ;;
        --chaos) CHAOS=1 ;;
        --durability) DURABILITY=1 ;;
        --contention) CONTENTION=1 ;;
        --net) NET=1 ;;
        --replication) REPLICATION=1 ;;
        --sessions) SESSIONS=1 ;;
        --perf) PERF=1 ;;
        --bless) BLESS=1 ;;
        *)
            echo "unknown flag: $arg (known: --online --bench-smoke --chaos --durability --contention --net --replication --sessions --perf --bless)" >&2
            exit 2
            ;;
    esac
done

if [[ "$BLESS" == 1 ]]; then
    echo "==> blessing golden fixtures (UPDATE_GOLDEN=1)"
    UPDATE_GOLDEN=1 cargo test ${OFFLINE} --test metrics_json --test wal_golden
    echo "==> verifying blessed fixtures round-trip"
    cargo test ${OFFLINE} --test metrics_json --test wal_golden
    git --no-pager diff --stat -- tests/golden || true
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy ${OFFLINE} --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny broken and private intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc ${OFFLINE} --no-deps --workspace \
    --exclude proptest --exclude rand --exclude criterion --exclude parking_lot

echo "==> cargo build --release"
cargo build ${OFFLINE} --release --workspace

for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "==> example ${name} (release)"
    cargo run ${OFFLINE} --release --quiet --example "$name" > /dev/null
done

echo "==> cargo test (default features: metrics off)"
cargo test ${OFFLINE} --workspace

echo "==> cargo test (--features metrics)"
cargo test ${OFFLINE} --workspace --features metrics

if [[ "$CHAOS" == 1 ]]; then
    echo "==> cargo build (--features faults,metrics)"
    cargo build ${OFFLINE} --workspace --features faults,metrics
    echo "==> cargo test (--features faults,metrics)"
    cargo test ${OFFLINE} --workspace --features faults,metrics
fi

if [[ "$DURABILITY" == 1 ]]; then
    echo "==> cargo test -p pubsub-durability -p pubsub-broker (--features faults,metrics)"
    cargo test ${OFFLINE} -p pubsub-durability -p pubsub-broker \
        --features pubsub-types/faults,pubsub-types/metrics
    echo "==> kill-at-any-byte recovery suite"
    cargo test ${OFFLINE} -p pubsub-broker --test durability \
        kill_at_any_byte_recovers_across_all_engines_and_shard_counts
    echo "==> randomized crash-recovery proptest smoke (PROPTEST_CASES=16)"
    PROPTEST_CASES=16 cargo test ${OFFLINE} -p pubsub-broker --test durability \
        random_workload_survives_a_random_cut
fi

if [[ "$CONTENTION" == 1 ]]; then
    echo "==> RCU stress + differential suite (test threads unpinned)"
    env -u RUST_TEST_THREADS cargo test ${OFFLINE} -p pubsub-broker --test concurrency
    echo "==> publish_scaling bench smoke (one iteration)"
    cargo bench ${OFFLINE} -p pubsub-bench --bench publish_scaling -- --test
    if rustup toolchain list 2>/dev/null | grep -q nightly \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
        echo "==> ThreadSanitizer pass over the stress suite (nightly)"
        RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=4 \
            cargo +nightly test ${OFFLINE} -Zbuild-std --target x86_64-unknown-linux-gnu \
            -p pubsub-broker --test concurrency
    else
        echo "==> ThreadSanitizer pass skipped (no nightly toolchain with rust-src)"
    fi
fi

if [[ "$NET" == 1 ]]; then
    echo "==> cargo test -p pubsub-net (protocol, e2e differential, reconnect sweep)"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test ${OFFLINE} -p pubsub-net
    echo "==> cargo test -p pubsub-net (--features faults,metrics: chaos with injection live)"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test ${OFFLINE} -p pubsub-net --features faults,metrics
    echo "==> netload smoke on loopback (release)"
    cargo build ${OFFLINE} --release -p pubsub-cli
    NET_ADDR="127.0.0.1:7939"
    target/release/pubsub serve counting --addr "$NET_ADDR" < /dev/null &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/7939") 2>/dev/null; then break; fi
        sleep 0.1
    done
    target/release/pubsub netload --addr "$NET_ADDR" --subscribers 2 --subs 4 \
        --events 2000 --min-rps 1000
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
fi

if [[ "$REPLICATION" == 1 ]]; then
    echo "==> replication suites, every layer (--features faults,metrics)"
    cargo test ${OFFLINE} -p pubsub-durability \
        --features pubsub-types/faults,pubsub-types/metrics replication
    cargo test ${OFFLINE} -p pubsub-broker \
        --features pubsub-types/faults,pubsub-types/metrics --test replication
    PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test ${OFFLINE} -p pubsub-net \
        --features faults,metrics \
        --test replication --test session_gc --test chaos
    echo "==> leader/follower loopback smoke (release)"
    cargo build ${OFFLINE} --release -p pubsub-cli
    REPL_DIR="$(mktemp -d)"
    REPL_OUT="$REPL_DIR/follower.out"
    REPL_FIFO="$REPL_DIR/follower.in"
    mkfifo "$REPL_FIFO"
    L_ADDR="127.0.0.1:7941"
    F_ADDR="127.0.0.1:7942"
    FOLLOW_PID=""
    target/release/pubsub serve counting --addr "$L_ADDR" \
        --durable "$REPL_DIR/leader" < /dev/null &
    LEADER_PID=$!
    trap 'kill $LEADER_PID $FOLLOW_PID 2>/dev/null || true; rm -rf "$REPL_DIR"' EXIT
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/7941") 2>/dev/null; then break; fi
        sleep 0.1
    done
    target/release/pubsub serve counting --addr "$F_ADDR" \
        --durable "$REPL_DIR/replica" --follow "$L_ADDR" \
        < "$REPL_FIFO" > "$REPL_OUT" &
    FOLLOW_PID=$!
    exec 4>"$REPL_FIFO"
    # Put real history on the leader, then poll the replica's console
    # until it reports zero lag against the leader's position.
    target/release/pubsub netload --addr "$L_ADDR" --subscribers 2 --subs 4 \
        --events 200 > /dev/null
    CONVERGED=0
    for _ in $(seq 1 100); do
        echo "repl status --json" >&4
        sleep 0.2
        if grep -q '"lag":0' "$REPL_OUT"; then CONVERGED=1; break; fi
    done
    if [[ "$CONVERGED" != 1 ]]; then
        echo "replication smoke: follower never reached lag 0" >&2
        cat "$REPL_OUT" >&2
        exit 1
    fi
    echo "promote" >&4
    echo "repl status --json" >&4
    echo "quit" >&4
    exec 4>&-
    wait "$FOLLOW_PID"
    grep -q "promoted: writable" "$REPL_OUT" || {
        echo "replication smoke: promote failed" >&2
        cat "$REPL_OUT" >&2
        exit 1
    }
    grep -q '"promoted":true' "$REPL_OUT" || {
        echo "replication smoke: promoted status not reported" >&2
        cat "$REPL_OUT" >&2
        exit 1
    }
    kill "$LEADER_PID" 2>/dev/null || true
    wait "$LEADER_PID" 2>/dev/null || true
    rm -rf "$REPL_DIR"
fi

if [[ "$SESSIONS" == 1 ]]; then
    echo "==> session WAL/broker suites (--features faults,metrics)"
    cargo test ${OFFLINE} -p pubsub-broker \
        --features pubsub-types/faults,pubsub-types/metrics --test sessions
    PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test ${OFFLINE} -p pubsub-durability \
        --features pubsub-types/faults,pubsub-types/metrics --test wal_recovery
    echo "==> restart + failover resume sweeps (--features faults,metrics)"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" FP_SWEEP_STRIDE="${FP_SWEEP_STRIDE:-1}" \
        cargo test ${OFFLINE} -p pubsub-net --features faults,metrics \
        --test restart_resume --test session_gc
    echo "==> SIGKILL-the-server netload smoke (release)"
    cargo build ${OFFLINE} --release -p pubsub-cli
    SESS_DIR="$(mktemp -d)"
    SESS_ADDR="127.0.0.1:7943"
    SESS_RESTART_PID=""
    target/release/pubsub serve counting --addr "$SESS_ADDR" \
        --durable "$SESS_DIR/wal" < /dev/null &
    SESS_PID=$!
    trap 'kill -9 $SESS_PID $SESS_RESTART_PID 2>/dev/null || true; rm -rf "$SESS_DIR"' EXIT
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/7943") 2>/dev/null; then break; fi
        sleep 0.1
    done
    # A run long enough to straddle the kill/restart window below; every
    # client carries the default reconnect policy, so completing the run
    # requires resuming durable sessions on the restarted server.
    target/release/pubsub netload --addr "$SESS_ADDR" --subscribers 2 --subs 4 \
        --events 100000 > "$SESS_DIR/netload.out" &
    SESS_LOAD_PID=$!
    sleep 0.7
    kill -9 "$SESS_PID" 2>/dev/null || true
    wait "$SESS_PID" 2>/dev/null || true
    sleep 0.5 # a real outage window: clients must retry through it
    for _ in $(seq 1 20); do
        target/release/pubsub serve counting --addr "$SESS_ADDR" \
            --durable "$SESS_DIR/wal" < /dev/null &
        SESS_RESTART_PID=$!
        sleep 0.2
        if kill -0 "$SESS_RESTART_PID" 2>/dev/null; then break; fi
        wait "$SESS_RESTART_PID" 2>/dev/null || true
    done
    if ! wait "$SESS_LOAD_PID"; then
        echo "sessions smoke: netload did not ride through the SIGKILL restart" >&2
        cat "$SESS_DIR/netload.out" >&2
        exit 1
    fi
    cat "$SESS_DIR/netload.out"
    kill "$SESS_RESTART_PID" 2>/dev/null || true
    wait "$SESS_RESTART_PID" 2>/dev/null || true
    rm -rf "$SESS_DIR"
fi

if [[ "$BENCH_SMOKE" == 1 ]]; then
    echo "==> bench smoke (one iteration per benchmark)"
    cargo bench ${OFFLINE} --workspace -- --test
    echo "==> differential proptest smoke (PROPTEST_CASES=8)"
    PROPTEST_CASES=8 cargo test ${OFFLINE} -p pubsub-core --test equivalence \
        all_engines_agree_on_identical_interleavings
    echo "==> snapshot_publish smoke (W2, 5k subscriptions)"
    cargo run ${OFFLINE} --release -q -p pubsub-bench --bin snapshot_publish -- \
        --workload w2 --subs 5000 --seed 1
fi

if [[ "$PERF" == 1 ]]; then
    PERF_DIR="$(mktemp -d)"
    PERF_SET="perf-$$"
    BASE_DIR="$PERF_DIR/base"
    trap 'git worktree remove --force "$BASE_DIR" 2>/dev/null || true
          rm -f "benchmark/results/$PERF_SET.jsonl"; rm -rf "$PERF_DIR"' EXIT
    echo "==> benchmark smoke (every workload, untraced and traced)"
    bash benchmark/run.sh --smoke | tee "$PERF_DIR/smoke.out"
    CLEAN_RUNS=$(grep -c '"correct": true, "attempted": [0-9]*, "failed": 0,' "$PERF_DIR/smoke.out" || true)
    if [[ "$CLEAN_RUNS" != 8 ]]; then
        echo "perf smoke: $CLEAN_RUNS of 8 runs correct with 0 failed operations" >&2
        exit 1
    fi
    BASE_REV="$(git merge-base HEAD main)"
    echo "==> interleaved match_eq + forward_small pairs against $BASE_REV"
    git worktree add --detach "$BASE_DIR" "$BASE_REV"
    for seed in 1 2; do
        # Alternate which side runs first so both sample the same host time.
        if [[ "$seed" == 1 ]]; then SIDES="$BASE_DIR ."; else SIDES=". $BASE_DIR"; fi
        for side in $SIDES; do
            (cd "$side" && bash benchmark/run.sh --repeat 1 --seed "$seed" --set "$PERF_SET" \
                --workload "match_eq forward_small")
        done
    done
    COMPARE_STATUS=0
    bash benchmark/run.sh compare "$BASE_DIR/benchmark/results/$PERF_SET.jsonl" \
        "benchmark/results/$PERF_SET.jsonl" | tee "$PERF_DIR/compare.out" || COMPARE_STATUS=$?
    if grep -q ' worse$' "$PERF_DIR/compare.out"; then
        echo "perf: a row reads worse than at $BASE_REV, but two pairs cannot gate; judge it by ten interleaved pairs (run.sh --repeat 1 --seed 1..10, alternating sides)" >&2
    elif [[ "$COMPARE_STATUS" != 0 ]]; then
        echo "perf: run.sh compare failed" >&2
        exit 1
    fi
fi

echo "==> all checks passed"
