//! Golden-file test for the `MetricsSnapshot` JSON encoding.
//!
//! The snapshot schema is consumed by `--json` tooling (`cli stats --json
//! --metrics`, `fig3a_throughput --json`) whose outputs land in `results/`;
//! pinning the encoding to a committed golden file means the schema cannot
//! drift silently. The round-trip half parses the encoder's output with
//! `pubsub-workload::json` — the workspace's only JSON reader — proving the
//! two stay interoperable.
//!
//! This test is feature-independent: the encoder is always compiled; only
//! live capture is gated.

use fastpubsub::types::metrics::{CounterEntry, HistogramEntry, MetricsSnapshot};
use fastpubsub::workload::golden::assert_or_bless;
use fastpubsub::workload::json::{parse, Json};

/// The snapshot encoded by the golden file, built by hand.
fn golden_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            CounterEntry {
                name: "broker.publishes".into(),
                value: 42,
            },
            CounterEntry {
                name: "broker.shared.snapshot_flips".into(),
                value: 5,
            },
            CounterEntry {
                name: "core.counting.matched".into(),
                value: 7,
            },
            CounterEntry {
                name: "core.propagation.fallback_scans".into(),
                value: 1,
            },
            CounterEntry {
                name: "core.propagation.matched".into(),
                value: 3,
            },
            CounterEntry {
                name: "index.phase1.batch_events".into(),
                value: 96,
            },
            CounterEntry {
                name: "index.phase1.batches".into(),
                value: 6,
            },
            CounterEntry {
                name: "index.phase1.bits_set".into(),
                value: 9000,
            },
            CounterEntry {
                name: "net.server.pings".into(),
                value: 11,
            },
            CounterEntry {
                name: "net.server.sessions_restored".into(),
                value: 3,
            },
            CounterEntry {
                name: "rcu.reclaim_deferred".into(),
                value: 2,
            },
            CounterEntry {
                name: "recovery.records_replayed".into(),
                value: 12,
            },
            CounterEntry {
                name: "recovery.torn_tail_truncated".into(),
                value: 1,
            },
            CounterEntry {
                name: "snapshot.written".into(),
                value: 2,
            },
            CounterEntry {
                name: "wal.appends".into(),
                value: 13,
            },
            CounterEntry {
                name: "wal.bytes".into(),
                value: 388,
            },
            CounterEntry {
                name: "wal.fsyncs".into(),
                value: 4,
            },
            CounterEntry {
                name: "wal.rotations".into(),
                value: 2,
            },
            CounterEntry {
                name: "wal.session_records".into(),
                value: 4,
            },
        ],
        histograms: vec![
            HistogramEntry {
                name: "core.phase1_nanos".into(),
                count: 4,
                sum: 6144,
                buckets: vec![(0, 1), (11, 2), (12, 1)],
            },
            HistogramEntry {
                name: "index.phase1.batch_size".into(),
                count: 6,
                sum: 96,
                buckets: vec![(1, 2), (5, 4)],
            },
            HistogramEntry {
                name: "core.phase2_nanos".into(),
                count: 5,
                sum: 320,
                buckets: vec![(7, 5)],
            },
            HistogramEntry {
                name: "rcu.readers_active".into(),
                count: 3,
                sum: 4,
                buckets: vec![(0, 1), (1, 2)],
            },
        ],
    }
}

#[test]
fn encoding_matches_the_golden_file() {
    // Blessable (UPDATE_GOLDEN=1 / scripts/check.sh --bless): the fixture
    // only moves on a deliberate schema or counter-set change.
    assert_or_bless(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/metrics_snapshot.json"
        ),
        &golden_snapshot().to_json(),
    );
}

#[test]
fn encoding_is_deterministic_under_entry_order() {
    // to_json sorts by name, so a permuted snapshot encodes identically.
    let mut snap = golden_snapshot();
    snap.counters.reverse();
    snap.histograms.reverse();
    assert_eq!(snap.to_json(), golden_snapshot().to_json());
}

#[test]
fn round_trips_through_the_workload_json_parser() {
    let doc = parse(&golden_snapshot().to_json()).expect("encoder output parses");
    let Json::Object(top) = &doc else {
        panic!("top level must be an object, got {doc:?}");
    };
    assert_eq!(
        top.keys().collect::<Vec<_>>(),
        vec!["counters", "histograms"]
    );

    let Some(Json::Object(counters)) = top.get("counters") else {
        panic!("counters must be an object");
    };
    assert_eq!(counters.get("broker.publishes"), Some(&Json::Int(42)));
    assert_eq!(counters.get("core.counting.matched"), Some(&Json::Int(7)));
    assert_eq!(
        counters.get("index.phase1.bits_set"),
        Some(&Json::Int(9000))
    );

    let Some(Json::Object(hists)) = top.get("histograms") else {
        panic!("histograms must be an object");
    };
    let Some(Json::Object(h)) = hists.get("core.phase1_nanos") else {
        panic!("histogram must be an object");
    };
    assert_eq!(h.get("count"), Some(&Json::Int(4)));
    assert_eq!(h.get("sum"), Some(&Json::Int(6144)));
    let Some(Json::Object(buckets)) = h.get("buckets") else {
        panic!("buckets must be an object");
    };
    // Fixed-width keys keep lexicographic order == numeric bucket order.
    assert_eq!(buckets.keys().collect::<Vec<_>>(), vec!["00", "11", "12"]);
    assert_eq!(buckets.get("11"), Some(&Json::Int(2)));
}

#[test]
fn live_capture_also_parses() {
    // Whatever the process has recorded so far (possibly nothing): the
    // capture must encode to a parseable document with the two fixed keys.
    let doc = parse(&MetricsSnapshot::capture().to_json()).expect("live capture parses");
    let Json::Object(top) = doc else {
        panic!("top level must be an object");
    };
    assert!(top.contains_key("counters") && top.contains_key("histograms"));
}
