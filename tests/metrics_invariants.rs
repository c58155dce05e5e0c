//! Invariant tests for the feature-gated metrics layer.
//!
//! These tests assert *exact* counter values for scripted workloads, so they
//! live in their own integration-test binary (their own process) and
//! serialize on a mutex: the metric registry is process-global and any
//! concurrently running instrumented code would perturb the counts.
//!
//! Compiled with `--features metrics` the snapshot must reconcile with the
//! workload; compiled without, the snapshot must be empty — both halves are
//! exercised by `scripts/check.sh`, which runs the suite under both feature
//! sets.

use fastpubsub::prelude::*;
use fastpubsub::types::metrics::{self, MetricsSnapshot};
use fastpubsub::types::AttrId;
use std::sync::Mutex;

/// Serializes the tests in this binary; the registry is process-global.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

/// A tiny deterministic workload: `subs` equality subscriptions on
/// attribute 0, then `events` publishes alternating hit/miss.
fn scripted_run(kind: EngineKind, subs: u32, events: u64) -> Vec<SubscriptionId> {
    let mut broker = Broker::new(kind).without_event_store();
    for i in 0..subs {
        let sub = Subscription::builder()
            .eq(AttrId(0), (i % 4) as i64)
            .build()
            .unwrap();
        broker.subscribe(sub, Validity::forever());
    }
    let mut matched = Vec::new();
    for i in 0..events {
        let event = Event::builder()
            .pair(AttrId(0), (i % 8) as i64)
            .build()
            .unwrap();
        matched.extend(broker.publish(&event));
    }
    matched
}

#[cfg(feature = "metrics")]
mod enabled {
    use super::*;
    use fastpubsub::core::{ClusteredMatcher, DynamicConfig, MatchEngine};

    #[test]
    fn publishes_equal_phase1_invocations() {
        let _guard = METRICS_LOCK.lock().unwrap();
        metrics::reset_all();
        scripted_run(EngineKind::Counting, 8, 40);
        let snap = MetricsSnapshot::capture();
        // Every published event runs phase 1 exactly once (one engine,
        // no event store), and nothing else in this process publishes.
        assert_eq!(snap.counter("broker.publishes"), Some(40));
        assert_eq!(snap.counter("index.phase1.snapshot_evals"), Some(40));
        assert_eq!(snap.counter("core.counting.events"), Some(40));
        assert_eq!(snap.counter("broker.subscribes"), Some(8));
    }

    /// A `SharedBroker` publish runs phase 1 once, against the one
    /// broker-wide predicate index, however many tiers and stripes hold the
    /// subscriptions; each tier still runs its own phase 2
    /// (`core.counting.events`). A batch publish runs one batched phase 1
    /// per batch, which counts each of its events once.
    #[test]
    fn shared_publishes_run_phase1_once_per_event() {
        let _guard = METRICS_LOCK.lock().unwrap();
        for stripes in [1usize, 2] {
            let broker = SharedBroker::new(EngineKind::Counting, stripes);
            let subscribe = |n: usize| {
                for i in 0..n {
                    let sub = Subscription::builder()
                        .eq(AttrId(0), (i % 4) as i64)
                        .build()
                        .unwrap();
                    broker.subscribe(sub, Validity::forever());
                }
            };
            let counts = || {
                let snap = MetricsSnapshot::capture();
                let count = |name| snap.counter(name).unwrap_or(0);
                [
                    count("index.phase1.snapshot_evals"),
                    count("index.phase1.batches"),
                    count("core.counting.events"),
                ]
            };
            let events: Vec<Event> = (0..8i64)
                .map(|v| Event::builder().pair(AttrId(0), v).build().unwrap())
                .collect();
            let evals_over = |n: u64| {
                let before = counts();
                for i in 0..n {
                    broker.publish(&events[i as usize % events.len()]);
                }
                let after = counts();
                [0, 1, 2].map(|k| after[k] - before[k])
            };
            let batches_over = |n: u64| {
                let before = counts();
                for _ in 0..n {
                    broker.publish_batch(&events);
                }
                let after = counts();
                [0, 1, 2].map(|k| after[k] - before[k])
            };
            const N: u64 = 40;
            let batch = events.len() as u64;

            // Past a level-0 tier's 256 per stripe, so each compacted base
            // sits at level 1 and the next L0 flush becomes a tier of its
            // own.
            subscribe(300 * stripes);
            broker.compact();
            let status = broker.rcu_status();
            assert_eq!(
                (status.tiers, status.l0),
                (stripes, 0),
                "one base per stripe"
            );
            let tiers = stripes as u64;
            assert_eq!(evals_over(N), [N, 0, N * tiers]);

            subscribe(40 * stripes);
            let tiers = broker.rcu_status().tiers as u64;
            assert!(
                tiers > stripes as u64,
                "40 uncompacted subscriptions per stripe add tiers"
            );
            assert_eq!(evals_over(N), [N, 0, N * tiers], "{stripes} stripes");
            assert_eq!(
                batches_over(N),
                [N * batch, N, N * batch * tiers],
                "{stripes} stripes"
            );
        }
    }

    #[test]
    fn verified_is_at_least_matched_on_every_engine() {
        let _guard = METRICS_LOCK.lock().unwrap();
        metrics::reset_all();
        for kind in EngineKind::PAPER_ENGINES {
            scripted_run(kind, 16, 64);
        }
        let snap = MetricsSnapshot::capture();
        for engine in ["counting", "propagation", "clustered"] {
            let verified = snap
                .counter(&format!("core.{engine}.verified"))
                .unwrap_or(0);
            let matched = snap.counter(&format!("core.{engine}.matched")).unwrap_or(0);
            assert!(matched > 0, "{engine}: scripted workload must match");
            assert!(
                verified >= matched,
                "{engine}: verified {verified} < matched {matched}"
            );
        }
        // The scripted workload matches deterministically: 4 of the 8 event
        // values hit, each hitting the 4 subscriptions on that value, so
        // each engine contributes (64/8) * 4 * 4 = 128 matches. The counting
        // engine runs exactly once in PAPER_ENGINES, so its counter is exact.
        let per_engine = 64 / 8 * 4 * (16 / 4);
        assert_eq!(
            snap.counter("core.counting.matched"),
            Some(per_engine),
            "counting match count"
        );
    }

    #[test]
    fn dynamic_table_events_reconcile_with_final_table_count() {
        let _guard = METRICS_LOCK.lock().unwrap();
        metrics::reset_all();
        // Aggressive maintenance so tables are created AND removed.
        let mut engine = ClusteredMatcher::new_dynamic_with(DynamicConfig {
            period: 3,
            bm_max: 0.05,
            b_create: 2,
            b_delete: 2,
            max_schema_len: 3,
            min_gain: 0.0,
            decay_stats: true,
        });
        let mut out = Vec::new();
        for i in 0..64u32 {
            let sub = Subscription::builder()
                .eq(AttrId(i % 3), (i % 5) as i64)
                .eq(AttrId(3 + i % 2), (i % 7) as i64)
                .build()
                .unwrap();
            engine.insert(SubscriptionId(i), &sub);
            let event = Event::builder()
                .pair(AttrId(i % 3), (i % 5) as i64)
                .pair(AttrId(3 + i % 2), (i % 7) as i64)
                .build()
                .unwrap();
            engine.match_event(&event, &mut out);
            out.clear();
        }
        for i in 0..32u32 {
            engine.remove(SubscriptionId(i * 2));
        }
        engine.run_maintenance();
        let snap = MetricsSnapshot::capture();
        let created = snap.counter("core.clustered.tables_created").unwrap_or(0);
        let removed = snap.counter("core.clustered.tables_removed").unwrap_or(0);
        assert!(created > 0, "workload must create tables");
        assert_eq!(
            created - removed,
            engine.table_summary().len() as u64,
            "create/remove events must reconcile with the live table count"
        );
    }

    /// The network server batches what one read brings in and drains its
    /// queues whole: 64 publishes in one `write_all` are fewer than 64
    /// publish batches and fewer writes than frames, while a paced single
    /// publish is one batch, one notify, and one write per frame.
    #[test]
    fn pipelined_publishes_batch_and_coalesce_writes() {
        use fastpubsub::net::{
            Ack, Client, Frame, FrameReader, Server, WireEvent, WirePredicate, WireValue,
            PROTOCOL_VERSION,
        };
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let _guard = METRICS_LOCK.lock().unwrap();
        metrics::reset_all();
        let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
        let server = Server::start(broker, "127.0.0.1:0").expect("bind loopback");
        let mut subscriber = Client::connect(server.local_addr()).expect("connect");
        subscriber
            .subscribe(vec![WirePredicate {
                attr: "k".into(),
                op: Operator::Eq,
                value: WireValue::Int(1),
            }])
            .expect("subscribe");
        let mut publisher = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = FrameReader::new();
        let mut read_frames = |stream: &mut TcpStream, n: usize| {
            let mut buf = [0u8; 4096];
            let mut got = 0;
            while got < n {
                if let Some(frame) = reader.next_frame().expect("framing") {
                    assert!(matches!(frame, Frame::Ack(_)), "{frame:?}");
                    got += 1;
                    continue;
                }
                let read = stream.read(&mut buf).expect("read");
                assert!(read > 0, "server closed");
                reader.extend(&buf[..read]);
            }
        };
        let send = |stream: &mut TcpStream, frames: &[Frame]| {
            let mut bytes = Vec::new();
            for frame in frames {
                frame.write_to(&mut bytes);
            }
            stream.write_all(&bytes).expect("write");
        };
        send(
            &mut publisher,
            &[Frame::Hello {
                proto: PROTOCOL_VERSION,
                token: 0,
            }],
        );
        read_frames(&mut publisher, 1);
        let publish = |req: u32| Frame::Publish {
            req,
            event: WireEvent {
                pairs: vec![("k".into(), WireValue::Int(1))],
            },
        };
        // [frames_out, writes, publish_batches]; a writer counts its write
        // just after the bytes leave, so wait for the frames to be counted.
        let counts = || {
            let snap = MetricsSnapshot::capture();
            ["frames_out", "writes", "publish_batches"]
                .map(|name| snap.counter(&format!("net.server.{name}")).unwrap_or(0))
        };
        let settle = |before: [u64; 3], frames: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let now = counts();
                let delta = [0, 1, 2].map(|k| now[k] - before[k]);
                if delta[0] >= frames || Instant::now() > deadline {
                    return delta;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // Two hello acks and a subscribe ack so far.
        settle([0; 3], 3);
        let before = counts();
        send(&mut publisher, &[publish(1)]);
        read_frames(&mut publisher, 1);
        let notify = subscriber
            .next_notify(Duration::from_secs(5))
            .expect("read");
        assert!(notify.is_some(), "the paced publish is delivered");
        assert_eq!(
            settle(before, 2),
            [2, 2, 1],
            "one ack and one notify, one write each, one batch"
        );

        let before = counts();
        send(&mut publisher, &(2..66).map(publish).collect::<Vec<_>>());
        read_frames(&mut publisher, 64);
        let delivered = subscriber
            .drain_notifies(Duration::from_millis(200))
            .expect("drain");
        assert_eq!(delivered.len(), 64);
        let [frames_out, writes, batches] = settle(before, 128);
        assert_eq!(frames_out, 128, "64 acks and 64 notifies");
        assert!(batches < 64, "64 pipelined publishes in {batches} batches");
        assert!(
            writes < frames_out,
            "{frames_out} frames in {writes} writes"
        );
        server.shutdown();
    }

    #[test]
    fn histograms_record_phase_latencies() {
        let _guard = METRICS_LOCK.lock().unwrap();
        metrics::reset_all();
        scripted_run(EngineKind::Dynamic, 8, 32);
        let snap = MetricsSnapshot::capture();
        let h = snap
            .histogram("core.phase1_nanos")
            .expect("phase1 recorded");
        assert_eq!(h.count, 32);
        let total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, h.count, "bucket counts sum to the record count");
    }
}

#[cfg(not(feature = "metrics"))]
mod disabled {
    use super::*;

    #[test]
    fn snapshot_is_empty_without_the_feature() {
        let _guard = METRICS_LOCK.lock().unwrap();
        scripted_run(EngineKind::Counting, 8, 40);
        let snap = MetricsSnapshot::capture();
        assert!(!metrics::enabled());
        assert!(snap.is_empty(), "metrics-off build must observe nothing");
        assert_eq!(snap.counter("broker.publishes"), None);
        assert_eq!(snap.to_json(), "{\"counters\":{},\"histograms\":{}}");
    }
}
