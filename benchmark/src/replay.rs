//! The in-process replay behind the per-layer metrics. The benchmark links
//! the crates, rebuilds the run's population and pushes the same frame bytes
//! through each layer's public entry points, one span per call, so every
//! layer is measured from outside and on its own.

use crate::run::Clock;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Generated};
use pubsub_broker::{SharedBroker, Validity};
use pubsub_core::{EngineKind, MatchEngine};
use pubsub_durability::{replication, DurabilityConfig, FsyncPolicy, TailChunk, Wal, WalOp};
use pubsub_index::{PredicateBitVec, PredicateIndex};
use pubsub_net::{Ack, Frame, FrameReader, OutQueue, WireEvent, WirePredicate, WireValue};
use pubsub_types::{Event, Predicate, Subscription, SubscriptionId, Value, Vocabulary};
use std::path::Path;

/// Subscribe + unsubscribe pairs replayed at full population.
const CHURN_PAIRS: usize = 2_000;
/// Population of the durable leg. Recovery, snapshot and follower apply are
/// linear in it; 20k keeps the leg to seconds and is stated with the
/// figures.
pub const DURABLE_POPULATION: usize = 20_000;
/// Records appended to the bare WAL, fsynced every 64 as the server's
/// default `EveryN(64)` does.
const WAL_APPENDS: usize = 8_192;
const WAL_SYNC_EVERY: usize = 64;

fn intern_value(vocab: &mut Vocabulary, value: &WireValue) -> Value {
    match value {
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Str(s) => vocab.string(s),
    }
}

/// Interns a wire subscription the way the server's subscribe handler does.
fn intern_subscription(
    broker: &SharedBroker,
    preds: &[WirePredicate],
) -> Result<Subscription, String> {
    let predicates = broker.with_vocab(|vocab| {
        preds
            .iter()
            .map(|p| {
                let attr = vocab.attr(&p.attr);
                Predicate::new(attr, p.op, intern_value(vocab, &p.value))
            })
            .collect::<Vec<_>>()
    });
    Subscription::from_predicates(predicates).map_err(|e| e.to_string())
}

/// Interns a wire event the way the server's publish handler does.
fn intern_event(broker: &SharedBroker, wire: &WireEvent) -> Result<Event, String> {
    let pairs = broker.with_vocab(|vocab| {
        wire.pairs
            .iter()
            .map(|(attr, value)| {
                let attr = vocab.attr(attr);
                (attr, intern_value(vocab, value))
            })
            .collect::<Vec<_>>()
    });
    Event::from_pairs(pairs).map_err(|e| e.to_string())
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Cost of one `Instant::now()` pair, subtracted from per-call means so the
/// sub-microsecond layers are not mostly timer.
fn timer_overhead_ns(clock: &Clock) -> f64 {
    let n = 20_000;
    let t0 = clock.now_ns();
    let mut last = t0;
    for _ in 0..n {
        last = std::hint::black_box(clock.now_ns());
    }
    (last - t0) as f64 / n as f64
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the replay and returns the per-layer metrics it yields, by name.
pub fn replay(
    generated: &Generated,
    engine: &str,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let kind: EngineKind = engine.parse()?;
    let shards = pubsub_core::default_shards();
    let clock = Clock::start();
    let overhead = timer_overhead_ns(&clock);
    let net = |mean_ns: f64| (mean_ns - overhead).max(0.0);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let forever = Validity::forever();

    // ---- broker: load the population (volatile, as `serve` builds it) ----
    let broker = SharedBroker::new(kind, shards);
    let token = broker.try_session_create().map_err(|e| e.to_string())?;
    let mut subscribe_ns = Vec::with_capacity(generated.subs.len());
    for (i, sub) in generated.subs.iter().enumerate() {
        let preds = workload::wire_predicates(sub);
        let t0 = clock.now_ns();
        let interned = intern_subscription(&broker, &preds)?;
        broker
            .try_subscribe_bound(token, interned, forever)
            .map_err(|e| e.to_string())?;
        let t1 = clock.now_ns();
        tracer.record("broker.subscribe", None, i as u64, t0, t1);
        subscribe_ns.push((t1 - t0) as f64);
    }
    let edge = 10_000.min(subscribe_ns.len());
    out.push(("broker.subscribe_ns", net(mean(&subscribe_ns))));
    out.push((
        "broker.subscribe_ns_first10k",
        net(mean(&subscribe_ns[..edge])),
    ));
    let tail = &subscribe_ns[subscribe_ns.len() - edge..];
    out.push(("broker.subscribe_ns_last10k", net(mean(tail))));

    // ---- the publish path, frame bytes in, frame bytes out ---------------
    let frames: Vec<Vec<u8>> = generated
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            Frame::Publish {
                req: i as u32 + 1,
                event: workload::wire_event(e, i as u64),
            }
            .to_bytes()
        })
        .collect();
    let queue: OutQueue<Vec<u8>> = OutQueue::new(256);
    let mut reader = FrameReader::new();
    let mut matched = Vec::new();
    let (mut decode, mut intern, mut publish, mut inner) = (vec![], vec![], vec![], vec![]);
    let (mut notify, mut ack, mut hop) = (vec![], vec![], vec![]);
    let (mut notify_bytes, mut publish_bytes) = (0usize, 0usize);
    // Two passes over the pool; the first warms caches and scratch buffers.
    for pass in 0..2 {
        for (i, bytes) in frames.iter().enumerate() {
            let id = i as u64;
            let t0 = clock.now_ns();
            reader.extend(bytes);
            let frame = reader.next_frame().map_err(|e| e.to_string())?;
            let t1 = clock.now_ns();
            let Some(Frame::Publish { req, event: wire }) = frame else {
                return Err("replayed bytes did not decode as a publish".into());
            };
            let t2 = clock.now_ns();
            let event = intern_event(&broker, &wire)?;
            let t3 = clock.now_ns();
            let before = broker.rcu_stats();
            matched.clear();
            let t4 = clock.now_ns();
            broker.publish_into(&event, &mut matched);
            let t5 = clock.now_ns();
            let after = broker.rcu_stats();
            let ids: Vec<u32> = matched.iter().map(|id| id.0).collect();
            let t6 = clock.now_ns();
            // As `deliver()` does per session: clone the event, encode.
            let notify_frame = Frame::Notify {
                seq: id + 1,
                ids,
                event: wire.clone(),
            }
            .to_bytes();
            let t7 = clock.now_ns();
            let ack_frame = Frame::Ack(Ack::Publish {
                req,
                matched: matched.len() as u32,
            })
            .to_bytes();
            let t8 = clock.now_ns();
            notify_bytes = notify_frame.len();
            let _ = queue.push_blocking(notify_frame);
            let popped = queue.pop();
            let t9 = clock.now_ns();
            std::hint::black_box((popped, ack_frame));
            if pass == 0 {
                continue;
            }
            publish_bytes += bytes.len();
            let phase1 = after.phase1_nanos - before.phase1_nanos;
            let phase2 = after.phase2_nanos - before.phase2_nanos;
            tracer.record("net.frame.decode_publish", None, id, t0, t1);
            // `broker.publish` is the broker's whole share of one publish:
            // interning, then the match; the engine's own phase timers are
            // the match's children, so its self time is what the broker
            // adds around the two phases.
            tracer.record("broker.publish", None, id, t2, t5);
            tracer.record("broker.intern", Some("broker.publish"), id, t2, t3);
            tracer.record("broker.publish_into", Some("broker.publish"), id, t4, t5);
            tracer.record(
                "engine.phase1",
                Some("broker.publish_into"),
                id,
                t4,
                t4 + phase1,
            );
            tracer.record(
                "engine.phase2",
                Some("broker.publish_into"),
                id,
                t4 + phase1,
                t4 + phase1 + phase2,
            );
            tracer.record("net.frame.encode_notify", None, id, t6, t7);
            tracer.record("net.frame.encode_ack", None, id, t7, t8);
            tracer.record("net.queue.push_pop", None, id, t8, t9);
            decode.push((t1 - t0) as f64);
            intern.push((t3 - t2) as f64);
            publish.push((t3 - t2 + t5 - t4) as f64);
            inner.push(((t5 - t4) as f64 - overhead - (phase1 + phase2) as f64).max(0.0));
            notify.push((t7 - t6) as f64);
            ack.push((t8 - t7) as f64);
            hop.push((t9 - t8) as f64);
        }
    }
    let events = frames.len() as f64;
    let intern_ns = net(mean(&intern));
    let publish_ns = (mean(&publish) - 2.0 * overhead).max(0.0);
    let publish_self_ns = mean(&inner);
    out.push(("net.frame.decode_publish_ns", net(mean(&decode))));
    out.push(("net.frame.publish_bytes", publish_bytes as f64 / events));
    out.push(("broker.intern_ns", intern_ns));
    out.push(("broker.publish_ns", publish_ns));
    out.push(("broker.publish_self_ns", publish_self_ns));
    out.push(("net.frame.encode_notify_ns", net(mean(&notify))));
    out.push(("net.frame.notify_bytes", notify_bytes as f64));
    out.push(("net.frame.encode_ack_ns", net(mean(&ack))));
    out.push(("net.queue.push_pop_ns", net(mean(&hop))));

    // ---- phase 1 and phase 2 on their own, shard by shard -----------------
    // The server stripes subscriptions over `shards` engines round-robin and
    // matches every event against each in turn; so does this.
    let mut indexes: Vec<PredicateIndex> = (0..shards).map(|_| PredicateIndex::new()).collect();
    let mut engines: Vec<_> = (0..shards).map(|_| kind.build()).collect();
    for (i, sub) in generated.subs.iter().enumerate() {
        for p in sub.predicates() {
            indexes[i % shards].intern(*p);
        }
        engines[i % shards].insert(SubscriptionId(i as u32), sub);
    }
    let (mut tables, mut moves, mut heap) = (0u64, 0u64, 0usize);
    for engine in &mut engines {
        engine.finalize();
        tables += engine.stats().tables_created;
        moves += engine.stats().subscription_moves;
        heap += engine.heap_bytes();
        engine.reset_stats();
    }
    let mut bits = PredicateBitVec::new();
    let mut satisfied = Vec::new();
    let (mut phase1, mut phase2, mut satisfied_total) = (vec![], vec![], 0usize);
    for pass in 0..2 {
        for (i, event) in generated.events.iter().enumerate() {
            let (mut p1, mut whole) = (0u64, 0u64);
            for shard in 0..shards {
                let t0 = clock.now_ns();
                bits.clear();
                satisfied.clear();
                indexes[shard].eval_into(event, &mut bits, &mut satisfied);
                let t1 = clock.now_ns();
                matched.clear();
                let t2 = clock.now_ns();
                engines[shard].match_event(event, &mut matched);
                let t3 = clock.now_ns();
                p1 += t1 - t0;
                whole += t3 - t2;
                if pass == 1 {
                    satisfied_total += satisfied.len();
                    tracer.record("index.phase1", None, i as u64, t0, t1);
                    tracer.record("core.match_event", None, i as u64, t2, t3);
                }
            }
            if pass == 1 {
                // Phase 2 by subtraction: match_event runs both phases.
                phase1.push(p1 as f64 - shards as f64 * overhead);
                phase2.push(whole as f64 - p1 as f64);
            }
        }
        if pass == 0 {
            engines.iter_mut().for_each(|e| e.reset_stats());
        }
    }
    let phase1_ns = mean(&phase1).max(0.0);
    let phase2_ns = mean(&phase2).max(0.0);
    let (mut checked, mut matches) = (0u64, 0u64);
    for engine in &engines {
        checked += engine.stats().subscriptions_checked;
        matches += engine.stats().matches;
    }
    out.push(("index.phase1_ns", phase1_ns));
    out.push((
        "index.predicates",
        indexes.iter().map(|i| i.len()).sum::<usize>() as f64,
    ));
    out.push(("index.satisfied_per_event", satisfied_total as f64 / events));
    out.push(("core.phase2_ns", phase2_ns));
    out.push(("core.checked_per_event", checked as f64 / events));
    out.push(("core.matches_per_event", matches as f64 / events));
    out.push((
        "core.match_per_checked",
        matches as f64 / checked.max(1) as f64,
    ));
    out.push(("core.tables_created", tables as f64));
    out.push(("core.subscription_moves", moves as f64));
    out.push(("core.heap_bytes", heap as f64));
    // The stand-alone layers against the composite they are parts of.
    let parts = intern_ns + phase1_ns + phase2_ns + publish_self_ns;
    out.push(("broker.layer_sum_share", parts / publish_ns.max(1.0)));
    drop((indexes, engines));

    // ---- mutations at full population --------------------------------------
    let flips_before = broker.rcu_status().flips;
    let mut unsubscribe = vec![];
    for i in 0..CHURN_PAIRS {
        let preds = workload::wire_predicates(&generated.churn[i % generated.churn.len()]);
        let t0 = clock.now_ns();
        let interned = intern_subscription(&broker, &preds)?;
        let id = broker
            .try_subscribe_bound(token, interned, forever)
            .map_err(|e| e.to_string())?;
        let t1 = clock.now_ns();
        broker
            .try_unsubscribe_bound(token, id)
            .map_err(|e| e.to_string())?;
        let t2 = clock.now_ns();
        tracer.record(
            "broker.subscribe",
            None,
            (generated.subs.len() + i) as u64,
            t0,
            t1,
        );
        tracer.record("broker.unsubscribe", None, i as u64, t1, t2);
        unsubscribe.push((t2 - t1) as f64);
    }
    let flips = broker.rcu_status().flips - flips_before;
    out.push(("broker.unsubscribe_ns", net(mean(&unsubscribe))));
    out.push(("broker.rcu_flips", flips as f64 / (2 * CHURN_PAIRS) as f64));
    drop(broker);

    // ---- the write-ahead log on its own ------------------------------------
    let wal_dir = scratch.join("replay-wal");
    let config = DurabilityConfig {
        fsync: FsyncPolicy::OsManaged,
        ..DurabilityConfig::default()
    };
    let (mut wal, _) = Wal::open(&wal_dir, config).map_err(|e| e.to_string())?;
    let (mut append, mut fsync) = (vec![], vec![]);
    for i in 0..WAL_APPENDS {
        let op = WalOp::Subscribe {
            id: SubscriptionId(i as u32),
            sub: generated.subs[i % generated.subs.len()].clone(),
            validity: forever,
        };
        let t0 = clock.now_ns();
        wal.append(&op).map_err(|e| e.to_string())?;
        let t1 = clock.now_ns();
        tracer.record("durability.append", None, i as u64, t0, t1);
        append.push((t1 - t0) as f64);
        if (i + 1) % WAL_SYNC_EVERY == 0 {
            wal.sync().map_err(|e| e.to_string())?;
            let t2 = clock.now_ns();
            tracer.record("durability.fsync", None, i as u64, t1, t2);
            fsync.push((t2 - t1) as f64);
        }
    }
    drop(wal);
    out.push(("durability.append_ns", net(mean(&append))));
    out.push((
        "durability.fsync_p50_ns",
        stats::percentile(&mut fsync.clone(), 0.5).unwrap_or(0.0),
    ));
    out.push((
        "durability.fsync_p99_ns",
        stats::percentile(&mut fsync, 0.99).unwrap_or(0.0),
    ));

    // ---- a durable leader, a follower, recovery, snapshot -------------------
    let leader_dir = scratch.join("replay-leader");
    let follower_dir = scratch.join("replay-follower");
    let population = DURABLE_POPULATION.min(generated.subs.len());
    let (leader, _) =
        SharedBroker::open_durable(kind, shards, &leader_dir).map_err(|e| e.to_string())?;
    let token = leader.try_session_create().map_err(|e| e.to_string())?;
    for sub in &generated.subs[..population] {
        let interned = intern_subscription(&leader, &workload::wire_predicates(sub))?;
        leader
            .try_subscribe_bound(token, interned, forever)
            .map_err(|e| e.to_string())?;
    }
    out.push((
        "durability.wal_bytes_per_op",
        dir_bytes(&leader_dir, "wal-") as f64 / population as f64,
    ));
    let (follower, _) =
        SharedBroker::open_follower(kind, shards, &follower_dir, DurabilityConfig::default())
            .map_err(|e| e.to_string())?;
    let (mut lsn, mut apply_ns, mut applied) = (0, 0u64, 0u64);
    loop {
        match replication::read_tail(&leader_dir, lsn, 64 * 1024).map_err(|e| e.to_string())? {
            TailChunk::Records {
                first_lsn,
                payloads,
                ..
            } => {
                let t0 = clock.now_ns();
                lsn = follower
                    .apply_replicated(first_lsn, &payloads)
                    .map_err(|e| e.to_string())?;
                let t1 = clock.now_ns();
                tracer.record("broker.repl_apply", None, first_lsn, t0, t1);
                apply_ns += t1 - t0;
                applied += payloads.len() as u64;
            }
            TailChunk::CaughtUp { .. } => break,
            other => return Err(format!("follower catch-up stalled: {other:?}")),
        }
    }
    out.push((
        "broker.repl_apply_ns",
        apply_ns as f64 / applied.max(1) as f64,
    ));
    drop((follower, leader));
    let t0 = clock.now_ns();
    let (recovered, report) =
        SharedBroker::open_durable(kind, shards, &leader_dir).map_err(|e| e.to_string())?;
    let t1 = clock.now_ns();
    tracer.record("durability.recover", None, 0, t0, t1);
    out.push(("durability.recover_ms", (t1 - t0) as f64 / 1e6));
    out.push((
        "durability.replayed_records",
        report.records_replayed as f64,
    ));
    let snapshot = recovered.snapshot().map_err(|e| e.to_string())?;
    let t2 = clock.now_ns();
    tracer.record("durability.snapshot", None, 0, t1, t2);
    out.push(("durability.snapshot_ms", (t2 - t1) as f64 / 1e6));
    let snapshot_bytes = std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0);
    out.push(("durability.snapshot_bytes", snapshot_bytes as f64));
    Ok(out)
}
