//! Broker-level crash recovery and degraded-mode behaviour.
//!
//! The central property: kill the process after **any byte prefix** of the
//! WAL has reached disk, reopen, and the recovered broker equals a
//! brute-force oracle that replays exactly the operations whose records
//! fully survived — across all five paper engines and shard counts
//! {1, 2, 7}, with zero resurrected expired/unsubscribed ids.
//!
//! The oracle is independent of the WAL implementation: the driver mirrors
//! the broker's logging rules (what gets logged, in what order, and how
//! many bytes each record takes), so a framing bug in the log itself shows
//! up as a sweep failure rather than being absorbed by a circular
//! read-back.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use pubsub_broker::{BrokerError, SharedBroker};
use pubsub_core::{EngineKind, MatchEngine};
use pubsub_durability::{
    CorruptionPolicy, DurabilityConfig, FsyncPolicy, WalOp, FAULT_APPEND, FAULT_FSYNC,
};
use pubsub_types::faults::{self, FaultAction, Schedule};
use pubsub_types::time::{LogicalTime, Validity};
use pubsub_types::{AttrId, Event, Operator, Subscription, SubscriptionId};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-durbrk-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes: u64::MAX, // single segment: simple byte accounting
        fsync: FsyncPolicy::OsManaged,
        corruption: CorruptionPolicy::Fail,
        snapshot_every_ops: 0,
    }
}

// ---- the driver and its oracle ---------------------------------------------

/// One step of a broker workload, in broker-API terms (not WAL terms).
#[derive(Debug, Clone)]
enum Cmd {
    /// Subscribe on attribute `key` = `val`, optionally with a second
    /// `AttrId(7) > val` predicate; `ttl == 0` means forever.
    Sub {
        key: u32,
        val: i64,
        extra: bool,
        ttl: u64,
    },
    /// Unsubscribe the `pick % ids.len()`-th id ever issued (may be a miss).
    Unsub { pick: usize },
    /// Advance the clock by one tick.
    Tick,
    /// Advance the clock by `dt` ticks (`dt == 0` is a logged no-op-shaped
    /// advance — it can still expire stale validities).
    Advance { dt: u64 },
    /// Intern an attribute name (logged only the first time).
    Intern { n: u8 },
}

fn build_sub(key: u32, val: i64, extra: bool) -> Subscription {
    let mut b = Subscription::builder().eq(AttrId(key % 6), val % 6);
    if extra {
        b = b.with(AttrId(7), Operator::Gt, val % 6);
    }
    b.build().unwrap()
}

/// Applies commands to a live durable broker while predicting, from the
/// broker's documented logging rules alone, the exact op sequence the WAL
/// must now contain.
#[derive(Default)]
struct Driver {
    logged: Vec<WalOp>,
    ids: Vec<SubscriptionId>,
    interned: HashSet<String>,
}

impl Driver {
    fn apply(&mut self, broker: &SharedBroker, cmd: &Cmd) {
        match cmd {
            Cmd::Sub {
                key,
                val,
                extra,
                ttl,
            } => {
                let sub = build_sub(*key, *val, *extra);
                let validity = if *ttl == 0 {
                    Validity::forever()
                } else {
                    Validity::until(broker.now().plus(*ttl))
                };
                let id = broker.try_subscribe(sub.clone(), validity).unwrap();
                self.logged.push(WalOp::Subscribe { id, sub, validity });
                self.ids.push(id);
            }
            Cmd::Unsub { pick } => {
                if self.ids.is_empty() {
                    return;
                }
                let id = self.ids[pick % self.ids.len()];
                if broker.try_unsubscribe(id).unwrap() {
                    self.logged.push(WalOp::Unsubscribe(id));
                }
            }
            Cmd::Tick => {
                let t = broker.now().plus(1);
                broker.try_tick().unwrap();
                self.logged.push(WalOp::AdvanceTo(t));
            }
            Cmd::Advance { dt } => {
                let t = broker.now().plus(*dt);
                broker.try_advance_to(t).unwrap();
                self.logged.push(WalOp::AdvanceTo(t));
            }
            Cmd::Intern { n } => {
                let name = format!("attr-{n}");
                broker.attr(&name);
                if self.interned.insert(name.clone()) {
                    self.logged.push(WalOp::InternAttr(name));
                }
            }
        }
    }
}

/// The brute-force state oracle: a map of live subscriptions plus the set
/// of ids that died (expired or unsubscribed), fed the surviving op prefix.
#[derive(Default)]
struct Model {
    now: LogicalTime,
    live: BTreeMap<u32, (Subscription, Validity)>,
    dead: BTreeSet<u32>,
}

impl Model {
    fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::InternAttr(_) | WalOp::InternString(_) => {}
            WalOp::Subscribe { id, sub, validity } => {
                self.live.insert(id.0, (sub.clone(), *validity));
            }
            WalOp::Unsubscribe(id) => {
                if self.live.remove(&id.0).is_some() {
                    self.dead.insert(id.0);
                }
            }
            WalOp::AdvanceTo(t) => {
                self.now = *t;
                let expired: Vec<u32> = self
                    .live
                    .iter()
                    .filter(|(_, (_, v))| v.until.is_some_and(|u| u <= *t))
                    .map(|(id, _)| *id)
                    .collect();
                for id in expired {
                    self.live.remove(&id);
                    self.dead.insert(id);
                }
            }
            // This suite drives only the subscription/clock surface; session
            // records have their own model in the net restart-resume sweep.
            WalOp::SessionCreate { .. }
            | WalOp::SessionBind { .. }
            | WalOp::SessionRelease { .. }
            | WalOp::SessionReap { .. } => {}
        }
    }
}

/// Events covering every subscription shape `build_sub` can produce.
fn probe_events() -> Vec<Event> {
    let mut events = Vec::new();
    for key in 0..6u32 {
        for val in 0..6i64 {
            events.push(Event::builder().pair(AttrId(key), val).build().unwrap());
            events.push(
                Event::builder()
                    .pair(AttrId(key), val)
                    .pair(AttrId(7), 5i64)
                    .build()
                    .unwrap(),
            );
        }
    }
    events
}

/// Reopens `dir` and checks the recovered broker against the oracle fed
/// `surviving`: clock, live id/validity sets, zero resurrections, and match
/// behaviour on the probe events.
fn check_recovery(dir: &Path, kind: EngineKind, shards: usize, surviving: &[WalOp]) {
    let mut model = Model::default();
    for op in surviving {
        model.apply(op);
    }
    let (broker, _report) = SharedBroker::open_durable_with(kind, shards, dir, config())
        .unwrap_or_else(|e| panic!("recovery failed ({} ops survive): {e}", surviving.len()));
    assert!(!broker.is_degraded());
    assert_eq!(broker.now(), model.now, "clock after recovery");
    assert_eq!(
        broker.subscription_count(),
        model.live.len(),
        "live count after recovery"
    );

    let mut got: Vec<(u32, Validity)> = Vec::new();
    broker.for_each_live_subscription(|id, _, v| got.push((id.0, v)));
    got.sort_by_key(|(id, _)| *id);
    let want: Vec<(u32, Validity)> = model.live.iter().map(|(id, (_, v))| (*id, *v)).collect();
    assert_eq!(got, want, "live (id, validity) set after recovery");

    for id in &model.dead {
        assert!(
            model.live.contains_key(id) || got.iter().all(|(live, _)| live != id),
            "dead id {id} resurrected by recovery"
        );
    }

    let mut oracle = EngineKind::BruteForce.build();
    for (id, (sub, _)) in &model.live {
        oracle.insert(SubscriptionId(*id), sub);
    }
    oracle.finalize();
    for event in probe_events() {
        let recovered = broker.publish(&event);
        let mut expected = Vec::new();
        oracle.match_event(&event, &mut expected);
        expected.sort_unstable();
        assert_eq!(recovered, expected, "match set diverged on {event:?}");
    }
}

/// Drives `cmds` against a fresh durable broker in `dir`, then sweeps
/// truncation cuts over the resulting single-segment WAL: every record
/// boundary, the header edges, and 64 deterministic intra-record offsets.
fn run_kill_sweep(kind: EngineKind, shards: usize, cmds: &[Cmd]) {
    let dir = temp_dir(&format!("sweep-{}-{shards}", kind.label()));
    let (broker, _) = SharedBroker::open_durable_with(kind, shards, &dir, config()).unwrap();
    let mut driver = Driver::default();
    for cmd in cmds {
        driver.apply(&broker, cmd);
    }
    drop(broker);

    let seg = dir.join("wal-00000000000000000000.log");
    let pristine = fs::read(&seg).unwrap();
    // Predicted record boundaries: 16-byte segment header, then each op's
    // framed record. The final boundary must equal the real file size — the
    // driver's byte accounting is itself under test here.
    let mut boundaries = Vec::new();
    let mut off = 16u64;
    for op in &driver.logged {
        off += op.to_record().len() as u64;
        boundaries.push(off);
    }
    assert_eq!(
        off,
        pristine.len() as u64,
        "predicted log size diverges from the file ({} {shards})",
        kind.label()
    );

    let mut cuts: BTreeSet<u64> = boundaries.iter().copied().collect();
    cuts.extend([0, 7, 16]); // torn/truncated segment header edges
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((shards as u64) << 8) ^ boundaries.len() as u64;
    for _ in 0..64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        cuts.insert(16 + rng % (pristine.len() as u64 - 16));
    }

    for cut in cuts {
        fs::write(&seg, &pristine).unwrap();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let survived = if cut < 16 {
            0 // segment header torn: the whole segment is discarded
        } else {
            boundaries.iter().filter(|&&b| b <= cut).count()
        };
        check_recovery(&dir, kind, shards, &driver.logged[..survived]);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A fixed, shape-diverse workload: every op kind, expiring and immortal
/// validities, unsubscribe hits and misses, duplicate interning.
fn scripted_cmds() -> Vec<Cmd> {
    let mut cmds = Vec::new();
    for i in 0..28usize {
        cmds.push(match i % 7 {
            0 => Cmd::Sub {
                key: i as u32,
                val: i as i64,
                extra: i % 2 == 0,
                ttl: (i as u64 % 4), // 0 = forever
            },
            1 => Cmd::Intern { n: (i % 3) as u8 },
            2 => Cmd::Sub {
                key: (i + 3) as u32,
                val: (i + 1) as i64,
                extra: false,
                ttl: 2,
            },
            3 => Cmd::Tick,
            4 => Cmd::Unsub { pick: i / 2 },
            5 => Cmd::Advance { dt: (i as u64) % 3 },
            _ => Cmd::Sub {
                key: i as u32,
                val: (i / 2) as i64,
                extra: true,
                ttl: 0,
            },
        });
    }
    cmds
}

#[test]
fn kill_at_any_byte_recovers_across_all_engines_and_shard_counts() {
    for kind in EngineKind::PAPER_ENGINES {
        for shards in [1usize, 2, 7] {
            run_kill_sweep(kind, shards, &scripted_cmds());
        }
    }
}

/// Recovery is shard-count independent: a log written under one partition
/// width must rebuild the identical subscription set under any other,
/// because ids carry their own shard identity (`id mod N`).
#[test]
fn recovery_survives_shard_count_changes() {
    let dir = temp_dir("reshard");
    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Dynamic, 2, &dir, config()).unwrap();
    let mut driver = Driver::default();
    for cmd in scripted_cmds() {
        driver.apply(&broker, &cmd);
    }
    drop(broker);
    for shards in [1usize, 2, 7] {
        check_recovery(&dir, EngineKind::Counting, shards, &driver.logged);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// An expired subscription's id must not come back when a new subscriber
/// arrives after recovery: the id space only ever moves forward, including
/// across a crash that wiped the in-memory cursor.
#[test]
fn recovered_broker_never_reissues_dead_ids() {
    let dir = temp_dir("no-reissue");
    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 2, &dir, config()).unwrap();
    let sub = build_sub(1, 1, false);
    let expiring = broker
        .try_subscribe(sub.clone(), Validity::until(LogicalTime(1)))
        .unwrap();
    let removed = broker
        .try_subscribe(sub.clone(), Validity::forever())
        .unwrap();
    broker.try_advance_to(LogicalTime(2)).unwrap(); // expires `expiring`
    assert!(broker.try_unsubscribe(removed).unwrap());
    // Snapshot, so the dead ids are absent from the durable state and only
    // the high-water mark can protect them.
    broker.snapshot().unwrap();
    drop(broker);

    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 2, &dir, config()).unwrap();
    let mut reissued = Vec::new();
    for _ in 0..8 {
        reissued.push(
            broker
                .try_subscribe(sub.clone(), Validity::forever())
                .unwrap(),
        );
    }
    assert!(
        !reissued.contains(&expiring) && !reissued.contains(&removed),
        "dead ids {expiring:?}/{removed:?} reissued: {reissued:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

// ---- randomised sweep (proptest) -------------------------------------------

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0u32..6, 0i64..6, any::<bool>(), 0u64..5).prop_map(|(key, val, extra, ttl)| {
            Cmd::Sub { key, val, extra, ttl }
        }),
        2 => (0usize..32).prop_map(|pick| Cmd::Unsub { pick }),
        2 => Just(Cmd::Tick),
        1 => (0u64..3).prop_map(|dt| Cmd::Advance { dt }),
        1 => (0u8..5).prop_map(|n| Cmd::Intern { n }),
    ]
}

fn arb_engine() -> impl Strategy<Value = EngineKind> {
    prop::sample::select(EngineKind::PAPER_ENGINES.to_vec())
}

proptest! {
    /// Random workloads, random engine, random shard count, and a cut drawn
    /// uniformly from the file (so across cases both record boundaries and
    /// intra-record offsets are hit). Each case also verifies the driver's
    /// byte accounting against the real file, via `run`'s assertion.
    #[test]
    fn random_workload_survives_a_random_cut(
        cmds in prop::collection::vec(arb_cmd(), 1..40),
        kind in arb_engine(),
        shards in prop::sample::select(vec![1usize, 2, 7]),
        cut_seed in 0u64..u64::MAX,
    ) {
        let dir = temp_dir(&format!("prop-{cut_seed}"));
        let (broker, _) = SharedBroker::open_durable_with(
            kind, shards, &dir, config(),
        ).unwrap();
        let mut driver = Driver::default();
        for cmd in &cmds {
            driver.apply(&broker, cmd);
        }
        drop(broker);

        let seg = dir.join("wal-00000000000000000000.log");
        let pristine = fs::read(&seg).unwrap();
        let mut boundaries = Vec::new();
        let mut off = 16u64;
        for op in &driver.logged {
            off += op.to_record().len() as u64;
            boundaries.push(off);
        }
        prop_assert_eq!(off, pristine.len() as u64, "driver byte accounting");

        let cut = cut_seed % (pristine.len() as u64 + 1);
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let survived = if cut < 16 {
            0
        } else {
            boundaries.iter().filter(|&&b| b <= cut).count()
        };
        check_recovery(&dir, kind, shards, &driver.logged[..survived]);
        fs::remove_dir_all(&dir).unwrap();
    }
}

// ---- degraded mode under injected faults -----------------------------------

/// A failed WAL append degrades the broker: the op is not applied, further
/// mutations fail with `BrokerError::Degraded`, matching keeps working, and
/// reopening the directory recovers cleanly without the failed op.
#[test]
fn append_failure_degrades_to_read_only() {
    if !faults::enabled() {
        eprintln!("skipping: pubsub-types/faults feature is off");
        return;
    }
    let dir = temp_dir("degrade-append");
    faults::clear();
    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Dynamic, 2, &dir, config()).unwrap();
    let sub = build_sub(2, 3, false);
    let id = broker
        .try_subscribe(sub.clone(), Validity::forever())
        .unwrap();
    let event = Event::builder().pair(AttrId(2), 3i64).build().unwrap();
    assert_eq!(broker.publish(&event), vec![id]);

    faults::arm(FAULT_APPEND, None, FaultAction::Fail, Schedule::Nth(1));
    let err = broker
        .try_subscribe(sub.clone(), Validity::forever())
        .unwrap_err();
    assert!(matches!(err, BrokerError::Degraded(_)), "got {err}");
    faults::clear();

    // Sticky: the fault is gone but the broker stays read-only.
    assert!(broker.is_degraded());
    assert!(broker.degraded_cause().is_some());
    assert!(matches!(
        broker.try_subscribe(sub.clone(), Validity::forever()),
        Err(BrokerError::Degraded(_))
    ));
    assert!(matches!(
        broker.try_unsubscribe(id),
        Err(BrokerError::Degraded(_))
    ));
    assert!(matches!(broker.try_tick(), Err(BrokerError::Degraded(_))));
    assert!(matches!(broker.snapshot(), Err(BrokerError::Degraded(_))));
    let status = broker.durability().unwrap();
    assert!(status.degraded);

    // Matching is unaffected: reads don't touch durable state.
    assert_eq!(broker.publish(&event), vec![id]);
    assert_eq!(
        broker.subscription_count(),
        1,
        "failed op was never applied"
    );
    drop(broker);

    // Recovery heals: the torn append is truncated away and the state is
    // exactly the acknowledged prefix.
    let (broker, report) =
        SharedBroker::open_durable_with(EngineKind::Dynamic, 2, &dir, config()).unwrap();
    assert!(
        report.torn_tail_truncated.is_some(),
        "torn record truncated"
    );
    assert!(!broker.is_degraded());
    assert_eq!(broker.subscription_count(), 1);
    assert_eq!(broker.publish(&event), vec![id]);
    broker.try_subscribe(sub, Validity::forever()).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// A failed fsync under `FsyncPolicy::Always` also degrades (the append
/// cannot vouch for durability), without panicking.
#[test]
fn fsync_failure_degrades_to_read_only() {
    if !faults::enabled() {
        eprintln!("skipping: pubsub-types/faults feature is off");
        return;
    }
    let dir = temp_dir("degrade-fsync");
    faults::clear();
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        ..config()
    };
    let (broker, _) = SharedBroker::open_durable_with(EngineKind::Counting, 1, &dir, cfg).unwrap();
    faults::arm(FAULT_FSYNC, None, FaultAction::Fail, Schedule::Nth(1));
    let err = broker
        .try_subscribe(build_sub(0, 0, false), Validity::forever())
        .unwrap_err();
    faults::clear();
    assert!(matches!(err, BrokerError::Degraded(_)), "got {err}");
    assert!(broker.is_degraded());
    fs::remove_dir_all(&dir).unwrap();
}

/// A failed snapshot write leaves the broker writable: every logged op is
/// still durable, only compaction was lost. Explicitly not degraded.
#[test]
fn snapshot_failure_is_not_fatal() {
    if !faults::enabled() {
        eprintln!("skipping: pubsub-types/faults feature is off");
        return;
    }
    let dir = temp_dir("snap-fail");
    faults::clear();
    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 1, &dir, config()).unwrap();
    broker
        .try_subscribe(build_sub(1, 2, false), Validity::forever())
        .unwrap();
    faults::arm(
        pubsub_durability::FAULT_SNAPSHOT,
        None,
        FaultAction::Fail,
        Schedule::Nth(1),
    );
    let err = broker.snapshot().unwrap_err();
    faults::clear();
    assert!(matches!(err, BrokerError::Snapshot(_)), "got {err}");
    assert!(!broker.is_degraded(), "snapshot failure must not degrade");
    broker
        .try_subscribe(build_sub(1, 3, false), Validity::forever())
        .unwrap();
    broker.snapshot().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}
