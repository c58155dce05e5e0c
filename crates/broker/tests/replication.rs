//! Leader/follower replication at the broker level, including the
//! kill-the-leader chaos sweep.
//!
//! The headline property: cut the leader's log at **every record boundary
//! and mid-record** (the follower's view of a leader killed at an arbitrary
//! byte), replicate what survives into a follower, promote it, and the
//! promoted broker must equal a brute-force oracle — here, crash *recovery*
//! over the same truncated log, whose equivalence to the acked-op prefix is
//! already pinned byte-by-byte by `tests/durability.rs`. On top of state
//! equality: a freshly issued post-promotion id must never resurrect an id
//! the dead leader already handed out.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use pubsub_broker::{BrokerError, SharedBroker};
use pubsub_core::EngineKind;
use pubsub_durability::replication::{self, TailChunk};
use pubsub_durability::{CorruptionPolicy, DurabilityConfig, FsyncPolicy, WalOp};
use pubsub_types::time::{LogicalTime, Validity};
use pubsub_types::{AttrId, Event, SubscriptionId, Value};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-replbrk-{}-{name}", std::process::id()));
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

/// Tails `src` into `follower` until caught up (or the tail is incomplete),
/// installing a catch-up snapshot when the position predates the oldest
/// retained segment. Returns every record payload applied.
fn sync_follower(src: &Path, follower: &SharedBroker) -> Vec<Vec<u8>> {
    let mut applied = Vec::new();
    let mut pos = follower.durability().unwrap().next_lsn;
    loop {
        match replication::read_tail(src, pos, 64 * 1024).unwrap() {
            TailChunk::Records {
                first_lsn,
                payloads,
                ..
            } => {
                assert_eq!(first_lsn, pos, "stream is dense");
                pos = follower.apply_replicated(first_lsn, &payloads).unwrap();
                applied.extend(payloads);
            }
            TailChunk::SnapshotRequired { snapshot_lsn } => {
                let (lsn, bytes) = replication::snapshot_for_catchup(src)
                    .unwrap()
                    .expect("a snapshot must exist when one is demanded");
                assert_eq!(lsn, snapshot_lsn);
                follower.install_replicated_snapshot(lsn, &bytes).unwrap();
                pos = lsn;
            }
            TailChunk::CaughtUp { .. } | TailChunk::Incomplete { .. } => break,
        }
    }
    applied
}

/// A battery of probe events covering every attribute/value the workload
/// uses; two brokers that answer all probes identically (plus equal counts
/// and clocks) hold the same subscription set.
fn probes() -> Vec<Event> {
    let mut out = Vec::new();
    for a in 0..8u32 {
        for v in 0..6i64 {
            out.push(Event::builder().pair(AttrId(a), v).build().unwrap());
        }
    }
    out
}

fn assert_same_state(promoted: &SharedBroker, oracle: &SharedBroker, ctx: &str) {
    assert_eq!(
        promoted.subscription_count(),
        oracle.subscription_count(),
        "{ctx}: subscription count"
    );
    assert_eq!(promoted.now(), oracle.now(), "{ctx}: clock");
    assert_eq!(
        promoted.read_vocab(|v| (v.attrs.universe(), v.strings.len())),
        oracle.read_vocab(|v| (v.attrs.universe(), v.strings.len())),
        "{ctx}: vocabulary"
    );
    for (i, event) in probes().iter().enumerate() {
        assert_eq!(
            promoted.publish(event),
            oracle.publish(event),
            "{ctx}: probe {i}"
        );
    }
}

/// Drives a leader through a mixed workload: subscribes (some expiring),
/// unsubscribes, clock advances, and vocabulary interning.
fn run_leader_workload(leader: &SharedBroker) -> Vec<SubscriptionId> {
    let mut ids = Vec::new();
    for i in 0..40i64 {
        if i % 3 == 0 {
            leader.attr(&format!("name{}", i % 7));
        }
        if i % 6 == 0 {
            leader.string(&format!("val{}", i % 5));
        }
        let sub = Subscription::builder()
            .eq(AttrId((i % 5) as u32), i % 4)
            .build()
            .unwrap();
        let validity = if i % 3 == 1 {
            Validity::until(leader.now().plus(3))
        } else {
            Validity::forever()
        };
        ids.push(leader.try_subscribe(sub, validity).unwrap());
        if i % 5 == 4 {
            let _ = leader.try_unsubscribe(ids[(i as usize) / 2]).unwrap();
        }
        if i % 4 == 3 {
            leader.try_tick().unwrap();
        }
    }
    ids
}

use pubsub_types::Subscription;

#[test]
fn kill_the_leader_sweep_matches_recovery_oracle_at_every_cut() {
    let leader_dir = temp_dir("sweep-leader");
    let (leader, _) =
        SharedBroker::open_durable_with(EngineKind::Dynamic, 2, &leader_dir, config()).unwrap();
    run_leader_workload(&leader);
    drop(leader);

    let seg = replication::segment_paths(&leader_dir)
        .unwrap()
        .pop()
        .unwrap();
    let seg_name = seg.file_name().unwrap().to_owned();
    let full = fs::read(&seg).unwrap();

    // Cut points: inside the segment header, then for every record a cut
    // inside its header, one mid-payload, and one at its end boundary.
    let mut cuts: Vec<usize> = vec![0, 9, 16];
    let mut o = 16usize;
    while o < full.len() {
        let len = u32::from_le_bytes(full[o..o + 4].try_into().unwrap()) as usize;
        cuts.push(o + 4); // torn record header
        cuts.push(o + 8 + len / 2); // torn payload
        o += 8 + len;
        cuts.push(o); // clean boundary
    }
    assert_eq!(o, full.len());
    assert!(cuts.len() > 100, "the sweep must cover a real workload");

    for &cut in &cuts {
        let ctx = format!("cut at byte {cut}");
        let src_dir = temp_dir("sweep-src");
        fs::write(src_dir.join(&seg_name), &full[..cut]).unwrap();

        // The follower replicates what survives the cut, then takes over.
        let follower_dir = temp_dir("sweep-follower");
        let (follower, _) =
            SharedBroker::open_follower(EngineKind::Dynamic, 3, &follower_dir, config()).unwrap();
        let applied = sync_follower(&src_dir, &follower);
        let promoted_next = follower.promote().unwrap();
        assert!(!follower.is_follower(), "{ctx}: promotion flips the role");
        assert_eq!(promoted_next, applied.len() as u64, "{ctx}: log position");

        // The oracle: crash recovery over the same truncated log (already
        // pinned to equal the acked prefix by the durability sweep). Note
        // the differing shard counts — ids carry their own identity.
        let (oracle, _) =
            SharedBroker::open_durable_with(EngineKind::Counting, 3, &src_dir, config()).unwrap();
        assert_same_state(&follower, &oracle, &ctx);

        // Zero id resurrection: the first post-promotion id equals the
        // oracle's (same high-water) and names no subscription the dead
        // leader ever issued in the surviving prefix.
        let issued: BTreeSet<SubscriptionId> = applied
            .iter()
            .map(|p| WalOp::decode(p).unwrap())
            .filter_map(|op| match op {
                WalOp::Subscribe { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let fresh_sub = Subscription::builder()
            .eq(AttrId(0), Value::Int(0))
            .build()
            .unwrap();
        let follower_id = follower
            .try_subscribe(fresh_sub.clone(), Validity::forever())
            .unwrap();
        let oracle_id = oracle
            .try_subscribe(fresh_sub, Validity::forever())
            .unwrap();
        assert_eq!(follower_id, oracle_id, "{ctx}: id high-water preserved");
        assert!(
            !issued.contains(&follower_id),
            "{ctx}: fresh id {follower_id:?} resurrects a dead leader's id"
        );

        fs::remove_dir_all(&src_dir).unwrap();
        fs::remove_dir_all(&follower_dir).unwrap();
    }
    fs::remove_dir_all(&leader_dir).unwrap();
}

#[test]
fn snapshot_catchup_bridges_compacted_history_and_streaming_resumes() {
    let leader_dir = temp_dir("catchup-leader");
    let config = DurabilityConfig {
        segment_bytes: 128, // force many small segments so compaction bites
        ..config()
    };
    let (leader, _) =
        SharedBroker::open_durable_with(EngineKind::Dynamic, 2, &leader_dir, config).unwrap();
    run_leader_workload(&leader);
    // Snapshot + compact: the early segments vanish, so a follower starting
    // at LSN 0 can only catch up via the snapshot.
    leader.snapshot().unwrap();
    assert_eq!(
        replication::segment_paths(&leader_dir).unwrap().len(),
        1,
        "compaction retired the covered segments"
    );
    // Keep writing after the snapshot so the follower also streams records.
    let post_sub = Subscription::builder().eq(AttrId(1), 1i64).build().unwrap();
    leader.try_subscribe(post_sub, Validity::forever()).unwrap();
    leader.try_tick().unwrap();

    let follower_dir = temp_dir("catchup-follower");
    let (follower, _) =
        SharedBroker::open_follower(EngineKind::Dynamic, 2, &follower_dir, config).unwrap();
    let applied = sync_follower(&leader_dir, &follower);
    assert!(
        !applied.is_empty(),
        "records past the snapshot must stream normally"
    );
    assert_eq!(
        follower.durability().unwrap().next_lsn,
        leader.durability().unwrap().next_lsn,
        "follower caught up to the leader's log position"
    );
    assert_same_state(&follower, &leader, "after catch-up");

    // The replica survives its own restart: reopening the follower
    // directory recovers from the installed snapshot plus streamed tail.
    drop(follower);
    let (follower, _) =
        SharedBroker::open_follower(EngineKind::Dynamic, 2, &follower_dir, config).unwrap();
    assert_same_state(&follower, &leader, "after follower restart");

    fs::remove_dir_all(&leader_dir).unwrap();
    fs::remove_dir_all(&follower_dir).unwrap();
}

#[test]
fn follower_refuses_local_mutations_until_promoted() {
    let dir = temp_dir("readonly");
    let (follower, _) =
        SharedBroker::open_follower(EngineKind::Counting, 2, &dir, config()).unwrap();
    assert!(follower.is_follower());
    assert!(follower.durability().unwrap().follower);

    let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
    assert_eq!(
        follower.try_subscribe(sub.clone(), Validity::forever()),
        Err(BrokerError::Follower)
    );
    assert_eq!(
        follower.try_unsubscribe(SubscriptionId(0)),
        Err(BrokerError::Follower)
    );
    assert_eq!(follower.try_tick(), Err(BrokerError::Follower));
    assert_eq!(
        follower.try_advance_to(LogicalTime(5)),
        Err(BrokerError::Follower)
    );
    assert!(matches!(follower.snapshot(), Err(BrokerError::Follower)));

    // Matching stays available (read-only): an empty replica matches nothing,
    // and name resolution is lookup-only.
    let event = Event::builder().pair(AttrId(0), 1i64).build().unwrap();
    assert!(follower.publish(&event).is_empty());
    assert_eq!(follower.lookup_attr("price"), None);

    // Replicate an interning and a subscription, then the lookups resolve.
    let mut payloads = Vec::new();
    for op in [
        WalOp::InternAttr("price".into()),
        WalOp::InternString("nyse".into()),
        WalOp::Subscribe {
            id: SubscriptionId(0),
            sub: sub.clone(),
            validity: Validity::forever(),
        },
    ] {
        let mut p = Vec::new();
        op.encode(&mut p);
        payloads.push(p);
    }
    assert_eq!(follower.apply_replicated(0, &payloads), Ok(3));
    assert_eq!(follower.lookup_attr("price"), Some(AttrId(0)));
    assert!(follower.lookup_string("nyse").is_some());
    assert_eq!(follower.publish(&event), vec![SubscriptionId(0)]);

    // A batch that does not start at the append position is a divergence:
    // refused atomically, nothing applied.
    assert_eq!(
        follower.apply_replicated(7, &payloads),
        Err(BrokerError::ReplicationGap {
            expected: 3,
            got: 7
        })
    );
    // An undecodable payload is damage, not data.
    assert!(matches!(
        follower.apply_replicated(3, &[vec![0xFF, 0xFF]]),
        Err(BrokerError::Replication(_))
    ));

    // Promotion unlocks writes; a second promotion is meaningless.
    follower.promote().unwrap();
    assert!(!follower.is_follower());
    follower.try_subscribe(sub, Validity::forever()).unwrap();
    assert_eq!(follower.promote(), Err(BrokerError::NotFollower));
    assert_eq!(
        follower.apply_replicated(0, &[]),
        Err(BrokerError::NotFollower)
    );
    assert!(
        !replication::is_follower_dir(&dir),
        "promotion clears the marker"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// `with_vocab` refuses a follower before its closure runs, so a closure
/// that interns cannot fork the replica's vocabulary on its way to the
/// panic.
#[test]
fn with_vocab_refuses_a_follower_before_interning() {
    let dir = temp_dir("with-vocab");
    let (follower, _) =
        SharedBroker::open_follower(EngineKind::Counting, 1, &dir, config()).unwrap();
    let universe = || follower.read_vocab(|v| (v.attrs.universe(), v.strings.len()));
    let before = universe();
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        follower.with_vocab(|v| v.attr("zzz"))
    }))
    .expect_err("with_vocab on a follower must panic");
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(message.contains("would fork its vocabulary"), "{message}");
    assert_eq!(universe(), before, "nothing interned");
    assert_eq!(follower.lookup_attr("zzz"), None);
    drop(follower);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_durable_history_is_refused_but_follower_dirs_reopen() {
    let dir = temp_dir("foreign");
    // A plain durable broker writes real history…
    let (plain, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 1, &dir, config()).unwrap();
    let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
    plain.try_subscribe(sub, Validity::forever()).unwrap();
    drop(plain);

    // …which a follower open must refuse to adopt.
    match SharedBroker::open_follower(EngineKind::Counting, 1, &dir, config()) {
        Err(BrokerError::ForeignHistory(d)) => assert_eq!(d, dir),
        other => panic!("expected ForeignHistory, got {other:?}"),
    }

    // A genuine follower directory reopens across restarts.
    let fdir = temp_dir("foreign-follower");
    let (f, _) = SharedBroker::open_follower(EngineKind::Counting, 1, &fdir, config()).unwrap();
    let mut p = Vec::new();
    WalOp::AdvanceTo(LogicalTime(2)).encode(&mut p);
    f.apply_replicated(0, &[p]).unwrap();
    drop(f);
    let (f, _) = SharedBroker::open_follower(EngineKind::Counting, 1, &fdir, config()).unwrap();
    assert_eq!(f.now(), LogicalTime(2));
    assert_eq!(f.durability().unwrap().next_lsn, 1);

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&fdir).unwrap();
}
