//! Socket-level leader/follower replication: a real [`Server`] serving its
//! WAL to a real [`Follower`] over loopback TCP — continuous streaming,
//! snapshot catch-up past compacted history, staleness on a dead leader,
//! and failover promotion with subscription ids preserved.

use pubsub_broker::{BrokerError, SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_durability::{CorruptionPolicy, DurabilityConfig, FsyncPolicy};
use pubsub_net::{
    Client, Follower, FollowerConfig, Server, ServerConfig, WirePredicate, WireValue,
};
use pubsub_types::{Event, Operator, Predicate, Subscription, Value};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-replnet-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(segment_bytes: u64) -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes,
        fsync: FsyncPolicy::OsManaged,
        corruption: CorruptionPolicy::Fail,
        snapshot_every_ops: 0,
    }
}

/// Server tuned for test latencies: tail polls every few milliseconds.
fn server_config() -> ServerConfig {
    ServerConfig {
        repl_poll: Duration::from_millis(3),
        ..ServerConfig::default()
    }
}

/// Follower tuned for test latencies: fast redials, short staleness
/// deadline so a dead leader is noticed within the test budget.
fn follower_config() -> FollowerConfig {
    FollowerConfig {
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
        degraded_after: Duration::from_millis(300),
        connect_timeout: Duration::from_millis(500),
        ..FollowerConfig::default()
    }
}

fn eq_pred(attr: &str, value: i64) -> WirePredicate {
    WirePredicate {
        attr: attr.into(),
        op: Operator::Eq,
        value: WireValue::Int(value),
    }
}

fn wait_until(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + budget;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Waits until the follower has heard a leader position and applied
/// everything up to it.
fn wait_caught_up(follower: &Follower) {
    assert!(
        wait_until(Duration::from_secs(10), || {
            let s = follower.status();
            s.lag == Some(0)
        }),
        "follower never caught up: {:?}",
        follower.status()
    );
}

fn durable_leader(dir: &PathBuf, segment_bytes: u64) -> (Arc<SharedBroker>, Server) {
    let (broker, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 2, dir, wal_config(segment_bytes))
            .unwrap();
    let broker = Arc::new(broker);
    let server = Server::start_with(Arc::clone(&broker), "127.0.0.1:0", server_config()).unwrap();
    (broker, server)
}

fn start_follower(dir: &PathBuf, server: &Server) -> (Arc<SharedBroker>, Follower) {
    let (broker, _) =
        SharedBroker::open_follower(EngineKind::Counting, 2, dir, wal_config(u64::MAX)).unwrap();
    let broker = Arc::new(broker);
    let follower =
        Follower::start(Arc::clone(&broker), server.local_addr(), follower_config()).unwrap();
    (broker, follower)
}

/// How many subscriptions `k == value` matches on `broker`, resolving the
/// attribute through the replicated (or leader) vocabulary. An unknown
/// attribute matches nothing by construction.
fn probe(broker: &SharedBroker, value: i64) -> usize {
    match broker.lookup_attr("k") {
        Some(attr) => {
            let event = Event::from_pairs(vec![(attr, Value::Int(value))]).unwrap();
            broker.publish(&event).len()
        }
        None => 0,
    }
}

#[test]
fn follower_tails_leader_and_failover_promotes() {
    let dir_l = temp_dir("lead-tail");
    let dir_f = temp_dir("fol-tail");
    let (leader, server) = durable_leader(&dir_l, u64::MAX);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id1 = client.subscribe(vec![eq_pred("k", 1)]).unwrap();
    let id2 = client.subscribe(vec![eq_pred("k", 2)]).unwrap();

    let (fbroker, follower) = start_follower(&dir_f, &server);
    wait_caught_up(&follower);

    // The replica matches exactly like the leader, via the replicated
    // vocabulary — no local interning happened on the follower.
    assert_eq!(probe(&fbroker, 1), 1);
    assert_eq!(probe(&fbroker, 2), 1);
    assert_eq!(probe(&fbroker, 3), 0);

    // Live streaming: a subscribe on the leader shows up on the replica.
    let id3 = client.subscribe(vec![eq_pred("k", 3)]).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || probe(&fbroker, 3) == 1),
        "live subscribe never replicated"
    );

    // The follower is read-only until promoted.
    let attr = fbroker.lookup_attr("k").unwrap();
    let sub =
        Subscription::from_predicates(vec![Predicate::new(attr, Operator::Eq, Value::Int(9))])
            .unwrap();
    assert!(matches!(
        fbroker.try_subscribe(sub.clone(), Validity::forever()),
        Err(BrokerError::Follower)
    ));

    // Kill the leader. The follower loses the stream, keeps serving the
    // last replicated state, and flips stale past the deadline.
    drop(client);
    server.shutdown();
    drop(server);
    drop(leader);
    assert!(
        wait_until(Duration::from_secs(10), || follower.status().stale),
        "stale flag never flipped after leader death: {:?}",
        follower.status()
    );
    assert_eq!(probe(&fbroker, 1), 1, "stale follower still serves matches");

    // Failover: promote, become writable, never reissue a dead id.
    let next = follower.promote().unwrap();
    assert_eq!(next, fbroker.durability().unwrap().next_lsn);
    let status = follower.status();
    assert!(status.promoted);
    assert!(!status.stale, "promotion ends staleness");
    let new_id = fbroker.try_subscribe(sub, Validity::forever()).unwrap();
    for dead in [id1, id2, id3] {
        assert_ne!(new_id.0, dead, "promoted broker resurrected id {dead}");
    }
    assert_eq!(probe(&fbroker, 9), 1, "promoted broker accepts writes");
}

#[test]
fn snapshot_catchup_bridges_compacted_history_over_sockets() {
    let dir_l = temp_dir("lead-snap");
    let dir_f = temp_dir("fol-snap");
    // Tiny segments so compaction actually retires history.
    let (leader, server) = durable_leader(&dir_l, 256);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut ids = Vec::new();
    for i in 0..40i64 {
        ids.push(client.subscribe(vec![eq_pred("k", i % 7)]).unwrap());
    }
    for id in ids.iter().step_by(3) {
        assert!(client.unsubscribe(*id).unwrap());
    }
    // Compact: history before the snapshot is gone from the log, so a
    // fresh follower must come up via snapshot transfer.
    leader.snapshot().unwrap();
    for i in 0..5i64 {
        client.subscribe(vec![eq_pred("k", 10 + i)]).unwrap();
    }

    let (fbroker, follower) = start_follower(&dir_f, &server);
    wait_caught_up(&follower);
    for v in 0..16 {
        assert_eq!(
            probe(&fbroker, v),
            probe(&leader, v),
            "replica diverges from leader at k == {v}"
        );
    }

    // Stop the stream, write more on the leader, restart a follower over
    // the same directory: it resumes from its own position, no snapshot
    // needed this time.
    follower.stop();
    drop(follower);
    client.subscribe(vec![eq_pred("k", 20)]).unwrap();
    let follower =
        Follower::start(Arc::clone(&fbroker), server.local_addr(), follower_config()).unwrap();
    wait_caught_up(&follower);
    assert_eq!(
        probe(&fbroker, 20),
        1,
        "restarted follower resumed streaming"
    );
    server.shutdown();
}

#[test]
fn replication_requires_a_durable_leader() {
    // A non-durable server refuses ReplHello; the follower keeps retrying
    // (the condition is operational), stays unsynced, and reports it.
    let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
    let server = Server::start_with(Arc::clone(&broker), "127.0.0.1:0", server_config()).unwrap();
    let dir_f = temp_dir("fol-nodur");
    let (fbroker, follower) = start_follower(&dir_f, &server);
    thread::sleep(Duration::from_millis(200));
    let status = follower.status();
    assert_eq!(status.lag, None, "no leader position was ever announced");
    assert_eq!(fbroker.durability().unwrap().next_lsn, 0);
    server.shutdown();
}
