//! Crash-durable sessions: resume survives a **server restart** and a
//! **failover promotion**.
//!
//! The headline sweep extends the reconnect suite's cut-anywhere harness
//! from killing a *connection* to killing the *process*: deliver exactly
//! `cut` bytes of a pre-encoded op stream to a durable server, tear the
//! whole server down, reopen the WAL directory, and resume the session by
//! its original token. The resumed state must equal a brute-force oracle
//! of the acked prefix — exactly the surviving subscription ids, zero
//! ghost registrations (`net_subscriptions`), zero orphaned broker
//! subscriptions (`subscription_count` vs the session rows) — and
//! post-resume deliveries must match paper-semantics brute force.
//!
//! The failover sweep holds the same invariants when the restart is a
//! *promotion*: the leader dies, a live replica is promoted, and clients
//! resume on the replica with their original tokens — the session table
//! travelled the replication stream, not just the local log.
//!
//! Set `FP_SWEEP_STRIDE=n` to run every n-th cut (CI knob; default 1).

use pubsub_broker::{SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_durability::{CorruptionPolicy, DurabilityConfig, FsyncPolicy};
use pubsub_net::{
    Ack, Client, Follower, FollowerConfig, Frame, FrameReader, Server, ServerConfig, WireEvent,
    WirePredicate, WireValue, NEW_SESSION, PROTOCOL_VERSION,
};
use pubsub_types::{Operator, Predicate, Subscription, SubscriptionId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const ATTRS: [&str; 5] = ["price", "venue", "qty", "side", "tier"];
const OPS: [Operator; 6] = [
    Operator::Lt,
    Operator::Le,
    Operator::Eq,
    Operator::Ne,
    Operator::Ge,
    Operator::Gt,
];

type Pred = (&'static str, Operator, i64);

enum Op {
    Sub(Vec<Pred>),
    /// Unsubscribe the id returned by the `k`-th `Sub` op.
    Unsub(usize),
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-restart-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config() -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes: u64::MAX,
        fsync: FsyncPolicy::OsManaged,
        corruption: CorruptionPolicy::Fail,
        snapshot_every_ops: 0,
    }
}

/// CI knob: run every n-th cut of each sweep (default: all of them).
fn stride() -> usize {
    std::env::var("FP_SWEEP_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn cmp(event_value: i64, op: Operator, pred_value: i64) -> bool {
    match op {
        Operator::Lt => event_value < pred_value,
        Operator::Le => event_value <= pred_value,
        Operator::Eq => event_value == pred_value,
        Operator::Ne => event_value != pred_value,
        Operator::Ge => event_value >= pred_value,
        Operator::Gt => event_value > pred_value,
    }
}

/// Brute-force conjunction semantics, straight from the paper.
fn matches(preds: &[Pred], event: &[(&'static str, i64)]) -> bool {
    preds.iter().all(|(attr, op, value)| {
        event
            .iter()
            .find(|(a, _)| a == attr)
            .is_some_and(|(_, ev)| cmp(*ev, *op, *value))
    })
}

/// Same deterministic mixed workload as the reconnect sweep: 8 ops,
/// subscribes with 1–2 predicates, interleaved unsubscribes.
fn build_ops(rng: &mut SmallRng) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut subs = 0usize;
    for i in 0..8 {
        if i > 0 && !live.is_empty() && rng.gen_bool(0.35) {
            let k = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(Op::Unsub(k));
        } else {
            let n = rng.gen_range(1..=2usize);
            let mut attrs: Vec<&'static str> = ATTRS.to_vec();
            let preds: Vec<Pred> = (0..n)
                .map(|_| {
                    let attr = attrs.remove(rng.gen_range(0..attrs.len()));
                    (
                        attr,
                        OPS[rng.gen_range(0..OPS.len())],
                        rng.gen_range(0i64..8),
                    )
                })
                .collect();
            ops.push(Op::Sub(preds));
            live.push(subs);
            subs += 1;
        }
    }
    ops
}

/// Learns the ids the server will assign by replaying against a fresh
/// in-process broker (id assignment is deterministic; pinned by e2e).
fn predict_ids(kind: EngineKind, ops: &[Op]) -> Vec<u32> {
    let reference = SharedBroker::new(kind, 2);
    let mut ids = Vec::new();
    for op in ops {
        match op {
            Op::Sub(preds) => {
                let preds: Vec<Predicate> = preds
                    .iter()
                    .map(|(attr, op, value)| {
                        Predicate::new(reference.attr(attr), *op, Value::Int(*value))
                    })
                    .collect();
                let id = reference.subscribe(
                    Subscription::from_predicates(preds).expect("valid spec"),
                    Validity::forever(),
                );
                ids.push(id.0);
            }
            Op::Unsub(k) => {
                reference.unsubscribe(SubscriptionId(ids[*k]));
            }
        }
    }
    ids
}

fn encode_ops(ops: &[Op], ids: &[u32]) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let req = i as u32 + 1;
        let frame = match op {
            Op::Sub(preds) => Frame::Subscribe {
                req,
                preds: preds
                    .iter()
                    .map(|(attr, op, value)| WirePredicate {
                        attr: (*attr).into(),
                        op: *op,
                        value: WireValue::Int(*value),
                    })
                    .collect(),
            },
            Op::Unsub(k) => Frame::Unsubscribe { req, id: ids[*k] },
        };
        frames.push(frame.to_bytes());
    }
    frames
}

fn read_one_frame(sock: &mut TcpStream, reader: &mut FrameReader) -> Frame {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame().expect("well-formed server stream") {
            return frame;
        }
        match sock.read(&mut buf) {
            Ok(0) => panic!("server closed before answering"),
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) => panic!("read from server: {e}"),
        }
    }
}

fn read_frames_until_eof(sock: &mut TcpStream, reader: &mut FrameReader) -> Vec<Frame> {
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        while let Some(frame) = reader.next_frame().expect("well-formed server stream") {
            out.push(frame);
        }
        match sock.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) => panic!("drain acks: {e}"),
        }
    }
}

fn probe_events(rng: &mut SmallRng) -> Vec<(Vec<(&'static str, i64)>, WireEvent)> {
    (0..4)
        .map(|i| {
            let n = rng.gen_range(2..=3usize);
            let mut attrs: Vec<&'static str> = ATTRS.to_vec();
            let pairs: Vec<(&'static str, i64)> = (0..n)
                .map(|_| {
                    let attr = attrs.remove(rng.gen_range(0..attrs.len()));
                    (attr, rng.gen_range(0i64..8))
                })
                .collect();
            let mut wire: Vec<(String, WireValue)> = pairs
                .iter()
                .map(|(attr, value)| (attr.to_string(), WireValue::Int(*value)))
                .collect();
            wire.push(("eid".into(), WireValue::Int(1_000 + i)));
            (pairs, WireEvent { pairs: wire })
        })
        .collect()
}

fn eid_of(event: &WireEvent) -> i64 {
    event
        .pairs
        .iter()
        .find_map(|(attr, value)| match (attr.as_str(), value) {
            ("eid", WireValue::Int(i)) => Some(*i),
            _ => None,
        })
        .expect("probe events carry eid")
}

fn open_durable(kind: EngineKind, dir: &PathBuf) -> Arc<SharedBroker> {
    let (broker, _) = SharedBroker::open_durable_with(kind, 2, dir, wal_config()).unwrap();
    Arc::new(broker)
}

/// Opens a durable server and plays exactly `cut` bytes of the op stream
/// into a fresh session, half-closing afterwards. Returns the session
/// token and the oracle's live-id set (the ops whose frames fit the cut).
fn play_prefix(
    addr: std::net::SocketAddr,
    ops: &[Op],
    ids: &[u32],
    frames: &[Vec<u8>],
    cut: usize,
) -> (u64, BTreeSet<u32>) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = FrameReader::new();
    sock.write_all(
        &Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: NEW_SESSION,
        }
        .to_bytes(),
    )
    .unwrap();
    let token = match read_one_frame(&mut sock, &mut reader) {
        Frame::Ack(Ack::Hello { token, .. }) => token,
        other => panic!("expected hello ack, got {other:?}"),
    };

    let bytes: Vec<u8> = frames.concat();
    sock.write_all(&bytes[..cut]).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();

    // Oracle: the contiguous prefix of ops whose frames fit in the cut.
    let mut live: BTreeSet<u32> = BTreeSet::new();
    let mut applied = 0usize;
    let mut sub_idx = 0usize;
    let mut off = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        off += frame.len();
        if off > cut {
            break;
        }
        applied = i + 1;
        match &ops[i] {
            Op::Sub(_) => {
                live.insert(ids[sub_idx]);
                sub_idx += 1;
            }
            Op::Unsub(k) => {
                live.remove(&ids[*k]);
            }
        }
    }

    // Acked == durable: the server logs before acking, so every acked op
    // must survive the restart. The graceful close flushes them all.
    let acks = read_frames_until_eof(&mut sock, &mut reader);
    assert_eq!(acks.len(), applied, "cut {cut}: one ack per received frame");
    (token, live)
}

/// After a resume on `addr`, the session must equal the oracle and the
/// world must hold zero ghosts: registry, session table and broker all
/// agree on exactly the surviving subscriptions.
#[allow(clippy::too_many_arguments)]
fn verify_resumed(
    label: &str,
    addr: std::net::SocketAddr,
    server: &Server,
    broker: &SharedBroker,
    token: u64,
    ops: &[Op],
    ids: &[u32],
    live: &BTreeSet<u32>,
    cut: usize,
) {
    let mut subscriber = Client::resume(addr, token).expect("resume after restart");
    let expected: Vec<u32> = live.iter().copied().collect();
    assert_eq!(
        subscriber.resumed(),
        &expected[..],
        "{label} cut {cut}: resumed ids must equal the acked-prefix oracle"
    );

    // Zero ghosts, zero orphans: the net registry, the durable session
    // table and the broker's subscription count are one consistent story.
    let status = server.status();
    assert_eq!(status.sessions, 1, "{label} cut {cut}: one session");
    assert_eq!(status.attached, 1, "{label} cut {cut}: one attachment");
    assert_eq!(
        status.net_subscriptions,
        expected.len(),
        "{label} cut {cut}: ghost registrations in the registry"
    );
    assert_eq!(
        broker.subscription_count(),
        expected.len(),
        "{label} cut {cut}: orphaned subscriptions in the broker"
    );
    assert_eq!(
        broker.session_rows(),
        vec![(token, expected.iter().map(|&i| SubscriptionId(i)).collect())],
        "{label} cut {cut}: durable session table drifted from the oracle"
    );

    // Deliveries after the restart match brute force over the survivors,
    // with sequence numbers restarting at 1 (connection-era state).
    let sub_specs: Vec<(u32, &Vec<Pred>)> = {
        let mut sub_ops = ops.iter().filter_map(|op| match op {
            Op::Sub(preds) => Some(preds),
            Op::Unsub(_) => None,
        });
        let mut out = Vec::new();
        for (k, preds) in (&mut sub_ops).enumerate() {
            if live.contains(&ids[k]) {
                out.push((ids[k], preds));
            }
        }
        out
    };
    let mut publisher = Client::connect(addr).expect("connect publisher");
    let mut probe_rng = SmallRng::seed_from_u64(cut as u64 ^ 0x51ee);
    let mut next_seq = 1u64;
    for (pairs, wire) in probe_events(&mut probe_rng) {
        let eid = eid_of(&wire);
        let matched = publisher.publish(wire).expect("probe publish");
        let brute: Vec<u32> = sub_specs
            .iter()
            .filter(|(_, preds)| matches(preds, &pairs))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(
            matched as usize,
            brute.len(),
            "{label} cut {cut}: matched count vs brute force on eid {eid}"
        );
        if !brute.is_empty() {
            let n = subscriber
                .next_notify(Duration::from_secs(5))
                .expect("notify stream")
                .expect("matched publish must be delivered");
            assert_eq!(eid_of(&n.event), eid, "{label} cut {cut}: delivery order");
            assert_eq!(n.ids, brute, "{label} cut {cut}: delivered ids");
            assert_eq!(n.seq, next_seq, "{label} cut {cut}: seq restarts at 1");
            next_seq += 1;
        }
    }
    let extra = subscriber.next_notify(Duration::from_millis(30)).unwrap();
    assert!(extra.is_none(), "{label} cut {cut}: spurious {extra:?}");
}

/// Waits for every server thread to release its broker handle after
/// shutdown, then drops the last one — the moment "the process died".
fn kill_server(server: Server, broker: Arc<SharedBroker>) {
    server.shutdown();
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&broker) > 1 {
        assert!(
            Instant::now() < deadline,
            "server threads leaked the broker"
        );
        thread::sleep(Duration::from_millis(1));
    }
    drop(broker);
}

/// One restart run: cut, kill the whole server, reopen the WAL directory,
/// resume, verify against the oracle.
fn run_restart(kind: EngineKind, ops: &[Op], ids: &[u32], frames: &[Vec<u8>], cut: usize) {
    let dir = temp_dir(&format!("{kind:?}-{cut}"));
    let broker = open_durable(kind, &dir);
    let server =
        Server::start_with(Arc::clone(&broker), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (token, live) = play_prefix(server.local_addr(), ops, ids, frames, cut);
    kill_server(server, broker);

    // The restart: recover from the log, rehydrate sessions, serve again.
    let broker = open_durable(kind, &dir);
    let server =
        Server::start_with(Arc::clone(&broker), "127.0.0.1:0", ServerConfig::default()).unwrap();
    verify_resumed(
        "restart",
        server.local_addr(),
        &server,
        &broker,
        token,
        ops,
        ids,
        &live,
        cut,
    );
    server.shutdown();
    fs::remove_dir_all(&dir).unwrap();
}

/// Cuts at every frame boundary (including 0 and the full stream) plus
/// the middle of every frame, striding by `FP_SWEEP_STRIDE`.
fn restart_sweep(kind: EngineKind, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ops = build_ops(&mut rng);
    let ids = predict_ids(kind, &ops);
    let frames = encode_ops(&ops, &ids);
    let mut cuts: Vec<usize> = vec![0];
    let mut off = 0usize;
    for frame in &frames {
        cuts.push(off + frame.len() / 2);
        off += frame.len();
        cuts.push(off);
    }
    for cut in cuts.into_iter().step_by(stride()) {
        run_restart(kind, &ops, &ids, &frames, cut);
    }
}

#[test]
fn kill_server_anywhere_and_resume_counting() {
    restart_sweep(EngineKind::Counting, 0xA11CE);
}

#[test]
fn kill_server_anywhere_and_resume_dynamic() {
    restart_sweep(EngineKind::Dynamic, 0xFEED);
}

/// The failover variant: the acked prefix replicates to a live follower,
/// the leader dies, the follower is promoted, and the client resumes on
/// the replica's server — original token, oracle-equal state. The replica
/// server was started *before* the session replicated, so the resume
/// exercises the lazy registry-hydration path, not startup hydration.
fn run_failover(kind: EngineKind, ops: &[Op], ids: &[u32], frames: &[Vec<u8>], cut: usize) {
    let dir_l = temp_dir(&format!("fo-lead-{cut}"));
    let dir_f = temp_dir(&format!("fo-repl-{cut}"));
    let leader = open_durable(kind, &dir_l);
    let leader_srv = Server::start_with(
        Arc::clone(&leader),
        "127.0.0.1:0",
        ServerConfig {
            repl_poll: Duration::from_millis(3),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let (fbroker, _) = SharedBroker::open_follower(kind, 2, &dir_f, wal_config()).unwrap();
    let fbroker = Arc::new(fbroker);
    // The replica's own client-facing server runs from the start — its
    // startup hydration sees an empty table; the session arrives later
    // over the replication stream.
    let replica_srv =
        Server::start_with(Arc::clone(&fbroker), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let tail = Follower::start(
        Arc::clone(&fbroker),
        leader_srv.local_addr(),
        FollowerConfig {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            degraded_after: Duration::from_secs(30),
            connect_timeout: Duration::from_millis(500),
            ..FollowerConfig::default()
        },
    )
    .unwrap();

    let (token, live) = play_prefix(leader_srv.local_addr(), ops, ids, frames, cut);

    // Wait until every acked record has crossed the wire: the replica's
    // log position must reach the leader's (lag alone can read 0 against
    // a stale leader position heard before the last append).
    let target = leader.durability().unwrap().next_lsn;
    let deadline = Instant::now() + Duration::from_secs(10);
    while fbroker.durability().unwrap().next_lsn < target {
        assert!(
            Instant::now() < deadline,
            "cut {cut}: follower never caught up: {:?}",
            tail.status()
        );
        thread::sleep(Duration::from_millis(3));
    }

    // The leader dies; the replica is promoted in place.
    kill_server(leader_srv, leader);
    tail.stop();
    tail.promote().unwrap();

    verify_resumed(
        "failover",
        replica_srv.local_addr(),
        &replica_srv,
        &fbroker,
        token,
        ops,
        ids,
        &live,
        cut,
    );
    replica_srv.shutdown();
    drop(tail);
    fs::remove_dir_all(&dir_l).unwrap();
    fs::remove_dir_all(&dir_f).unwrap();
}

#[test]
fn kill_leader_anywhere_and_resume_on_promoted_replica() {
    let kind = EngineKind::Counting;
    let mut rng = SmallRng::seed_from_u64(0xFA170);
    let ops = build_ops(&mut rng);
    let ids = predict_ids(kind, &ops);
    let frames = encode_ops(&ops, &ids);
    // Frame boundaries only (the mid-frame torn cases are covered by the
    // restart sweep; replication streams whole records by construction).
    let mut cuts: Vec<usize> = vec![0];
    let mut off = 0usize;
    for frame in &frames {
        off += frame.len();
        cuts.push(off);
    }
    for cut in cuts.into_iter().step_by(stride()) {
        run_failover(kind, &ops, &ids, &frames, cut);
    }
}

/// A client with a reconnect policy rides through the restart window: the
/// server is down for a while, comes back on the same address, and the
/// in-flight request retries to completion on the resumed session.
#[test]
fn reconnect_policy_rides_through_a_restart_window() {
    let dir = temp_dir("ride-through");
    let kind = EngineKind::Counting;
    let broker = open_durable(kind, &dir);
    let server =
        Server::start_with(Arc::clone(&broker), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client.set_reconnect(Some(pubsub_net::ReconnectPolicy {
        initial: Duration::from_millis(10),
        max: Duration::from_millis(100),
        attempts: 40,
    }));
    let id = client
        .subscribe(vec![WirePredicate {
            attr: "k".into(),
            op: Operator::Eq,
            value: WireValue::Int(3),
        }])
        .expect("subscribe");

    kill_server(server, broker);

    // Restart on the same address after a real outage window; rebinding
    // may race lingering sockets, so retry the bind briefly.
    let restarter = thread::spawn(move || {
        thread::sleep(Duration::from_millis(150));
        let broker = open_durable(kind, &dir);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::start_with(Arc::clone(&broker), addr, ServerConfig::default()) {
                Ok(server) => return (dir, broker, server),
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind {addr} failed: {e}");
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
    });

    // Issued against a dead server: the policy must redial through the
    // outage, resume the durable session, and complete the request.
    let matched = client
        .publish(WireEvent {
            pairs: vec![("k".into(), WireValue::Int(3))],
        })
        .expect("publish must ride through the restart");
    assert_eq!(matched, 1, "the durable subscription survived the restart");

    let (dir, broker, server) = restarter.join().unwrap();
    assert_eq!(broker.session_rows().len(), 1);
    assert_eq!(broker.session_rows()[0].1, vec![SubscriptionId(id)]);
    server.shutdown();
    fs::remove_dir_all(&dir).unwrap();
}
