//! Fault-injected chaos for the network server, driven through the
//! `pubsub_types::faults` registry (compile with `--features faults`;
//! every test is a no-op otherwise). Each scenario kills a connection at
//! a server-side fault point — accepting, mid-handshake, mid-frame,
//! mid-delivery — and then proves the session registry is exact: no
//! session invented, no ghost attachment, resume restores precisely the
//! applied subscription state.
//!
//! This suite lives in its own test binary on purpose: the fault registry
//! is process-global, and a separate binary (= separate process) keeps
//! armed rules from firing inside the other network suites.

use pubsub_broker::SharedBroker;
use pubsub_core::EngineKind;
use pubsub_net::{
    Backpressure, Client, ClientError, Server, ServerConfig, WireEvent, WirePredicate, WireValue,
};
use pubsub_types::faults::{self, points, FaultAction, Schedule};
use pubsub_types::Operator;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The registry is process-global; chaos tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn server() -> Server {
    let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
    Server::start(broker, "127.0.0.1:0").expect("bind loopback")
}

fn eq_pred(attr: &str, value: i64) -> WirePredicate {
    WirePredicate {
        attr: attr.into(),
        op: Operator::Eq,
        value: WireValue::Int(value),
    }
}

fn event(attr: &str, value: i64) -> WireEvent {
    WireEvent {
        pairs: vec![(attr.into(), WireValue::Int(value))],
    }
}

/// Reads until the kicked/severed connection observes its dead socket.
fn expect_dead(client: &mut Client) {
    let read = client.next_notify(Duration::from_secs(5));
    assert!(
        read.is_err(),
        "severed connection must observe a dead socket, got {read:?}"
    );
}

#[test]
fn accept_fault_drops_the_connection_before_any_session_exists() {
    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();
    let server = server();
    faults::arm(
        points::NET_ACCEPT,
        None,
        FaultAction::Fail,
        Schedule::Nth(1),
    );
    let attempt = Client::connect(server.local_addr());
    assert!(
        matches!(attempt, Err(ClientError::Io(_))),
        "accept-time failure surfaces as an I/O error"
    );
    let status = server.status();
    assert_eq!(status.sessions, 0, "no session may be created");
    assert_eq!(status.attached, 0);
    // The rule is spent; the server keeps serving.
    faults::clear();
    Client::connect(server.local_addr()).expect("server still accepts");
    server.shutdown();
}

#[test]
fn kill_mid_handshake_creates_no_session() {
    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();
    let server = server();
    faults::arm(
        points::NET_HANDSHAKE,
        None,
        FaultAction::Fail,
        Schedule::Nth(1),
    );
    let attempt = Client::connect(server.local_addr());
    assert!(
        matches!(attempt, Err(ClientError::Io(_))),
        "mid-handshake kill severs before the hello ack"
    );
    let status = server.status();
    assert_eq!(
        status.sessions, 0,
        "a handshake killed before completion must not create a session"
    );
    assert_eq!(status.attached, 0, "no ghost attachment");
    faults::clear();
    let client = Client::connect(server.local_addr()).expect("handshake works again");
    assert!(client.token() > 0);
    server.shutdown();
}

#[test]
fn kill_mid_frame_applies_exactly_the_received_prefix() {
    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();
    let server = server();
    let addr = server.local_addr();

    // First connection (lane 0): one applied subscribe, then a kill on the
    // very next inbound frame — the second subscribe must never apply.
    let mut client = Client::connect(addr).expect("connect");
    let token = client.token();
    let id = client.subscribe(vec![eq_pred("k", 1)]).expect("subscribe");
    faults::arm(
        points::NET_FRAME_READ,
        Some(0),
        FaultAction::Fail,
        Schedule::Nth(1),
    );
    let second = client.subscribe(vec![eq_pred("k", 2)]);
    assert!(
        second.is_err(),
        "the killed frame's request must not be acked, got ok"
    );
    faults::clear();

    // The session survives with exactly the applied prefix.
    let status = server.status();
    assert_eq!(status.sessions, 1, "session outlives its connection");
    assert_eq!(status.attached, 0, "dead connection detached, no ghost");
    assert_eq!(
        status.net_subscriptions, 1,
        "the killed subscribe must not half-apply"
    );
    let resumed = Client::resume(addr, token).expect("resume");
    assert_eq!(
        resumed.resumed(),
        &[id],
        "resume reports exactly the applied subscription, once"
    );
    assert_eq!(server.status().attached, 1);
    server.shutdown();
}

#[test]
fn kill_mid_delivery_consumes_sequence_numbers_and_resumes_clean() {
    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();
    let server = server();
    let addr = server.local_addr();

    // Subscriber on lane 0; its writer will be killed mid-batch.
    let mut subscriber = Client::connect(addr).expect("connect subscriber");
    let token = subscriber.token();
    let id = subscriber
        .subscribe(vec![eq_pred("k", 7)])
        .expect("subscribe");
    let mut publisher = Client::connect(addr).expect("connect publisher");

    // Counting from arming: write 1 is the first notify (delivered), write
    // 2 the second (killed mid-delivery). The third is enqueued behind a
    // dead writer and dropped with its seq consumed.
    faults::arm(
        points::NET_NOTIFY_WRITE,
        Some(0),
        FaultAction::Fail,
        Schedule::Nth(2),
    );
    for _ in 0..3 {
        let matched = publisher.publish(event("k", 7)).expect("publish");
        assert_eq!(matched, 1);
    }
    let first = subscriber
        .next_notify(Duration::from_secs(5))
        .expect("first notify precedes the kill")
        .expect("delivered");
    assert_eq!(first.seq, 1);
    assert_eq!(first.ids, vec![id]);
    expect_dead(&mut subscriber);
    faults::clear();

    // The session survives; resume restores the subscription and the next
    // delivery's sequence number exposes the mid-batch gap (at-most-once:
    // the two killed notifies consumed seq 2 and 3).
    let mut resumed = Client::resume(addr, token).expect("resume");
    assert_eq!(resumed.resumed(), &[id]);
    assert_eq!(server.status().attached, 2, "subscriber + publisher");
    let matched = publisher.publish(event("k", 7)).expect("publish");
    assert_eq!(matched, 1);
    let after = resumed
        .next_notify(Duration::from_secs(5))
        .expect("stream")
        .expect("post-resume delivery");
    assert_eq!(after.ids, vec![id]);
    assert_eq!(
        after.seq, 4,
        "the killed deliveries consumed seq 2 and 3 — the gap is the contract"
    );
    let extra = resumed.next_notify(Duration::from_millis(30)).unwrap();
    assert!(extra.is_none(), "no duplicate deliveries, got {extra:?}");
    server.shutdown();
}

#[test]
fn wedged_subscriber_delivery_does_not_stall_other_connections() {
    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();
    // Capacity 1 + Block: two in-flight notifies wedge a publisher inside
    // deliver(), which then holds the subscriber's delivery lock across a
    // blocking enqueue. Regression test: no server path may wait on that
    // delivery lock while holding the registry lock, or one non-reading
    // subscriber stalls every connection (hello/subscribe/publish/status)
    // server-wide.
    let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
    let config = ServerConfig {
        queue_capacity: 1,
        delivery: Backpressure::Block,
        ..ServerConfig::default()
    };
    let server = Server::start_with(broker, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Subscriber on lane 0; its writer will be slowed to a crawl.
    let mut subscriber = Client::connect(addr).expect("connect subscriber");
    let sub_token = subscriber.token();
    subscriber
        .subscribe(vec![eq_pred("k", 1)])
        .expect("subscribe");
    let mut publisher = Client::connect(addr).expect("connect publisher");

    // Every outbound frame on the subscriber's connection sleeps 5s, so
    // its queue stays full while the publisher's third notify blocks.
    faults::arm(
        points::NET_NOTIFY_WRITE,
        Some(0),
        FaultAction::Delay(5_000),
        Schedule::EveryNth(1),
    );
    let wedged = thread::spawn(move || {
        // Notify 1 is popped and sleeping in the writer, notify 2 fills
        // the queue, notify 3 blocks this reader in push_blocking —
        // holding the subscriber's delivery lock for seconds.
        for _ in 0..3 {
            publisher.publish(event("k", 1)).expect("publish");
        }
        publisher
    });
    thread::sleep(Duration::from_millis(300));

    // While the publisher is wedged, every registry-touching path must
    // stay responsive: these all complete in well under the 5s wedge.
    let start = Instant::now();
    assert_eq!(
        server.session_subscriptions(sub_token).map(|s| s.len()),
        Some(1)
    );
    let mut other = Client::connect(addr).expect("hello during wedge");
    other
        .subscribe(vec![eq_pred("k", 2)])
        .expect("subscribe during wedge");
    let matched = other.publish(event("k", 2)).expect("publish during wedge");
    assert_eq!(matched, 1);
    other
        .next_notify(Duration::from_secs(2))
        .expect("own delivery during wedge")
        .expect("delivered");
    assert!(
        start.elapsed() < Duration::from_millis(2_500),
        "other connections must not wait out the wedged delivery lock, took {:?}",
        start.elapsed()
    );

    faults::clear();
    let mut publisher = wedged.join().expect("publisher thread");
    // The wedge resolved once the slowed writer drained; everyone's fine.
    assert_eq!(publisher.publish(event("k", 99)).expect("publish"), 0);
    server.shutdown();
}

#[test]
fn follower_converges_through_injected_accept_and_stream_failures() {
    use pubsub_durability::{CorruptionPolicy, DurabilityConfig, FsyncPolicy};
    use pubsub_net::{Follower, FollowerConfig};

    let _guard = SERIAL.lock().unwrap();
    if !faults::enabled() {
        return;
    }
    faults::clear();

    let base = std::env::temp_dir().join(format!("fp-replchaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let config = DurabilityConfig {
        segment_bytes: u64::MAX,
        fsync: FsyncPolicy::OsManaged,
        corruption: CorruptionPolicy::Fail,
        snapshot_every_ops: 0,
    };
    let (leader, _) =
        SharedBroker::open_durable_with(EngineKind::Counting, 2, base.join("leader"), config)
            .expect("open leader");
    let leader = Arc::new(leader);
    let server = Server::start_with(
        Arc::clone(&leader),
        "127.0.0.1:0",
        pubsub_net::ServerConfig {
            repl_poll: Duration::from_millis(3),
            ..pubsub_net::ServerConfig::default()
        },
    )
    .expect("bind leader server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for v in 0..10i64 {
        client.subscribe(vec![eq_pred("k", v)]).expect("subscribe");
    }

    // Hostile weather: the first replication accept dies outright, and
    // after that every 7th stream poll severs the connection. The
    // follower must reconnect through all of it and still converge.
    faults::arm(
        points::REPL_ACCEPT,
        None,
        FaultAction::Fail,
        Schedule::Nth(1),
    );
    faults::arm(
        points::REPL_STREAM_READ,
        None,
        FaultAction::Fail,
        Schedule::EveryNth(7),
    );
    let (fbroker, _) =
        SharedBroker::open_follower(EngineKind::Counting, 2, base.join("follower"), config)
            .expect("open follower");
    let fbroker = Arc::new(fbroker);
    let follower = Follower::start(
        Arc::clone(&fbroker),
        server.local_addr(),
        FollowerConfig {
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            ..FollowerConfig::default()
        },
    )
    .expect("start follower");

    // Keep writing while the stream keeps dying under it.
    for v in 10..30i64 {
        client.subscribe(vec![eq_pred("k", v)]).expect("subscribe");
        thread::sleep(Duration::from_millis(2));
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let target = leader.durability().expect("durable").next_lsn;
    loop {
        let applied = fbroker.durability().expect("durable").next_lsn;
        if applied >= target {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged under injected faults: applied {applied} of {target}"
        );
        thread::sleep(Duration::from_millis(10));
    }
    let status = follower.status();
    assert!(
        status.connects >= 2,
        "injected cuts must have forced at least one reconnect, got {}",
        status.connects
    );
    faults::clear();
    follower.stop();
    server.shutdown();
}

/// Fault points keep their per-frame meaning when frames arrive and leave
/// in batches.
mod batched {
    use super::*;
    use pubsub_net::{Ack, Frame, FrameReader, PROTOCOL_VERSION};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn eid_event(eid: i64) -> WireEvent {
        WireEvent {
            pairs: vec![
                ("k".into(), WireValue::Int(7)),
                ("eid".into(), WireValue::Int(eid)),
            ],
        }
    }

    fn eid_of(event: &WireEvent) -> i64 {
        match event.pairs[1] {
            (_, WireValue::Int(eid)) => eid,
            _ => panic!("eid pair expected"),
        }
    }

    /// A raw, handshaken publisher connection.
    fn raw_publisher(addr: std::net::SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                &Frame::Hello {
                    proto: PROTOCOL_VERSION,
                    token: 0,
                }
                .to_bytes(),
            )
            .unwrap();
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 256];
        loop {
            if let Some(frame) = reader.next_frame().unwrap() {
                assert!(matches!(frame, Frame::Ack(Ack::Hello { .. })));
                return stream;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "hello refused");
            reader.extend(&buf[..n]);
        }
    }

    /// Publishes events `1..=n` in one `write_all`.
    fn pipelined_publishes(stream: &mut TcpStream, n: i64) {
        let mut bytes = Vec::new();
        for eid in 1..=n {
            Frame::Publish {
                req: eid as u32,
                event: eid_event(eid),
            }
            .write_to(&mut bytes);
        }
        stream.write_all(&bytes).unwrap();
    }

    /// Every notify the client receives until its stream goes quiet or
    /// dies, as (seq, eid).
    fn received(client: &mut Client) -> Vec<(u64, i64)> {
        let mut out = Vec::new();
        while let Ok(Some(n)) = client.next_notify(Duration::from_millis(300)) {
            out.push((n.seq, eid_of(&n.event)));
        }
        out
    }

    #[test]
    fn frame_read_kill_mid_batch_delivers_the_frames_before_it() {
        let _guard = SERIAL.lock().unwrap();
        if !faults::enabled() {
            return;
        }
        faults::clear();
        let server = server();
        let addr = server.local_addr();
        let mut subscriber = Client::connect(addr).expect("connect subscriber"); // lane 0
        subscriber
            .subscribe(vec![eq_pred("k", 7)])
            .expect("subscribe");
        let mut publisher = raw_publisher(addr); // lane 1
                                                 // Counting from arming: the 5th inbound frame on the publisher's
                                                 // lane is publish 5 of the pipelined ten.
        faults::arm(
            points::NET_FRAME_READ,
            Some(1),
            FaultAction::Fail,
            Schedule::Nth(5),
        );
        pipelined_publishes(&mut publisher, 10);
        let got = received(&mut subscriber);
        faults::clear();
        assert_eq!(
            got,
            vec![(1, 1), (2, 2), (3, 3), (4, 4)],
            "publishes 1-4 are handled before the kill, 5-10 never"
        );
        server.shutdown();
    }

    #[test]
    fn notify_write_failure_mid_batch_writes_only_the_frames_before_it() {
        let _guard = SERIAL.lock().unwrap();
        if !faults::enabled() {
            return;
        }
        faults::clear();
        let server = server();
        let addr = server.local_addr();
        let mut subscriber = Client::connect(addr).expect("connect subscriber"); // lane 0
        subscriber
            .subscribe(vec![eq_pred("k", 7)])
            .expect("subscribe");
        let mut publisher = raw_publisher(addr);
        // Counting from arming: the subscriber's writer fails at the third
        // notify of the batch the five pipelined publishes produce.
        faults::arm(
            points::NET_NOTIFY_WRITE,
            Some(0),
            FaultAction::Fail,
            Schedule::Nth(3),
        );
        pipelined_publishes(&mut publisher, 5);
        let got = received(&mut subscriber);
        faults::clear();
        assert_eq!(got, vec![(1, 1), (2, 2)], "notifies 1-2, nothing after");
        expect_dead(&mut subscriber);
        server.shutdown();
    }
}
