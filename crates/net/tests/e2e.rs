//! End-to-end differential test: the same generated workload drives the
//! networked broker and an in-process [`SharedBroker`], and the
//! notification sets must agree per event. The network layer may reorder
//! deliveries *across* subscribers but never within one, so each
//! subscriber's stream is checked for exact order (and gap-free delivery
//! sequence numbers, since the `Block` policy is lossless).

use pubsub_broker::{SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_net::{Backpressure, Client, Server, ServerConfig, WireEvent, WirePredicate, WireValue};
use pubsub_types::{Operator, Predicate, Subscription};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const ATTRS: [&str; 5] = ["price", "venue", "qty", "side", "tier"];
const STRINGS: [&str; 4] = ["ask", "bid", "NYC", "EWR"];
const OPS: [Operator; 6] = [
    Operator::Lt,
    Operator::Le,
    Operator::Eq,
    Operator::Ne,
    Operator::Ge,
    Operator::Gt,
];

/// One predicate spec, realizable both as a wire predicate (names) and as
/// an interned in-process predicate.
#[derive(Clone)]
struct SpecPred {
    attr: &'static str,
    op: Operator,
    value: SpecVal,
}

#[derive(Clone, Copy)]
enum SpecVal {
    Int(i64),
    Str(&'static str),
}

impl SpecPred {
    fn wire(&self) -> WirePredicate {
        WirePredicate {
            attr: self.attr.into(),
            op: self.op,
            value: match self.value {
                SpecVal::Int(i) => WireValue::Int(i),
                SpecVal::Str(s) => WireValue::Str(s.into()),
            },
        }
    }

    fn interned(&self, broker: &SharedBroker) -> Predicate {
        let attr = broker.attr(self.attr);
        let value = match self.value {
            SpecVal::Int(i) => pubsub_types::Value::Int(i),
            SpecVal::Str(s) => broker.string(s),
        };
        Predicate::new(attr, self.op, value)
    }
}

fn rand_val(rng: &mut SmallRng) -> SpecVal {
    if rng.gen_bool(0.3) {
        SpecVal::Str(STRINGS[rng.gen_range(0..STRINGS.len())])
    } else {
        SpecVal::Int(rng.gen_range(0i64..8))
    }
}

/// 1–3 predicates over distinct attributes (distinct attrs avoid exact
/// duplicates, which both paths reject identically anyway).
fn rand_sub(rng: &mut SmallRng) -> Vec<SpecPred> {
    let n = rng.gen_range(1..=3usize);
    let mut attrs: Vec<&'static str> = ATTRS.to_vec();
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = attrs.remove(rng.gen_range(0..attrs.len()));
        preds.push(SpecPred {
            attr,
            op: OPS[rng.gen_range(0..OPS.len())],
            value: rand_val(rng),
        });
    }
    preds
}

/// An event over 1–4 distinct attributes, plus a unique `eid` marker used
/// to match notifications back to publishes.
fn rand_event(rng: &mut SmallRng, eid: i64) -> (Vec<(String, WireValue)>, WireEvent) {
    let n = rng.gen_range(1..=4usize);
    let mut attrs: Vec<&'static str> = ATTRS.to_vec();
    let mut pairs: Vec<(String, WireValue)> = Vec::with_capacity(n + 1);
    for _ in 0..n {
        let attr = attrs.remove(rng.gen_range(0..attrs.len()));
        let value = match rand_val(rng) {
            SpecVal::Int(i) => WireValue::Int(i),
            SpecVal::Str(s) => WireValue::Str(s.into()),
        };
        pairs.push((attr.to_string(), value));
    }
    pairs.push(("eid".into(), WireValue::Int(eid)));
    let event = WireEvent {
        pairs: pairs.clone(),
    };
    (pairs, event)
}

fn interned_event(broker: &SharedBroker, pairs: &[(String, WireValue)]) -> pubsub_types::Event {
    let interned: Vec<_> = pairs
        .iter()
        .map(|(attr, value)| {
            let attr = broker.attr(attr);
            let value = match value {
                WireValue::Int(i) => pubsub_types::Value::Int(*i),
                WireValue::Str(s) => broker.string(s),
            };
            (attr, value)
        })
        .collect();
    pubsub_types::Event::from_pairs(interned).expect("distinct attrs")
}

fn eid_of(event: &WireEvent) -> i64 {
    event
        .pairs
        .iter()
        .find_map(|(attr, value)| match (attr.as_str(), value) {
            ("eid", WireValue::Int(i)) => Some(*i),
            _ => None,
        })
        .expect("every published event carries eid")
}

fn differential_run(kind: EngineKind, seed: u64) {
    const SUBSCRIBERS: usize = 3;
    let net_broker = Arc::new(SharedBroker::new(kind, 2));
    let server = Server::start_with(
        Arc::clone(&net_broker),
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 4096, // subscribers drain only at the end
            delivery: Backpressure::Block,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let reference = SharedBroker::new(kind, 2);

    let mut subscribers: Vec<Client> = (0..SUBSCRIBERS)
        .map(|_| Client::connect(server.local_addr()).expect("connect"))
        .collect();
    let mut publisher = Client::connect(server.local_addr()).expect("connect");

    let mut rng = SmallRng::seed_from_u64(seed);
    // Live net subscription ids → owning subscriber index.
    let mut owner_of: HashMap<u32, usize> = HashMap::new();
    let mut live: Vec<u32> = Vec::new();
    // Expected (eid, matched-own-ids) stream per subscriber, in publish
    // order — the within-subscriber order the server must preserve.
    let mut expected: Vec<Vec<(i64, Vec<u32>)>> = vec![Vec::new(); SUBSCRIBERS];
    let mut eid = 0i64;

    for _ in 0..160 {
        match rng.gen_range(0u32..10) {
            // Subscribe: same spec through both paths; ids must agree.
            0..=3 => {
                let spec = rand_sub(&mut rng);
                let c = rng.gen_range(0..SUBSCRIBERS);
                let net_id = subscribers[c]
                    .subscribe(spec.iter().map(SpecPred::wire).collect())
                    .expect("net subscribe");
                let preds: Vec<Predicate> = spec.iter().map(|p| p.interned(&reference)).collect();
                let ref_id = reference.subscribe(
                    Subscription::from_predicates(preds).expect("valid spec"),
                    Validity::forever(),
                );
                assert_eq!(net_id, ref_id.0, "{kind:?}: subscription ids must agree");
                owner_of.insert(net_id, c);
                live.push(net_id);
            }
            // Unsubscribe a live id through both paths.
            4..=5 if !live.is_empty() => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                let c = owner_of.remove(&id).expect("tracked owner");
                let existed = subscribers[c].unsubscribe(id).expect("net unsubscribe");
                let ref_existed = reference.unsubscribe(pubsub_types::SubscriptionId(id));
                assert_eq!(existed, ref_existed, "{kind:?}: unsubscribe disagreement");
            }
            // Publish: matched sets must be identical.
            _ => {
                let (pairs, wire) = rand_event(&mut rng, eid);
                let net_matched = publisher.publish(wire).expect("net publish");
                let mut ref_matched: Vec<u32> = reference
                    .publish(&interned_event(&reference, &pairs))
                    .into_iter()
                    .map(|id| id.0)
                    .collect();
                ref_matched.sort_unstable();
                assert_eq!(
                    net_matched as usize,
                    ref_matched.len(),
                    "{kind:?}: matched-count disagreement on eid {eid}"
                );
                let mut per_sub: Vec<Vec<u32>> = vec![Vec::new(); SUBSCRIBERS];
                for id in &ref_matched {
                    per_sub[owner_of[id]].push(*id);
                }
                for (c, ids) in per_sub.into_iter().enumerate() {
                    if !ids.is_empty() {
                        expected[c].push((eid, ids)); // already sorted
                    }
                }
                eid += 1;
            }
        }
    }

    // Drain each subscriber and compare its stream: same events, same
    // matched ids, same within-subscriber order, gap-free sequence.
    for (c, client) in subscribers.iter_mut().enumerate() {
        let notifies = client
            .drain_notifies(Duration::from_millis(400))
            .expect("drain");
        let got: Vec<(i64, Vec<u32>)> = notifies
            .iter()
            .map(|n| (eid_of(&n.event), n.ids.clone()))
            .collect();
        assert_eq!(
            got, expected[c],
            "{kind:?}: subscriber {c} notification stream diverged"
        );
        for (i, n) in notifies.iter().enumerate() {
            assert_eq!(
                n.seq,
                i as u64 + 1,
                "{kind:?}: subscriber {c} has a delivery gap under Block"
            );
        }
    }
    server.shutdown();
}

#[test]
fn counting_matches_in_process_broker() {
    differential_run(EngineKind::Counting, 0xC0);
}

#[test]
fn propagation_matches_in_process_broker() {
    differential_run(EngineKind::Propagation, 0x9A0);
}

#[test]
fn propagation_prefetch_matches_in_process_broker() {
    differential_run(EngineKind::PropagationPrefetch, 0xBEEF);
}

#[test]
fn static_matches_in_process_broker() {
    differential_run(EngineKind::Static, 0x57A7);
}

#[test]
fn dynamic_matches_in_process_broker() {
    differential_run(EngineKind::Dynamic, 0xD1);
}

/// Pipelined wire order: several requests in one `write_all`, so the
/// server reads them as one batch and must still answer each at its own
/// position.
mod pipelined {
    use super::*;
    use pubsub_net::{Ack, ErrorCode, Frame, FrameReader, PROTOCOL_VERSION};
    use pubsub_types::metrics::MetricsSnapshot;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// A handshaken connection speaking raw frames.
    struct Raw {
        stream: TcpStream,
        reader: FrameReader,
    }

    impl Raw {
        fn connect(addr: SocketAddr) -> Raw {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut raw = Raw {
                stream,
                reader: FrameReader::new(),
            };
            raw.write(&[Frame::Hello {
                proto: PROTOCOL_VERSION,
                token: 0,
            }]);
            assert!(matches!(raw.read(1)[0], Frame::Ack(Ack::Hello { .. })));
            raw
        }

        /// Writes every frame with one `write_all`.
        fn write(&mut self, frames: &[Frame]) {
            let mut bytes = Vec::new();
            for frame in frames {
                frame.write_to(&mut bytes);
            }
            self.stream.write_all(&bytes).expect("write");
        }

        fn read(&mut self, n: usize) -> Vec<Frame> {
            let mut out = Vec::new();
            let mut buf = [0u8; 4096];
            while out.len() < n {
                if let Some(frame) = self.reader.next_frame().expect("framing") {
                    out.push(frame);
                    continue;
                }
                let got = self.stream.read(&mut buf).expect("read");
                assert!(got > 0, "server closed after {} frames", out.len());
                self.reader.extend(&buf[..got]);
            }
            out
        }
    }

    fn k_event(eid: i64) -> WireEvent {
        WireEvent {
            pairs: vec![
                ("k".into(), WireValue::Int(1)),
                ("eid".into(), WireValue::Int(eid)),
            ],
        }
    }

    fn k_pred(value: i64) -> WirePredicate {
        WirePredicate {
            attr: "k".into(),
            op: Operator::Eq,
            value: WireValue::Int(value),
        }
    }

    fn publishes(n: u32) -> Vec<Frame> {
        (1..=n)
            .map(|i| Frame::Publish {
                req: i,
                event: k_event(i64::from(i)),
            })
            .collect()
    }

    fn shed_count() -> u64 {
        MetricsSnapshot::capture()
            .counter("net.server.notifies_shed")
            .unwrap_or(0)
    }

    #[test]
    fn one_write_is_answered_in_request_order() {
        // One stripe: subscription ids are handed out in sequence, so the
        // id the pipelined subscribe will get is known before it is sent.
        let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 1));
        let server = Server::start(broker, "127.0.0.1:0").expect("bind loopback");
        let mut raw = Raw::connect(server.local_addr());
        raw.write(&[Frame::Subscribe {
            req: 100,
            preds: vec![k_pred(99)],
        }]);
        let Frame::Ack(Ack::Subscribe { id: probe, .. }) = raw.read(1)[0] else {
            panic!("subscribe ack expected");
        };
        let s = probe + 1;

        let duplicate = WireEvent {
            pairs: vec![
                ("k".into(), WireValue::Int(1)),
                ("k".into(), WireValue::Int(2)),
            ],
        };
        raw.write(&[
            Frame::Publish {
                req: 1,
                event: k_event(1),
            },
            Frame::Subscribe {
                req: 2,
                preds: vec![k_pred(1)],
            },
            Frame::Publish {
                req: 3,
                event: k_event(2),
            },
            Frame::Publish {
                req: 4,
                event: duplicate,
            },
            Frame::Unsubscribe { req: 5, id: s },
            Frame::Publish {
                req: 6,
                event: k_event(3),
            },
            Frame::Ping { nonce: 7 },
        ]);
        let replies = raw.read(8);
        assert_eq!(
            replies[..4],
            [
                Frame::Ack(Ack::Publish { req: 1, matched: 0 }),
                Frame::Ack(Ack::Subscribe { req: 2, id: s }),
                Frame::Notify {
                    seq: 1,
                    ids: vec![s],
                    event: k_event(2),
                },
                Frame::Ack(Ack::Publish { req: 3, matched: 1 }),
            ],
            "e1 precedes s and misses it; e2 follows s and matches it"
        );
        assert!(
            matches!(
                replies[4],
                Frame::Error {
                    req: 4,
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "the bad publish is refused in place, got {:?}",
            replies[4]
        );
        assert_eq!(
            replies[5..],
            [
                Frame::Ack(Ack::Unsubscribe {
                    req: 5,
                    existed: true
                }),
                Frame::Ack(Ack::Publish { req: 6, matched: 0 }),
                Frame::Pong { nonce: 7 },
            ],
            "e3 follows the unsubscribe and misses s"
        );
        server.shutdown();
    }

    /// A subscriber with room for two frames, a 64-publish burst in one
    /// write, and a marker publish afterwards whose seq closes the range.
    fn burst_into_tiny_queue(delivery: Backpressure) -> (Server, u64, u32, Vec<u64>) {
        let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
        let config = ServerConfig {
            queue_capacity: 2,
            delivery,
            ..ServerConfig::default()
        };
        let server = Server::start_with(broker, "127.0.0.1:0", config).expect("bind loopback");
        let mut subscriber = Client::connect(server.local_addr()).expect("connect");
        let id = subscriber.subscribe(vec![k_pred(1)]).expect("subscribe");
        let token = subscriber.token();
        let mut publisher = Raw::connect(server.local_addr());
        publisher.write(&publishes(64));
        for (i, reply) in publisher.read(64).into_iter().enumerate() {
            assert_eq!(
                reply,
                Frame::Ack(Ack::Publish {
                    req: i as u32 + 1,
                    matched: 1
                })
            );
        }
        // Read until the stream goes quiet or dies (ErrorFast cuts it).
        let mut seqs = Vec::new();
        while let Ok(Some(n)) = subscriber.next_notify(Duration::from_millis(300)) {
            assert_eq!(n.ids, vec![id]);
            seqs.push(n.seq);
        }
        (server, token, id, seqs)
    }

    #[test]
    fn shed_gaps_equal_the_shed_counter() {
        let shed_before = shed_count();
        let (server, token, id, mut seqs) = burst_into_tiny_queue(Backpressure::Shed);
        // The burst arrives as one batch, far larger than the queue: the
        // notifies that do not fit are shed one by one.
        let shed = shed_count() - shed_before;
        let mut subscriber = Client::resume(server.local_addr(), token).expect("resume");
        let mut publisher = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(publisher.publish(k_event(65)).expect("publish"), 1);
        let marker = subscriber
            .next_notify(Duration::from_secs(5))
            .expect("stream")
            .expect("marker delivered");
        assert_eq!(marker.ids, vec![id]);
        seqs.push(marker.seq);
        assert_eq!(marker.seq, 65, "every notify consumed its seq");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        let gaps = 65 - seqs.len() as u64;
        assert!(gaps > 0, "a 64-notify batch into 2 slots must shed");
        if pubsub_types::metrics::enabled() {
            assert_eq!(gaps, shed, "every gap is one shed notify");
        }
        server.shutdown();
    }

    #[test]
    fn error_fast_burst_detaches_and_resume_reports_the_gap() {
        let (server, token, id, seqs) = burst_into_tiny_queue(Backpressure::ErrorFast);
        assert!(seqs.len() < 64, "the laggard was cut off mid-burst");
        assert_eq!(
            seqs,
            (1..=seqs.len() as u64).collect::<Vec<_>>(),
            "what arrived before the cut is the gap-free prefix"
        );
        let mut resumed = Client::resume(server.local_addr(), token).expect("resume");
        assert_eq!(resumed.resumed(), &[id], "the session survived");
        let mut publisher = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(publisher.publish(k_event(65)).expect("publish"), 1);
        let next = resumed
            .next_notify(Duration::from_secs(5))
            .expect("stream")
            .expect("post-resume delivery");
        assert_eq!(
            next.seq, 65,
            "the burst consumed seqs 1..=64; the gap shows what was missed"
        );
        server.shutdown();
    }
}
