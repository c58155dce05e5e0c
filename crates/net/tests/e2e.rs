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
