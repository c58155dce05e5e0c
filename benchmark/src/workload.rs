//! The four workloads: what the server is loaded with and what is published
//! at it. Everything here is drawn from `--seed`; the server sees only the
//! frames built from it.

use pubsub_net::{WireEvent, WirePredicate, WireValue};
use pubsub_types::{AttrId, Event, Operator, Predicate, Subscription, Value};
use pubsub_workload::{presets, WorkloadGen, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Distinct events a run cycles through. Large enough that the rows the
/// match touches do not all stay cached between two uses of one event.
pub const EVENT_POOL: usize = 4096;

/// Distinct subscriptions the mutate phase cycles through.
pub const CHURN_POOL: usize = 4096;

/// Name of the pair that carries the event id. No subscription mentions it,
/// so the matcher skips it; the subscriber reads it back from the notify.
pub const EID_ATTR: &str = "eid";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MatchEq,
    MatchRange,
    ForwardSmall,
    ChurnDurable,
}

/// One workload's fixed parameters. The paced rates are constants — about
/// 30 % of the saturation rate measured when the benchmark landed (see the
/// README) — and are never derived from the run, so a parent commit and a
/// change are offered the same load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub population: usize,
    /// Open-loop publish rate of the paced and mutate phases, events/s.
    pub paced_rate: f64,
    /// Open-loop mutations/s beside the paced and saturate phases.
    pub background_mutations: f64,
    /// Fresh servers set up per run for `setup_s`.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match_eq",
        kind: Kind::MatchEq,
        population: 100_000,
        paced_rate: 5_000.0,
        background_mutations: 0.0,
        setups: 1,
    },
    Workload {
        name: "match_range",
        kind: Kind::MatchRange,
        population: 100_000,
        paced_rate: 4_500.0,
        background_mutations: 0.0,
        setups: 1,
    },
    Workload {
        name: "forward_small",
        kind: Kind::ForwardSmall,
        population: 1_000,
        paced_rate: 30_000.0,
        background_mutations: 0.0,
        setups: 24,
    },
    Workload {
        name: "churn_durable",
        kind: Kind::ChurnDurable,
        population: 100_000,
        paced_rate: 4_500.0,
        background_mutations: 1_000.0,
        setups: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn durable(&self) -> bool {
        self.kind == Kind::ChurnDurable
    }

    /// Subscriber sessions the population is split over.
    pub fn sessions(&self) -> usize {
        if self.kind == Kind::ForwardSmall {
            2
        } else {
            1
        }
    }
}

/// The inputs of one run.
pub struct Generated {
    /// The static population, in load order.
    pub subs: Vec<Subscription>,
    /// Owning subscriber session of each population entry.
    pub session_of: Vec<u8>,
    /// The event pool; event `eid` publishes `events[eid % len]`.
    pub events: Vec<Event>,
    /// Subscriptions the mutate phase adds and removes again.
    pub churn: Vec<Subscription>,
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn generate(workload: &Workload, population: usize, seed: u64) -> Generated {
    match workload.kind {
        Kind::MatchEq | Kind::ChurnDurable => from_preset(presets::w0(population), seed),
        Kind::MatchRange => from_preset(presets::w2(population), seed),
        Kind::ForwardSmall => forward_small(population, seed),
    }
}

/// Population and events of a paper preset. Each pool event is a preset
/// event with one satisfiable subscription's values planted into it, so
/// every publish matches at least one subscription and produces a notify
/// to time — a raw W0 event matches one of 100k subscriptions about once in
/// 500 publishes.
fn from_preset(mut spec: WorkloadSpec, seed: u64) -> Generated {
    spec.seed ^= splitmix(seed);
    let (lo, hi) = (spec.events.domain.lo, spec.events.domain.hi);
    let mut gen = WorkloadGen::new(spec);
    let subs: Vec<Subscription> = gen.all_subscriptions().collect();
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0xE7E7));
    let mut events = Vec::with_capacity(EVENT_POOL);
    while events.len() < EVENT_POOL {
        let sub = &subs[rng.gen_range(0..subs.len())];
        let mut pairs = gen.event().pairs().to_vec();
        if plant(sub, &mut pairs, &mut rng, lo, hi) {
            events.push(Event::from_pairs(pairs).expect("planting keeps attributes distinct"));
        }
    }
    let churn = (0..CHURN_POOL).map(|_| gen.subscription()).collect();
    let session_of = vec![0; subs.len()];
    Generated {
        subs,
        session_of,
        events,
        churn,
    }
}

/// Rewrites `pairs` so that `sub` matches them, with values kept inside the
/// event domain `[lo, hi]`. Returns false when the subscription cannot be
/// satisfied there (`a < lo`, `a > hi`).
fn plant(
    sub: &Subscription,
    pairs: &mut [(AttrId, Value)],
    rng: &mut SmallRng,
    lo: i64,
    hi: i64,
) -> bool {
    for p in sub.predicates() {
        let c = p.value.as_int().expect("preset constants are integers");
        let (from, to) = match p.op {
            Operator::Eq => (c, c),
            Operator::Lt => (lo, c - 1),
            Operator::Le => (lo, c),
            Operator::Gt => (c + 1, hi),
            Operator::Ge => (c, hi),
            Operator::Ne => {
                if c == lo {
                    (lo + 1, hi)
                } else {
                    (lo, c - 1)
                }
            }
        };
        if from > to {
            return false;
        }
        let slot = pairs
            .iter_mut()
            .find(|(a, _)| *a == p.attr)
            .expect("preset events value every attribute");
        slot.1 = Value::Int(rng.gen_range(from..=to));
    }
    true
}

/// `population` one-predicate subscriptions split over two sessions —
/// `a0 = v` owned by the first, `a1 = w` by the second — and two-pair events
/// that match exactly one subscription in each.
fn forward_small(population: usize, seed: u64) -> Generated {
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0xF5));
    let half = population / 2;
    let mut distinct = |n: usize| -> Vec<i64> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let v = rng.gen_range(1i64..=1_000_000);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    };
    let values = [distinct(half), distinct(population - half)];
    let mut subs = Vec::with_capacity(population);
    let mut session_of = Vec::with_capacity(population);
    for (session, vals) in values.iter().enumerate() {
        for &v in vals {
            let pred = Predicate::new(AttrId(session as u32), Operator::Eq, Value::Int(v));
            subs.push(Subscription::from_predicates(vec![pred]).expect("one predicate"));
            session_of.push(session as u8);
        }
    }
    let events = (0..EVENT_POOL)
        .map(|_| {
            let pairs = (0..2)
                .map(|s| {
                    let v = values[s][rng.gen_range(0..values[s].len())];
                    (AttrId(s as u32), Value::Int(v))
                })
                .collect();
            Event::from_pairs(pairs).expect("two distinct attributes")
        })
        .collect();
    // Constants above every event value: churned subscriptions never match.
    let churn = (0..CHURN_POOL)
        .map(|i| {
            let pred = Predicate::new(AttrId(0), Operator::Eq, Value::Int(2_000_000 + i as i64));
            Subscription::from_predicates(vec![pred]).expect("one predicate")
        })
        .collect();
    Generated {
        subs,
        session_of,
        events,
        churn,
    }
}

/// Wire name of a generated attribute.
pub fn attr_name(attr: AttrId) -> String {
    format!("a{}", attr.0)
}

fn wire_value(value: Value) -> WireValue {
    WireValue::Int(value.as_int().expect("generated values are integers"))
}

pub fn wire_predicates(sub: &Subscription) -> Vec<WirePredicate> {
    sub.predicates()
        .iter()
        .map(|p| WirePredicate {
            attr: attr_name(p.attr),
            op: p.op,
            value: wire_value(p.value),
        })
        .collect()
}

/// The event as published: the id pair first, then the generated pairs.
pub fn wire_event(event: &Event, eid: u64) -> WireEvent {
    let mut pairs = Vec::with_capacity(event.len() + 1);
    pairs.push((EID_ATTR.to_string(), WireValue::Int(eid as i64)));
    for &(attr, value) in event.pairs() {
        pairs.push((attr_name(attr), wire_value(value)));
    }
    WireEvent { pairs }
}

/// Reads the event id back from a notified event.
pub fn eid_of(event: &WireEvent) -> Option<u64> {
    match event.pairs.first() {
        Some((name, WireValue::Int(eid))) if name == EID_ATTR => u64::try_from(*eid).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_every_event_matches() {
        for w in WORKLOADS {
            let a = generate(&w, 2_000, 11);
            let b = generate(&w, 2_000, 11);
            let c = generate(&w, 2_000, 12);
            assert_eq!(a.subs, b.subs, "{}", w.name);
            assert_eq!(a.events, b.events, "{}", w.name);
            assert_ne!(a.events, c.events, "{}", w.name);
            assert_eq!(a.subs.len(), 2_000);
            for e in &a.events {
                for session in 0..w.sessions() {
                    let hit = a
                        .subs
                        .iter()
                        .zip(&a.session_of)
                        .any(|(s, &o)| o as usize == session && s.matches_event(e));
                    assert!(
                        hit,
                        "{}: an event matches nothing in session {session}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn event_id_round_trips() {
        let g = generate(&WORKLOADS[2], 100, 1);
        let wire = wire_event(&g.events[0], 77);
        assert_eq!(wire.pairs.len(), 3);
        assert_eq!(eid_of(&wire), Some(77));
    }
}
