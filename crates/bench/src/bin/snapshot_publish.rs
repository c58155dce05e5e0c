//! `SharedBroker::publish_into` on the served snapshot, layer by layer.
//!
//! Loads a preset through a `SharedBroker` one bound subscribe at a time,
//! as `pubsub serve` does, so the stripes carry the tiers and L0 that
//! loading leaves. Then times `publish_into` over a pool of 4 096 planted
//! events (each one made to satisfy a random subscription), best of 5
//! passes, and prints per event: the whole publish, its phase 1 and phase 2
//! (from `rcu_stats()`), the subscriptions checked, and the published
//! snapshot's shape (`rcu_status()`: tiers, L0 entries, predicates). It
//! prints one row as loaded and one after `compact()`. The broker is the
//! served default: the dynamic engine on 2 stripes. Loading reports its
//! wall time and the per-subscribe p50 / p99 on stderr.
//!
//! Presets: `w0` (5 equality predicates), `w2` (9 predicates, six of them
//! `<` / `>`), and `forward` (one equality predicate per subscription on
//! one of two attributes, every constant distinct; two-pair events).
//!
//! Usage: `cargo run --release -p pubsub-bench --bin snapshot_publish --
//!         [--workload w0|w2|forward] [--subs N] [--seed N]`

use pubsub_broker::{SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_types::{AttrId, Event, Operator, Predicate, Subscription, SubscriptionId, Value};
use pubsub_workload::{presets, WorkloadGen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Planted events per pass.
const POOL: usize = 4_096;
/// Timed passes; each figure is the best pass's.
const PASSES: usize = 5;
/// The served default broker.
const KIND: EngineKind = EngineKind::Dynamic;
const SHARDS: usize = 2;

fn main() {
    let mut workload = "w0".to_string();
    let mut subs = 100_000usize;
    let mut seed = 1u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = value("--workload"),
            "--subs" => subs = value("--subs").parse().expect("integer"),
            "--seed" => seed = value("--seed").parse().expect("integer"),
            "--help" | "-h" => {
                eprintln!("flags: --workload w0|w2|forward  --subs N  --seed N");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    let (population, events) = match workload.as_str() {
        "w0" => preset(presets::w0(subs), seed),
        "w2" => preset(presets::w2(subs), seed),
        "forward" => forward(subs, seed),
        other => panic!("unknown workload {other} (w0, w2 or forward)"),
    };

    let broker = SharedBroker::new(KIND, SHARDS);
    let token = broker.try_session_create().expect("in-memory broker");
    let mut latencies = Vec::with_capacity(population.len());
    let start = Instant::now();
    for sub in population {
        let t = Instant::now();
        broker
            .try_subscribe_bound(token, sub, Validity::forever())
            .expect("in-memory broker");
        latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let load = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        latencies
            .get((q * latencies.len() as f64) as usize)
            .copied()
    };
    eprintln!(
        "loaded {subs} {workload} subscriptions into {} x {SHARDS} in {load:.2} s \
         (subscribe p50 {:.2} us, p99 {:.2} us)",
        KIND.label(),
        pct(0.5).unwrap_or(0.0),
        pct(0.99).unwrap_or(0.0),
    );
    println!(
        "{workload} subs {subs} seed {seed} shards {SHARDS} engine {}",
        KIND.label()
    );
    println!("state       publish_us  phase1_us  phase2_us  checked  tiers  l0  predicates");
    report("as-loaded", &broker, &events);
    broker.compact();
    report("compacted", &broker, &events);
}

/// Times the pool and prints one row.
fn report(state: &str, broker: &SharedBroker, events: &[Event]) {
    let mut out: Vec<SubscriptionId> = Vec::new();
    let per_event = |ns: f64| ns / events.len() as f64 / 1e3;
    let (mut publish, mut phase1, mut phase2) = (f64::MAX, f64::MAX, f64::MAX);
    let mut checked = 0.0;
    // One untimed pass warms caches and the thread's scratch.
    for pass in 0..=PASSES {
        let before = broker.rcu_stats();
        let t0 = Instant::now();
        for event in events {
            out.clear();
            broker.publish_into(event, &mut out);
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        let after = broker.rcu_stats();
        if pass == 0 {
            continue;
        }
        publish = publish.min(per_event(elapsed));
        phase1 = phase1.min(per_event((after.phase1_nanos - before.phase1_nanos) as f64));
        phase2 = phase2.min(per_event((after.phase2_nanos - before.phase2_nanos) as f64));
        let checks = after.subscriptions_checked - before.subscriptions_checked;
        checked = checks as f64 / events.len() as f64;
    }
    let status = broker.rcu_status();
    println!(
        "{state:<10}  {publish:>10.2}  {phase1:>9.2}  {phase2:>9.2}  {checked:>7.1}  {:>5}  {:>2}  {:>10}",
        status.tiers, status.l0, status.predicates
    );
}

/// A paper preset's population and a pool of its events, each rewritten to
/// satisfy one random subscription (a raw W0 event matches one of 100k
/// subscriptions about once in 500).
fn preset(mut spec: pubsub_workload::WorkloadSpec, seed: u64) -> (Vec<Subscription>, Vec<Event>) {
    spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (lo, hi) = (spec.events.domain.lo, spec.events.domain.hi);
    let mut gen = WorkloadGen::new(spec);
    let subs: Vec<Subscription> = gen.all_subscriptions().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(POOL);
    while events.len() < POOL {
        let sub = &subs[rng.gen_range(0..subs.len())];
        let mut pairs = gen.event().pairs().to_vec();
        if plant(sub, &mut pairs, &mut rng, lo, hi) {
            events.push(Event::from_pairs(pairs).expect("planting keeps attributes distinct"));
        }
    }
    (subs, events)
}

/// Rewrites `pairs` so that `sub` matches them, with values inside
/// `[lo, hi]`. Returns false when `sub` cannot be satisfied there.
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
            Operator::Ne if c == lo => (lo + 1, hi),
            Operator::Ne => (lo, c - 1),
        };
        if from > to {
            return false;
        }
        let Some(slot) = pairs.iter_mut().find(|(a, _)| *a == p.attr) else {
            return false;
        };
        slot.1 = Value::Int(rng.gen_range(from..=to));
    }
    true
}

/// `n` one-predicate subscriptions, `a0 = v` for the first half and
/// `a1 = w` for the second, every constant distinct; each event carries one
/// subscribed constant per attribute.
fn forward(n: usize, seed: u64) -> (Vec<Subscription>, Vec<Event>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut values: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
    let mut seen = std::collections::BTreeSet::new();
    for (i, half) in [n / 2, n - n / 2].into_iter().enumerate() {
        while values[i].len() < half {
            let v = rng.gen_range(1i64..=1_000_000);
            if seen.insert(v) {
                values[i].push(v);
            }
        }
    }
    let subs = values
        .iter()
        .enumerate()
        .flat_map(|(a, vals)| {
            vals.iter().map(move |&v| {
                let pred = Predicate::new(AttrId(a as u32), Operator::Eq, Value::Int(v));
                Subscription::from_predicates(vec![pred]).expect("one predicate")
            })
        })
        .collect();
    let events = (0..POOL)
        .map(|_| {
            let pairs = (0..2)
                .map(|a| {
                    let v = values[a][rng.gen_range(0..values[a].len())];
                    (AttrId(a as u32), Value::Int(v))
                })
                .collect();
            Event::from_pairs(pairs).expect("two distinct attributes")
        })
        .collect();
    (subs, events)
}
