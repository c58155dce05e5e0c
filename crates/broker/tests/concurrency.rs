//! Stress and differential tests for the snapshot (RCU) publish path.
//!
//! Three layers of evidence that snapshot publishing is correct:
//!
//! 1. **Racing invariants** — publishers run full speed against
//!    subscribe/unsubscribe/advance churn and assert, *per publish*, that a
//!    set of pinned forever-subscriptions always matches exactly: no torn
//!    match sets, no duplicates, no ids from the churn population (whose
//!    predicates target a disjoint value space), and in particular no ids
//!    from subscriptions that were removed and reclaimed.
//! 2. **Post-quiescence oracle equality** — once the churn threads join, the
//!    broker's answer for every value is compared against a brute-force
//!    model of the surviving subscription set.
//! 3. **Reclamation** — retired snapshots are actually freed: the retired
//!    list drains to zero at quiescence instead of accumulating one garbage
//!    snapshot per mutation.
//!
//! The full matrix runs all five paper engines × shard counts {1, 2, 7}.

use pubsub_broker::{Broker, LogicalTime, SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_types::{AttrId, Event, Subscription, SubscriptionId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Values the pinned (never-removed) subscriptions listen on.
const PINNED_VALUES: i64 = 6;
/// Pinned subscriptions per value.
const PINNED_PER_VALUE: usize = 3;
/// Values the churned subscriptions listen on — disjoint from the pinned
/// space so racing publishers can assert exact match sets.
const CHURN_BASE: i64 = 1_000;
const CHURN_VALUES: i64 = 6;

fn event(attr: AttrId, v: i64) -> Event {
    Event::builder().pair(attr, v).build().unwrap()
}

fn sub(attr: AttrId, v: i64) -> Subscription {
    Subscription::builder().eq(attr, v).build().unwrap()
}

/// Registers the pinned population and returns value → sorted ids.
fn pin_subscriptions(broker: &SharedBroker, attr: AttrId) -> BTreeMap<i64, Vec<SubscriptionId>> {
    let mut pinned: BTreeMap<i64, Vec<SubscriptionId>> = BTreeMap::new();
    for v in 0..PINNED_VALUES {
        for _ in 0..PINNED_PER_VALUE {
            pinned
                .entry(v)
                .or_default()
                .push(broker.subscribe(sub(attr, v), Validity::forever()));
        }
    }
    for ids in pinned.values_mut() {
        ids.sort_unstable();
    }
    pinned
}

/// What the churn thread did to one subscription, for the quiescence oracle.
struct ChurnRecord {
    id: SubscriptionId,
    value: i64,
    until: Option<LogicalTime>,
    removed: bool,
}

/// Runs subscribe/unsubscribe/advance churn; returns the full op log.
fn run_churn(broker: &SharedBroker, attr: AttrId, seed: u64, ops: usize) -> Vec<ChurnRecord> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut log: Vec<ChurnRecord> = Vec::new();
    for _ in 0..ops {
        match rng.gen_range(0u32..10) {
            // Subscribe in the churn value space, sometimes with an expiry.
            0..=5 => {
                let value = CHURN_BASE + rng.gen_range(0..CHURN_VALUES);
                let until = rng
                    .gen_bool(0.4)
                    .then(|| broker.now().plus(rng.gen_range(1..12)));
                let validity = match until {
                    Some(u) => Validity::until(u),
                    None => Validity::forever(),
                };
                let id = broker.subscribe(sub(attr, value), validity);
                log.push(ChurnRecord {
                    id,
                    value,
                    until,
                    removed: false,
                });
            }
            // Unsubscribe one of our own earlier subscriptions.
            6..=8 => {
                if log.is_empty() {
                    continue;
                }
                let pick = rng.gen_range(0..log.len());
                let rec = &mut log[pick];
                if !rec.removed {
                    // `false` means an expiry got there first; either way the
                    // subscription is gone and the oracle treats it as such.
                    broker.unsubscribe(rec.id);
                    rec.removed = true;
                }
            }
            // Advance the clock, expiring bounded-validity churn subs.
            _ => {
                broker.tick();
            }
        }
    }
    log
}

/// The racing publishers + churn stress for one engine × shard combination.
fn stress_combo(kind: EngineKind, shards: usize) {
    let broker = SharedBroker::new(kind, shards);
    let attr = broker.attr("stress");
    let pinned = Arc::new(pin_subscriptions(&broker, attr));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Fixed round counts rather than a stop flag: on a single-core box the
    // churn loop can finish before a publisher is ever scheduled, and both
    // sides must actually run for the race to mean anything.
    let mut publishers = Vec::new();
    for t in 0..2u64 {
        let broker = broker.clone();
        let pinned = Arc::clone(&pinned);
        let failures = Arc::clone(&failures);
        publishers.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xF00D + t);
            for rounds in 1u64..=300 {
                let v = rng.gen_range(0..PINNED_VALUES);
                let expected = &pinned[&v];
                // Alternate the single-event and batched read paths.
                let results = if rounds % 4 == 0 {
                    let batch = [event(attr, v), event(attr, CHURN_BASE + (v % CHURN_VALUES))];
                    broker.publish_batch(&batch)
                } else {
                    vec![broker.publish(&event(attr, v))]
                };
                let got = &results[0];
                if got != expected {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("value {v}: got {got:?}, want {expected:?}"));
                    return;
                }
                // Churn-space results race with mutators, so only structural
                // invariants hold: sorted, duplicate-free, never a pinned id.
                for out in &results[1..] {
                    if !out.windows(2).all(|w| w[0] < w[1]) {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("unsorted or duplicated churn matches: {out:?}"));
                        return;
                    }
                    if out
                        .iter()
                        .any(|id| pinned.values().flatten().any(|p| p == id))
                    {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("pinned id matched a churn-space event: {out:?}"));
                        return;
                    }
                }
            }
        }));
    }

    let log = run_churn(&broker, attr, 0xC0FFEE ^ shards as u64, 250);
    for p in publishers {
        p.join().unwrap();
    }
    let failures = failures.lock().unwrap();
    assert!(
        failures.is_empty(),
        "[{kind:?} × {shards} shards] racing publisher saw inconsistent matches:\n{}",
        failures.join("\n")
    );

    // ---- post-quiescence oracle equality -----------------------------------
    // One last tick expires everything with `until <= now + 1`, then the
    // broker must agree with a brute-force model of the op log.
    broker.tick();
    let now = broker.now();
    let mut alive: BTreeMap<i64, Vec<SubscriptionId>> = BTreeMap::new();
    for rec in &log {
        if !rec.removed && rec.until.is_none_or(|u| u > now) {
            alive.entry(rec.value).or_default().push(rec.id);
        }
    }
    for ids in alive.values_mut() {
        ids.sort_unstable();
    }
    for v in 0..PINNED_VALUES {
        assert_eq!(
            broker.publish(&event(attr, v)),
            pinned[&v],
            "[{kind:?} × {shards} shards] pinned value {v} diverged at quiescence"
        );
    }
    for v in CHURN_BASE..CHURN_BASE + CHURN_VALUES {
        let expected = alive.get(&v).cloned().unwrap_or_default();
        assert_eq!(
            broker.publish(&event(attr, v)),
            expected,
            "[{kind:?} × {shards} shards] churn value {v} diverged at quiescence"
        );
    }

    // ---- reclamation -------------------------------------------------------
    let status = broker.rcu_status();
    assert!(status.flips > 0, "mutations must flip the snapshot");
    assert_eq!(status.epoch, status.flips + 1);
    assert_eq!(status.active_readers, 0, "no publisher left pinned");
    broker.compact();
    let status = broker.rcu_status();
    assert_eq!(
        status.retired, 0,
        "[{kind:?} × {shards} shards] retired snapshots must drain at quiescence"
    );
}

#[test]
fn racing_publishers_see_consistent_snapshots_counting() {
    for shards in SHARD_COUNTS {
        stress_combo(EngineKind::Counting, shards);
    }
}

#[test]
fn racing_publishers_see_consistent_snapshots_propagation() {
    for shards in SHARD_COUNTS {
        stress_combo(EngineKind::Propagation, shards);
    }
}

#[test]
fn racing_publishers_see_consistent_snapshots_propagation_prefetch() {
    for shards in SHARD_COUNTS {
        stress_combo(EngineKind::PropagationPrefetch, shards);
    }
}

#[test]
fn racing_publishers_see_consistent_snapshots_static() {
    for shards in SHARD_COUNTS {
        stress_combo(EngineKind::Static, shards);
    }
}

#[test]
fn racing_publishers_see_consistent_snapshots_dynamic() {
    for shards in SHARD_COUNTS {
        stress_combo(EngineKind::Dynamic, shards);
    }
}

/// Single-threaded randomized differential churn: every operation is
/// mirrored into a plain model map, and every publish must return exactly
/// the model's answer. Exercises base/delta/tombstone bookkeeping and the
/// merge threshold without scheduling noise.
fn differential_combo(kind: EngineKind, shards: usize, seed: u64) {
    let broker = SharedBroker::new(kind, shards);
    let attr = broker.attr("diff");
    let mut rng = SmallRng::seed_from_u64(seed);
    // id → (value, until); engines drop a bounded sub only when the clock
    // passes `until`, so the model prunes on tick, not lazily.
    let mut model: BTreeMap<SubscriptionId, (i64, Option<LogicalTime>)> = BTreeMap::new();
    for _ in 0..500 {
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let value = rng.gen_range(0i64..16);
                let until = rng
                    .gen_bool(0.3)
                    .then(|| broker.now().plus(rng.gen_range(1..8)));
                let validity = match until {
                    Some(u) => Validity::until(u),
                    None => Validity::forever(),
                };
                let id = broker.subscribe(sub(attr, value), validity);
                model.insert(id, (value, until));
            }
            5..=6 => {
                if let Some(&id) = model.keys().nth(rng.gen_range(0..model.len().max(1))) {
                    assert!(broker.unsubscribe(id), "model said {id} was live");
                    model.remove(&id);
                }
            }
            7 => {
                broker.tick();
                let now = broker.now();
                model.retain(|_, (_, until)| until.is_none_or(|u| u > now));
            }
            _ => {
                let v = rng.gen_range(0i64..16);
                let mut expected: Vec<SubscriptionId> = model
                    .iter()
                    .filter(|(_, (value, _))| *value == v)
                    .map(|(&id, _)| id)
                    .collect();
                expected.sort_unstable();
                assert_eq!(
                    broker.publish(&event(attr, v)),
                    expected,
                    "[{kind:?} × {shards} shards, seed {seed}] diverged from model"
                );
            }
        }
    }
}

#[test]
fn differential_churn_matches_model_for_every_engine_and_shard_count() {
    for kind in EngineKind::PAPER_ENGINES {
        for shards in SHARD_COUNTS {
            differential_combo(kind, shards, 0xD1FF ^ ((shards as u64) << 8));
        }
    }
}

/// The snapshot publish path must agree with a single-threaded [`Broker`]
/// of the same engine on an identical history.
#[test]
fn shared_broker_agrees_with_single_threaded_broker() {
    let shared = SharedBroker::new(EngineKind::Counting, 3);
    let mut reference = Broker::new(EngineKind::Counting).without_event_store();
    let attr_s = shared.attr("m");
    let attr_r = reference.attr("m");
    let mut rng = SmallRng::seed_from_u64(7);
    let mut ids: Vec<(SubscriptionId, SubscriptionId)> = Vec::new();
    for _ in 0..200 {
        if rng.gen_bool(0.7) || ids.is_empty() {
            let v = rng.gen_range(0i64..8);
            ids.push((
                shared.subscribe(sub(attr_s, v), Validity::forever()),
                reference.subscribe(sub(attr_r, v), Validity::forever()),
            ));
        } else {
            let (a, b) = ids.swap_remove(rng.gen_range(0..ids.len()));
            assert!(shared.unsubscribe(a));
            assert!(reference.unsubscribe(b));
        }
        let v = rng.gen_range(0i64..8);
        let mut expected = reference.publish(&event(attr_r, v));
        expected.sort_unstable();
        assert_eq!(
            shared.publish(&event(attr_s, v)),
            expected,
            "diverged from the reference (subscribe order is identical, so ids align)"
        );
    }
}

/// Old snapshots must be freed as mutations retire them — the retired list
/// stays bounded during churn instead of growing by one per flip.
#[test]
fn retired_snapshots_do_not_accumulate() {
    let broker = SharedBroker::new(EngineKind::Counting, 2);
    let attr = broker.attr("r");
    let mut ids = Vec::new();
    for i in 0..400i64 {
        ids.push(broker.subscribe(sub(attr, i % 5), Validity::forever()));
        if i % 3 == 0 {
            broker.unsubscribe(ids.swap_remove(0));
        }
        // With no reader pinned, each flip reclaims its predecessor: the
        // retired list never holds more than the one snapshot just replaced.
        assert!(
            broker.rcu_status().retired <= 1,
            "unbounded epoch garbage at mutation {i}: {:?}",
            broker.rcu_status()
        );
    }
    let status = broker.rcu_status();
    assert!(status.flips >= 400 + 400 / 3);
    broker.compact();
    assert_eq!(broker.rcu_status().retired, 0);
}

/// Live subscriptions per stripe the insert phase of the tiered history
/// reaches: past the 2 048 a level-1 tier may hold, so every stripe carries
/// into a level-2 base, and on to a level-1 and a level-0 tier above it.
const TIERED_PER_STRIPE: usize = 2_750;
/// Churn-phase steps per stripe of the tiered history.
const TIERED_CHURN_PER_STRIPE: usize = 300;
/// Subscriptions a level-1 tier may hold; a larger build is level 2.
const LEVEL1_CAPACITY: usize = 2_048;

/// Per-mille thresholds of one phase's op mix: subscribe below `.0`,
/// unsubscribe below `.1`, tick below `.2`, publish (single or batched)
/// from there to 1 000.
type OpMix = (u32, u32, u32);
const INSERT_HEAVY: OpMix = (975, 995, 995);
const CHURN_HEAVY: OpMix = (400, 750, 880);

/// The differential model of [`differential_combo`] over a history long
/// enough to reach the frozen tiers. An insert-heavy phase grows every
/// stripe through tier levels 0, 1 and 2, ending each level with a
/// whole-stripe merge into a new base; 30 % of its subscriptions carry
/// validities that end during the following churn-heavy phase, so expiries
/// land in the base and in every younger tier. The churn phase then subscribes (short
/// validities), unsubscribes and ticks; a third of its unsubscribes take
/// the newest live id, which sits in L0 or in the newest tier. Every
/// publish and batch publish must equal the model exactly.
fn tiered_differential_combo(kind: EngineKind, shards: usize, seed: u64) {
    let broker = SharedBroker::new(kind, shards);
    let attr = broker.attr("tiered");
    let mut rng = SmallRng::seed_from_u64(seed);
    let ctx = format!("[{kind:?} × {shards} shards, seed {seed}]");
    let mut model: Model = BTreeMap::new();
    let churn_steps = TIERED_CHURN_PER_STRIPE * shards;
    let churn_ticks = churn_steps as u64 * u64::from(CHURN_HEAVY.2 - CHURN_HEAVY.1) / 1_000;
    // Per stripe: the largest build one subscribe fed the whole stripe to.
    let mut whole_merge = vec![0usize; shards];

    for (inserting, mix) in [(true, INSERT_HEAVY), (false, CHURN_HEAVY)] {
        let mut steps = 0;
        loop {
            let done = if inserting {
                model.len() >= TIERED_PER_STRIPE * shards
            } else {
                steps == churn_steps
            };
            if done {
                break;
            }
            steps += 1;
            let roll = rng.gen_range(0u32..1_000);
            if roll < mix.0 {
                let value = rng.gen_range(0i64..16);
                let ahead = if inserting { churn_ticks } else { 8 };
                let until = rng
                    .gen_bool(0.3)
                    .then(|| broker.now().plus(rng.gen_range(1..=ahead)));
                let validity = until.map_or(Validity::forever(), Validity::until);
                let built = broker.rcu_status().built;
                let id = broker.subscribe(sub(attr, value), validity);
                let fed = (broker.rcu_status().built - built) as usize;
                let stripe = id.0 as usize % shards;
                if fed == broker.shard_subscription_counts()[stripe] {
                    whole_merge[stripe] = whole_merge[stripe].max(fed);
                }
                model.insert(id, (value, until));
            } else if roll < mix.1 {
                // The newest live id, or the first live id at or after a
                // random one, without walking the model.
                let newest = model.keys().next_back().copied();
                let pick = if rng.gen_bool(1.0 / 3.0) {
                    newest
                } else {
                    let from = rng.gen_range(0..=newest.map_or(0, |id| id.0));
                    model
                        .range(SubscriptionId(from)..)
                        .next()
                        .map(|(&id, _)| id)
                };
                if let Some(id) = pick {
                    assert!(broker.unsubscribe(id), "{ctx}: model said {id} was live");
                    model.remove(&id);
                }
            } else if roll < mix.2 {
                broker.tick();
                let now = broker.now();
                model.retain(|_, (_, until)| until.is_none_or(|u| u > now));
            } else if roll % 2 == 0 {
                let v = rng.gen_range(0i64..16);
                assert_eq!(
                    broker.publish(&event(attr, v)),
                    expected(&model, v),
                    "{ctx}: publish diverged from model (inserting: {inserting})"
                );
            } else {
                let values = [rng.gen_range(0i64..16), rng.gen_range(0i64..16)];
                let events = values.map(|v| event(attr, v));
                for (v, got) in values.iter().zip(broker.publish_batch(&events)) {
                    assert_eq!(
                        got,
                        expected(&model, *v),
                        "{ctx}: batch publish diverged from model (inserting: {inserting})"
                    );
                }
            }
        }
        let events: Vec<Event> = (0i64..16).map(|v| event(attr, v)).collect();
        for (v, got) in broker.publish_batch(&events).into_iter().enumerate() {
            assert_eq!(got, expected(&model, v as i64), "{ctx}: end of phase");
        }
    }
    for (stripe, &largest) in whole_merge.iter().enumerate() {
        assert!(
            largest > LEVEL1_CAPACITY,
            "{ctx}: stripe {stripe} never merged whole into a level-2 base (largest {largest})"
        );
    }
}

/// id → (value, until), as in [`differential_combo`].
type Model = BTreeMap<SubscriptionId, (i64, Option<LogicalTime>)>;

/// The model's answer for an event carrying `v`, sorted by id.
fn expected(model: &Model, v: i64) -> Vec<SubscriptionId> {
    model
        .iter()
        .filter(|(_, (value, _))| *value == v)
        .map(|(&id, _)| id)
        .collect()
}

fn tiered_differential_for(kind: EngineKind) {
    for shards in SHARD_COUNTS {
        tiered_differential_combo(kind, shards, 0x71E2 ^ ((shards as u64) << 8));
    }
}

#[test]
fn tiered_differential_history_matches_model_counting() {
    tiered_differential_for(EngineKind::Counting);
}

#[test]
fn tiered_differential_history_matches_model_propagation() {
    tiered_differential_for(EngineKind::Propagation);
}

#[test]
fn tiered_differential_history_matches_model_propagation_prefetch() {
    tiered_differential_for(EngineKind::PropagationPrefetch);
}

#[test]
fn tiered_differential_history_matches_model_static() {
    tiered_differential_for(EngineKind::Static);
}

#[test]
fn tiered_differential_history_matches_model_dynamic() {
    tiered_differential_for(EngineKind::Dynamic);
}

/// Subscriptions per stripe on the 16 shared constants of the recycling
/// history: past a level-0 tier's 256, so the base outlives every merge.
const RECYCLE_SHARED_PER_STRIPE: usize = 400;
/// Steps per stripe of the recycling history.
const RECYCLE_STEPS_PER_STRIPE: usize = 1_500;
/// First constant of the mortal subscriptions; shared ones lie below 16.
const RECYCLE_MORTAL_BASE: i64 = 10_000;

/// A differential history whose predicates die and are born again. The
/// long-lived subscriptions hold the 16 shared constants; a mortal
/// subscription gets a constant no live subscription holds, so
/// unsubscribing it leaves a predicate only a tombstoned entry names. The
/// predicate dies when its tier is rebuilt (tombstones past 1/8) or merged
/// away, freeing its id, and a later mortal's constant is minted into that
/// recycled id while tiers merge and rebuild around it. A quarter of the
/// mortals revive a dead constant instead, whose predicate may still await
/// its free. Every publish and batch publish — of shared, live, dead and
/// never-used constants — must equal the model, and the published
/// predicate count must fall and then rise again.
fn recycling_history_combo(kind: EngineKind, shards: usize, seed: u64) {
    let broker = SharedBroker::new(kind, shards);
    let attr = broker.attr("recycled");
    let mut rng = SmallRng::seed_from_u64(seed);
    let ctx = format!("[{kind:?} × {shards} shards, seed {seed}]");
    let mut model: Model = BTreeMap::new();
    for _ in 0..RECYCLE_SHARED_PER_STRIPE * shards {
        let value = rng.gen_range(0i64..16);
        model.insert(
            broker.subscribe(sub(attr, value), Validity::forever()),
            (value, None),
        );
    }
    let (mut mortal, mut dead) = (Vec::new(), Vec::new());
    let mut next = RECYCLE_MORTAL_BASE;
    let (mut last, mut fell, mut reborn) = (broker.rcu_status().predicates, false, false);
    for _ in 0..RECYCLE_STEPS_PER_STRIPE * shards {
        let pick = |rng: &mut SmallRng, mortal: &[SubscriptionId], dead: &[i64]| -> i64 {
            match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0i64..16),
                1 if !mortal.is_empty() => model[&mortal[rng.gen_range(0..mortal.len())]].0,
                2 if !dead.is_empty() => dead[rng.gen_range(0..dead.len())],
                _ => -rng.gen_range(1i64..100),
            }
        };
        let roll = rng.gen_range(0u32..100);
        if roll < 45 {
            let value = if !dead.is_empty() && rng.gen_bool(0.25) {
                dead.swap_remove(rng.gen_range(0..dead.len()))
            } else {
                next += 1;
                next
            };
            let id = broker.subscribe(sub(attr, value), Validity::forever());
            model.insert(id, (value, None));
            mortal.push(id);
        } else if roll < 85 {
            if !mortal.is_empty() {
                let id = mortal.swap_remove(rng.gen_range(0..mortal.len()));
                assert!(broker.unsubscribe(id), "{ctx}: model said {id} was live");
                dead.push(model.remove(&id).expect("mortal ids are live").0);
            }
        } else if roll < 95 {
            let v = pick(&mut rng, &mortal, &dead);
            assert_eq!(
                broker.publish(&event(attr, v)),
                expected(&model, v),
                "{ctx}: publish of {v} diverged from model"
            );
        } else {
            let values: Vec<i64> = (0..4).map(|_| pick(&mut rng, &mortal, &dead)).collect();
            let events: Vec<Event> = values.iter().map(|&v| event(attr, v)).collect();
            for (v, got) in values.iter().zip(broker.publish_batch(&events)) {
                assert_eq!(
                    got,
                    expected(&model, *v),
                    "{ctx}: batch publish of {v} diverged"
                );
            }
        }
        let now = broker.rcu_status().predicates;
        fell |= now < last;
        reborn |= fell && now > last;
        last = now;
    }
    let values: Vec<i64> = (0i64..16).chain(dead.iter().copied()).collect();
    let values = values
        .into_iter()
        .chain(mortal.iter().map(|id| model[id].0));
    for v in values {
        assert_eq!(
            broker.publish(&event(attr, v)),
            expected(&model, v),
            "{ctx}: end, {v}"
        );
    }
    assert!(reborn, "{ctx}: no predicate died and was born again");
}

fn recycling_history_for(kind: EngineKind) {
    for shards in [1, 2] {
        recycling_history_combo(kind, shards, 0x2EC7 ^ ((shards as u64) << 8));
    }
}

#[test]
fn tiered_differential_history_recycles_predicates_counting() {
    recycling_history_for(EngineKind::Counting);
}

#[test]
fn tiered_differential_history_recycles_predicates_propagation() {
    recycling_history_for(EngineKind::Propagation);
}

#[test]
fn tiered_differential_history_recycles_predicates_propagation_prefetch() {
    recycling_history_for(EngineKind::PropagationPrefetch);
}

#[test]
fn tiered_differential_history_recycles_predicates_static() {
    recycling_history_for(EngineKind::Static);
}

#[test]
fn tiered_differential_history_recycles_predicates_dynamic() {
    recycling_history_for(EngineKind::Dynamic);
}
