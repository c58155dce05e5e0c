//! Engine equivalence: every engine must produce exactly the match set of
//! the brute-force oracle, on random subscription/event streams with
//! interleaved insertions and deletions. This is the central correctness
//! property of the whole system.

use proptest::prelude::*;
use pubsub_core::{ClusteredMatcher, DynamicConfig, EngineKind, MatchEngine};
use pubsub_types::{AttrId, Event, Operator, Predicate, Subscription, SubscriptionId, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    // Small domains make collisions (and therefore matches) frequent.
    (0i64..8).prop_map(Value::Int)
}

fn arb_operator() -> impl Strategy<Value = Operator> {
    prop::sample::select(Operator::ALL.to_vec())
}

fn arb_subscription() -> impl Strategy<Value = Subscription> {
    prop::collection::vec((0u32..6, arb_operator(), arb_value()), 1..6).prop_map(|triples| {
        let mut seen = std::collections::HashSet::new();
        let preds: Vec<Predicate> = triples
            .into_iter()
            .map(|(a, op, v)| Predicate::new(AttrId(a), op, v))
            .filter(|p| seen.insert(*p))
            .collect();
        Subscription::from_predicates(preds).expect("non-empty, deduped")
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop::collection::btree_map(0u32..6, arb_value(), 1..6).prop_map(|m| {
        Event::from_pairs(m.into_iter().map(|(a, v)| (AttrId(a), v)).collect()).unwrap()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Subscription),
    RemoveNth(prop::sample::Index),
    Match(Event),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => arb_subscription().prop_map(Op::Insert),
            1 => any::<prop::sample::Index>().prop_map(Op::RemoveNth),
            3 => arb_event().prop_map(Op::Match),
        ],
        1..80,
    )
}

/// Runs the op stream against one engine and the oracle, comparing every
/// match set.
fn check_engine(mut engine: Box<dyn MatchEngine + Send>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut oracle = EngineKind::BruteForce.build();
    let mut live: Vec<SubscriptionId> = Vec::new();
    let mut next_id = 0u32;
    for op in ops {
        match op {
            Op::Insert(sub) => {
                let id = SubscriptionId(next_id);
                next_id += 1;
                engine.insert(id, sub);
                oracle.insert(id, sub);
                live.push(id);
            }
            Op::RemoveNth(n) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(n.index(live.len()));
                engine.remove(id);
                oracle.remove(id);
            }
            Op::Match(event) => {
                let mut got = Vec::new();
                let mut want = Vec::new();
                engine.match_event(event, &mut got);
                oracle.match_event(event, &mut want);
                got.sort();
                want.sort();
                prop_assert_eq!(
                    &got,
                    &want,
                    "engine {} disagrees with oracle on {:?}",
                    engine.name(),
                    event
                );
                // No duplicates allowed either.
                let mut dedup = got.clone();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), got.len(), "duplicate matches");
            }
        }
        prop_assert_eq!(engine.len(), oracle.len());
    }
    Ok(())
}

/// Like [`check_engine`], but events are buffered and delivered through
/// [`MatchEngine::match_batch_into`] in batches of `batch_size` (flushed
/// before every mutation, mirroring the broker's batched publish): the
/// batched phase-1 path must produce exactly the oracle's per-event match
/// sets.
fn check_engine_batched(
    mut engine: Box<dyn MatchEngine + Send>,
    ops: &[Op],
    batch_size: usize,
) -> Result<(), TestCaseError> {
    let mut oracle = EngineKind::BruteForce.build();
    let mut live: Vec<SubscriptionId> = Vec::new();
    let mut next_id = 0u32;
    let mut pending: Vec<Event> = Vec::new();
    let mut results: Vec<Vec<SubscriptionId>> = Vec::new();

    fn flush(
        engine: &mut Box<dyn MatchEngine + Send>,
        oracle: &mut Box<dyn MatchEngine + Send>,
        pending: &mut Vec<Event>,
        results: &mut Vec<Vec<SubscriptionId>>,
    ) -> Result<(), TestCaseError> {
        if pending.is_empty() {
            return Ok(());
        }
        engine.match_batch_into(pending, results);
        prop_assert_eq!(results.len(), pending.len());
        for (event, got) in pending.iter().zip(results.iter_mut()) {
            let mut want = Vec::new();
            oracle.match_event(event, &mut want);
            got.sort();
            want.sort();
            prop_assert_eq!(
                &*got,
                &want,
                "batched engine {} disagrees with oracle on {:?}",
                engine.name(),
                event
            );
            let mut dedup = got.clone();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), got.len(), "duplicate matches");
        }
        pending.clear();
        Ok(())
    }

    for op in ops {
        match op {
            Op::Insert(sub) => {
                flush(&mut engine, &mut oracle, &mut pending, &mut results)?;
                let id = SubscriptionId(next_id);
                next_id += 1;
                engine.insert(id, sub);
                oracle.insert(id, sub);
                live.push(id);
            }
            Op::RemoveNth(n) => {
                flush(&mut engine, &mut oracle, &mut pending, &mut results)?;
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(n.index(live.len()));
                engine.remove(id);
                oracle.remove(id);
            }
            Op::Match(event) => {
                pending.push(event.clone());
                if pending.len() >= batch_size {
                    flush(&mut engine, &mut oracle, &mut pending, &mut results)?;
                }
            }
        }
    }
    flush(&mut engine, &mut oracle, &mut pending, &mut results)?;
    prop_assert_eq!(engine.len(), oracle.len());
    Ok(())
}

/// The aggressive dynamic configuration: a tiny period and low thresholds
/// force the §4 maintenance machinery (table create/delete, relocation) to
/// run constantly, so matching correctness is exercised *mid-churn*.
fn aggressive_dynamic() -> ClusteredMatcher {
    ClusteredMatcher::new_dynamic_with(DynamicConfig {
        period: 3,
        bm_max: 0.05,
        b_create: 2,
        b_delete: 2,
        max_schema_len: 3,
        min_gain: 0.0,
        decay_stats: true,
    })
}

proptest! {
    // The acceptance bar for the differential harness: N ≥ 256 identical
    // random interleavings through *all five* paper engines at once.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_engines_agree_on_identical_interleavings(ops in arb_ops()) {
        // One generated subscribe/unsubscribe/publish interleaving drives
        // every engine; after every publish, every engine's sorted match set
        // must equal the brute-force oracle's (hence each other's). The
        // aggressive-dynamic instance covers maintenance running mid-churn,
        // not just a statically clustered snapshot.
        let mut engines: Vec<Box<dyn MatchEngine + Send>> = vec![
            EngineKind::Counting.build(),
            EngineKind::Propagation.build(),
            EngineKind::PropagationPrefetch.build(),
            EngineKind::Static.build(),
            EngineKind::Dynamic.build(),
            Box::new(aggressive_dynamic()),
        ];
        let mut oracle = EngineKind::BruteForce.build();
        let mut live: Vec<SubscriptionId> = Vec::new();
        let mut next_id = 0u32;
        for op in &ops {
            match op {
                Op::Insert(sub) => {
                    let id = SubscriptionId(next_id);
                    next_id += 1;
                    for e in &mut engines {
                        e.insert(id, sub);
                    }
                    oracle.insert(id, sub);
                    live.push(id);
                }
                Op::RemoveNth(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.swap_remove(n.index(live.len()));
                    for e in &mut engines {
                        e.remove(id);
                    }
                    oracle.remove(id);
                }
                Op::Match(event) => {
                    let mut want = Vec::new();
                    oracle.match_event(event, &mut want);
                    want.sort();
                    for e in &mut engines {
                        let mut got = Vec::new();
                        e.match_event(event, &mut got);
                        got.sort();
                        prop_assert_eq!(
                            &got,
                            &want,
                            "engine {} diverges from oracle on {:?}",
                            e.name(),
                            event
                        );
                    }
                }
            }
            for e in &engines {
                prop_assert_eq!(e.len(), oracle.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counting_matches_oracle(ops in arb_ops()) {
        check_engine(EngineKind::Counting.build(), &ops)?;
    }

    #[test]
    fn propagation_matches_oracle(ops in arb_ops()) {
        check_engine(EngineKind::Propagation.build(), &ops)?;
    }

    #[test]
    fn propagation_wp_matches_oracle(ops in arb_ops()) {
        check_engine(EngineKind::PropagationPrefetch.build(), &ops)?;
    }

    #[test]
    fn static_matches_oracle(ops in arb_ops()) {
        check_engine(EngineKind::Static.build(), &ops)?;
    }

    #[test]
    fn dynamic_matches_oracle(ops in arb_ops()) {
        check_engine(EngineKind::Dynamic.build(), &ops)?;
    }

    #[test]
    fn dynamic_with_aggressive_maintenance_matches_oracle(ops in arb_ops()) {
        // A tiny period and thresholds force maintenance to run constantly,
        // exercising table creation/deletion and relocation under churn.
        check_engine(Box::new(aggressive_dynamic()), &ops)?;
    }

    // Batched lanes: the same interleavings delivered through
    // `match_batch_into`, across every paper engine and batch sizes
    // {1, 7, 64} (proptest samples all sizes across cases). Batch size 1
    // pins the batched path's per-event degenerate case; 64 crosses the
    // block-mask boundary of the snapshot index.

    #[test]
    fn counting_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        check_engine_batched(EngineKind::Counting.build(), &ops, batch)?;
    }

    #[test]
    fn propagation_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        check_engine_batched(EngineKind::Propagation.build(), &ops, batch)?;
    }

    #[test]
    fn propagation_wp_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        check_engine_batched(EngineKind::PropagationPrefetch.build(), &ops, batch)?;
    }

    #[test]
    fn static_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        check_engine_batched(EngineKind::Static.build(), &ops, batch)?;
    }

    #[test]
    fn dynamic_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        check_engine_batched(EngineKind::Dynamic.build(), &ops, batch)?;
    }

    #[test]
    fn aggressive_dynamic_batched_matches_oracle(
        ops in arb_ops(),
        batch in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        // Maintenance (table create/delete, relocation) firing *between*
        // events of one batch must not corrupt the remaining events'
        // phase-1 results.
        check_engine_batched(Box::new(aggressive_dynamic()), &ops, batch)?;
    }

    #[test]
    fn static_finalize_preserves_semantics(
        subs in prop::collection::vec(arb_subscription(), 1..40),
        events in prop::collection::vec(arb_event(), 1..10),
    ) {
        // Insert everything, warm statistics, finalize, then compare.
        let mut engine = EngineKind::Static.build();
        let mut oracle = EngineKind::BruteForce.build();
        for (i, sub) in subs.iter().enumerate() {
            engine.insert(SubscriptionId(i as u32), sub);
            oracle.insert(SubscriptionId(i as u32), sub);
        }
        let mut sink = Vec::new();
        for e in &events {
            engine.match_event(e, &mut sink);
            sink.clear();
        }
        engine.finalize();
        for e in &events {
            let mut got = Vec::new();
            let mut want = Vec::new();
            engine.match_event(e, &mut got);
            oracle.match_event(e, &mut want);
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}
