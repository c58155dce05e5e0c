//! Property tests for the indexing substrate: the phase-1 evaluators
//! against brute-force predicate evaluation, and the lower-bound kernels
//! against `slice::partition_point`.

use proptest::prelude::*;
use pubsub_index::{kernels, Phase1Batch, PredicateId, PredicateIndex};
use pubsub_types::{AttrId, Event, Operator, Predicate, Symbol, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..30).prop_map(Value::Int),
        (0u32..6).prop_map(|s| Value::Str(Symbol(s))),
    ]
}

fn arb_operator() -> impl Strategy<Value = Operator> {
    prop::sample::select(Operator::ALL.to_vec())
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0u32..5, arb_operator(), arb_value()).prop_map(|(a, op, v)| Predicate::new(AttrId(a), op, v))
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop::collection::btree_map(0u32..5, arb_value(), 0..5).prop_map(|m| {
        Event::from_pairs(m.into_iter().map(|(a, v)| (AttrId(a), v)).collect()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn evaluator_agrees_with_brute_force(
        preds in prop::collection::vec(arb_predicate(), 1..60),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let mut idx = PredicateIndex::new();
        let ids: Vec<_> = preds.iter().map(|&p| idx.intern(p)).collect();

        // Release a few references; a predicate only disappears when every
        // duplicate interning of it has been released.
        let mut released = vec![0usize; preds.len()];
        for r in removals {
            let i = r.index(preds.len());
            if released[i] == 0 {
                idx.release(ids[i]);
                released[i] = 1;
            }
        }
        // A predicate is live iff at least one of its interning references
        // survives.
        let mut refs: std::collections::HashMap<Predicate, i64> = Default::default();
        for (i, p) in preds.iter().enumerate() {
            *refs.entry(*p).or_insert(0) += 1 - released[i] as i64;
        }

        for event in &events {
            let mut got: Vec<Predicate> = idx
                .eval(event)
                .iter()
                .map(|&id| *idx.predicate(id))
                .collect();
            let mut want: Vec<Predicate> = refs
                .iter()
                .filter(|(p, &c)| c > 0 && p.matches_event(event))
                .map(|(p, _)| *p)
                .collect();
            let key = |p: &Predicate| format!("{p:?}");
            got.sort_by_key(key);
            got.dedup();
            want.sort_by_key(key);
            prop_assert_eq!(got, want);
        }
    }
}

/// The brute-force oracle: the distinct ids among `outstanding` interns whose
/// predicate the event satisfies, sorted. It reads only the test's own
/// record, never the registry's bookkeeping.
fn brute_force(outstanding: &[(PredicateId, Predicate)], event: &Event) -> Vec<PredicateId> {
    let mut ids: Vec<PredicateId> = outstanding
        .iter()
        .filter(|(_, p)| p.matches_event(event))
        .map(|&(id, _)| id)
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

/// One step of the interleaved snapshot-churn workload.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Intern a predicate (duplicates bump the refcount).
    Intern(Predicate),
    /// Release the i-th outstanding interning reference (modulo count).
    Release(prop::sample::Index),
    /// Evaluate an event and compare it with brute force.
    Match(Event),
    /// Force a merge-rebuild of every attribute snapshot.
    Flush,
}

fn churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        prop_oneof![
            5 => arb_predicate().prop_map(ChurnOp::Intern),
            3 => any::<prop::sample::Index>().prop_map(ChurnOp::Release),
            2 => arb_event().prop_map(ChurnOp::Match),
            1 => Just(ChurnOp::Flush),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The snapshot evaluator must agree with brute force after every
    /// prefix of a random interleaving of interns, releases, matches, and
    /// forced rebuilds — covering delta-overlay-resident, tombstoned, and
    /// post-rebuild snapshot states.
    #[test]
    fn snapshot_agrees_with_brute_force_under_churn(ops in churn_ops(), final_events in prop::collection::vec(arb_event(), 1..4)) {
        let mut idx = PredicateIndex::new();
        // Outstanding interning references, one entry per un-released intern.
        let mut outstanding: Vec<(PredicateId, Predicate)> = Vec::new();
        let mut matches_checked = 0usize;
        for op in ops {
            match op {
                ChurnOp::Intern(p) => outstanding.push((idx.intern(p), p)),
                ChurnOp::Release(i) => {
                    if !outstanding.is_empty() {
                        let (id, _) = outstanding.swap_remove(i.index(outstanding.len()));
                        idx.release(id);
                    }
                }
                ChurnOp::Match(event) => {
                    let mut got = idx.eval(&event);
                    got.sort();
                    prop_assert_eq!(got, brute_force(&outstanding, &event), "event {:?}", event);
                    matches_checked += 1;
                }
                ChurnOp::Flush => idx.rebuild_snapshots(),
            }
        }
        // Always end with a few comparisons so every generated sequence
        // checks something, whatever the op mix.
        for event in &final_events {
            let mut got = idx.eval(event);
            got.sort();
            prop_assert_eq!(got, brute_force(&outstanding, event), "final event {:?}", event);
            matches_checked += 1;
        }
        prop_assert!(matches_checked > 0);
    }
}

/// Flushes `pending` through the batched evaluator and compares every event
/// against both the per-event snapshot path and brute force over
/// `outstanding`.
fn check_batch(
    idx: &PredicateIndex,
    outstanding: &[(PredicateId, Predicate)],
    batch: &mut Phase1Batch,
    pending: &mut Vec<Event>,
) -> Result<usize, TestCaseError> {
    if pending.is_empty() {
        return Ok(0);
    }
    idx.eval_batch_into(pending, batch);
    for (i, event) in pending.iter().enumerate() {
        idx.materialize(batch, i);
        let mut got: Vec<_> = batch.satisfied(i).to_vec();
        let mut scalar = idx.eval(event);
        got.sort();
        scalar.sort();
        prop_assert_eq!(&got, &scalar, "batched vs scalar, event {:?}", event);
        prop_assert_eq!(
            &got,
            &brute_force(outstanding, event),
            "batched vs brute force, event {:?}",
            event
        );
        for &id in &got {
            prop_assert!(batch.bits(i).get(id.0), "bit {:?} unset", id);
        }
        prop_assert_eq!(batch.bits(i).count_ones(), got.len(), "spurious bits");
        batch.clear_event(i);
    }
    let n = pending.len();
    pending.clear();
    Ok(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched evaluator must agree with both the per-event snapshot
    /// path and brute force over interleaved intern/release/match
    /// churn, at several batch sizes (events are buffered and flushed as a
    /// batch before every mutation, so batches always see a consistent
    /// index — exactly the broker's usage pattern).
    #[test]
    fn batched_agrees_with_scalar_and_brute_force_under_churn(
        ops in churn_ops(),
        batch_size in prop::sample::select(vec![1usize, 7, 64]),
        final_events in prop::collection::vec(arb_event(), 1..4),
    ) {
        let mut idx = PredicateIndex::new();
        let mut outstanding: Vec<(PredicateId, Predicate)> = Vec::new();
        let mut batch = Phase1Batch::new();
        let mut pending: Vec<Event> = Vec::new();
        let mut matches_checked = 0usize;
        for op in ops {
            match op {
                ChurnOp::Intern(p) => {
                    matches_checked += check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
                    outstanding.push((idx.intern(p), p));
                }
                ChurnOp::Release(i) => {
                    matches_checked += check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
                    if !outstanding.is_empty() {
                        let (id, _) = outstanding.swap_remove(i.index(outstanding.len()));
                        idx.release(id);
                    }
                }
                ChurnOp::Match(event) => {
                    pending.push(event);
                    if pending.len() >= batch_size {
                        matches_checked += check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
                    }
                }
                ChurnOp::Flush => {
                    matches_checked += check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
                    idx.rebuild_snapshots();
                }
            }
        }
        pending.extend(final_events.iter().cloned());
        matches_checked += check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
        prop_assert!(matches_checked > 0);
        prop_assert!(
            batch.scratch_regrowths() <= 64,
            "scratch regrew {} times",
            batch.scratch_regrowths()
        );
    }

    /// Edge case: an index holding only `≠` predicates (no ordered
    /// breakpoints at all — the snapshot arrays stay empty) must still agree
    /// across all three paths, including for single-event batches.
    #[test]
    fn batched_all_ne_index_agrees(
        constants in prop::collection::vec(arb_value(), 1..12),
        events in prop::collection::vec(arb_event(), 1..6),
    ) {
        let mut idx = PredicateIndex::new();
        let mut outstanding = Vec::new();
        for (i, v) in constants.iter().enumerate() {
            let p = Predicate::new(AttrId((i % 3) as u32), Operator::Ne, *v);
            outstanding.push((idx.intern(p), p));
        }
        let mut batch = Phase1Batch::new();
        let mut pending = events.clone();
        check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
        // And one event at a time (batch size 1).
        for e in &events {
            let mut single = vec![e.clone()];
            check_batch(&idx, &outstanding, &mut batch, &mut single)?;
        }
    }

    /// Edge case: exactly one breakpoint per direction — the smallest
    /// non-empty snapshot the gallop and kernels can see.
    #[test]
    fn batched_single_breakpoint_agrees(
        op in prop::sample::select(vec![Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt]),
        c in 0i64..30,
        events in prop::collection::vec(arb_event(), 1..6),
    ) {
        let mut idx = PredicateIndex::new();
        let p = Predicate::new(AttrId(0), op, c);
        let outstanding = [(idx.intern(p), p)];
        let mut batch = Phase1Batch::new();
        let mut pending = events;
        check_batch(&idx, &outstanding, &mut batch, &mut pending)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every lower-bound kernel must agree with `slice::partition_point` on
    /// arbitrary sorted inputs and targets, including targets outside the
    /// array range and exact-hit duplicates. With `--features simd` this
    /// pins the SSE2 and (where the CPU has it) AVX2 kernels bit-identically
    /// to the scalar reference.
    #[test]
    fn lower_bound_kernels_agree(
        a in prop::collection::vec(any::<u64>(), 0..200),
        targets in prop::collection::vec(any::<u64>(), 1..8),
        pick in any::<prop::sample::Index>(),
    ) {
        let mut a = a;
        a.sort_unstable();
        // Probe arbitrary targets plus values actually present (duplicates
        // must land on the first occurrence) and their neighbours.
        let mut probes = targets;
        if !a.is_empty() {
            let x = a[pick.index(a.len())];
            probes.extend([x, x.wrapping_add(1), x.wrapping_sub(1)]);
        }
        probes.extend([0, 1 << 63, u64::MAX]);
        for t in probes {
            let want = kernels::lower_bound_scalar(&a, t);
            prop_assert_eq!(kernels::lower_bound_portable(&a, t), want, "portable, t={}", t);
            prop_assert_eq!(kernels::lower_bound_u64(&a, t), want, "dispatch, t={}", t);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            {
                prop_assert_eq!(kernels::lower_bound_sse2(&a, t), want, "sse2, t={}", t);
                if let Some(got) = kernels::lower_bound_avx2(&a, t) {
                    prop_assert_eq!(got, want, "avx2, t={}", t);
                }
            }
        }
    }
}
