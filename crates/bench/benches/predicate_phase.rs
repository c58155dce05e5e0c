//! Phase-1 micro-benchmarks: predicate evaluation through the equality hash
//! index, the ordered snapshot index, and the `≠` list index.
//!
//! The paper reports the predicate phase costs 1.3 ms per event at 6M
//! subscriptions / 32 attributes / domain 35 (it is shared by all engines);
//! this bench isolates that phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pubsub_index::{PredicateBitVec, PredicateIndex};
use pubsub_types::{AttrId, Event, Operator, Predicate, Value};

/// Interns the distinct predicates of a W0-like universe: `n_attrs`
/// attributes × domain values × the given operators.
fn build_index(n_attrs: u32, domain: i64, ops: &[Operator]) -> PredicateIndex {
    let mut idx = PredicateIndex::new();
    for a in 0..n_attrs {
        for v in 1..=domain {
            for &op in ops {
                idx.intern(Predicate::new(AttrId(a), op, v));
            }
        }
    }
    idx
}

fn w0_event(n_attrs: u32, domain: i64, salt: i64) -> Event {
    Event::from_pairs(
        (0..n_attrs)
            .map(|a| (AttrId(a), Value::Int((a as i64 * 7 + salt) % domain + 1)))
            .collect(),
    )
    .unwrap()
}

fn bench_predicate_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("predicate_phase");
    let cases: [(&str, &[Operator]); 3] = [
        ("equality-only", &[Operator::Eq]),
        ("with-ranges", &[Operator::Eq, Operator::Lt, Operator::Ge]),
        ("all-operators", &Operator::ALL),
    ];
    for (name, ops) in cases {
        let idx = build_index(32, 35, ops);
        let mut bits = PredicateBitVec::with_capacity(idx.id_bound());
        let mut satisfied = Vec::new();
        let events: Vec<Event> = (0..64).map(|s| w0_event(32, 35, s)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            let mut i = 0;
            b.iter(|| {
                satisfied.clear();
                idx.eval_into(&events[i % events.len()], &mut bits, &mut satisfied);
                bits.clear();
                i += 1;
                satisfied.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predicate_phase);
criterion_main!(benches);
