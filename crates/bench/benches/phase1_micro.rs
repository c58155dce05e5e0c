//! Phase-1 evaluator micro-bench on the flat snapshot index.
//!
//! The `snapshot` rows answer which ordered predicates an event satisfies
//! one event at a time: per attribute and direction, one binary search plus
//! a contiguous remap-table run (bulk bit-set). The sweep scales the number
//! of range predicates per attribute.
//!
//! The `snapshot_batched64` rows drive the same workload through the
//! attribute-major `eval_batch_into` path, 64 events per iteration (divide
//! by 64 for per-event time); the reusable `Phase1Batch` scratch lives
//! across iterations, so steady-state allocation is zero.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pubsub_bench::phase1::{build_range_index, range_events, ATTRS};
use pubsub_index::{Phase1Batch, PredicateBitVec};

fn bench_phase1_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase1_micro");
    for &preds_per_attr in &[256usize, 1_024, 4_096] {
        let idx = build_range_index(ATTRS, preds_per_attr);
        let events = range_events(ATTRS, preds_per_attr, 64);
        let mut bits = PredicateBitVec::with_capacity(idx.id_bound());
        let mut satisfied = Vec::new();

        group.bench_with_input(
            BenchmarkId::new("snapshot", preds_per_attr),
            &preds_per_attr,
            |b, _| {
                let mut i = 0;
                b.iter(|| {
                    satisfied.clear();
                    idx.eval_into(&events[i % events.len()], &mut bits, &mut satisfied);
                    bits.clear();
                    i += 1;
                    satisfied.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("snapshot_batched64", preds_per_attr),
            &preds_per_attr,
            |b, _| {
                let mut batch = Phase1Batch::new();
                b.iter(|| {
                    idx.eval_batch_into(&events, &mut batch);
                    let mut total = 0usize;
                    for i in 0..events.len() {
                        idx.materialize(&mut batch, i);
                        total += batch.satisfied(i).len();
                        batch.clear_event(i);
                    }
                    total
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_phase1_micro);
criterion_main!(benches);
