//! Publisher-thread scaling of the broker publish path: the same W0
//! subscription set published concurrently from 1, 2, 4 and 8 threads
//! through `SharedBroker`'s published snapshots.
//!
//! Publishers share nothing but the lock held for one `Arc` clone per
//! publish, so aggregate throughput should hold as threads are added. (On
//! a single-core host it plateaus: there is no parallel speedup to gain.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pubsub_bench::load_shared_broker;
use pubsub_core::EngineKind;
use pubsub_types::SubscriptionId;
use pubsub_workload::{presets, WorkloadGen};

const N_SUBS: usize = 20_000;
const SHARDS: usize = 2;
const N_EVENTS: usize = 64;
const PUBLISHERS: [usize; 4] = [1, 2, 4, 8];

fn bench_publish_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_scaling_w0_20k");
    group.sample_size(10);

    let mut gen = WorkloadGen::new(presets::w0(N_SUBS));
    let broker = load_shared_broker(EngineKind::Dynamic, SHARDS, &mut gen, N_SUBS);
    let events: Vec<_> = (0..N_EVENTS).map(|_| gen.event()).collect();
    for publishers in PUBLISHERS {
        group.throughput(Throughput::Elements((N_EVENTS * publishers) as u64));
        group.bench_with_input(
            BenchmarkId::new("rcu", publishers),
            &publishers,
            |b, &publishers| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for _ in 0..publishers {
                            let broker = broker.clone();
                            let events = &events;
                            s.spawn(move || {
                                let mut out: Vec<SubscriptionId> = Vec::new();
                                for e in events {
                                    out.clear();
                                    broker.publish_into(e, &mut out);
                                }
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_publish_scaling);
criterion_main!(benches);
