//! Figure 3(a): event matching throughput vs. number of subscriptions,
//! workload W0, for all five engines.
//!
//! The paper's headline numbers at 6,000,000 subscriptions on a 500 MHz
//! Pentium III: counting 1.1 ev/s, propagation 124 ev/s, propagation-wp
//! 196 ev/s, dynamic 602 ev/s. Expect the same *ordering* and roughly the
//! same ratios here; absolute numbers scale with the hardware.
//!
//! With `--phases` also prints the §6.2.1 split: time to compute satisfied
//! predicates (phase 1) vs. time to compute matching subscriptions
//! (phase 2).
//!
//! With `--batch N` (N > 1) events are submitted `N` at a time through
//! `match_batch_into` instead of one by one.
//! With `--json` each data point is emitted as one JSON object (fields:
//! `figure, workload, engine, subs, batch, events_per_sec, phase1_ms,
//! phase2_ms`) instead of the text table. When the workspace is
//! built with `--features metrics`, each data point is followed by a
//! `metrics_snapshot` JSON line carrying the global `MetricsSnapshot`
//! accumulated during that measurement (metrics are reset between points).
//!
//! Each `--json` data point is also followed by a `phase1_amortization`
//! line: the same workload re-run per-event and through
//! `match_batch_into`, comparing mean phase-1 ns/event (fields:
//! `phase1_scalar_ns, phase1_batched_ns, phase1_batch,
//! phase1_amortization`) — the batch-major amortization win in situ.
//!
//! With `--publishers 1,2,4,8` the harness instead runs the contention
//! experiment: the same loaded subscription set published concurrently from
//! N threads through a `SharedBroker`'s epoch-protected snapshots, striped
//! `--shards N` ways. `--json` rows carry `figure: "contention", shards,
//! publishers, events_per_sec`.
//!
//! Usage: `cargo run --release -p pubsub-bench --bin fig3a_throughput --
//!         [--subs 100000,...] [--events N] [--engines a,b] [--phases]
//!         [--batch N] [--json] [--publishers 1,2,4,8 [--shards N]]`

use pubsub_bench::{
    load_engine, load_shared_broker, measure_batched_throughput, measure_publish_scaling,
    measure_throughput, parse_args, HarnessArgs, SeriesReport,
};
use pubsub_types::metrics::{self, MetricsSnapshot};
use pubsub_workload::{presets, WorkloadGen};

/// The `--publishers` contention sweep: aggregate publish throughput at
/// each publisher-thread count.
fn run_contention(args: &HarnessArgs) {
    let shards = args.shards.max(1);
    for &n in &args.subs {
        for &kind in &args.engines {
            let events_n = if kind == pubsub_core::EngineKind::Counting {
                args.events.min(60)
            } else {
                args.events
            };
            let mut report = SeriesReport::new(
                format!(
                    "Contention: publish throughput (events/s), {} @ {n} subs, \
                     {shards} shards, W0",
                    kind.label()
                ),
                "publishers",
                vec!["events/s".into()],
            );
            let mut gen = WorkloadGen::new(presets::w0(n));
            let broker = load_shared_broker(kind, shards, &mut gen, n);
            let events: Vec<_> = (0..events_n).map(|_| gen.event()).collect();
            // Warm-up primes the per-thread scratch and the page cache.
            measure_publish_scaling(&broker, &events[..events.len().min(20)], 1);
            for &p in &args.publishers {
                let eps = measure_publish_scaling(&broker, &events, p);
                if args.json {
                    println!(
                        "{{\"figure\": \"contention\", \"workload\": \"w0\", \
                         \"engine\": \"{}\", \"subs\": {n}, \"shards\": {shards}, \
                         \"publishers\": {p}, \"events_per_sec\": {eps:.1}}}",
                        kind.label(),
                    );
                }
                eprintln!(
                    "  [{} @ {n} subs, {p} publishers] {eps:.1} events/s",
                    kind.label(),
                );
                report.push_row(p.to_string(), vec![format!("{eps:.1}")]);
            }
            if !args.json {
                println!("{}", report.render());
            }
        }
    }
}

fn main() {
    let args = parse_args(HarnessArgs::default());
    if !args.publishers.is_empty() {
        run_contention(&args);
        return;
    }
    let series: Vec<String> = args.engines.iter().map(|e| e.label().to_string()).collect();
    let batched = args.batch > 1;
    let title = if !batched {
        "Figure 3(a): throughput (events/s) vs subscriptions, workload W0".to_string()
    } else {
        format!(
            "Figure 3(a): throughput (events/s) vs subscriptions, workload W0, batch {}",
            args.batch
        )
    };
    let mut report = SeriesReport::new(title, "subs", series.clone());
    let mut phase_report =
        SeriesReport::new("§6.2.1 split: phase1/phase2 per event (ms)", "subs", series);

    for &n in &args.subs {
        let mut row = Vec::new();
        let mut phase_row = Vec::new();
        for &kind in &args.engines {
            // Counting is orders of magnitude slower (that is the figure's
            // point); cap its event count so a sweep finishes.
            let events = if kind == pubsub_core::EngineKind::Counting {
                args.events.min(60)
            } else {
                args.events
            };
            let mut gen = WorkloadGen::new(presets::w0(n));
            let (mut engine, _) = load_engine(kind, &mut gen, n);
            // Warm-up: one small batch, then reset counters.
            measure_throughput(engine.as_mut(), &mut gen, 20);
            engine.reset_stats();
            // Scope the metrics snapshot to this data point.
            metrics::reset_all();
            let (eps, _) = if !batched {
                measure_throughput(engine.as_mut(), &mut gen, events)
            } else {
                measure_batched_throughput(engine.as_mut(), &mut gen, events, args.batch)
            };
            row.push(format!("{eps:.1}"));
            let s = engine.stats();
            let phase1_ms = s.phase1_nanos as f64 / s.events as f64 / 1e6;
            let phase2_ms = s.phase2_nanos as f64 / s.events as f64 / 1e6;
            phase_row.push(format!("{phase1_ms:.3}/{phase2_ms:.3}"));
            if args.json {
                println!(
                    "{{\"figure\": \"3a\", \"workload\": \"w0\", \"engine\": \"{}\", \
                     \"subs\": {n}, \"batch\": {}, \
                     \"events_per_sec\": {eps:.1}, \"phase1_ms\": {phase1_ms:.4}, \
                     \"phase2_ms\": {phase2_ms:.4}}}",
                    kind.label(),
                    args.batch.max(1),
                );
                if metrics::enabled() {
                    println!(
                        "{{\"figure\": \"3a\", \"engine\": \"{}\", \"subs\": {n}, \
                         \"metrics_snapshot\": {}}}",
                        kind.label(),
                        MetricsSnapshot::capture().to_json(),
                    );
                }
                // Phase-1 batch amortization probe: same workload, same
                // warmed engine, per-event vs. batched submission.
                let amort_batch = if batched { args.batch } else { 64 };
                engine.reset_stats();
                measure_throughput(engine.as_mut(), &mut gen, events);
                let s1 = engine.stats();
                let scalar_ns = s1.phase1_nanos as f64 / s1.events.max(1) as f64;
                engine.reset_stats();
                measure_batched_throughput(engine.as_mut(), &mut gen, events, amort_batch);
                let s2 = engine.stats();
                let batched_ns = s2.phase1_nanos as f64 / s2.events.max(1) as f64;
                println!(
                    "{{\"figure\": \"3a\", \"engine\": \"{}\", \"subs\": {n}, \
                     \"phase1_scalar_ns\": {scalar_ns:.1}, \
                     \"phase1_batched_ns\": {batched_ns:.1}, \
                     \"phase1_batch\": {amort_batch}, \
                     \"phase1_amortization\": {:.2}}}",
                    kind.label(),
                    scalar_ns / batched_ns.max(f64::MIN_POSITIVE),
                );
            }
            eprintln!("  [{} @ {n} subs] {eps:.1} events/s", kind.label());
        }
        report.push_row(n.to_string(), row);
        phase_report.push_row(n.to_string(), phase_row);
    }

    if !args.json {
        println!("{}", report.render());
        if args.phases {
            println!("{}", phase_report.render());
        }
    }
}
