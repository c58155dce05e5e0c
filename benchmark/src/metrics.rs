//! The benchmark's vocabulary: every metric it prints, by name, with its
//! unit. `BENCHMARK.json` lists the same names; a self-test holds the two
//! lists to each other.

use crate::run::Outcome;
use crate::stats::{self, Better};

/// An end-to-end metric: what a user of `pubsub serve` would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "notify_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "subscribe_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "churn_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// Per-layer metrics, layer = crate.module, outermost name first.
pub const PER_LAYER: [(&str, &str, Better); 51] = [
    ("index.phase1_ns", "ns", Better::Lower),
    ("index.predicates", "count", Better::Lower),
    ("index.satisfied_per_event", "count", Better::Lower),
    ("core.phase2_ns", "ns", Better::Lower),
    ("core.checked_per_event", "count", Better::Lower),
    ("core.matches_per_event", "count", Better::Higher),
    ("core.match_per_checked", "share", Better::Higher),
    ("core.tables_created", "count", Better::Lower),
    ("core.subscription_moves", "count", Better::Lower),
    ("core.heap_bytes", "bytes", Better::Lower),
    ("broker.intern_ns", "ns", Better::Lower),
    ("broker.publish_ns", "ns", Better::Lower),
    ("broker.publish_self_ns", "ns", Better::Lower),
    ("broker.layer_sum_share", "share", Better::Higher),
    ("broker.subscribe_ns", "ns", Better::Lower),
    ("broker.subscribe_ns_first10k", "ns", Better::Lower),
    ("broker.subscribe_ns_last10k", "ns", Better::Lower),
    ("broker.unsubscribe_ns", "ns", Better::Lower),
    ("broker.rcu_flips", "1/op", Better::Lower),
    ("broker.repl_apply_ns", "ns", Better::Lower),
    ("net.frame.decode_publish_ns", "ns", Better::Lower),
    ("net.frame.encode_notify_ns", "ns", Better::Lower),
    ("net.frame.encode_ack_ns", "ns", Better::Lower),
    ("net.frame.publish_bytes", "bytes", Better::Lower),
    ("net.frame.notify_bytes", "bytes", Better::Lower),
    ("net.queue.push_pop_ns", "ns", Better::Lower),
    ("net.server.residual_ns", "ns", Better::Lower),
    ("net.server.residual_share", "share", Better::Lower),
    ("net.server.rtt_p50_us", "us", Better::Lower),
    (
        "net.server.ctx_switches_per_event",
        "1/event",
        Better::Lower,
    ),
    ("net.server.runq_wait_us_per_event", "us", Better::Lower),
    ("net.server.threads", "count", Better::Lower),
    ("durability.append_ns", "ns", Better::Lower),
    ("durability.fsync_p50_ns", "ns", Better::Lower),
    ("durability.fsync_p99_ns", "ns", Better::Lower),
    ("durability.wal_bytes_per_op", "bytes", Better::Lower),
    ("durability.recover_ms", "ms", Better::Lower),
    ("durability.replayed_records", "count", Better::Lower),
    ("durability.snapshot_ms", "ms", Better::Lower),
    ("durability.snapshot_bytes", "bytes", Better::Lower),
    ("cli.spawn_to_listen_ms", "ms", Better::Lower),
    ("loadgen.lag_p50_us", "us", Better::Lower),
    ("loadgen.lag_p99_us", "us", Better::Lower),
    ("loadgen.notify_p50_all_us", "us", Better::Lower),
    ("loadgen.notify_p90_us", "us", Better::Lower),
    ("loadgen.notify_p99_us", "us", Better::Lower),
    ("loadgen.notify_samples", "count", Better::Higher),
    ("loadgen.slow_window_share", "share", Better::Lower),
    ("loadgen.gen_ns_per_event", "ns", Better::Lower),
    ("loadgen.trace_overhead_share", "share", Better::Lower),
    ("loadgen.events_published", "count", Better::Higher),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let values = [
        outcome.setup_s,
        outcome.throughput_eps,
        outcome.notify_p50_us,
        outcome.server_cpu_us_per_event,
        outcome.rss_mib,
        outcome.subscribe_p50_us,
        outcome.churn_ops_per_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect()
}

/// The per-layer metrics of a traced run: what the replay measured plus what
/// only the live run can (the generator's honesty figures, the server's
/// scheduler counters, and the residual the replayed layers do not explain).
pub fn per_layer(
    outcome: &Outcome,
    replayed: &[(&'static str, f64)],
    sessions: usize,
) -> Vec<Metric> {
    let replay = |name: &str| {
        replayed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    // One event's trip through the server, layer by layer: its frame is
    // decoded, interned and matched; a notify per subscriber session and one
    // ack are encoded, and each crosses a queue to its writer.
    let notifies = sessions as f64;
    let replayed_ns = replay("net.frame.decode_publish_ns")
        + replay("broker.publish_ns")
        + notifies * replay("net.frame.encode_notify_ns")
        + replay("net.frame.encode_ack_ns")
        + (notifies + 1.0) * replay("net.queue.push_pop_ns");
    let service_ns = 1e9 / outcome.throughput_untraced_eps.max(1.0);
    let residual_ns = service_ns - replayed_ns;
    let mut notify = outcome.notify_all.clone();
    let pct = |q: f64, v: &mut Vec<f64>| stats::percentile(v, q).unwrap_or(0.0);
    let live: Vec<(&str, f64)> = vec![
        ("net.server.residual_ns", residual_ns),
        ("net.server.residual_share", residual_ns / service_ns),
        ("net.server.rtt_p50_us", outcome.rtt_p50_us),
        (
            "net.server.ctx_switches_per_event",
            outcome.ctx_switches_per_event,
        ),
        (
            "net.server.runq_wait_us_per_event",
            outcome.runq_wait_us_per_event,
        ),
        ("net.server.threads", outcome.server_threads),
        ("cli.spawn_to_listen_ms", outcome.spawn_to_listen_ms),
        ("loadgen.lag_p50_us", outcome.lag_p50_us),
        ("loadgen.lag_p99_us", outcome.lag_p99_us),
        ("loadgen.notify_p50_all_us", pct(0.5, &mut notify)),
        ("loadgen.notify_p90_us", pct(0.9, &mut notify)),
        ("loadgen.notify_p99_us", pct(0.99, &mut notify)),
        ("loadgen.notify_samples", notify.len() as f64),
        ("loadgen.slow_window_share", outcome.slow_window_share),
        ("loadgen.gen_ns_per_event", outcome.gen_ns_per_event),
        (
            "loadgen.trace_overhead_share",
            1.0 - outcome.throughput_traced_eps / outcome.throughput_untraced_eps.max(1.0),
        ),
        ("loadgen.events_published", outcome.events_published as f64),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: live
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| replay(name), |&(_, v)| v),
        })
        .collect()
}

/// The result line the contract asks for: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One line per metric for a human reader.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workload::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// Every name in BENCHMARK.json is a name the harness prints, and the
    /// reverse — workloads, end-to-end metrics (with unit, direction and
    /// bound) and per-layer metrics (with unit and direction).
    #[test]
    fn benchmark_json_and_harness_agree() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);

        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(have.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(have.get("unit").and_then(Json::as_str), Some(want.unit));
            let dir = have.get("better").and_then(Json::as_str);
            assert_eq!(dir, Some(better(want.better)), "{}", want.name);
            let bound = have.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, Some(want.bound), "{}", want.name);
        }
        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, &(name, unit, dir)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(have.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(
                have.get("unit").and_then(Json::as_str),
                Some(unit),
                "{name}"
            );
            let have_dir = have.get("better").and_then(Json::as_str);
            assert_eq!(have_dir, Some(better(dir)), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
        }];
        let line = result_json(true, 10, 0, &metrics);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
