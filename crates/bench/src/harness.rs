//! Harness plumbing: argument parsing, engine loading, series reporting.

use pubsub_broker::{SharedBroker, Validity};
use pubsub_core::{EngineKind, MatchEngine};
use pubsub_types::{Event, SubscriptionId};
use pubsub_workload::WorkloadGen;
use std::time::{Duration, Instant};

/// Command-line arguments common to the figure harnesses.
///
/// Paper-scale runs (6M subscriptions, hours of equilibrium) are possible by
/// raising these; the defaults are laptop-scale and finish in minutes while
/// preserving every qualitative conclusion (DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Subscription counts to sweep (`--subs 100000,250000`).
    pub subs: Vec<usize>,
    /// Events measured per data point (`--events N`).
    pub events: usize,
    /// Engines to run (`--engines counting,dynamic`).
    pub engines: Vec<EngineKind>,
    /// Equilibrium ticks (`--ticks N`, drift harnesses only).
    pub ticks: u64,
    /// Wall budget per tick in ms (`--tick-ms N`).
    pub tick_ms: u64,
    /// Print per-phase timing split (`--phases`).
    pub phases: bool,
    /// `SharedBroker` stripe count for the contention sweep (`--shards N`,
    /// clamped to at least 1).
    pub shards: usize,
    /// Events per `match_batch_into` call (`--batch N`); 1 (the default)
    /// matches event by event.
    pub batch: usize,
    /// Emit one JSON object per data point instead of the text table
    /// (`--json`).
    pub json: bool,
    /// Publisher-thread counts for the contention sweep
    /// (`--publishers 1,2,4,8`); empty runs the harness's normal figure.
    pub publishers: Vec<usize>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            subs: vec![100_000, 250_000, 500_000, 1_000_000],
            events: 400,
            engines: EngineKind::PAPER_ENGINES.to_vec(),
            ticks: 120,
            tick_ms: 25,
            phases: false,
            shards: 0,
            batch: 1,
            json: false,
            publishers: Vec::new(),
        }
    }
}

/// Parses `std::env::args`-style flags into [`HarnessArgs`], starting from
/// the given defaults. Unknown flags abort with a usage message.
pub fn parse_args(defaults: HarnessArgs) -> HarnessArgs {
    let mut args = defaults;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--subs" => {
                args.subs = value("--subs")
                    .split(',')
                    .map(|s| s.trim().parse().expect("integer subscription count"))
                    .collect();
            }
            "--events" => args.events = value("--events").parse().expect("integer"),
            "--engines" => {
                args.engines = value("--engines")
                    .split(',')
                    .map(|s| s.trim().parse().expect("engine name"))
                    .collect();
            }
            "--ticks" => args.ticks = value("--ticks").parse().expect("integer"),
            "--tick-ms" => args.tick_ms = value("--tick-ms").parse().expect("integer"),
            "--phases" => args.phases = true,
            "--shards" => args.shards = value("--shards").parse().expect("integer shard count"),
            "--batch" => args.batch = value("--batch").parse().expect("integer batch size"),
            "--json" => args.json = true,
            "--publishers" => {
                args.publishers = value("--publishers")
                    .split(',')
                    .map(|s| s.trim().parse().expect("integer publisher count"))
                    .collect();
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --subs a,b,c  --events N  --engines a,b  --ticks N  --tick-ms N  \
                     --phases  --shards N  --batch N  --json  --publishers a,b,c"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

/// Loads `n_subs` subscriptions from `gen` into a fresh engine of `kind`
/// (including `finalize`). Returns the engine and the wall-clock loading
/// time — the quantity of Figure 3(d).
pub fn load_engine(
    kind: EngineKind,
    gen: &mut WorkloadGen,
    n_subs: usize,
) -> (Box<dyn MatchEngine + Send>, Duration) {
    let mut engine = kind.build();
    let start = Instant::now();
    for i in 0..n_subs {
        let sub = gen.subscription();
        engine.insert(SubscriptionId(i as u32), &sub);
    }
    engine.finalize();
    (engine, start.elapsed())
}

/// Measures matching throughput: `events` events drawn from `gen`, matched
/// back to back. Returns `(events per second, mean match latency)`.
pub fn measure_throughput(
    engine: &mut (dyn MatchEngine + Send),
    gen: &mut WorkloadGen,
    events: usize,
) -> (f64, Duration) {
    // Pre-draw events so generation cost stays out of the measurement.
    let batch: Vec<_> = (0..events).map(|_| gen.event()).collect();
    let mut out = Vec::new();
    let start = Instant::now();
    for e in &batch {
        out.clear();
        engine.match_event(e, &mut out);
    }
    let elapsed = start.elapsed();
    let per_event = elapsed / events as u32;
    (events as f64 / elapsed.as_secs_f64(), per_event)
}

/// Measures batched matching throughput: `events` events submitted in
/// batches of `batch_size` via [`MatchEngine::match_batch_into`]. Result
/// buffers are reused across batches, so the steady state allocates
/// nothing. Returns `(events per second, mean match latency)`.
pub fn measure_batched_throughput(
    engine: &mut (dyn MatchEngine + Send),
    gen: &mut WorkloadGen,
    events: usize,
    batch_size: usize,
) -> (f64, Duration) {
    let batch_size = batch_size.max(1);
    let batch: Vec<_> = (0..events).map(|_| gen.event()).collect();
    let mut out: Vec<Vec<SubscriptionId>> = Vec::new();
    let start = Instant::now();
    for chunk in batch.chunks(batch_size) {
        engine.match_batch_into(chunk, &mut out);
    }
    let elapsed = start.elapsed();
    let per_event = elapsed / events as u32;
    (events as f64 / elapsed.as_secs_f64(), per_event)
}

/// Loads `n_subs` subscriptions from `gen` into a [`SharedBroker`], then
/// compacts, so measurements start from a merged snapshot (no brute-forced
/// delta).
pub fn load_shared_broker(
    kind: EngineKind,
    shards: usize,
    gen: &mut WorkloadGen,
    n_subs: usize,
) -> SharedBroker {
    let broker = SharedBroker::new(kind, shards);
    for _ in 0..n_subs {
        broker.subscribe(gen.subscription(), Validity::forever());
    }
    broker.compact();
    broker
}

/// Aggregate publish throughput with `publishers` concurrent threads, each
/// publishing every event in `events` once. Returns total events/second —
/// the contention figure: publishers read independent snapshot pins and
/// share nothing but a pointer load.
pub fn measure_publish_scaling(broker: &SharedBroker, events: &[Event], publishers: usize) -> f64 {
    let publishers = publishers.max(1);
    let total = (events.len() * publishers) as f64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..publishers {
            let broker = broker.clone();
            s.spawn(move || {
                let mut out = Vec::new();
                for e in events {
                    out.clear();
                    broker.publish_into(e, &mut out);
                }
            });
        }
    });
    total / start.elapsed().as_secs_f64()
}

/// A printable series: one row per x-value, one column per engine.
#[derive(Debug)]
pub struct SeriesReport {
    /// Figure title.
    pub title: String,
    /// Column header for the x values.
    pub x_label: String,
    /// Series names, in column order.
    pub series: Vec<String>,
    /// Rows: `(x, values)`, one value per series.
    pub rows: Vec<(String, Vec<String>)>,
}

impl SeriesReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, series: Vec<String>) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, x: impl Into<String>, values: Vec<String>) {
        assert_eq!(values.len(), self.series.len(), "row arity");
        self.rows.push((x.into(), values));
    }

    /// Renders as an aligned text table (the harnesses' output format).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::with_capacity(self.series.len() + 1);
        widths.push(
            std::iter::once(self.x_label.len())
                .chain(self.rows.iter().map(|(x, _)| x.len()))
                .max()
                .unwrap_or(0),
        );
        for (i, s) in self.series.iter().enumerate() {
            widths.push(
                std::iter::once(s.len())
                    .chain(self.rows.iter().map(|(_, v)| v[i].len()))
                    .max()
                    .unwrap_or(0),
            );
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("{:>w$}", self.x_label, w = widths[0]));
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", s, w = widths[i + 1]));
        }
        out.push('\n');
        for (x, values) in &self.rows {
            out.push_str(&format!("{x:>w$}", w = widths[0]));
            for (i, v) in values.iter().enumerate() {
                out.push_str(&format!("  {:>w$}", v, w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_workload::presets;

    #[test]
    fn load_and_measure_small() {
        let mut gen = WorkloadGen::new(presets::w0(10_000));
        let (mut engine, load_time) = load_engine(EngineKind::Dynamic, &mut gen, 2_000);
        assert_eq!(engine.len(), 2_000);
        assert!(load_time.as_nanos() > 0);
        let (eps, lat) = measure_throughput(engine.as_mut(), &mut gen, 50);
        assert!(eps > 0.0);
        assert!(lat.as_nanos() > 0);
        assert_eq!(engine.stats().events, 50);
    }

    #[test]
    fn series_report_renders_aligned() {
        let mut r = SeriesReport::new("T", "n", vec!["a".into(), "bb".into()]);
        r.push_row("100", vec!["1.0".into(), "2.0".into()]);
        r.push_row("100000", vec!["3".into(), "444444".into()]);
        let text = r.render();
        assert!(text.contains("# T"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "0.5 KiB");
        assert_eq!(fmt_bytes(2 << 20), "2.0 MiB");
        assert!(fmt_bytes(3 << 30).contains("GiB"));
    }
}
