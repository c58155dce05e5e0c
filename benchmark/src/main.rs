//! `pubsub-benchmark`: the repo's benchmark harness (see `../README.md`).
//!
//! ```text
//! pubsub-benchmark --workload <name> --seed <n> --seconds <T> --trace <0|1>
//!                  --server-bin <pubsub> --work-dir <dir> --results-dir <dir>
//!                  [--engine dynamic] [--population N] [--out file.jsonl]
//! pubsub-benchmark compare A.jsonl B.jsonl
//! ```

mod compare;
mod conn;
mod json;
mod metrics;
mod oracle;
mod replay;
mod run;
mod schedule;
mod server;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    config: run::RunConfig,
    results_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server_bin, mut work_dir, mut results_dir) = (None, None, None);
    let (mut engine, mut population, mut out) = ("dynamic".to_string(), None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workload::Workload::by_name(&name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--results-dir" => results_dir = Some(PathBuf::from(value()?)),
            "--engine" => engine = value()?,
            "--population" => {
                population = Some(value()?.parse::<usize>().map_err(|e| e.to_string())?)
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        config: run::RunConfig {
            workload,
            // A smaller population only ever shrinks the 100k workloads.
            population: population.map_or(workload.population, |p| p.min(workload.population)),
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            engine,
            server_bin: server_bin.ok_or("--server-bin is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        },
        results_dir: results_dir.ok_or("--results-dir is required")?,
        out,
    })
}

fn run_benchmark(args: Args) -> Result<(), String> {
    let config = &args.config;
    let name = config.workload.name;
    let generated = workload::generate(&config.workload, config.population, config.seed);
    let mut outcome = run::run(config, &generated)?;
    let failed: u64 = outcome.failures.iter().map(run::Failures::total).sum();
    if failed > 0 {
        eprintln!("failures: {:?}", outcome.failures);
    }
    if !outcome.oracle_agrees {
        eprintln!("the candidate-index oracle disagrees with BruteForceMatcher");
    }
    let correct = failed == 0 && outcome.oracle_agrees;

    let metrics = if config.trace {
        let mut tracer = std::mem::take(&mut outcome.tracer);
        let replayed = replay::replay(&generated, &config.engine, &config.work_dir, &mut tracer)?;
        let path = args.results_dir.join(format!("trace_{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans.len(),
            path.display()
        );
        println!(
            "# durability.* recover/snapshot/replay figures are at {} subscriptions",
            replay::DURABLE_POPULATION
        );
        for (span, s) in tracer.summary() {
            println!(
                "# span {span:<28} n={:<8} mean {:>12.1} ns  self {:>12.1} ns",
                s.count,
                s.mean_ns(),
                s.mean_self_ns()
            );
        }
        metrics::per_layer(&outcome, &replayed, config.workload.sessions())
    } else {
        metrics::end_to_end(&outcome)
    };
    println!(
        "# workload {name} seed {} population {} engine {} seconds {} trace {}",
        config.seed, config.population, config.engine, config.seconds, config.trace as u8
    );
    println!(
        "# set-ups {:?} s; clean paced windows {}/{}; generator lag p50 {:.1} us",
        outcome.setups, outcome.clean_windows, outcome.paced_windows, outcome.lag_p50_us
    );
    metrics::print_table(&metrics);
    // A run whose figures mean nothing must not print a result.
    outcome.gate()?;
    let line = metrics::result_json(correct, outcome.attempted, failed, &metrics);
    if let Some(out) = &args.out {
        let tagged = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, {}",
            config.seed,
            config.trace as u8,
            &line[1..]
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(file, "{tagged}").map_err(|e| e.to_string())?;
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = if args.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = args.skip(1).collect();
        match files.as_slice() {
            [a, b] => compare::compare(a, b).and_then(|ok| {
                if ok {
                    Ok(())
                } else {
                    Err("at least one metric is worse than its bound allows".into())
                }
            }),
            _ => Err("usage: pubsub-benchmark compare A.jsonl B.jsonl".into()),
        }
    } else {
        parse_args(args).and_then(run_benchmark)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pubsub-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
