//! `pubsub netload`: the end-to-end load generator.

use crate::Args;
use std::path::PathBuf;

/// `pubsub netload`: drive a load workload against a running server and
/// report (optionally persist) the measurements.
pub(crate) fn netload_main(args: impl Iterator<Item = String>) {
    let mut config = pubsub_net::LoadConfig {
        addr: String::from("127.0.0.1:7171"),
        ..pubsub_net::LoadConfig::default()
    };
    let mut json_path: Option<PathBuf> = None;
    let mut min_rps: Option<f64> = None;
    let mut args = Args::new("netload", args);
    while let Some(arg) = args.it.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.value(&arg),
            "--subscribers" => config.subscribers = args.parsed(&arg, "an integer"),
            "--subs" => config.subs_per_connection = args.parsed(&arg, "an integer"),
            "--events" => config.events = args.parsed(&arg, "an integer"),
            "--values" => config.value_space = args.parsed(&arg, "an integer"),
            "--seed" => config.seed = args.parsed(&arg, "an integer"),
            "--json" => json_path = Some(PathBuf::from(args.value(&arg))),
            "--min-rps" => min_rps = Some(args.parsed(&arg, "a number")),
            other => args.unknown(other),
        }
    }
    let report = pubsub_net::load::run(&config).unwrap_or_else(|e| panic!("netload: {e}"));
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = json_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    if let Some(min) = min_rps {
        if report.publish_rps < min {
            eprintln!(
                "netload: publish_rps {:.1} below the required {min:.1}",
                report.publish_rps
            );
            std::process::exit(1);
        }
    }
}
