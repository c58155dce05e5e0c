//! `pubsub serve`: the network-facing broker server.
//!
//! `--follow <leader:port>` (requires `--durable` for the replica's local
//! log) starts a read-only follower tailing the leader's WAL; the serve
//! console then answers `repl status [--json]` and `promote`.
//! `--session-ttl` reaps sessions that stay detached past the TTL;
//! `--idle-deadline` severs connections that send nothing (not even a
//! `ping`) for that long — with `--durable`, both the session table and the
//! resume tokens survive restarts and failover.

use crate::{named, usage_error, Args};
use pubsub_broker::SharedBroker;
use pubsub_core::EngineKind;
use pubsub_durability::DurabilityConfig;
use pubsub_net::Backpressure;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// Opens the replica broker behind `serve --follow`. The directory must be
/// empty, absent, or a directory this (or a previous) follower already
/// owned: pointing `--follow` at an existing leader WAL would interleave
/// two unrelated logs, so that case is a typed refusal
/// ([`pubsub_broker::BrokerError::ForeignHistory`]) rather than a fork.
pub(crate) fn open_follower_broker(
    kind: EngineKind,
    shards: usize,
    dir: &Path,
) -> Result<(SharedBroker, pubsub_durability::RecoveryReport), String> {
    SharedBroker::open_follower(kind, shards, dir, DurabilityConfig::default())
        .map_err(|e| e.to_string())
}

/// One-line human rendering of a follower's [`pubsub_net::ReplStatus`] for
/// the `repl status` serve command.
pub(crate) fn repl_status_line(s: &pubsub_net::ReplStatus) -> String {
    let yesno = |b: bool| if b { "yes" } else { "no" };
    let opt = |v: Option<u64>| v.map_or("?".to_string(), |v| v.to_string());
    format!(
        "replication: role {}  connected {}  stale {}  applied {}  leader {}  lag {}  \
         last-contact {}  connects {}",
        if s.promoted {
            "leader(promoted)"
        } else {
            "follower"
        },
        yesno(s.connected),
        yesno(s.stale),
        s.next_lsn,
        opt(s.leader_next_lsn),
        opt(s.lag),
        s.millis_since_contact
            .map_or("never".to_string(), |ms| format!("{ms}ms")),
        s.connects,
    )
}

/// `pubsub serve`: run the network-facing broker server until `quit` on
/// stdin (or forever when stdin is closed, e.g. backgrounded in a script).
/// With `--follow <addr>` the broker comes up as a read-only replica
/// tailing that leader's WAL; the stdin commands `repl status [--json]`
/// and `promote` then drive failover.
pub(crate) fn serve_main(args: impl Iterator<Item = String>) {
    let mut kind = EngineKind::Dynamic;
    let mut shards = pubsub_core::default_shards();
    let mut backpressure = Backpressure::Block;
    let mut addr = String::from("127.0.0.1:7171");
    let mut queue_cap = 256usize;
    let mut durable_dir: Option<PathBuf> = None;
    let mut follow: Option<String> = None;
    let mut session_ttl: Option<std::time::Duration> = None;
    let mut idle_deadline: Option<std::time::Duration> = None;
    let mut args = Args::new("serve", args);
    while let Some(arg) = args.it.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--shards" => shards = args.parsed(&arg, "an integer shard count"),
            "--backpressure" => backpressure = named(args.cmd, &args.value(&arg)),
            "--queue-cap" => queue_cap = args.parsed(&arg, "an integer queue capacity"),
            "--durable" => durable_dir = Some(PathBuf::from(args.value(&arg))),
            "--follow" => follow = Some(args.value(&arg)),
            "--session-ttl" => session_ttl = Some(args.seconds(&arg)),
            "--idle-deadline" => idle_deadline = Some(args.seconds(&arg)),
            flag if flag.starts_with("--") => args.unknown(flag),
            other => kind = named(args.cmd, other),
        }
    }
    let broker = match (&follow, durable_dir.as_deref()) {
        (Some(_), None) => usage_error(
            "serve",
            "`--follow` needs `--durable <dir>` for the replica's local log",
        ),
        (Some(_), Some(dir)) => {
            let (broker, report) =
                open_follower_broker(kind, shards, dir).unwrap_or_else(|e| panic!("{e}"));
            println!(
                "replica recovered {} op(s) from {}",
                report.records_replayed,
                dir.display()
            );
            broker
        }
        (None, Some(dir)) => {
            let (broker, report) =
                SharedBroker::open_durable(kind, shards, dir).unwrap_or_else(|e| panic!("{e}"));
            println!(
                "recovered {} op(s) from {}",
                report.records_replayed,
                dir.display()
            );
            broker
        }
        (None, None) => SharedBroker::new(kind, shards),
    };
    let config = pubsub_net::ServerConfig {
        queue_capacity: queue_cap,
        delivery: backpressure,
        session_ttl,
        idle_deadline,
        ..pubsub_net::ServerConfig::default()
    };
    let broker = std::sync::Arc::new(broker);
    let server =
        pubsub_net::Server::start_with(std::sync::Arc::clone(&broker), addr.as_str(), config)
            .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let follower = follow.map(|leader| {
        let f = pubsub_net::Follower::start(
            std::sync::Arc::clone(&broker),
            leader.as_str(),
            pubsub_net::FollowerConfig::default(),
        )
        .unwrap_or_else(|e| panic!("follow {leader}: {e}"));
        println!("following {leader} (read-only until `promote`)");
        f
    });
    println!(
        "fastpubsub serving {} x {} shard(s) on {} (delivery: {}). `quit` to stop.",
        kind.label(),
        broker.shard_count(),
        server.local_addr(),
        backpressure,
    );
    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            // Detached stdin (`serve ... &` in a script): park until the
            // process is killed; the server threads keep running.
            Ok(0) | Err(_) => loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            Ok(_) => match line.trim() {
                "quit" | "exit" => break,
                "" => {}
                "repl status" | "repl status --json" => match &follower {
                    Some(f) => {
                        let status = f.status();
                        if line.contains("--json") {
                            println!("{}", status.to_json());
                        } else {
                            println!("{}", repl_status_line(&status));
                        }
                    }
                    None => println!("error: not a follower (start with --follow <leader>)"),
                },
                "promote" => match &follower {
                    Some(f) => match f.promote() {
                        Ok(lsn) => println!("promoted: writable, next lsn {lsn}"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("error: not a follower (start with --follow <leader>)"),
                },
                other => println!(
                    "unknown serve command `{other}` (known: repl status [--json], promote, quit)"
                ),
            },
        }
    }
    if let Some(f) = &follower {
        f.stop();
    }
    server.shutdown();
}
