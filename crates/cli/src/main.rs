//! `pubsub` — an interactive command-line broker.
//!
//! The paper's prototype "runs as a process … waiting for subscriptions and
//! events to process"; this binary is that process in miniature, driven by
//! stdin lines (interactively or piped):
//!
//! ```text
//! sub movie = 'groundhog day' AND price <= 10
//! sub (from = 'NYC' AND price < 400) OR (from = 'EWR' AND price < 350)
//! pub {movie: 'groundhog day', price: 8}
//! unsub d0
//! tick 5
//! stats
//! wal verify /var/lib/pubsub
//! chaos arm durability.wal.fsync fail nth=1
//! help
//! quit
//! ```
//!
//! Start with `cargo run -p pubsub-cli --bin pubsub -- [engine]
//! [--durable <dir> [--shards N]]` where `engine` is one of `counting`,
//! `propagation`, `propagation-wp`, `static`, `dynamic` (default). Without
//! `--durable` the REPL drives one single-threaded engine. The `chaos`
//! command drives the deterministic fault-injection registry when the
//! binary is built with `--features faults`.
//!
//! `--durable <dir>` opens a crash-recoverable broker: every subscription,
//! unsubscription and clock advance is written to a segmented write-ahead
//! log in `dir` before it is applied, and restarting the binary against the
//! same directory recovers the exact acknowledged state (a torn final
//! record from a crash is truncated away). `--shards N` stripes the durable
//! broker's subscriptions `N` ways. The `wal` command inspects and
//! maintains such directories — `wal verify`/`wal dump` work offline on any
//! directory, `wal snapshot` compacts the running broker's log. Durable
//! mode supports conjunctive subscriptions only (no OR).
//!
//! Two subcommands run instead of the REPL (see DESIGN.md §13):
//!
//! * `pubsub serve [engine] --addr <host:port> [--shards N] [--backpressure
//!   <policy>] [--queue-cap N] [--durable dir]
//!   [--follow <leader:port>] [--session-ttl <secs>] [--idle-deadline
//!   <secs>]` — the network-facing broker server. `--follow` (requires
//!   `--durable` for the replica's local log) starts a read-only follower
//!   tailing the leader's WAL; the serve console then answers `repl status
//!   [--json]` and `promote`. `--session-ttl` reaps sessions that stay
//!   detached past the TTL; `--idle-deadline` severs connections that send
//!   nothing (not even a `ping`) for that long — with `--durable`, both the
//!   session table and the resume tokens survive restarts and failover.
//! * `pubsub netload --addr <host:port> [--subscribers N] [--subs N]
//!   [--events N] [--values N] [--seed S] [--json path] [--min-rps X]` —
//!   the end-to-end load generator.
//!
//! A bad flag or flag value on any of the three command lines is a usage
//! error: one line on stderr, exit status 2.

#![forbid(unsafe_code)]

use pubsub_broker::{Broker, DnfId, DnfRegistry, DnfSubscription, SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_durability::{DurabilityConfig, Wal};
use pubsub_lang::{parse_event, parse_subscription};
use pubsub_net::Backpressure;
use pubsub_types::faults::{self, FaultAction, Schedule};
use pubsub_types::metrics::MetricsSnapshot;
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// The broker behind the REPL: a single-threaded engine, or a durable
/// shared handle writing a WAL. Boxed: a `Broker` embeds its whole
/// engine while `SharedBroker` is an `Arc`, and one REPL holds exactly one
/// backend, so the indirection costs nothing.
enum Backend {
    Volatile(Box<Broker>),
    Durable(SharedBroker),
}

struct Cli {
    backend: Backend,
    dnf: DnfRegistry,
}

impl Cli {
    /// An in-memory broker around one single-threaded engine.
    fn volatile(kind: EngineKind) -> Self {
        Self {
            backend: Backend::Volatile(Box::new(Broker::new(kind))),
            dnf: DnfRegistry::new(),
        }
    }

    /// Opens a durable broker over `dir`, recovering previous state. Prints
    /// nothing here; the caller reports the recovery summary.
    fn durable(
        kind: EngineKind,
        shards: usize,
        dir: &std::path::Path,
    ) -> Result<(Self, pubsub_durability::RecoveryReport), String> {
        let (broker, report) =
            SharedBroker::open_durable(kind, shards, dir).map_err(|e| e.to_string())?;
        Ok((
            Self {
                backend: Backend::Durable(broker),
                dnf: DnfRegistry::new(),
            },
            report,
        ))
    }

    /// Executes one command line; returns the response text, or `None` to
    /// quit.
    fn execute(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Some(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let out = match cmd {
            "sub" | "subscribe" => self.cmd_subscribe(rest),
            "pub" | "publish" => self.cmd_publish(rest),
            "unsub" | "unsubscribe" => self.cmd_unsubscribe(rest),
            "tick" => self.cmd_tick(rest),
            "stats" => self.cmd_stats(rest),
            "wal" => self.cmd_wal(rest),
            "chaos" => self.cmd_chaos(rest),
            "help" => Ok(HELP.to_string()),
            "quit" | "exit" => return None,
            other => Err(format!("unknown command `{other}` (try `help`)")),
        };
        Some(out.unwrap_or_else(|e| format!("error: {e}")))
    }

    fn cmd_subscribe(&mut self, expr: &str) -> Result<String, String> {
        match &mut self.backend {
            Backend::Durable(shared) => {
                let parsed = shared
                    .with_vocab(|vocab| parse_subscription(expr, vocab))
                    .map_err(|e| e.render(expr))?;
                if !parsed.is_conjunctive() {
                    return Err(
                        "durable mode supports conjunctive subscriptions only; split the OR \
                         into separate `sub` commands or drop --durable"
                            .into(),
                    );
                }
                let id = shared
                    .try_subscribe(parsed.into_conjunction(), Validity::forever())
                    .map_err(|e| e.to_string())?;
                Ok(format!("subscribed {id}"))
            }
            Backend::Volatile(broker) => {
                let parsed = parse_subscription(expr, broker.vocabulary_mut())
                    .map_err(|e| e.render(expr))?;
                if parsed.is_conjunctive() {
                    let id = broker.subscribe(parsed.into_conjunction(), Validity::forever());
                    Ok(format!("subscribed {id}"))
                } else {
                    let dnf = DnfSubscription::new(parsed.disjuncts).expect("non-empty");
                    let n = dnf.disjuncts().len();
                    let id = self.dnf.subscribe(broker, dnf, Validity::forever());
                    Ok(format!("subscribed {id} ({n} disjuncts)"))
                }
            }
        }
    }

    fn cmd_publish(&mut self, expr: &str) -> Result<String, String> {
        if expr.contains(';') {
            return self.cmd_publish_batch(expr);
        }
        let names: Vec<String> = match &mut self.backend {
            Backend::Durable(shared) => {
                let event = shared
                    .with_vocab(|vocab| parse_event(expr, vocab))
                    .map_err(|e| e.render(expr))?;
                shared
                    .publish(&event)
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            }
            Backend::Volatile(broker) => {
                let event =
                    parse_event(expr, broker.vocabulary_mut()).map_err(|e| e.render(expr))?;
                let (dnf_hits, plain) = self.dnf.publish(broker, &event);
                let mut names: Vec<String> = plain.iter().map(|s| s.to_string()).collect();
                names.extend(dnf_hits.iter().map(|d| d.to_string()));
                names
            }
        };
        if names.is_empty() {
            Ok("matched: (none)".into())
        } else {
            Ok(format!("matched: {}", names.join(", ")))
        }
    }

    /// `pub e1; e2; ...` — all events parsed up front, then matched in one
    /// batched publish (`publish_batch`), which rides the attribute-major
    /// phase-1 path. Output is one `[i] matched: ...` line per event, in
    /// submission order.
    fn cmd_publish_batch(&mut self, expr: &str) -> Result<String, String> {
        let exprs: Vec<&str> = expr
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if exprs.is_empty() {
            return Err("empty batch: nothing between the `;`s".into());
        }
        let per_event: Vec<Vec<String>> = match &mut self.backend {
            Backend::Durable(shared) => {
                let events = shared.with_vocab(|vocab| {
                    exprs
                        .iter()
                        .map(|e| parse_event(e, vocab).map_err(|err| err.render(e)))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                shared
                    .publish_batch(&events)
                    .iter()
                    .map(|m| m.iter().map(|s| s.to_string()).collect())
                    .collect()
            }
            Backend::Volatile(broker) => {
                let events = exprs
                    .iter()
                    .map(|e| parse_event(e, broker.vocabulary_mut()).map_err(|err| err.render(e)))
                    .collect::<Result<Vec<_>, _>>()?;
                let notifications = broker.publish_batch(&events);
                notifications
                    .iter()
                    .map(|n| {
                        let mut dnf_hits = Vec::new();
                        let mut plain = Vec::new();
                        self.dnf.translate(&n.matched, &mut dnf_hits, &mut plain);
                        let mut names: Vec<String> = plain.iter().map(|s| s.to_string()).collect();
                        names.extend(dnf_hits.iter().map(|d| d.to_string()));
                        names
                    })
                    .collect()
            }
        };
        let lines: Vec<String> = per_event
            .iter()
            .enumerate()
            .map(|(i, names)| {
                if names.is_empty() {
                    format!("[{i}] matched: (none)")
                } else {
                    format!("[{i}] matched: {}", names.join(", "))
                }
            })
            .collect();
        Ok(lines.join("\n"))
    }

    fn cmd_unsubscribe(&mut self, id: &str) -> Result<String, String> {
        let ok = if let Some(num) = id.strip_prefix('d') {
            let n: u64 = num.parse().map_err(|_| format!("bad id `{id}`"))?;
            match &mut self.backend {
                Backend::Durable(_) => {
                    return Err("durable mode has no DNF subscriptions".into());
                }
                Backend::Volatile(broker) => self.dnf.unsubscribe(broker, DnfId(n)),
            }
        } else {
            let n: u32 = id
                .strip_prefix('s')
                .unwrap_or(id)
                .parse()
                .map_err(|_| format!("bad id `{id}`"))?;
            let sid = pubsub_types::SubscriptionId(n);
            match &mut self.backend {
                Backend::Durable(shared) => {
                    shared.try_unsubscribe(sid).map_err(|e| e.to_string())?
                }
                Backend::Volatile(broker) => broker.unsubscribe(sid),
            }
        };
        if ok {
            Ok(format!("unsubscribed {id}"))
        } else {
            Err(format!("no subscription `{id}`"))
        }
    }

    fn cmd_tick(&mut self, arg: &str) -> Result<String, String> {
        let n: u64 = if arg.is_empty() {
            1
        } else {
            arg.parse().map_err(|_| format!("bad tick count `{arg}`"))?
        };
        match &mut self.backend {
            Backend::Durable(shared) => {
                let mut subs = 0;
                for _ in 0..n {
                    subs += shared.try_tick().map_err(|e| e.to_string())?;
                }
                Ok(format!(
                    "now {}; expired {subs} subscription(s)",
                    shared.now()
                ))
            }
            Backend::Volatile(broker) => {
                let mut subs = 0;
                let mut events = 0;
                for _ in 0..n {
                    let (s, e) = broker.tick();
                    subs += s;
                    events += e;
                }
                Ok(format!(
                    "now {}; expired {subs} subscription(s), {events} event(s)",
                    broker.now()
                ))
            }
        }
    }

    /// `wal <verify|dump|compact|snapshot> [dir]`: WAL inspection and
    /// maintenance. `verify` and `dump` are read-only and work on any
    /// directory (defaulting to the running broker's in durable mode);
    /// `compact` opens a directory offline and drops segments superseded by
    /// its newest snapshot; `snapshot` asks the running durable broker for a
    /// point-in-time snapshot (which also compacts).
    fn cmd_wal(&mut self, rest: &str) -> Result<String, String> {
        const USAGE: &str = "usage: wal <verify|dump|compact|snapshot> [dir]";
        let mut toks = rest.split_whitespace();
        let sub = toks.next().ok_or(USAGE)?;
        let dir_arg: Option<PathBuf> = toks.next().map(PathBuf::from);
        if toks.next().is_some() {
            return Err(USAGE.into());
        }
        let own_dir = || match &self.backend {
            Backend::Durable(shared) => shared.durability().map(|d| d.dir),
            Backend::Volatile(_) => None,
        };
        let resolve = |dir_arg: Option<PathBuf>| {
            dir_arg.or_else(own_dir).ok_or_else(|| {
                "no WAL directory: pass one explicitly or run with --durable <dir>".to_string()
            })
        };
        match sub {
            "verify" => {
                let dir = resolve(dir_arg)?;
                let report = Wal::verify(&dir).map_err(|e| e.to_string())?;
                let mut out = format!(
                    "{}: {} segment(s), {} snapshot(s), {} record(s); {}",
                    dir.display(),
                    report.segments.len(),
                    report.snapshots.len(),
                    report.total_records(),
                    if report.healthy() {
                        "healthy"
                    } else {
                        "DAMAGED"
                    },
                );
                for seg in &report.segments {
                    out.push_str(&format!(
                        "\n  {}  first-lsn {}  records {}  bytes {}{}",
                        seg.file,
                        seg.first_lsn,
                        seg.records,
                        seg.bytes,
                        match &seg.damage {
                            Some(d) => format!("  DAMAGED: {d}"),
                            None => String::new(),
                        }
                    ));
                }
                for snap in &report.snapshots {
                    out.push_str(&format!(
                        "\n  {}  lsn {}  {}  subs {}",
                        snap.file,
                        snap.lsn,
                        if snap.valid { "valid" } else { "INVALID" },
                        snap.subs,
                    ));
                }
                Ok(out)
            }
            "dump" => {
                let dir = resolve(dir_arg)?;
                let ops = Wal::dump(&dir).map_err(|e| e.to_string())?;
                if ops.is_empty() {
                    return Ok(format!("{}: empty log", dir.display()));
                }
                let lines: Vec<String> = ops
                    .iter()
                    .map(|(lsn, op)| format!("{lsn:>8}  {op}"))
                    .collect();
                Ok(lines.join("\n"))
            }
            "compact" => {
                let dir = dir_arg.ok_or("wal compact needs an explicit <dir> (offline only)")?;
                if own_dir().is_some_and(|own| own == dir) {
                    return Err(
                        "this broker holds that directory open; use `wal snapshot` instead".into(),
                    );
                }
                let (mut wal, _) =
                    Wal::open(&dir, DurabilityConfig::default()).map_err(|e| e.to_string())?;
                let removed = wal.compact().map_err(|e| e.to_string())?;
                Ok(format!(
                    "compacted {}: removed {removed} file(s)",
                    dir.display()
                ))
            }
            "snapshot" => {
                if dir_arg.is_some() {
                    return Err(
                        "wal snapshot takes no directory (snapshots the running broker)".into(),
                    );
                }
                match &self.backend {
                    Backend::Durable(shared) => {
                        let path = shared.snapshot().map_err(|e| e.to_string())?;
                        Ok(format!("snapshot written: {}", path.display()))
                    }
                    Backend::Volatile(_) => {
                        Err("snapshots need a durable broker (run with --durable <dir>)".into())
                    }
                }
            }
            other => Err(format!(
                "unknown wal subcommand `{other}` (known: verify dump compact snapshot)"
            )),
        }
    }

    /// `chaos [status|clear|arm <point> <action> <schedule> [lane=<n>]]`:
    /// drives the deterministic fault-injection registry. Actions are
    /// `panic`, `corrupt`, `fail`, `delay=<ms>`; schedules are `nth=<n>`,
    /// `every=<n>`, `seed=<seed>,<ppm>`. Requires `--features faults` to
    /// arm; `status`/`clear` always work.
    fn cmd_chaos(&mut self, rest: &str) -> Result<String, String> {
        let mut toks = rest.split_whitespace();
        match toks.next() {
            None | Some("status") => Ok(format!(
                "fault injection {}; {} rule(s) armed",
                if faults::enabled() {
                    "enabled"
                } else {
                    "unavailable (build with --features faults)"
                },
                faults::armed()
            )),
            Some("clear") => {
                faults::clear();
                Ok("cleared all fault rules".into())
            }
            Some("arm") => {
                if !faults::enabled() {
                    return Err(
                        "fault injection unavailable; rebuild with --features faults".into(),
                    );
                }
                const USAGE: &str = "usage: chaos arm <point> <action> <schedule> [lane=<n>]";
                let point = toks.next().ok_or(USAGE)?;
                let action = parse_fault_action(toks.next().ok_or(USAGE)?)?;
                let schedule = parse_fault_schedule(toks.next().ok_or(USAGE)?)?;
                let mut lane = None;
                for tok in toks {
                    let n = tok
                        .strip_prefix("lane=")
                        .ok_or_else(|| format!("unexpected token `{tok}` ({USAGE})"))?;
                    lane = Some(n.parse::<usize>().map_err(|_| format!("bad lane `{n}`"))?);
                }
                faults::arm(point, lane, action, schedule);
                Ok(format!(
                    "armed {action:?} on {point} ({} rule(s) armed)",
                    faults::armed()
                ))
            }
            Some(other) => Err(format!(
                "unknown chaos subcommand `{other}` (known: status clear arm)"
            )),
        }
    }

    /// `stats [--json] [--metrics]`: engine statistics, optionally as a
    /// single-line JSON document and/or with the global `MetricsSnapshot`.
    fn cmd_stats(&mut self, rest: &str) -> Result<String, String> {
        let mut json = false;
        let mut metrics = false;
        for tok in rest.split_whitespace() {
            match tok {
                "--json" => json = true,
                "--metrics" => metrics = true,
                other => {
                    return Err(format!(
                        "unknown stats flag `{other}` (known: --json --metrics)"
                    ))
                }
            }
        }
        match &mut self.backend {
            Backend::Durable(shared) => Self::stats_durable(shared, json, metrics),
            Backend::Volatile(broker) => Self::stats_volatile(broker, json, metrics),
        }
    }

    fn stats_durable(shared: &SharedBroker, json: bool, metrics: bool) -> Result<String, String> {
        let s = shared.rcu_stats();
        let name = shared.engine_kind().label();
        let rcu = shared.rcu_status();
        let d = shared.durability().expect("durable backend");
        let counts = shared.shard_subscription_counts();
        let fmt_opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        if json {
            // Keys in ascending order, pubsub-workload::json conventions.
            let mut out = format!(
                "{{\"checks\":{},\"durability\":{{\"degraded\":{},\"dir\":{:?},\"follower\":{},\
                 \"next_lsn\":{},\
                 \"ops_since_snapshot\":{},\"recovery\":{{\"bytes_abandoned\":{},\
                 \"records_replayed\":{},\"records_skipped\":{},\"segments_removed\":{},\
                 \"segments_scanned\":{},\"snapshot_lsn\":{},\"snapshots_discarded\":{},\
                 \"torn_tail_truncated\":{}}}}},\"engine\":{:?},\"events\":{},\"matches\":{}",
                s.subscriptions_checked,
                d.degraded,
                d.dir.display().to_string(),
                d.follower,
                d.next_lsn,
                d.ops_since_snapshot,
                d.recovery.bytes_abandoned,
                d.recovery.records_replayed,
                d.recovery.records_skipped,
                d.recovery.segments_removed,
                d.recovery.segments_scanned,
                fmt_opt(d.recovery.snapshot_lsn),
                d.recovery.snapshots_discarded,
                fmt_opt(d.recovery.torn_tail_truncated),
                name,
                s.events,
                s.matches,
            );
            if metrics {
                out.push_str(&format!(
                    ",\"metrics\":{}",
                    MetricsSnapshot::capture().to_json()
                ));
            }
            let list: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                ",\"phase1_nanos\":{},\"phase2_nanos\":{},\"rcu\":{{\"active_readers\":{},\
                 \"built\":{},\"epoch\":{},\"flips\":{},\"l0\":{},\"predicates\":{},\
                 \"retired\":{},\"tiers\":{}}},\"shards\":[{}],\"subscriptions\":{}}}",
                s.phase1_nanos,
                s.phase2_nanos,
                rcu.active_readers,
                rcu.built,
                rcu.epoch,
                rcu.flips,
                rcu.l0,
                rcu.predicates,
                rcu.retired,
                rcu.tiers,
                list.join(","),
                shared.subscription_count(),
            ));
            return Ok(out);
        }
        let mut out = format!(
            "engine {name} (durable)  subscriptions {}  events {}  checks/event {:.1}  matches {}\n\
             shards {}  per-shard subscriptions {counts:?}\n\
             durability: dir {}  next-lsn {}  since-snapshot {}  degraded {}  role {}\n\
             recovery: replayed {}  skipped {}  torn-truncated {}  snapshots-discarded {}  \
             segments-scanned {}",
            shared.subscription_count(),
            s.events,
            s.checks_per_event(),
            s.matches,
            counts.len(),
            d.dir.display(),
            d.next_lsn,
            d.ops_since_snapshot,
            if d.degraded { "YES" } else { "no" },
            if d.follower { "follower" } else { "leader" },
            d.recovery.records_replayed,
            d.recovery.records_skipped,
            d.recovery
                .torn_tail_truncated
                .map_or("none".to_string(), |b| format!("{b}B")),
            d.recovery.snapshots_discarded,
            d.recovery.segments_scanned,
        );
        out.push_str(&format!(
            "\nrcu: flips {}  epoch {}  retired {}  active-readers {}  tiers {}  l0 {}  built {}  \
             predicates {}",
            rcu.flips,
            rcu.epoch,
            rcu.retired,
            rcu.active_readers,
            rcu.tiers,
            rcu.l0,
            rcu.built,
            rcu.predicates,
        ));
        if let Some(cause) = &d.degraded_cause {
            out.push_str(&format!("\ndegraded cause: {cause}"));
        }
        if metrics {
            Self::push_metrics_text(&mut out);
        }
        Ok(out)
    }

    fn stats_volatile(broker: &Broker, json: bool, metrics: bool) -> Result<String, String> {
        let s = broker.engine_stats();
        if json {
            // Keys in ascending order, pubsub-workload::json conventions.
            let mut out = format!(
                "{{\"checks\":{},\"engine\":{:?},\"events\":{},\"matches\":{}",
                s.subscriptions_checked,
                broker.engine_name(),
                s.events,
                s.matches,
            );
            if metrics {
                out.push_str(&format!(
                    ",\"metrics\":{}",
                    MetricsSnapshot::capture().to_json()
                ));
            }
            out.push_str(&format!(
                ",\"phase1_nanos\":{},\"phase2_nanos\":{}",
                s.phase1_nanos, s.phase2_nanos
            ));
            out.push_str(&format!(
                ",\"stored_events\":{},\"subscriptions\":{}}}",
                broker.stored_event_count(),
                broker.subscription_count(),
            ));
            return Ok(out);
        }
        let per_event_us = |nanos: u64| {
            if s.events == 0 {
                0.0
            } else {
                nanos as f64 / s.events as f64 / 1000.0
            }
        };
        let mut out = format!(
            "engine {}  subscriptions {}  stored-events {}  events {}  checks/event {:.1}  matches {}\n\
             phase1/event {:.1}µs  phase2/event {:.1}µs",
            broker.engine_name(),
            broker.subscription_count(),
            broker.stored_event_count(),
            s.events,
            s.checks_per_event(),
            s.matches,
            per_event_us(s.phase1_nanos),
            per_event_us(s.phase2_nanos),
        );
        if metrics {
            Self::push_metrics_text(&mut out);
        }
        Ok(out)
    }

    fn push_metrics_text(out: &mut String) {
        let snap = MetricsSnapshot::capture();
        if snap.is_empty() {
            out.push_str("\nmetrics: (empty; build with `--features metrics`)");
        } else {
            out.push_str("\nmetrics:");
            for c in &snap.counters {
                out.push_str(&format!("\n  {} = {}", c.name, c.value));
            }
            for h in &snap.histograms {
                out.push_str(&format!("\n  {} count {} sum {}", h.name, h.count, h.sum));
            }
        }
    }
}

fn parse_fault_action(s: &str) -> Result<FaultAction, String> {
    if let Some(ms) = s.strip_prefix("delay=") {
        let ms: u64 = ms.parse().map_err(|_| format!("bad delay `{ms}`"))?;
        return Ok(FaultAction::Delay(ms));
    }
    match s {
        "panic" => Ok(FaultAction::Panic),
        "corrupt" => Ok(FaultAction::Corrupt),
        "fail" => Ok(FaultAction::Fail),
        other => Err(format!(
            "unknown action `{other}` (known: panic corrupt fail delay=<ms>)"
        )),
    }
}

fn parse_fault_schedule(s: &str) -> Result<Schedule, String> {
    if let Some(n) = s.strip_prefix("nth=") {
        let n: u64 = n.parse().map_err(|_| format!("bad count `{n}`"))?;
        return Ok(Schedule::Nth(n));
    }
    if let Some(n) = s.strip_prefix("every=") {
        let n: u64 = n.parse().map_err(|_| format!("bad count `{n}`"))?;
        return Ok(Schedule::EveryNth(n));
    }
    if let Some(rest) = s.strip_prefix("seed=") {
        let (seed, ppm) = rest
            .split_once(',')
            .ok_or_else(|| format!("bad seed schedule `{rest}` (want seed=<seed>,<ppm>)"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
        let prob_ppm: u32 = ppm.parse().map_err(|_| format!("bad ppm `{ppm}`"))?;
        return Ok(Schedule::Seeded { seed, prob_ppm });
    }
    Err(format!(
        "unknown schedule `{s}` (known: nth=<n> every=<n> seed=<seed>,<ppm>)"
    ))
}

const HELP: &str = "\
commands:
  sub <expr>     register a subscription, e.g.  sub price <= 10 AND movie = 'up'
                 (use OR for disjunctions; conjunctive-only under --durable)
  pub <event>    publish an event, e.g.        pub {price: 8, movie: 'up'}
                 separate several events with `;` to publish them as one
                 batch (amortized phase 1):
                 pub {price: 8}; {price: 80}
  unsub <id>     remove a subscription by the id printed at sub time
  tick [n]       advance the logical clock (expires validities)
  stats          engine statistics; `--json` for machine-readable output,
                 `--metrics` to include the global metrics snapshot
                 (requires building with `--features metrics`); durable
                 brokers report a durability block (WAL position, recovery
                 summary, degraded state)
  wal            WAL inspection/maintenance for --durable brokers:
                 `wal verify [dir]`, `wal dump [dir]` (read-only, any
                 directory), `wal compact <dir>` (offline), `wal snapshot`
                 (snapshot + compact the running durable broker)
  chaos          fault injection (requires `--features faults`):
                 `chaos status`, `chaos clear`,
                 `chaos arm <point> <action> <schedule> [lane=<n>]` with
                 action panic|corrupt|fail|delay=<ms>, schedule
                 nth=<n>|every=<n>|seed=<seed>,<ppm>; points are the
                 durability points durability.wal.append, durability.wal.fsync,
                 durability.wal.rotate, durability.wal.read,
                 durability.snapshot.write, the server points
                 net.server.accept, net.server.handshake,
                 net.server.frame.read, net.server.frame.write, and the
                 replication points net.repl.accept, net.repl.stream.read,
                 net.repl.apply, net.repl.snapshot.fetch
  help           this text
  quit           exit";

/// Opens the replica broker behind `serve --follow`. The directory must be
/// empty, absent, or a directory this (or a previous) follower already
/// owned: pointing `--follow` at an existing leader WAL would interleave
/// two unrelated logs, so that case is a typed refusal
/// ([`pubsub_broker::BrokerError::ForeignHistory`]) rather than a fork.
fn open_follower_broker(
    kind: EngineKind,
    shards: usize,
    dir: &std::path::Path,
) -> Result<(SharedBroker, pubsub_durability::RecoveryReport), String> {
    SharedBroker::open_follower(kind, shards, dir, DurabilityConfig::default())
        .map_err(|e| e.to_string())
}

/// One-line human rendering of a follower's [`pubsub_net::ReplStatus`] for
/// the `repl status` serve command.
fn repl_status_line(s: &pubsub_net::ReplStatus) -> String {
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
fn serve_main(args: impl Iterator<Item = String>) {
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
    let broker = match (&follow, &durable_dir) {
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

/// Reports a command-line error on one stderr line and exits with status 2.
/// `cmd` is the subcommand, or `""` for the REPL.
fn usage_error(cmd: &str, msg: impl std::fmt::Display) -> ! {
    let sep = if cmd.is_empty() { "" } else { " " };
    eprintln!("pubsub{sep}{cmd}: {msg}");
    std::process::exit(2)
}

/// Parses an engine or policy name; their parse errors already say which
/// name was unknown.
fn named<T: std::str::FromStr<Err = String>>(cmd: &str, name: &str) -> T {
    name.parse().unwrap_or_else(|e| usage_error(cmd, e))
}

/// One command line's remaining arguments; every accessor that can fail
/// ends in [`usage_error`] for `cmd`.
struct Args<I> {
    cmd: &'static str,
    it: I,
}

impl<I: Iterator<Item = String>> Args<I> {
    fn new(cmd: &'static str, it: I) -> Self {
        Self { cmd, it }
    }

    fn value(&mut self, flag: &str) -> String {
        self.it
            .next()
            .unwrap_or_else(|| usage_error(self.cmd, format!("`{flag}` needs a value")))
    }

    /// The value of `flag` parsed as `T`; `what` names `T` in the error.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| usage_error(self.cmd, format!("`{flag}` needs {what}, got `{v}`")))
    }

    /// The value of `flag` as a non-negative (fractional) number of seconds.
    fn seconds(&mut self, flag: &str) -> std::time::Duration {
        let secs: f64 = self.parsed(flag, "a number of seconds");
        std::time::Duration::try_from_secs_f64(secs).unwrap_or_else(|_| {
            let msg = format!("`{flag}` needs a non-negative number of seconds, got `{secs}`");
            usage_error(self.cmd, msg)
        })
    }

    fn unknown(&self, flag: &str) -> ! {
        usage_error(self.cmd, format!("unknown flag `{flag}`"))
    }
}

/// `pubsub netload`: drive a load workload against a running server and
/// report (optionally persist) the measurements.
fn netload_main(args: impl Iterator<Item = String>) {
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

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    match raw.peek().map(String::as_str) {
        Some("serve") => {
            raw.next();
            return serve_main(raw);
        }
        Some("netload") => {
            raw.next();
            return netload_main(raw);
        }
        _ => {}
    }
    let mut kind = EngineKind::Dynamic;
    let mut shards: Option<usize> = None;
    let mut durable_dir: Option<PathBuf> = None;
    let mut args = Args::new("", raw);
    while let Some(arg) = args.it.next() {
        match arg.as_str() {
            "--shards" => shards = Some(args.parsed(&arg, "an integer shard count")),
            "--durable" => durable_dir = Some(PathBuf::from(args.value(&arg))),
            flag if flag.starts_with("--") => args.unknown(flag),
            other => kind = named(args.cmd, other),
        }
    }
    if shards.is_some() && durable_dir.is_none() {
        usage_error(
            "",
            "`--shards` needs `--durable <dir>` (or use `pubsub serve`)",
        );
    }
    let interactive = std::env::var_os("PUBSUB_NO_PROMPT").is_none();
    let mut cli = match &durable_dir {
        Some(dir) => {
            let (cli, report) =
                Cli::durable(kind, shards.unwrap_or(1), dir).unwrap_or_else(|e| panic!("{e}"));
            if interactive {
                println!(
                    "fastpubsub durable broker ({}, {}). Recovered {} op(s){}. Type `help`.",
                    kind.label(),
                    dir.display(),
                    report.records_replayed,
                    match report.torn_tail_truncated {
                        Some(b) => format!(", truncated {b}B torn tail"),
                        None => String::new(),
                    }
                );
            }
            cli
        }
        None => {
            if interactive {
                println!("fastpubsub broker ({}). Type `help`.", kind.label());
            }
            Cli::volatile(kind)
        }
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();

    loop {
        if interactive {
            print!("> ");
            let _ = stdout.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        match cli.execute(&line) {
            Some(reply) => {
                if !reply.is_empty() {
                    println!("{reply}");
                }
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cli: &mut Cli, line: &str) -> String {
        cli.execute(line).expect("not a quit command")
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fp-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_cli(dir: &std::path::Path) -> Cli {
        Cli::durable(EngineKind::Dynamic, 2, dir)
            .expect("open durable")
            .0
    }

    #[test]
    fn subscribe_publish_flow() {
        let mut cli = Cli::volatile(EngineKind::Dynamic);
        let r = run(&mut cli, "sub movie = 'up' AND price <= 10");
        assert_eq!(r, "subscribed s0");
        let r = run(&mut cli, "pub {movie: 'up', price: 8}");
        assert_eq!(r, "matched: s0");
        let r = run(&mut cli, "pub {movie: 'up', price: 80}");
        assert_eq!(r, "matched: (none)");
        let r = run(&mut cli, "unsub s0");
        assert_eq!(r, "unsubscribed s0");
        let r = run(&mut cli, "pub {movie: 'up', price: 8}");
        assert_eq!(r, "matched: (none)");
    }

    #[test]
    fn batched_publish_flow() {
        let mut cli = Cli::volatile(EngineKind::Dynamic);
        assert_eq!(run(&mut cli, "sub price <= 10"), "subscribed s0");
        assert_eq!(
            run(&mut cli, "sub from = 'NYC' OR from = 'EWR'"),
            "subscribed d0 (2 disjuncts)"
        );
        let r = run(
            &mut cli,
            "pub {price: 8}; {price: 80}; {from: 'EWR', price: 3}",
        );
        assert_eq!(
            r,
            "[0] matched: s0\n[1] matched: (none)\n[2] matched: s0, d0"
        );
        // A parse error anywhere in the batch rejects the whole batch.
        assert!(run(&mut cli, "pub {a: 1}; {broken").starts_with("error:"));
        assert!(run(&mut cli, "pub ; ;").starts_with("error:"));
    }

    #[test]
    fn batched_publish_flow_durable() {
        let dir = temp_dir("batch-pub");
        let mut cli = durable_cli(&dir);
        assert_eq!(run(&mut cli, "sub price <= 10"), "subscribed s0");
        let r = run(&mut cli, "pub {price: 8}; {price: 80}");
        assert_eq!(r, "[0] matched: s0\n[1] matched: (none)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dnf_flow() {
        let mut cli = Cli::volatile(EngineKind::Dynamic);
        let r = run(&mut cli, "sub from = 'NYC' OR from = 'EWR'");
        assert_eq!(r, "subscribed d0 (2 disjuncts)");
        let r = run(&mut cli, "pub {from: 'EWR'}");
        assert_eq!(r, "matched: d0");
        let r = run(&mut cli, "unsub d0");
        assert_eq!(r, "unsubscribed d0");
        let r = run(&mut cli, "pub {from: 'EWR'}");
        assert_eq!(r, "matched: (none)");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut cli = Cli::volatile(EngineKind::Counting);
        assert!(run(&mut cli, "sub price <").starts_with("error:"));
        assert!(run(&mut cli, "pub {broken").starts_with("error:"));
        assert!(run(&mut cli, "unsub s99").starts_with("error:"));
        assert!(run(&mut cli, "bogus").starts_with("error:"));
        // Still functional afterwards.
        assert_eq!(run(&mut cli, "sub a = 1"), "subscribed s0");
    }

    #[test]
    fn tick_and_stats() {
        let mut cli = Cli::volatile(EngineKind::Dynamic);
        run(&mut cli, "sub a = 1");
        run(&mut cli, "pub {a: 1}");
        let r = run(&mut cli, "tick 3");
        assert!(r.contains("now t3"), "{r}");
        let r = run(&mut cli, "stats");
        assert!(r.contains("subscriptions 1"), "{r}");
        assert!(r.contains("matches 1"), "{r}");
        assert!(r.contains("phase1/event"), "{r}");
        assert!(r.contains("phase2/event"), "{r}");
    }

    #[test]
    fn stats_json_and_metrics_flags() {
        let mut cli = Cli::volatile(EngineKind::Counting);
        run(&mut cli, "sub a = 1");
        run(&mut cli, "pub {a: 1}");
        let r = run(&mut cli, "stats --json");
        assert!(r.starts_with("{\"checks\":"), "{r}");
        assert!(r.contains("\"engine\":\"counting\""), "{r}");
        assert!(r.contains("\"events\":1"), "{r}");
        assert!(r.ends_with("\"subscriptions\":1}"), "{r}");
        let r = run(&mut cli, "stats --metrics");
        assert!(r.contains("metrics"), "{r}");
        let r = run(&mut cli, "stats --json --metrics");
        assert!(r.contains("\"metrics\":{\"counters\":{"), "{r}");
        // With the feature on the snapshot must carry the published event.
        if pubsub_types::metrics::enabled() {
            assert!(r.contains("\"broker.publishes\":"), "{r}");
        }
        assert!(run(&mut cli, "stats --bogus").starts_with("error:"));
    }

    #[test]
    fn chaos_command_status_arm_clear() {
        let mut cli = Cli::volatile(EngineKind::Counting);
        let r = run(&mut cli, "chaos");
        assert!(r.contains("fault injection"), "{r}");
        assert_eq!(run(&mut cli, "chaos clear"), "cleared all fault rules");
        assert!(run(&mut cli, "chaos bogus").starts_with("error:"));
        assert!(run(&mut cli, "chaos arm").starts_with("error:"));
        if !faults::enabled() {
            // Arming requires the compiled-in registry.
            let r = run(&mut cli, "chaos arm p panic nth=1");
            assert!(r.starts_with("error:"), "{r}");
            return;
        }
        // A point nothing in this test binary reaches, so the armed rule
        // cannot fire inside a concurrently running test.
        let r = run(&mut cli, "chaos arm net.repl.snapshot.fetch fail nth=1");
        assert!(
            r.starts_with("armed Fail on net.repl.snapshot.fetch"),
            "{r}"
        );
        run(&mut cli, "chaos clear");
        assert!(run(&mut cli, "chaos").contains("0 rule(s) armed"));
    }

    #[test]
    fn chaos_parsers_reject_garbage() {
        assert!(parse_fault_action("panic").is_ok());
        assert!(parse_fault_action("corrupt").is_ok());
        assert_eq!(parse_fault_action("fail"), Ok(FaultAction::Fail));
        assert_eq!(parse_fault_action("delay=25"), Ok(FaultAction::Delay(25)));
        assert!(parse_fault_action("explode").is_err());
        assert_eq!(parse_fault_schedule("nth=3"), Ok(Schedule::Nth(3)));
        assert_eq!(parse_fault_schedule("every=2"), Ok(Schedule::EveryNth(2)));
        assert_eq!(
            parse_fault_schedule("seed=42,1000"),
            Ok(Schedule::Seeded {
                seed: 42,
                prob_ppm: 1000
            })
        );
        assert!(parse_fault_schedule("sometimes").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut cli = Cli::volatile(EngineKind::Dynamic);
        assert_eq!(run(&mut cli, "# a comment"), "");
        assert_eq!(run(&mut cli, "   "), "");
        assert!(cli.execute("quit").is_none());
    }

    #[test]
    fn durable_state_survives_reopen() {
        let dir = temp_dir("reopen");
        let mut cli = durable_cli(&dir);
        assert_eq!(
            run(&mut cli, "sub movie = 'up' AND price <= 10"),
            "subscribed s0"
        );
        assert_eq!(run(&mut cli, "pub {movie: 'up', price: 8}"), "matched: s0");
        run(&mut cli, "tick 2");
        drop(cli);

        // A fresh process over the same directory sees the same broker.
        let mut cli = durable_cli(&dir);
        assert_eq!(run(&mut cli, "pub {movie: 'up', price: 8}"), "matched: s0");
        let r = run(&mut cli, "tick");
        assert!(r.contains("now t3"), "clock recovered: {r}");
        assert_eq!(run(&mut cli, "unsub s0"), "unsubscribed s0");
        drop(cli);

        let mut cli = durable_cli(&dir);
        assert_eq!(
            run(&mut cli, "pub {movie: 'up', price: 8}"),
            "matched: (none)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_rejects_dnf() {
        let dir = temp_dir("no-dnf");
        let mut cli = durable_cli(&dir);
        let r = run(&mut cli, "sub a = 1 OR b = 2");
        assert!(r.starts_with("error:") && r.contains("conjunctive"), "{r}");
        assert!(run(&mut cli, "unsub d0").starts_with("error:"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_stats_block() {
        let dir = temp_dir("stats");
        let mut cli = durable_cli(&dir);
        run(&mut cli, "sub a = 1");
        run(&mut cli, "pub {a: 1}");
        let r = run(&mut cli, "stats");
        assert!(r.contains("(durable)"), "{r}");
        assert!(r.contains("durability: dir"), "{r}");
        assert!(r.contains("degraded no  role leader"), "{r}");
        assert!(r.contains("recovery: replayed 0"), "{r}");
        // The durable backend publishes through the RCU snapshot: the
        // matching work must show up in the aggregate, and the rcu block
        // must be reported.
        assert!(r.contains("events 1"), "{r}");
        assert!(r.contains("matches 1"), "{r}");
        assert!(r.contains("rcu: flips"), "{r}");
        // One subscription sits in L0; the empty recovered stripe froze
        // nothing.
        assert!(r.contains("tiers 0  l0 1  built 0  predicates 0"), "{r}");
        let r = run(&mut cli, "stats --json");
        assert!(r.starts_with("{\"checks\":"), "{r}");
        assert!(r.contains("\"durability\":{\"degraded\":false"), "{r}");
        assert!(
            r.contains("\"follower\":false,\"next_lsn\":2"),
            "two ops logged: {r}"
        );
        assert!(r.contains("\"recovery\":{\"bytes_abandoned\":0"), "{r}");
        assert!(r.contains("\"events\":1"), "{r}");
        assert!(r.contains("\"rcu\":{\"active_readers\":0"), "{r}");
        assert!(r.contains("\"retired\":0"), "{r}");
        assert!(r.contains("\"built\":0,\"epoch\":"), "{r}");
        assert!(
            r.contains("\"l0\":1,\"predicates\":0,\"retired\":0,\"tiers\":0}"),
            "{r}"
        );
        assert!(r.ends_with("\"subscriptions\":1}"), "{r}");
        // Key order stays ascending around the durability and rcu blocks.
        assert!(r.find("\"checks\"").unwrap() < r.find("\"durability\"").unwrap());
        assert!(r.find("\"durability\"").unwrap() < r.find("\"engine\"").unwrap());
        assert!(r.find("\"phase2_nanos\"").unwrap() < r.find("\"rcu\"").unwrap());
        assert!(r.find("\"rcu\"").unwrap() < r.find("\"shards\"").unwrap());
        // A full L0 freezes into a tier, whose predicates the one
        // broker-wide index publishes: 63 more distinct constants fill both
        // stripes' L0s, and the two tiers name 64 predicates.
        for v in 2..=64 {
            run(&mut cli, &format!("sub a = {v}"));
        }
        let r = run(&mut cli, "stats");
        assert!(r.contains("tiers 2  l0 0  built 64  predicates 64"), "{r}");
        let r = run(&mut cli, "stats --json");
        assert!(
            r.contains("\"l0\":0,\"predicates\":64,\"retired\":0"),
            "{r}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_follow_refuses_foreign_history() {
        // Satellite guard: a WAL directory with real (non-follower) durable
        // history must not be followed into — that would interleave the
        // local log with the leader's. The refusal is typed, not a panic.
        let dir = temp_dir("foreign");
        let mut cli = durable_cli(&dir);
        run(&mut cli, "sub a = 1");
        drop(cli);
        let err = match open_follower_broker(EngineKind::Dynamic, 2, &dir) {
            Err(e) => e,
            Ok(_) => panic!("foreign history must be refused"),
        };
        assert!(err.contains("non-follower durable history"), "{err}");

        // A fresh directory opens fine and is branded; reopening the same
        // (now follower-marked) directory also works.
        let fresh = temp_dir("follower-home");
        let (broker, _) = open_follower_broker(EngineKind::Dynamic, 2, &fresh).unwrap();
        assert!(broker.is_follower());
        assert!(broker.durability().unwrap().follower);
        drop(broker);
        let (broker, _) = open_follower_broker(EngineKind::Dynamic, 2, &fresh).unwrap();
        assert!(broker.is_follower());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&fresh).unwrap();
    }

    #[test]
    fn repl_status_line_renders_both_roles() {
        let mut status = pubsub_net::ReplStatus {
            next_lsn: 42,
            leader_next_lsn: Some(44),
            lag: Some(2),
            connected: true,
            stale: false,
            millis_since_contact: Some(12),
            connects: 3,
            promoted: false,
        };
        assert_eq!(
            repl_status_line(&status),
            "replication: role follower  connected yes  stale no  applied 42  leader 44  \
             lag 2  last-contact 12ms  connects 3"
        );
        status.promoted = true;
        status.leader_next_lsn = None;
        status.lag = None;
        status.millis_since_contact = None;
        assert_eq!(
            repl_status_line(&status),
            "replication: role leader(promoted)  connected yes  stale no  applied 42  \
             leader ?  lag ?  last-contact never  connects 3"
        );
    }

    #[test]
    fn wal_command_verify_dump_snapshot() {
        let dir = temp_dir("walcmd");
        let mut cli = durable_cli(&dir);
        run(&mut cli, "sub a = 1");
        run(&mut cli, "sub b = 2");
        run(&mut cli, "tick");
        let r = run(&mut cli, "wal verify");
        assert!(r.contains("healthy"), "{r}");
        // Two interns + two subscribes + one advance.
        assert!(r.contains("5 record(s)"), "{r}");
        let r = run(&mut cli, "wal dump");
        assert!(r.contains("subscribe"), "{r}");
        assert!(r.contains("advance"), "{r}");
        let r = run(&mut cli, "wal snapshot");
        assert!(r.starts_with("snapshot written:"), "{r}");
        let r = run(&mut cli, "wal verify");
        assert!(r.contains("1 snapshot(s)"), "{r}");
        // Guard rails.
        assert!(run(&mut cli, "wal").starts_with("error:"));
        assert!(run(&mut cli, "wal bogus").starts_with("error:"));
        assert!(
            run(&mut cli, "wal compact").starts_with("error:"),
            "needs dir"
        );
        let own = format!("wal compact {}", dir.display());
        assert!(
            run(&mut cli, &own).contains("holds that directory"),
            "guarded"
        );
        drop(cli);
        // Offline compact over the closed directory works.
        let mut offline = Cli::volatile(EngineKind::Counting);
        let r = run(&mut offline, &own);
        assert!(r.starts_with("compacted"), "{r}");
        assert!(
            run(&mut offline, "wal verify").starts_with("error:"),
            "no dir"
        );
        assert!(
            run(&mut offline, "wal snapshot").starts_with("error:"),
            "not durable"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
