//! The `pubsub` REPL: one [`SharedBroker`] driven by stdin lines
//! (interactively or piped):
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
//! The broker is the one `serve` runs, on one stripe. The `chaos` command
//! drives the deterministic fault-injection registry when the binary is
//! built with `--features faults`.
//!
//! `--durable <dir>` makes the broker crash-recoverable: every
//! subscription, unsubscription and clock advance is written to a segmented
//! write-ahead log in `dir` before it is applied, and restarting the binary
//! against the same directory recovers the exact acknowledged state (a torn
//! final record from a crash is truncated away). The `wal` command inspects
//! and maintains such directories — `wal verify`/`wal dump` work offline on
//! any directory, `wal snapshot` compacts the running broker's log. Durable
//! mode supports conjunctive subscriptions only (no OR): the mapping from
//! an OR subscription to its disjuncts is not logged.

use crate::{named, Args};
use pubsub_broker::{DnfId, DnfRegistry, DnfSubscription, SharedBroker, Validity};
use pubsub_core::EngineKind;
use pubsub_durability::{DurabilityConfig, Wal};
use pubsub_lang::{parse_event, parse_subscription};
use pubsub_types::faults::{self, FaultAction, Schedule};
use pubsub_types::metrics::MetricsSnapshot;
use pubsub_types::SubscriptionId;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

pub(crate) struct Cli {
    broker: SharedBroker,
    dnf: DnfRegistry,
}

impl Cli {
    /// Opens the REPL's broker: in memory, or durable over `dir`,
    /// recovering previous state. Prints nothing here; the caller reports
    /// the recovery summary.
    pub(crate) fn open(kind: EngineKind, dir: Option<&Path>) -> Result<Self, String> {
        let broker = match dir {
            Some(dir) => {
                SharedBroker::open_durable(kind, 1, dir)
                    .map_err(|e| e.to_string())?
                    .0
            }
            None => SharedBroker::new(kind, 1),
        };
        Ok(Self {
            broker,
            dnf: DnfRegistry::new(),
        })
    }

    /// Executes one command line; returns the response text, or `None` to
    /// quit.
    pub(crate) fn execute(&mut self, line: &str) -> Option<String> {
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
        let parsed = self
            .broker
            .with_vocab(|vocab| parse_subscription(expr, vocab))
            .map_err(|e| e.render(expr))?;
        if parsed.is_conjunctive() {
            let id = self
                .broker
                .try_subscribe(parsed.into_conjunction(), Validity::forever())
                .map_err(|e| e.to_string())?;
            return Ok(format!("subscribed {id}"));
        }
        if self.broker.is_durable() {
            return Err(
                "durable mode supports conjunctive subscriptions only; split the OR \
                 into separate `sub` commands or drop --durable"
                    .into(),
            );
        }
        let dnf = DnfSubscription::new(parsed.disjuncts).expect("non-empty");
        let n = dnf.disjuncts().len();
        let id = self.dnf.subscribe(&self.broker, dnf, Validity::forever());
        Ok(format!("subscribed {id} ({n} disjuncts)"))
    }

    /// `matched: ...` for one event's matches: plain subscriptions by id,
    /// then each OR subscription once, however many of its disjuncts
    /// matched.
    fn matched(&self, ids: &[SubscriptionId]) -> String {
        let mut dnf_hits = Vec::new();
        let mut plain = Vec::new();
        self.dnf.translate(ids, &mut dnf_hits, &mut plain);
        let names: Vec<String> = plain
            .iter()
            .map(ToString::to_string)
            .chain(dnf_hits.iter().map(ToString::to_string))
            .collect();
        if names.is_empty() {
            "matched: (none)".into()
        } else {
            format!("matched: {}", names.join(", "))
        }
    }

    fn cmd_publish(&mut self, expr: &str) -> Result<String, String> {
        if expr.contains(';') {
            return self.cmd_publish_batch(expr);
        }
        let event = self
            .broker
            .with_vocab(|vocab| parse_event(expr, vocab))
            .map_err(|e| e.render(expr))?;
        Ok(self.matched(&self.broker.publish(&event)))
    }

    /// `pub e1; e2; ...` — all events parsed up front, then matched in one
    /// batched publish (`publish_batch`), which runs phase 1 once for the
    /// batch. Output is one `[i] matched: ...` line per event, in
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
        let events = self.broker.with_vocab(|vocab| {
            exprs
                .iter()
                .map(|e| parse_event(e, vocab).map_err(|err| err.render(e)))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let lines: Vec<String> = self
            .broker
            .publish_batch(&events)
            .iter()
            .enumerate()
            .map(|(i, ids)| format!("[{i}] {}", self.matched(ids)))
            .collect();
        Ok(lines.join("\n"))
    }

    fn cmd_unsubscribe(&mut self, id: &str) -> Result<String, String> {
        let bad_id = || format!("bad id `{id}`");
        let ok = match id.strip_prefix('d') {
            Some(num) => {
                let n: u64 = num.parse().map_err(|_| bad_id())?;
                self.dnf.unsubscribe(&self.broker, DnfId(n))
            }
            None => {
                let n: u32 = id
                    .strip_prefix('s')
                    .unwrap_or(id)
                    .parse()
                    .map_err(|_| bad_id())?;
                self.broker
                    .try_unsubscribe(SubscriptionId(n))
                    .map_err(|e| e.to_string())?
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
        let mut expired = 0;
        for _ in 0..n {
            expired += self.broker.try_tick().map_err(|e| e.to_string())?;
        }
        Ok(format!(
            "now {}; expired {expired} subscription(s)",
            self.broker.now()
        ))
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
        let own_dir = || self.broker.durability().map(|d| d.dir);
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
                // Compare resolved paths: `<dir>/../<name>` or a symlink
                // spells the held directory differently.
                let canonical = |p: &Path| std::fs::canonicalize(p).unwrap_or_else(|_| p.into());
                if own_dir().is_some_and(|own| canonical(&own) == canonical(&dir)) {
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
                if !self.broker.is_durable() {
                    return Err("snapshots need a durable broker (run with --durable <dir>)".into());
                }
                let path = self.broker.snapshot().map_err(|e| e.to_string())?;
                Ok(format!("snapshot written: {}", path.display()))
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
    /// The durability block appears only on a durable broker.
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
        let s = self.broker.rcu_stats();
        let name = self.broker.engine_kind().label();
        let rcu = self.broker.rcu_status();
        let durability = self.broker.durability();
        let counts = self.broker.shard_subscription_counts();
        if json {
            // Keys in ascending order, pubsub-workload::json conventions.
            let fmt_opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let mut out = format!("{{\"checks\":{}", s.subscriptions_checked);
            if let Some(d) = &durability {
                out.push_str(&format!(
                    ",\"durability\":{{\"degraded\":{},\"dir\":{:?},\"follower\":{},\
                     \"next_lsn\":{},\
                     \"ops_since_snapshot\":{},\"recovery\":{{\"bytes_abandoned\":{},\
                     \"records_replayed\":{},\"records_skipped\":{},\"segments_removed\":{},\
                     \"segments_scanned\":{},\"snapshot_lsn\":{},\"snapshots_discarded\":{},\
                     \"torn_tail_truncated\":{}}}}}",
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
                ));
            }
            out.push_str(&format!(
                ",\"engine\":{name:?},\"events\":{},\"matches\":{}",
                s.events, s.matches,
            ));
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
                self.broker.subscription_count(),
            ));
            return Ok(out);
        }
        let per_event_us = |nanos: u64| nanos as f64 / s.events.max(1) as f64 / 1000.0;
        let mut out = format!(
            "engine {name}{}  subscriptions {}  events {}  checks/event {:.1}  matches {}\n\
             phase1/event {:.1}µs  phase2/event {:.1}µs\n\
             shards {}  per-shard subscriptions {counts:?}",
            if durability.is_some() {
                " (durable)"
            } else {
                ""
            },
            self.broker.subscription_count(),
            s.events,
            s.checks_per_event(),
            s.matches,
            per_event_us(s.phase1_nanos),
            per_event_us(s.phase2_nanos),
            counts.len(),
        );
        if let Some(d) = &durability {
            out.push_str(&format!(
                "\ndurability: dir {}  next-lsn {}  since-snapshot {}  degraded {}  role {}\n\
                 recovery: replayed {}  skipped {}  torn-truncated {}  snapshots-discarded {}  \
                 segments-scanned {}",
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
            ));
        }
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
        if let Some(cause) = durability.and_then(|d| d.degraded_cause) {
            out.push_str(&format!("\ndegraded cause: {cause}"));
        }
        if metrics {
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
        Ok(out)
    }
}

pub(crate) fn parse_fault_action(s: &str) -> Result<FaultAction, String> {
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

pub(crate) fn parse_fault_schedule(s: &str) -> Result<Schedule, String> {
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

/// The REPL: parse its command line, open the broker, and answer stdin
/// lines until `quit` or end of input. `PUBSUB_NO_PROMPT` suppresses the
/// banner and the `> ` prompt.
pub(crate) fn repl_main(args: impl Iterator<Item = String>) {
    let mut kind = EngineKind::Dynamic;
    let mut durable_dir: Option<PathBuf> = None;
    let mut args = Args::new("", args);
    while let Some(arg) = args.it.next() {
        match arg.as_str() {
            "--durable" => durable_dir = Some(PathBuf::from(args.value(&arg))),
            flag if flag.starts_with("--") => args.unknown(flag),
            other => kind = named(args.cmd, other),
        }
    }
    let mut cli = Cli::open(kind, durable_dir.as_deref()).unwrap_or_else(|e| panic!("{e}"));
    let interactive = std::env::var_os("PUBSUB_NO_PROMPT").is_none();
    if interactive {
        match (&durable_dir, cli.broker.recovery_report()) {
            (Some(dir), Some(report)) => println!(
                "fastpubsub durable broker ({}, {}). Recovered {} op(s){}. Type `help`.",
                kind.label(),
                dir.display(),
                report.records_replayed,
                match report.torn_tail_truncated {
                    Some(b) => format!(", truncated {b}B torn tail"),
                    None => String::new(),
                }
            ),
            _ => println!("fastpubsub broker ({}). Type `help`.", kind.label()),
        }
    }
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
