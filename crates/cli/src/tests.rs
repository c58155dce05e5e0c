//! Unit tests of the REPL's commands and the serve helpers.

use crate::repl::{parse_fault_action, parse_fault_schedule, Cli};
use crate::serve::{open_follower_broker, repl_status_line};
use pubsub_core::EngineKind;
use pubsub_types::faults::{self, FaultAction, Schedule};
use std::path::{Path, PathBuf};

fn run(cli: &mut Cli, line: &str) -> String {
    cli.execute(line).expect("not a quit command")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn memory_cli(kind: EngineKind) -> Cli {
    Cli::open(kind, None).expect("open in memory")
}

fn durable_cli(dir: &Path) -> Cli {
    Cli::open(EngineKind::Dynamic, Some(dir)).expect("open durable")
}

#[test]
fn subscribe_publish_flow() {
    let mut cli = memory_cli(EngineKind::Dynamic);
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
    let mut cli = memory_cli(EngineKind::Dynamic);
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
    let mut cli = memory_cli(EngineKind::Dynamic);
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
    let mut cli = memory_cli(EngineKind::Counting);
    assert!(run(&mut cli, "sub price <").starts_with("error:"));
    assert!(run(&mut cli, "pub {broken").starts_with("error:"));
    assert!(run(&mut cli, "unsub s99").starts_with("error:"));
    assert!(run(&mut cli, "bogus").starts_with("error:"));
    // Still functional afterwards.
    assert_eq!(run(&mut cli, "sub a = 1"), "subscribed s0");
}

#[test]
fn tick_and_stats() {
    let mut cli = memory_cli(EngineKind::Dynamic);
    run(&mut cli, "sub a = 1");
    run(&mut cli, "pub {a: 1}");
    let r = run(&mut cli, "tick 3");
    assert!(r.contains("now t3"), "{r}");
    let r = run(&mut cli, "stats");
    assert!(r.contains("subscriptions 1"), "{r}");
    assert!(r.contains("matches 1"), "{r}");
    assert!(r.contains("phase1/event"), "{r}");
    assert!(r.contains("phase2/event"), "{r}");
    assert!(!r.contains("durability"), "in memory: {r}");
}

#[test]
fn stats_json_and_metrics_flags() {
    let mut cli = memory_cli(EngineKind::Counting);
    run(&mut cli, "sub a = 1");
    run(&mut cli, "pub {a: 1}");
    let r = run(&mut cli, "stats --json");
    assert!(r.starts_with("{\"checks\":"), "{r}");
    assert!(r.contains("\"engine\":\"counting\""), "{r}");
    assert!(r.contains("\"events\":1"), "{r}");
    assert!(r.ends_with("\"subscriptions\":1}"), "{r}");
    assert!(!r.contains("durability"), "in memory: {r}");
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
    let mut cli = memory_cli(EngineKind::Counting);
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
    let mut cli = memory_cli(EngineKind::Dynamic);
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
    // The broker publishes through the RCU snapshot: the
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
    // broker-wide index publishes: 63 more distinct constants fill the
    // stripe's L0 twice, the second freeze merges with the first tier
    // (32 + 64 subscriptions built), and the one tier names 64 predicates.
    for v in 2..=64 {
        run(&mut cli, &format!("sub a = {v}"));
    }
    let r = run(&mut cli, "stats");
    assert!(r.contains("tiers 1  l0 0  built 96  predicates 64"), "{r}");
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
    // The same directory spelled through `..` is still the held one.
    let name = dir.file_name().unwrap().to_str().unwrap();
    let alias = format!("wal compact {}/../{name}", dir.display());
    assert!(
        run(&mut cli, &alias).contains("holds that directory"),
        "guarded through an alias"
    );
    drop(cli);
    // Offline compact over the closed directory works.
    let mut offline = memory_cli(EngineKind::Counting);
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
