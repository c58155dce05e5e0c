//! `pubsub` command-line errors are usage errors on every command line (the
//! REPL, `serve`, `netload`): one line on stderr, exit status 2, no panic —
//! and nothing is bound or printed to stdout. Plus the one stdout line a
//! healthy `serve` owes its callers.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn unknown_flag_and_missing_value_exit_2_with_one_stderr_line() {
    // (command line, stderr); no subcommand is the REPL.
    let cases: [(&[&str], &str); 14] = [
        (
            &["serve", "--no-such-flag"],
            "pubsub serve: unknown flag `--no-such-flag`\n",
        ),
        (
            &["serve", "dynamic", "--publish-mode", "locked"],
            "pubsub serve: unknown flag `--publish-mode`\n",
        ),
        (
            &["serve", "--shards", "2", "--addr"],
            "pubsub serve: `--addr` needs a value\n",
        ),
        (
            &["serve", "--shards", "x"],
            "pubsub serve: `--shards` needs an integer shard count, got `x`\n",
        ),
        (
            &["serve", "--backpressure", "nope"],
            "pubsub serve: unknown backpressure policy: nope\n",
        ),
        (
            &["serve", "--session-ttl", "-1"],
            "pubsub serve: `--session-ttl` needs a non-negative number of seconds, got `-1`\n",
        ),
        (
            &["serve", "--follow", "h:1"],
            "pubsub serve: `--follow` needs `--durable <dir>` for the replica's local log\n",
        ),
        (
            &["serve", "fastest"],
            "pubsub serve: unknown engine kind: fastest\n",
        ),
        (&["--shards", "2"], "pubsub: unknown flag `--shards`\n"),
        (&["fastest"], "pubsub: unknown engine kind: fastest\n"),
        (
            &["--backpressure", "shed"],
            "pubsub: unknown flag `--backpressure`\n",
        ),
        (&["--durable"], "pubsub: `--durable` needs a value\n"),
        (
            &["netload", "--bogus"],
            "pubsub netload: unknown flag `--bogus`\n",
        ),
        (
            &["netload", "--events", "many"],
            "pubsub netload: `--events` needs an integer, got `many`\n",
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pubsub"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn pubsub");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

/// `benchmark/src/server.rs` waits for this line and takes the port from it.
#[test]
fn serve_announces_engine_stripes_address_and_delivery_policy() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pubsub"))
        .args(["serve", "dynamic", "--addr", "127.0.0.1:0", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pubsub serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let port = line
        .strip_prefix("fastpubsub serving dynamic x 2 shard(s) on 127.0.0.1:")
        .and_then(|rest| rest.strip_suffix(" (delivery: block). `quit` to stop.\n"))
        .unwrap_or_else(|| panic!("startup line: {line:?}"));
    assert!(port.parse::<u16>().is_ok_and(|p| p != 0), "port: {port:?}");
    child.stdin.take().unwrap().write_all(b"quit\n").unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
