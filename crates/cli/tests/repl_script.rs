//! The REPL as a process: a script piped to `pubsub` on stdin gives the
//! same replies on every engine, in memory and (for conjunctive
//! subscriptions) on disk.

use std::io::Write;
use std::process::{Command, Stdio};

const ENGINES: [&str; 5] = [
    "counting",
    "propagation",
    "propagation-wp",
    "static",
    "dynamic",
];

/// Runs `pubsub <args>` with `script` on stdin and returns its stdout lines.
fn repl(args: &[&str], script: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pubsub"))
        .args(args)
        .env("PUBSUB_NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pubsub");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

#[test]
fn script_gives_the_same_replies_on_every_engine() {
    let script = "sub a = 1 AND b <= 5\n\
                  sub a = 2 OR b > 7\n\
                  sub c = 'x'\n\
                  pub {a: 1, b: 3}\n\
                  pub {a: 9, b: 8, c: 'x'}\n\
                  pub {a: 2}; {a: 1, b: 9}\n\
                  unsub d0\n\
                  pub {a: 2}\n";
    let want = [
        "subscribed s0",
        "subscribed d0 (2 disjuncts)",
        "subscribed s3",
        "matched: s0",
        "matched: s3, d0",
        "[0] matched: d0",
        "[1] matched: d0",
        "unsubscribed d0",
        "matched: (none)",
    ];
    for engine in ENGINES {
        assert_eq!(repl(&[engine], script), want, "{engine}");
    }
}

#[test]
fn durable_script_gives_the_same_conjunctive_replies_and_refuses_or() {
    let script = "sub a = 1 AND b <= 5\n\
                  sub a = 2 OR b > 7\n\
                  sub c = 'x'\n\
                  pub {a: 1, b: 3}\n\
                  pub {a: 9, b: 8, c: 'x'}\n";
    for engine in ENGINES {
        let dir =
            std::env::temp_dir().join(format!("fp-repl-script-{}-{engine}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let got = repl(&[engine, "--durable", dir.to_str().unwrap()], script);
        assert_eq!(got.len(), 5, "{engine}: {got:?}");
        assert_eq!(got[0], "subscribed s0", "{engine}");
        assert!(
            got[1].starts_with("error:") && got[1].contains("conjunctive"),
            "{engine}: {}",
            got[1]
        );
        assert_eq!(
            got[2..],
            ["subscribed s1", "matched: s0", "matched: s1"],
            "{engine}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
