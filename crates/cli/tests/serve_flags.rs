//! `pubsub serve` command-line errors are usage errors: one line on stderr,
//! exit status 2, no panic — and nothing is bound or printed to stdout.

use std::process::{Command, Stdio};

#[test]
fn unknown_flag_and_missing_value_exit_2_with_one_stderr_line() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["--no-such-flag"],
            "pubsub serve: unknown flag `--no-such-flag`\n",
        ),
        (
            &["dynamic", "--publish-mode", "locked"],
            "pubsub serve: unknown flag `--publish-mode`\n",
        ),
        (
            &["--shards", "2", "--addr"],
            "pubsub serve: `--addr` needs a value\n",
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pubsub"))
            .arg("serve")
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
