//! `pubsub` — the command-line broker.
//!
//! The paper's prototype "runs as a process … waiting for subscriptions and
//! events to process". This binary is that process, with three command
//! lines (see DESIGN.md §13 for the server):
//!
//! * `pubsub [engine] [--durable <dir>]` — the REPL (`repl.rs`): stdin
//!   lines such as `sub a = 1 AND b <= 5`, `pub {a: 1, b: 3}`, `unsub s0`,
//!   `tick`, `stats`, `wal verify`, `chaos status`, `help`, `quit`.
//! * `pubsub serve [engine] --addr <host:port> [--shards N] [--backpressure
//!   <policy>] [--queue-cap N] [--durable dir] [--follow <leader:port>]
//!   [--session-ttl <secs>] [--idle-deadline <secs>]` — the network-facing
//!   broker server (`serve.rs`).
//! * `pubsub netload --addr <host:port> [--subscribers N] [--subs N]
//!   [--events N] [--values N] [--seed S] [--json path] [--min-rps X]` —
//!   the end-to-end load generator (`netload.rs`).
//!
//! `engine` is one of `counting`, `propagation`, `propagation-wp`,
//! `static`, `dynamic` (default). A bad flag or flag value on any of the
//! three command lines is a usage error: one line on stderr, exit status 2.

#![forbid(unsafe_code)]

mod netload;
mod repl;
mod serve;
#[cfg(test)]
mod tests;

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    match raw.peek().map(String::as_str) {
        Some("serve") => serve::serve_main(raw.skip(1)),
        Some("netload") => netload::netload_main(raw.skip(1)),
        _ => repl::repl_main(raw),
    }
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
