//! The system under test as a child process: `pubsub serve` spawned from
//! the release binary, watched through `/proc`, and killed and waited for on
//! every path out.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// How the server is started. `engine` is the one knob the benchmark turns
/// itself (the README's discrimination check serves `counting`).
pub struct ServerSpec<'a> {
    pub binary: &'a Path,
    pub engine: &'a str,
    /// WAL directory for `--durable`; `None` serves a volatile broker.
    pub durable_dir: Option<&'a Path>,
    /// Directory a `<pid>` file is kept in while the child lives, so the
    /// wrapper script can kill what a crashed harness left behind.
    pub pid_dir: &'a Path,
}

/// A running `pubsub serve`. Dropping it kills the process and waits.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
    /// When the spawn call was made.
    pub spawned_at: Instant,
    /// Spawn → the server's "serving on" line.
    pub spawn_to_listen_ms: f64,
    pid_file: PathBuf,
    /// Kept open so a late server print cannot hit a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    pub fn spawn(spec: &ServerSpec) -> Result<Self, String> {
        let mut cmd = Command::new(spec.binary);
        cmd.arg("serve")
            .arg(spec.engine)
            .args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = spec.durable_dir {
            cmd.arg("--durable").arg(dir);
        }
        // stdin stays open and silent: on EOF the server would park, on
        // `quit` it would stop. Stdout carries the bound address.
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned_at = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.binary.display()))?;
        let pid_file = spec.pid_dir.join(child.id().to_string());
        // From here on the child is owned by `server`, whose Drop reaps it.
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned_at,
            spawn_to_listen_ms: 0.0,
            pid_file,
            stdout,
        };
        fs::write(&server.pid_file, b"").map_err(|e| format!("pid file: {e}"))?;
        loop {
            let mut line = String::new();
            match server.stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return Err("server exited before it was listening".into()),
            }
            // "fastpubsub serving dynamic x 2 shard(s) on 127.0.0.1:4242 (…"
            if let Some(rest) = line.split(" on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok()) {
                    server.addr = addr;
                    break;
                }
            }
        }
        server.spawn_to_listen_ms = spawned_at.elapsed().as_secs_f64() * 1e3;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the server process has consumed, all threads, from its
    /// process CPU-time clock (nanosecond resolution; `/proc/<pid>/stat`
    /// only counts 10 ms ticks).
    pub fn cpu_ns(&self) -> u64 {
        process_cpu_ns(self.pid()).expect("the server's CPU clock is readable while it runs")
    }

    /// Resident set size in MiB, from `/proc/<pid>/statm`.
    pub fn rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/statm", self.pid());
        let statm = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let pages: f64 = statm
            .split_whitespace()
            .nth(1)
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("{path}: no resident field"))?;
        // Linux on x86-64 and aarch64 as built here: 4 KiB pages.
        Ok(pages * 4096.0 / (1024.0 * 1024.0))
    }

    /// Scheduler counters summed over the server's threads.
    pub fn sched(&self) -> SchedSample {
        let mut sample = SchedSample::default();
        let Ok(tasks) = fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return sample;
        };
        for task in tasks.flatten() {
            sample.threads += 1;
            let dir = task.path();
            if let Ok(status) = fs::read_to_string(dir.join("status")) {
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches")
                        || line.starts_with("nonvoluntary_ctxt_switches")
                    {
                        sample.ctx_switches += line
                            .split_whitespace()
                            .nth(1)
                            .and_then(|n| n.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
            // schedstat: on-cpu ns, run-queue wait ns, timeslices.
            if let Ok(schedstat) = fs::read_to_string(dir.join("schedstat")) {
                sample.runq_wait_ns += schedstat
                    .split_whitespace()
                    .nth(1)
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        sample
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.pid_file);
    }
}

/// See [`ServerProcess::sched`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedSample {
    pub threads: u64,
    pub ctx_switches: u64,
    pub runq_wait_ns: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Reads another process's CPU-time clock — what `clock_getcpuclockid(3)`
/// followed by `clock_gettime(2)` does.
fn process_cpu_ns(pid: u32) -> Option<u64> {
    // The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
    const CPUCLOCK_SCHED: i32 = 2;
    let clock_id = (!(pid as i32) << 3) | CPUCLOCK_SCHED;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` with the
    // C layout of two 64-bit fields used on the 64-bit Linux targets this
    // benchmark runs on; the call has no other effect.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_clock_advances() {
        let before = process_cpu_ns(std::process::id()).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = process_cpu_ns(std::process::id()).unwrap();
        assert!(after > before, "{before} -> {after}");
    }
}
