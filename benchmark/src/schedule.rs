//! The open-loop arrival schedule: publishes are due on a fixed clock that
//! knows nothing about completions, and latency is timed from the instant a
//! publish was *due* — so when the generator or the server stalls, the wait
//! the stall imposes on every later publish is counted, not omitted.

/// Events due at `start_ns + k / rate`, for `k` = 0, 1, … while that is
/// before `end_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    end_ns: u64,
    interval_ns: f64,
}

impl Schedule {
    pub fn new(start_ns: u64, end_ns: u64, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0 && end_ns >= start_ns);
        Self {
            start_ns,
            end_ns,
            interval_ns: 1e9 / rate_per_s,
        }
    }

    /// When event `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * self.interval_ns) as u64
    }

    /// How many events are due at or before `now_ns` (never more than fit
    /// before the end of the schedule).
    pub fn due_by(&self, now_ns: u64) -> u64 {
        if now_ns < self.start_ns {
            return 0;
        }
        let horizon = now_ns.min(self.end_ns.saturating_sub(1)) - self.start_ns;
        (horizon as f64 / self.interval_ns) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sender that follows the schedule, calling back with (due, sent).
    fn drive(schedule: &Schedule, polls: &[u64]) -> Vec<(u64, u64)> {
        let mut sent = Vec::new();
        let mut k = 0;
        for &now in polls {
            while k < schedule.due_by(now) {
                sent.push((schedule.due_ns(k), now));
                k += 1;
            }
        }
        sent
    }

    /// Coordinated omission: a generator that stalls (or waits on a slow
    /// server) still owes every publish at its original due time. The due
    /// times of a stalled run equal those of a prompt run; only the send
    /// times — and so the measured lag and latency — differ.
    #[test]
    fn due_times_do_not_depend_on_completions() {
        let schedule = Schedule::new(1_000, 1_000 + 10_000, 1e6); // due every 1000 ns
        let prompt: Vec<u64> = (1_000..11_000).step_by(100).collect();
        let mut stalled = prompt.clone();
        stalled.retain(|&t| !(3_000..8_000).contains(&t)); // a 5 µs stall
        let a = drive(&schedule, &prompt);
        let b = drive(&schedule, &stalled);
        assert_eq!(a.len(), 10);
        let due = |v: &[(u64, u64)]| v.iter().map(|&(d, _)| d).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_eq!(due(&a)[3], 4_000);
        // The stalled run sent events 2..=6 late, all at once, and says so.
        let lag = |v: &[(u64, u64)]| v.iter().map(|&(d, s)| s - d).max().unwrap();
        assert_eq!(lag(&a), 0);
        assert_eq!(lag(&b), 5_000);
    }

    #[test]
    fn nothing_is_due_outside_the_phase() {
        let schedule = Schedule::new(500, 1_500, 1e7); // every 100 ns
        assert_eq!(schedule.due_by(499), 0);
        assert_eq!(schedule.due_by(500), 1);
        assert_eq!(schedule.due_by(1_499), 10);
        assert_eq!(schedule.due_by(9_999), 10);
        assert!(schedule.due_ns(9) < 1_500);
    }
}
