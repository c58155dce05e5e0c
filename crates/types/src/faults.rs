//! Deterministic fault injection, feature-gated like [`crate::metrics`].
//!
//! Production-scale brokers treat their I/O as fallible: a WAL append or
//! fsync fails, a connection dies mid-frame, a replication stream is cut.
//! The durable broker degrades to read-only, the server drops the one
//! connection, the follower reconnects — and this module exists to *prove*
//! that recovery works, by letting tests and the CLI `chaos` command force
//! faults at exact, reproducible points.
//!
//! # Model
//!
//! Code under test declares **fault points** — named call sites (e.g.
//! `durability.wal.append`) that consult the registry via [`hit`] before
//! doing their work. Tests **arm** rules against those points: a rule pairs a
//! [`FaultAction`] (panic, corrupt-then-panic, delay) with a [`Schedule`]
//! (fire at the n-th hit, every n-th hit, or pseudo-randomly from a seed).
//! Hit counting is per-rule, so schedules are deterministic regardless of
//! which thread reaches the point first.
//!
//! ```
//! use pubsub_types::faults::{self, FaultAction, Schedule};
//!
//! faults::clear();
//! faults::arm("example.point", None, FaultAction::Panic, Schedule::Nth(2));
//! assert_eq!(faults::hit("example.point", 0), None); // first hit passes
//! if faults::enabled() {
//!     assert_eq!(faults::hit("example.point", 0), Some(FaultAction::Panic));
//! }
//! faults::clear();
//! ```
//!
//! # Feature gate
//!
//! The registry is compiled behind the `faults` cargo feature of
//! `pubsub-types`. With the feature **off** (the default), [`hit`] is an
//! `#[inline(always)]` body returning `None` and [`arm`]/[`clear`] are
//! no-ops, so instrumented hot paths cost nothing in production builds.
//! [`enabled`] reports the compile-time state so tests can skip themselves
//! when injection is unavailable.

/// What an armed rule does when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the fault point (contained by the site's `catch_unwind`).
    Panic,
    /// Corrupt local state first, then panic — the site is expected to
    /// mutate its data structure into an invalid state before unwinding, so
    /// recovery must discard the survivor rather than resume it.
    Corrupt,
    /// Sleep for this many milliseconds before proceeding normally (models
    /// a slow or wedged worker for backpressure tests).
    Delay(u64),
    /// Fail the operation with an injected I/O-style error instead of
    /// performing it. Durability sites interpret this per point: a failed
    /// append leaves a torn record prefix on disk, a failed fsync or
    /// rotation reports the error without touching the file. The caller is
    /// expected to surface a typed error (degraded mode), never to panic.
    Fail,
}

/// When an armed rule fires, in per-rule hit counts (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Fire exactly once, at the n-th hit of the point, then disarm.
    Nth(u64),
    /// Fire at every n-th hit (n ≥ 1; `EveryNth(1)` fires on every hit).
    EveryNth(u64),
    /// Fire pseudo-randomly: a SplitMix64 stream seeded by `seed` is
    /// advanced on every hit and fires with probability `prob_ppm` parts
    /// per million. Deterministic for a given seed and hit sequence.
    Seeded {
        /// RNG seed.
        seed: u64,
        /// Firing probability in parts per million (clamped to 1e6).
        prob_ppm: u32,
    },
}

#[cfg(feature = "faults")]
mod imp {
    use super::{FaultAction, Schedule};
    use std::sync::Mutex;

    struct Rule {
        point: String,
        lane: Option<usize>,
        action: FaultAction,
        schedule: Schedule,
        hits: u64,
        rng: u64,
        spent: bool,
    }

    static REGISTRY: Mutex<Vec<Rule>> = Mutex::new(Vec::new());

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Arms a rule: when `point` is hit on `lane` (or any lane for `None`)
    /// and `schedule` fires, the site performs `action`.
    pub fn arm(point: &str, lane: Option<usize>, action: FaultAction, schedule: Schedule) {
        let seed = match schedule {
            Schedule::Seeded { seed, .. } => seed,
            _ => 0,
        };
        REGISTRY.lock().unwrap().push(Rule {
            point: point.to_string(),
            lane,
            action,
            schedule,
            hits: 0,
            rng: seed,
            spent: false,
        });
    }

    /// Disarms every rule.
    pub fn clear() {
        REGISTRY.lock().unwrap().clear();
    }

    /// Number of rules still armed (spent one-shot rules excluded).
    pub fn armed() -> usize {
        REGISTRY.lock().unwrap().iter().filter(|r| !r.spent).count()
    }

    /// Records one hit of `point` on `lane` against every matching rule and
    /// returns the action of the first rule whose schedule fires.
    pub fn hit(point: &str, lane: usize) -> Option<FaultAction> {
        let mut reg = REGISTRY.lock().unwrap();
        let mut fired = None;
        for rule in reg.iter_mut() {
            if rule.spent || rule.point != point {
                continue;
            }
            if let Some(l) = rule.lane {
                if l != lane {
                    continue;
                }
            }
            rule.hits += 1;
            let fire = match rule.schedule {
                Schedule::Nth(n) => {
                    if rule.hits == n {
                        rule.spent = true;
                        true
                    } else {
                        false
                    }
                }
                Schedule::EveryNth(n) => n >= 1 && rule.hits % n == 0,
                Schedule::Seeded { prob_ppm, .. } => {
                    (splitmix(&mut rule.rng) % 1_000_000) < u64::from(prob_ppm.min(1_000_000))
                }
            };
            if fire && fired.is_none() {
                fired = Some(rule.action);
            }
        }
        fired
    }

    /// `true` when the `faults` feature is compiled in.
    pub const fn enabled() -> bool {
        true
    }
}

#[cfg(not(feature = "faults"))]
mod imp {
    use super::{FaultAction, Schedule};

    /// Arms a rule (no-op: the `faults` feature is off).
    #[inline(always)]
    pub fn arm(_point: &str, _lane: Option<usize>, _action: FaultAction, _schedule: Schedule) {}

    /// Disarms every rule (no-op).
    #[inline(always)]
    pub fn clear() {}

    /// Number of armed rules (always 0).
    #[inline(always)]
    pub fn armed() -> usize {
        0
    }

    /// Records a hit (no-op; never fires).
    #[inline(always)]
    pub fn hit(_point: &str, _lane: usize) -> Option<FaultAction> {
        None
    }

    /// `true` when the `faults` feature is compiled in.
    pub const fn enabled() -> bool {
        false
    }
}

pub use imp::{arm, armed, clear, enabled, hit};

/// Well-known fault-point names of the network server (`pubsub-net`).
///
/// The durability layer names its points in its own crate (`FAULT_APPEND`
/// and friends); the network layer centralises its names here so the
/// server, the chaos tests and the CLI `chaos` help text cannot drift apart. The `lane` passed to [`hit`] at every network point
/// is the server-assigned connection index, so rules can target one
/// connection out of many.
pub mod points {
    /// Hit once per accepted TCP connection, before the handshake.
    /// `Fail` drops the connection without reading a byte (models an
    /// accept-time resource failure); `Delay` stalls the accept path.
    pub const NET_ACCEPT: &str = "net.server.accept";
    /// Hit while waiting for the `Hello` frame. `Fail` kills the
    /// connection mid-handshake — no session may be created or resumed.
    pub const NET_HANDSHAKE: &str = "net.server.handshake";
    /// Hit before decoding each inbound frame. `Fail` severs the
    /// connection mid-stream (a kill between or inside frames); `Delay`
    /// models a slow peer.
    pub const NET_FRAME_READ: &str = "net.server.frame.read";
    /// Hit before each outbound frame write. `Fail` severs the connection
    /// mid-delivery (a kill mid-batch on the notify path).
    pub const NET_NOTIFY_WRITE: &str = "net.server.frame.write";
    /// Hit on the leader when a follower's `ReplHello` arrives, before any
    /// WAL data is served. `Fail` rejects the replication stream (models a
    /// leader refusing followers under load).
    pub const REPL_ACCEPT: &str = "net.repl.accept";
    /// Hit on the follower before each frame read from the leader's
    /// replication stream. `Fail` severs the stream mid-flight (a kill
    /// between or inside record batches); `Delay` models a slow WAN link.
    pub const REPL_STREAM_READ: &str = "net.repl.stream.read";
    /// Hit on the follower before each replicated record is applied to the
    /// local WAL + broker. `Fail` aborts the apply (the record is neither
    /// logged nor applied) and drops the stream so reconnection re-fetches
    /// it — applies must stay atomic per record.
    pub const REPL_APPLY: &str = "net.repl.apply";
    /// Hit on the follower while fetching/installing a catch-up snapshot.
    /// `Fail` aborts the transfer before anything is installed.
    pub const REPL_SNAPSHOT_FETCH: &str = "net.repl.snapshot.fetch";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "faults")]
    mod enabled {
        use super::*;
        use std::sync::Mutex;

        /// The registry is process-global; serialize the tests touching it.
        static LOCK: Mutex<()> = Mutex::new(());

        #[test]
        fn nth_fires_once_then_disarms() {
            let _g = LOCK.lock().unwrap();
            clear();
            arm("t.nth", None, FaultAction::Panic, Schedule::Nth(3));
            assert_eq!(hit("t.nth", 0), None);
            assert_eq!(hit("t.nth", 1), None);
            assert_eq!(hit("t.nth", 0), Some(FaultAction::Panic));
            assert_eq!(hit("t.nth", 0), None, "one-shot rule is spent");
            assert_eq!(armed(), 0);
            clear();
        }

        #[test]
        fn lanes_filter_and_every_nth_repeats() {
            let _g = LOCK.lock().unwrap();
            clear();
            arm(
                "t.lane",
                Some(2),
                FaultAction::Delay(5),
                Schedule::EveryNth(2),
            );
            assert_eq!(hit("t.lane", 1), None, "wrong lane never counts");
            assert_eq!(hit("t.lane", 2), None, "hit 1 of 2");
            assert_eq!(hit("t.lane", 2), Some(FaultAction::Delay(5)));
            assert_eq!(hit("t.lane", 2), None);
            assert_eq!(hit("t.lane", 2), Some(FaultAction::Delay(5)));
            clear();
        }

        #[test]
        fn seeded_is_deterministic() {
            let _g = LOCK.lock().unwrap();
            let run = || {
                clear();
                arm(
                    "t.seed",
                    None,
                    FaultAction::Panic,
                    Schedule::Seeded {
                        seed: 42,
                        prob_ppm: 250_000,
                    },
                );
                let fired: Vec<bool> = (0..64).map(|_| hit("t.seed", 0).is_some()).collect();
                clear();
                fired
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "same seed, same firing pattern");
            assert!(a.iter().any(|&f| f), "25% over 64 hits fires some");
            assert!(!a.iter().all(|&f| f), "…but not all");
        }
    }

    #[cfg(not(feature = "faults"))]
    #[test]
    fn everything_is_a_no_op() {
        arm("t.off", None, FaultAction::Panic, Schedule::Nth(1));
        assert_eq!(hit("t.off", 0), None);
        assert_eq!(armed(), 0);
        assert!(!enabled());
        clear();
    }
}
