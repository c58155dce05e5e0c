//! Zero-dependency, feature-gated observability layer.
//!
//! The paper's evaluation (Section 6) is built on per-phase measurements —
//! predicate-phase vs. subscription-phase time, cluster-table hit rates, the
//! dynamic optimizer's create/remove decisions. This module gives every crate
//! in the workspace a shared, machine-readable way to report those numbers:
//!
//! * [`Counter`] — a monotonic `u64` counter.
//! * [`Histogram`] — a `u64` histogram with fixed log2 buckets (bucket `k`
//!   holds values whose bit width is `k`, i.e. `v ∈ [2^(k-1), 2^k)`; bucket 0
//!   holds zero). 65 buckets cover the full `u64` range.
//! * [`Span`] — a drop-guard timer recording elapsed nanoseconds into a
//!   histogram.
//!
//! Metrics are declared as `static` items and register themselves in a global
//! mutex-guarded list on first touch, so a [`MetricsSnapshot`] can
//! enumerate every metric the process has actually used without any central
//! registration ceremony:
//!
//! ```
//! use pubsub_types::metrics::{Counter, MetricsSnapshot};
//!
//! static EVENTS: Counter = Counter::new("example.events");
//! EVENTS.inc();
//! let snap = MetricsSnapshot::capture();
//! # let _ = snap;
//! ```
//!
//! # Feature gate
//!
//! The whole layer is compiled behind the `metrics` cargo feature of
//! `pubsub-types`. With the feature **off** (the default), [`Counter`],
//! [`Histogram`] and [`Span`] are zero-sized types whose methods are empty
//! `#[inline(always)]` bodies — call sites compile to nothing, which is how
//! the instrumented hot loops keep their benchmarked performance. Downstream
//! crates instrument unconditionally; only this crate carries `cfg` logic.
//! [`MetricsSnapshot::capture`] returns an empty snapshot when the feature is
//! off.
//!
//! # Snapshots
//!
//! [`MetricsSnapshot`] is always compiled (so its JSON schema is testable in
//! every configuration). Capture sorts metrics by name, giving deterministic
//! ordering regardless of registration (first-touch) order, and
//! [`MetricsSnapshot::to_json`] emits a stable single-line JSON document
//! following the same conventions as `pubsub-workload::json`: objects with
//! lexicographically sorted keys, integer values only, no whitespace.

/// One captured counter: `(name, value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Dotted metric name, e.g. `broker.publishes`.
    pub name: String,
    /// Counter value at capture time.
    pub value: u64,
}

/// One captured histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramEntry {
    /// Dotted metric name, e.g. `core.phase1_nanos`.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Non-empty log2 buckets as `(bucket_index, count)`, ascending by index.
    /// Bucket `k` counts values of bit width `k` (`v ∈ [2^(k-1), 2^k)`);
    /// bucket 0 counts zeros.
    pub buckets: Vec<(u8, u64)>,
}

/// A point-in-time capture of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All counters, ascending by name.
    pub counters: Vec<CounterEntry>,
    /// All histograms, ascending by name.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// Captures every metric touched so far. Empty when the `metrics`
    /// feature is off.
    pub fn capture() -> Self {
        imp::capture()
    }

    /// `true` when no metric has been captured.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Encodes the snapshot as a single-line JSON document.
    ///
    /// Schema (all values are unsigned integers):
    ///
    /// ```json
    /// {"counters":{"<name>":<value>,...},
    ///  "histograms":{"<name>":{"buckets":{"<k>":<n>,...},
    ///                          "count":<n>,"sum":<n>},...}}
    /// ```
    ///
    /// Object keys are emitted in ascending lexicographic order, so the
    /// encoding of a given snapshot is byte-stable; the output parses with
    /// `pubsub_workload::json::parse`.
    pub fn to_json(&self) -> String {
        let mut counters: Vec<&CounterEntry> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<&HistogramEntry> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));

        let mut out = String::from("{\"counters\":{");
        for (i, c) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote_into(&mut out, &c.name);
            out.push(':');
            out.push_str(&c.value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote_into(&mut out, &h.name);
            out.push_str(":{\"buckets\":{");
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // Bucket keys are fixed-width ("04", "17") so that sorted
                // JSON object order equals numeric bucket order.
                out.push_str(&format!("\"{bucket:02}\":{n}"));
            }
            out.push_str(&format!("}},\"count\":{},\"sum\":{}}}", h.count, h.sum));
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` as a JSON string literal (same escaping rules as
/// `pubsub-workload::json`).
fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The log2 bucket index of a value: its bit width (0 for 0).
pub fn bucket_of(v: u64) -> u8 {
    (u64::BITS - v.leading_zeros()) as u8
}

#[cfg(feature = "metrics")]
mod imp {
    use super::{bucket_of, CounterEntry, HistogramEntry, MetricsSnapshot};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Instant;

    /// Every counter touched so far, each once.
    static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
    /// Every histogram touched so far, each once.
    static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

    /// Locks a registry. A push cannot leave the list half-updated, so a
    /// holder's panic is ignored rather than passed on: [`Span`] registers
    /// from `drop`, which must not panic.
    fn lock<T>(list: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
        list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A monotonic counter. Declare as a `static`; it registers itself in
    /// the global metric list on first touch.
    pub struct Counter {
        name: &'static str,
        value: AtomicU64,
        claimed: AtomicBool,
    }

    impl Counter {
        /// Creates a counter with a dotted name (`layer.component.what`).
        pub const fn new(name: &'static str) -> Self {
            Self {
                name,
                value: AtomicU64::new(0),
                claimed: AtomicBool::new(false),
            }
        }

        /// Adds `n`.
        #[inline]
        pub fn add(&'static self, n: u64) {
            self.register();
            self.value.fetch_add(n, Ordering::Relaxed);
        }

        /// Adds 1.
        #[inline]
        pub fn inc(&'static self) {
            self.add(1);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.value.load(Ordering::Relaxed)
        }

        #[inline]
        fn register(&'static self) {
            if !self.claimed.load(Ordering::Relaxed) {
                self.register_slow();
            }
        }

        #[cold]
        fn register_slow(&'static self) {
            // Only the thread that claims the flag pushes.
            if !self.claimed.swap(true, Ordering::Relaxed) {
                lock(&COUNTERS).push(self);
            }
        }
    }

    /// A `u64` histogram with one bucket per bit width (65 buckets).
    /// Declare as a `static`; registers itself on first touch.
    pub struct Histogram {
        name: &'static str,
        count: AtomicU64,
        sum: AtomicU64,
        buckets: [AtomicU64; 65],
        claimed: AtomicBool,
    }

    impl Histogram {
        /// Creates a histogram with a dotted name.
        pub const fn new(name: &'static str) -> Self {
            #[allow(clippy::declare_interior_mutable_const)]
            const ZERO: AtomicU64 = AtomicU64::new(0);
            Self {
                name,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: [ZERO; 65],
                claimed: AtomicBool::new(false),
            }
        }

        /// Records one value.
        #[inline]
        pub fn record(&'static self, v: u64) {
            self.register();
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[bucket_of(v) as usize].fetch_add(1, Ordering::Relaxed);
        }

        /// Starts a drop-guard span; elapsed nanoseconds are recorded when
        /// the guard drops.
        #[inline]
        pub fn span(&'static self) -> Span {
            Span {
                hist: self,
                start: Instant::now(),
            }
        }

        #[inline]
        fn register(&'static self) {
            if !self.claimed.load(Ordering::Relaxed) {
                self.register_slow();
            }
        }

        #[cold]
        fn register_slow(&'static self) {
            // Only the thread that claims the flag pushes.
            if !self.claimed.swap(true, Ordering::Relaxed) {
                lock(&HISTOGRAMS).push(self);
            }
        }
    }

    /// Records elapsed nanoseconds into its histogram on drop.
    pub struct Span {
        hist: &'static Histogram,
        start: Instant,
    }

    impl Drop for Span {
        fn drop(&mut self) {
            self.hist.record(self.start.elapsed().as_nanos() as u64);
        }
    }

    pub(super) fn capture() -> MetricsSnapshot {
        let mut counters: Vec<CounterEntry> = lock(&COUNTERS)
            .iter()
            .map(|c| CounterEntry {
                name: c.name.to_string(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));

        let mut histograms: Vec<HistogramEntry> = lock(&HISTOGRAMS)
            .iter()
            .map(|h| HistogramEntry {
                name: h.name.to_string(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u8, n))
                    })
                    .collect(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));

        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Zeroes every registered counter and histogram (metrics stay
    /// registered). Intended for tests and benchmark harnesses; concurrent
    /// recorders may interleave with the reset.
    pub fn reset_all() {
        for c in lock(&COUNTERS).iter() {
            c.value.store(0, Ordering::Relaxed);
        }
        for h in lock(&HISTOGRAMS).iter() {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }

    /// `true` when the `metrics` feature is compiled in.
    pub const fn enabled() -> bool {
        true
    }
}

#[cfg(not(feature = "metrics"))]
mod imp {
    use super::MetricsSnapshot;

    /// A monotonic counter (no-op: the `metrics` feature is off).
    pub struct Counter(());

    impl Counter {
        /// Creates a counter (no-op).
        pub const fn new(_name: &'static str) -> Self {
            Self(())
        }

        /// Adds `n` (no-op).
        #[inline(always)]
        pub fn add(&'static self, _n: u64) {}

        /// Adds 1 (no-op).
        #[inline(always)]
        pub fn inc(&'static self) {}

        /// Current value (always 0).
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// A log2-bucket histogram (no-op: the `metrics` feature is off).
    pub struct Histogram(());

    impl Histogram {
        /// Creates a histogram (no-op).
        pub const fn new(_name: &'static str) -> Self {
            Self(())
        }

        /// Records one value (no-op).
        #[inline(always)]
        pub fn record(&'static self, _v: u64) {}

        /// Starts a span guard (no-op).
        #[inline(always)]
        pub fn span(&'static self) -> Span {
            Span(())
        }
    }

    /// A drop-guard timer (no-op: the `metrics` feature is off).
    pub struct Span(());

    pub(super) fn capture() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Zeroes every registered metric (no-op).
    pub fn reset_all() {}

    /// `true` when the `metrics` feature is compiled in.
    pub const fn enabled() -> bool {
        false
    }
}

pub use imp::{enabled, reset_all, Counter, Histogram, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn empty_snapshot_encodes_stably() {
        let snap = MetricsSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.to_json(), "{\"counters\":{},\"histograms\":{}}");
    }

    #[cfg(feature = "metrics")]
    mod enabled {
        use super::super::*;

        static TEST_COUNTER: Counter = Counter::new("test.types.counter");
        static TEST_HIST: Histogram = Histogram::new("test.types.hist");

        #[test]
        fn counters_and_histograms_register_and_capture() {
            TEST_COUNTER.add(3);
            TEST_COUNTER.inc();
            TEST_HIST.record(0);
            TEST_HIST.record(5);
            let snap = MetricsSnapshot::capture();
            assert!(snap.counter("test.types.counter").unwrap() >= 4);
            let h = snap.histogram("test.types.hist").unwrap();
            assert!(h.count >= 2);
            assert!(h.buckets.iter().any(|&(b, _)| b == bucket_of(5)));
            // Deterministic ordering: names ascend.
            for w in snap.counters.windows(2) {
                assert!(w[0].name < w[1].name);
            }
        }

        /// Threads racing to touch a fresh metric first register it once,
        /// and every thread's record counts.
        #[test]
        fn first_touch_races_register_each_metric_once() {
            static RACE_COUNTER: Counter = Counter::new("test.types.race_counter");
            static RACE_HIST: Histogram = Histogram::new("test.types.race_hist");
            const THREADS: u64 = 8;
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        RACE_COUNTER.inc();
                        RACE_HIST.record(3);
                    });
                }
            });
            let snap = MetricsSnapshot::capture();
            let counters: Vec<_> = snap
                .counters
                .iter()
                .filter(|c| c.name == "test.types.race_counter")
                .collect();
            assert_eq!(counters.len(), 1, "{:?}", snap.counters);
            assert_eq!(counters[0].value, THREADS);
            let hists: Vec<_> = snap
                .histograms
                .iter()
                .filter(|h| h.name == "test.types.race_hist")
                .collect();
            assert_eq!(hists.len(), 1, "{:?}", snap.histograms);
            assert_eq!(hists[0].count, THREADS);
            assert_eq!(hists[0].buckets, vec![(bucket_of(3), THREADS)]);
        }

        #[test]
        fn span_records_elapsed_nanos() {
            static SPAN_HIST: Histogram = Histogram::new("test.types.span");
            {
                let _s = SPAN_HIST.span();
            }
            let snap = MetricsSnapshot::capture();
            assert!(snap.histogram("test.types.span").unwrap().count >= 1);
        }
    }

    #[cfg(not(feature = "metrics"))]
    mod disabled {
        use super::super::*;

        static OFF_COUNTER: Counter = Counter::new("test.types.off");

        #[test]
        fn everything_is_a_no_op() {
            OFF_COUNTER.add(10);
            assert_eq!(OFF_COUNTER.get(), 0);
            assert!(!enabled());
            assert!(MetricsSnapshot::capture().is_empty());
        }
    }
}
