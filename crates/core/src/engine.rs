//! The common interface of all matching engines.

use pubsub_types::metrics::Histogram;
use pubsub_types::{Event, Subscription, SubscriptionId};

/// Phase-1 (predicate evaluation) latency per event, nanoseconds, all engines.
pub(crate) static PHASE1_NANOS: Histogram = Histogram::new("core.phase1_nanos");
/// Phase-2 (subscription matching) latency per event, nanoseconds, all engines.
pub(crate) static PHASE2_NANOS: Histogram = Histogram::new("core.phase2_nanos");

/// Counters every engine maintains; the per-phase timers reproduce the
/// paper's §6.2.1 breakdown (preprocessing 1.3 ms vs. matching 0.1 ms for
/// the dynamic algorithm at 6M subscriptions).
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Events processed.
    pub events: u64,
    /// Nanoseconds spent in the predicate (bit-vector) phase.
    pub phase1_nanos: u64,
    /// Nanoseconds spent in the subscription-matching phase.
    pub phase2_nanos: u64,
    /// Subscriptions inspected by the second phase (the quantity the
    /// clustering cost model minimises).
    pub subscriptions_checked: u64,
    /// Total matches reported.
    pub matches: u64,
    /// Hash tables created by dynamic maintenance.
    pub tables_created: u64,
    /// Hash tables deleted by dynamic maintenance.
    pub tables_deleted: u64,
    /// Subscriptions moved between clusters by maintenance.
    pub subscription_moves: u64,
}

impl EngineStats {
    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Mean subscriptions checked per event.
    pub fn checks_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.subscriptions_checked as f64 / self.events as f64
        }
    }
}

/// A content-based matching engine: phase 1 (predicate evaluation) plus an
/// algorithm-specific phase 2 (subscription matching).
pub trait MatchEngine {
    /// Short engine name as used in the paper's figures
    /// (`counting`, `propagation`, `propagation-wp`, `static`, `dynamic`).
    fn name(&self) -> &'static str;

    /// Registers a subscription under a caller-chosen unique id.
    fn insert(&mut self, id: SubscriptionId, sub: &Subscription);

    /// Unregisters a subscription previously inserted.
    ///
    /// # Panics
    /// Panics if `id` is unknown — the broker owns id lifecycle and a miss
    /// is a logic error, not a recoverable condition.
    fn remove(&mut self, id: SubscriptionId);

    /// Appends the ids of all subscriptions satisfied by `event` to `out`
    /// (no duplicates).
    ///
    /// # Ordering
    /// Engines append in an engine-specific (but deterministic) order.
    /// Callers that need a canonical order across engine kinds must sort.
    fn match_event(&mut self, event: &Event, out: &mut Vec<SubscriptionId>);

    /// Matches a batch of events, filling `out` with one result vector per
    /// event (parallel to `events`; existing inner vectors are reused).
    ///
    /// The default implementation loops over [`MatchEngine::match_event`]
    /// (the brute-force oracle keeps it). Counting, propagation and
    /// clustered run the shared batch driver of [`crate::view`]: one
    /// attribute-major phase 1 for the whole batch.
    fn match_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        out.resize_with(events.len(), Vec::new);
        out.truncate(events.len());
        for (event, dst) in events.iter().zip(out.iter_mut()) {
            dst.clear();
            self.match_event(event, dst);
        }
    }

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// True if no subscription is registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-time hook after bulk loading. The static engine runs its
    /// cost-based optimization here; every other engine is a no-op.
    fn finalize(&mut self) {}

    /// Bulk-loads a recovered subscription set into an empty engine — the
    /// crash-recovery path of the durable broker, which replays a snapshot
    /// into fresh engines before applying the WAL tail.
    ///
    /// The default is insert-then-[`finalize`](MatchEngine::finalize), which
    /// every engine supports; engines with a cheaper bulk path (or ones that
    /// defer index construction, like the static engine's cost-based
    /// clustering) get it via the `finalize` call without further work.
    /// Implementations may assume the engine is empty.
    fn rebuild(&mut self, subs: &mut dyn Iterator<Item = (SubscriptionId, &Subscription)>) {
        for (id, sub) in subs {
            self.insert(id, sub);
        }
        self.finalize();
    }

    /// Performance counters.
    fn stats(&self) -> &EngineStats;

    /// Resets performance counters.
    fn reset_stats(&mut self);

    /// Approximate heap bytes held by the engine's data structures.
    fn heap_bytes(&self) -> usize;
}

impl<T: MatchEngine + ?Sized> MatchEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert(&mut self, id: SubscriptionId, sub: &Subscription) {
        (**self).insert(id, sub)
    }
    fn remove(&mut self, id: SubscriptionId) {
        (**self).remove(id)
    }
    fn match_event(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        (**self).match_event(event, out)
    }
    fn match_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        (**self).match_batch_into(events, out)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn finalize(&mut self) {
        (**self).finalize()
    }
    fn rebuild(&mut self, subs: &mut dyn Iterator<Item = (SubscriptionId, &Subscription)>) {
        (**self).rebuild(subs)
    }
    fn stats(&self) -> &EngineStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

/// Which engine to construct — the five contenders of the paper's §6 plus
/// the brute-force oracle used in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The counting algorithm (NEONet-style baseline).
    Counting,
    /// Propagation with single-equality access predicates, no prefetching.
    Propagation,
    /// Propagation with software prefetching (*propagation-wp*).
    PropagationPrefetch,
    /// Multi-attribute clustering computed once by the greedy cost-based
    /// optimizer at [`MatchEngine::finalize`] time.
    Static,
    /// Multi-attribute clustering maintained incrementally (paper §4).
    Dynamic,
    /// Linear-scan oracle (tests and tiny workloads only).
    BruteForce,
}

impl EngineKind {
    /// The engines compared in Figure 3(a), in the paper's order.
    pub const PAPER_ENGINES: [EngineKind; 5] = [
        EngineKind::Counting,
        EngineKind::Propagation,
        EngineKind::PropagationPrefetch,
        EngineKind::Static,
        EngineKind::Dynamic,
    ];

    /// Builds a fresh engine of this kind with default configuration.
    pub fn build(self) -> Box<dyn MatchEngine + Send> {
        match self {
            EngineKind::Counting => Box::new(crate::counting::CountingMatcher::new()),
            EngineKind::Propagation => Box::new(crate::propagation::PropagationMatcher::new(false)),
            EngineKind::PropagationPrefetch => {
                Box::new(crate::propagation::PropagationMatcher::new(true))
            }
            EngineKind::Static => Box::new(crate::clustered::ClusteredMatcher::new_static()),
            EngineKind::Dynamic => Box::new(crate::clustered::ClusteredMatcher::new_dynamic()),
            EngineKind::BruteForce => Box::new(crate::brute::BruteForceMatcher::new()),
        }
    }

    /// The figure label of the engine.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Counting => "counting",
            EngineKind::Propagation => "propagation",
            EngineKind::PropagationPrefetch => "propagation-wp",
            EngineKind::Static => "static",
            EngineKind::Dynamic => "dynamic",
            EngineKind::BruteForce => "brute-force",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "counting" => EngineKind::Counting,
            "propagation" => EngineKind::Propagation,
            "propagation-wp" | "propagation_wp" | "propagation-prefetch" => {
                EngineKind::PropagationPrefetch
            }
            "static" => EngineKind::Static,
            "dynamic" => EngineKind::Dynamic,
            "brute-force" | "brute_force" | "brute" => EngineKind::BruteForce,
            other => return Err(format!("unknown engine kind: {other}")),
        })
    }
}

/// Default partition count for a broker that stripes its subscriptions
/// (`pubsub_broker::SharedBroker`): one per available hardware thread.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in EngineKind::PAPER_ENGINES {
            let parsed: EngineKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<EngineKind>().is_err());
    }

    #[test]
    fn stats_checks_per_event() {
        let mut s = EngineStats::default();
        assert_eq!(s.checks_per_event(), 0.0);
        s.events = 4;
        s.subscriptions_checked = 10;
        assert_eq!(s.checks_per_event(), 2.5);
        s.reset();
        assert_eq!(s.events, 0);
    }
}
