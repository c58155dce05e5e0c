//! Read-only matching views: the `&self` face of the engines.
//!
//! [`MatchEngine::match_event`] takes `&mut self` because every engine keeps
//! per-event workhorse buffers (bit vector, satisfied list, hit counters)
//! inline. That shape is fine under a lock, but the RCU publish path shares
//! one immutable engine snapshot between many concurrent readers — mutation
//! must move out of the engine. [`MatchView`] is that split: all per-event
//! mutable state lives in a caller-owned [`ViewScratch`] (one per thread),
//! and the engine itself is only read.
//!
//! [`SnapshotEngine`] bundles both traits for the frozen snapshot engines
//! built by [`build_frozen`]; every in-tree engine implements it.

use crate::engine::{EngineKind, EngineStats, MatchEngine};
use pubsub_index::{Phase1Batch, PredicateBitVec, PredicateId};
use pubsub_types::{Event, SubscriptionId, Value};

/// Caller-owned per-thread scratch for [`MatchView`] matching: every buffer
/// an engine would otherwise mutate per event. One instance serves all
/// engine kinds (unused fields stay empty), so a thread needs exactly one
/// regardless of which snapshot it matches against.
#[derive(Debug, Default)]
pub struct ViewScratch {
    /// Phase-1 satisfied-predicate bit vector.
    pub(crate) bits: PredicateBitVec,
    /// Phase-1 satisfied-predicate list.
    pub(crate) satisfied: Vec<PredicateId>,
    /// Batched phase-1 scratch.
    pub(crate) batch: Phase1Batch,
    /// Counting phase 2: per-subscription hit counters.
    pub(crate) counts: Vec<u32>,
    /// Counting phase 2: epoch validity stamps for `counts`.
    pub(crate) stamps: Vec<u32>,
    /// Counting phase 2: current counter epoch.
    pub(crate) epoch: u32,
    /// Clustered phase 2: dense attr → value view of the event.
    pub(crate) view: Vec<Option<Value>>,
    /// Clustered phase 2: table-probe key buffer.
    pub(crate) probe_buf: Vec<Value>,
    /// Per-scratch engine counters, accumulated across every event this
    /// scratch matched. Snapshot readers fold these into a broker-level
    /// aggregate (the shared engine's own stats see no read traffic).
    pub stats: EngineStats,
}

impl ViewScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event's timings and counts into the scratch stats and the
    /// global phase histograms (mirrors each engine's `record_event`).
    pub(crate) fn record_event(&mut self, phase1: u64, phase2: u64, checked: u64, matched: u64) {
        self.stats.events += 1;
        self.stats.subscriptions_checked += checked;
        self.stats.matches += matched;
        self.stats.phase1_nanos += phase1;
        self.stats.phase2_nanos += phase2;
        crate::engine::PHASE1_NANOS.record(phase1);
        crate::engine::PHASE2_NANOS.record(phase2);
    }
}

/// Read-only matching: like [`MatchEngine::match_event`] but `&self`, with
/// all per-event mutable state in the caller's [`ViewScratch`]. Safe to call
/// from many threads at once on one shared engine.
pub trait MatchView {
    /// Appends the ids of all subscriptions satisfied by `event` to `out`
    /// (no duplicates), using `scratch` for working memory. Ordering matches
    /// [`MatchEngine::match_event`] for the same engine.
    fn match_view(&self, event: &Event, scratch: &mut ViewScratch, out: &mut Vec<SubscriptionId>);

    /// Batched [`MatchView::match_view`]: fills `out` with one result vector
    /// per event (parallel to `events`; existing inner vectors are reused).
    fn match_batch_view(
        &self,
        events: &[Event],
        scratch: &mut ViewScratch,
        out: &mut Vec<Vec<SubscriptionId>>,
    ) {
        out.resize_with(events.len(), Vec::new);
        out.truncate(events.len());
        for (event, dst) in events.iter().zip(out.iter_mut()) {
            dst.clear();
            self.match_view(event, scratch, dst);
        }
    }
}

impl<T: MatchView + ?Sized> MatchView for Box<T> {
    fn match_view(&self, event: &Event, scratch: &mut ViewScratch, out: &mut Vec<SubscriptionId>) {
        (**self).match_view(event, scratch, out)
    }
    fn match_batch_view(
        &self,
        events: &[Event],
        scratch: &mut ViewScratch,
        out: &mut Vec<Vec<SubscriptionId>>,
    ) {
        (**self).match_batch_view(events, scratch, out)
    }
}

/// An engine usable behind an RCU snapshot: mutable builder API for the
/// writer side ([`MatchEngine`]) plus lock-free reads ([`MatchView`]).
pub trait SnapshotEngine: MatchEngine + MatchView + Send + Sync {}

impl<T: MatchEngine + MatchView + Send + Sync> SnapshotEngine for T {}

/// Builds a fresh engine of `kind` for use behind an RCU snapshot.
///
/// Same construction as [`EngineKind::build`] but typed for shared reads.
pub fn build_frozen(kind: EngineKind) -> Box<dyn SnapshotEngine> {
    match kind {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::{AttrId, Operator, Subscription};

    fn sub(v: i64) -> Subscription {
        Subscription::builder()
            .eq(AttrId(0), v)
            .with(AttrId(1), Operator::Lt, 100i64)
            .build()
            .unwrap()
    }

    fn event(v: i64, w: i64) -> Event {
        Event::builder()
            .pair(AttrId(0), v)
            .pair(AttrId(1), w)
            .build()
            .unwrap()
    }

    /// Every engine's `&self` view agrees with its `&mut self` match on the
    /// same subscription set, event by event.
    #[test]
    fn view_matches_mutable_path_for_every_engine() {
        let kinds = [
            EngineKind::Counting,
            EngineKind::Propagation,
            EngineKind::PropagationPrefetch,
            EngineKind::Static,
            EngineKind::Dynamic,
            EngineKind::BruteForce,
        ];
        for kind in kinds {
            let mut frozen = build_frozen(kind);
            let mut baseline = build_frozen(kind);
            for i in 0..50u32 {
                let s = sub((i % 7) as i64);
                frozen.insert(SubscriptionId(i), &s);
                baseline.insert(SubscriptionId(i), &s);
            }
            frozen.finalize();
            baseline.finalize();

            let mut scratch = ViewScratch::new();
            for v in 0..10i64 {
                let e = event(v, v * 20);
                let mut via_view = Vec::new();
                frozen.match_view(&e, &mut scratch, &mut via_view);
                let mut via_mut = Vec::new();
                baseline.match_event(&e, &mut via_mut);
                via_view.sort_unstable();
                via_mut.sort_unstable();
                assert_eq!(via_view, via_mut, "engine {}", kind.label());
            }
            assert_eq!(scratch.stats.events, 10, "engine {}", kind.label());
        }
    }

    /// The batched view path agrees with the per-event view path.
    #[test]
    fn batch_view_matches_single_view() {
        for kind in EngineKind::PAPER_ENGINES {
            let mut frozen = build_frozen(kind);
            for i in 0..40u32 {
                frozen.insert(SubscriptionId(i), &sub((i % 5) as i64));
            }
            frozen.finalize();

            let events: Vec<Event> = (0..8i64).map(|v| event(v % 5, v * 10)).collect();
            let mut scratch = ViewScratch::new();
            let mut batched = Vec::new();
            frozen.match_batch_view(&events, &mut scratch, &mut batched);
            for (e, got) in events.iter().zip(&batched) {
                let mut single = Vec::new();
                frozen.match_view(e, &mut scratch, &mut single);
                let mut got = got.clone();
                got.sort_unstable();
                single.sort_unstable();
                assert_eq!(got, single, "engine {}", kind.label());
            }
        }
    }

    /// Many threads sharing one engine through `&self` produce identical,
    /// untorn results (the property the RCU publish path depends on).
    #[test]
    fn concurrent_views_are_consistent() {
        let mut engine = build_frozen(EngineKind::Counting);
        for i in 0..100u32 {
            engine.insert(SubscriptionId(i), &sub((i % 4) as i64));
        }
        let engine: &dyn SnapshotEngine = &*engine;
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                scope.spawn(move || {
                    let mut scratch = ViewScratch::new();
                    for _ in 0..200 {
                        let mut out = Vec::new();
                        engine.match_view(&event(t % 4, 0), &mut scratch, &mut out);
                        assert_eq!(out.len(), 25, "every 4th subscription matches");
                    }
                });
            }
        });
    }
}
