//! Read-only matching views, and the one match driver the indexed engines
//! share.
//!
//! [`MatchView`] is the `&self` face of the engines: all per-event mutable
//! state lives in a caller-owned [`ViewScratch`] (one per thread), so the
//! RCU publish path can share one immutable engine snapshot between many
//! concurrent readers. [`MatchEngine::match_event`] takes `&mut self` only
//! because each engine owns one such scratch and lends it to the same
//! driver.
//!
//! The paper has one predicate phase shared by every algorithm; only phase 2
//! differs (§2.2). The [`MatchView`] impl over the crate-private
//! `Phase2Engine` trait is that skeleton, written once: phase 1 against the
//! engine's predicate index, the phase timers, the engine's `phase2_view`,
//! counters and stats. Counting, propagation and clustered supply only their
//! phase 2.
//!
//! [`SnapshotEngine`] bundles both traits for the frozen snapshot engines
//! built by [`build_frozen`]; every in-tree engine implements it.

use crate::engine::{EngineKind, EngineStats, MatchEngine};
use pubsub_index::{Phase1Batch, PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::metrics::Counter;
use pubsub_types::{Event, SubscriptionId, Value};
use std::time::Instant;

/// Phase-1 output the driver fills and lends to phase 2.
#[derive(Debug, Default)]
struct Phase1Scratch {
    /// Satisfied-predicate bit vector.
    bits: PredicateBitVec,
    /// Satisfied-predicate list.
    satisfied: Vec<PredicateId>,
    /// Batched phase-1 scratch.
    batch: Phase1Batch,
}

/// The buffers an engine's phase 2 mutates per event. One instance serves
/// every engine kind (unused fields stay empty).
#[derive(Debug, Default)]
pub(crate) struct Phase2Scratch {
    /// Counting: per-subscription hit counters.
    pub(crate) counts: Vec<u32>,
    /// Counting: epoch validity stamps for `counts`.
    pub(crate) stamps: Vec<u32>,
    /// Counting: current counter epoch.
    pub(crate) epoch: u32,
    /// Clustered: dense attr → value view of the event.
    pub(crate) view: Vec<Option<Value>>,
    /// Clustered: table-probe key buffer.
    pub(crate) probe_buf: Vec<Value>,
}

/// Caller-owned per-thread scratch for [`MatchView`] matching: every buffer
/// an engine would otherwise mutate per event. One instance serves all
/// engine kinds, so a thread needs exactly one regardless of which snapshot
/// it matches against.
#[derive(Debug, Default)]
pub struct ViewScratch {
    /// Made on first use and boxed: an engine lends its own scratch to the
    /// driver by moving it out and back per event, and this keeps that move
    /// to a pointer and the stats.
    buffers: Option<Box<(Phase1Scratch, Phase2Scratch)>>,
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
}

/// One engine family's `core.<engine>.{events, verified, matched}` counters.
pub(crate) struct EngineCounters {
    pub(crate) events: &'static Counter,
    pub(crate) verified: &'static Counter,
    pub(crate) matched: &'static Counter,
}

impl EngineCounters {
    /// Folds one event's timings and counts into `stats`, these counters
    /// and the global phase histograms.
    pub(crate) fn record(
        &self,
        stats: &mut EngineStats,
        phase1: u64,
        phase2: u64,
        checked: u64,
        matched: u64,
    ) {
        stats.events += 1;
        stats.subscriptions_checked += checked;
        stats.matches += matched;
        stats.phase1_nanos += phase1;
        stats.phase2_nanos += phase2;
        self.events.inc();
        self.verified.add(checked);
        self.matched.add(matched);
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

/// An engine that supplies only its phase 2; its [`MatchView`] is the one
/// match driver below, which runs phase 1 against its index and keeps the
/// books.
pub(crate) trait Phase2Engine {
    /// The engine's `core.<engine>.*` counters.
    const COUNTERS: EngineCounters;

    /// The predicate index phase 1 evaluates.
    fn index(&self) -> &PredicateIndex;

    /// Phase 2: appends the subscriptions `event` matches to `out`, given
    /// its phase-1 output (`bits` and the `satisfied` list). Returns the
    /// subscriptions checked.
    fn phase2_view(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        scratch: &mut Phase2Scratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64;
}

/// The match driver: phase 1, the engine's phase 2, phase timers, counters
/// and stats, written once for counting, propagation and clustered.
impl<E: Phase2Engine> MatchView for E {
    fn match_view(&self, event: &Event, scratch: &mut ViewScratch, out: &mut Vec<SubscriptionId>) {
        let (p1, p2) = &mut **scratch.buffers.get_or_insert_with(Box::default);
        let t0 = Instant::now();
        p1.satisfied.clear();
        self.index()
            .eval_into(event, &mut p1.bits, &mut p1.satisfied);
        let t1 = Instant::now();

        let before = out.len();
        let checked = self.phase2_view(event, &p1.bits, &p1.satisfied, p2, out);
        p1.bits.clear();

        let matched = (out.len() - before) as u64;
        let phase1 = (t1 - t0).as_nanos() as u64;
        let phase2 = t1.elapsed().as_nanos() as u64;
        E::COUNTERS.record(&mut scratch.stats, phase1, phase2, checked, matched);
    }

    /// One attribute-major phase 1 for the whole batch, then per event
    /// materialize → phase 2 → `clear_event`.
    fn match_batch_view(
        &self,
        events: &[Event],
        scratch: &mut ViewScratch,
        out: &mut Vec<Vec<SubscriptionId>>,
    ) {
        out.resize_with(events.len(), Vec::new);
        out.truncate(events.len());
        let (p1, p2) = &mut **scratch.buffers.get_or_insert_with(Box::default);
        let batch = &mut p1.batch;
        let t0 = Instant::now();
        self.index().eval_batch_into(events, batch);
        let t1 = Instant::now();
        // Attribute the amortised phase-1 cost evenly across the batch.
        let phase1 = ((t1 - t0).as_nanos() as u64) / (events.len().max(1) as u64);

        for (i, (event, dst)) in events.iter().zip(out.iter_mut()).enumerate() {
            dst.clear();
            let tm = Instant::now();
            self.index().materialize(batch, i);
            let phase1_i = phase1 + tm.elapsed().as_nanos() as u64;
            let t2 = Instant::now();
            let checked = self.phase2_view(event, batch.bits(i), batch.satisfied(i), p2, dst);
            batch.clear_event(i);
            let phase2 = t2.elapsed().as_nanos() as u64;
            let matched = dst.len() as u64;
            E::COUNTERS.record(&mut scratch.stats, phase1_i, phase2, checked, matched);
        }
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

    const ALL_KINDS: [EngineKind; 6] = [
        EngineKind::Counting,
        EngineKind::Propagation,
        EngineKind::PropagationPrefetch,
        EngineKind::Static,
        EngineKind::Dynamic,
        EngineKind::BruteForce,
    ];

    /// A `kind` engine holding `n` subscriptions over `values` distinct
    /// values, finalized; `dynamic` is then frozen, so maintenance cannot
    /// move subscriptions between two runs over it.
    fn loaded(kind: EngineKind, n: u32, values: u32) -> Box<dyn SnapshotEngine> {
        let fill = |engine: &mut dyn SnapshotEngine| {
            for i in 0..n {
                engine.insert(SubscriptionId(i), &sub((i % values) as i64));
            }
            engine.finalize();
        };
        if kind == EngineKind::Dynamic {
            let mut engine = crate::clustered::ClusteredMatcher::new_dynamic();
            fill(&mut engine);
            engine.freeze();
            return Box::new(engine);
        }
        let mut engine = build_frozen(kind);
        fill(&mut *engine);
        engine
    }

    /// The counts both match paths must keep identically.
    fn books(stats: &EngineStats) -> (u64, u64, u64) {
        (stats.events, stats.subscriptions_checked, stats.matches)
    }

    /// Every engine's `&self` view agrees with its `&mut self` match on the
    /// same subscription set, event by event, and both keep the same books.
    #[test]
    fn view_matches_mutable_path_for_every_engine() {
        for kind in ALL_KINDS {
            let frozen = loaded(kind, 50, 7);
            let mut baseline = loaded(kind, 50, 7);

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
            assert_eq!(
                books(&scratch.stats),
                books(baseline.stats()),
                "engine {}",
                kind.label()
            );
        }
    }

    /// The batched paths agree with the per-event view path, match sets and
    /// books alike.
    #[test]
    fn batch_view_matches_single_view() {
        for kind in ALL_KINDS {
            let mut frozen = loaded(kind, 40, 5);
            let events: Vec<Event> = (0..8i64).map(|v| event(v % 5, v * 10)).collect();
            let mut batch_scratch = ViewScratch::new();
            let mut batched = Vec::new();
            frozen.match_batch_view(&events, &mut batch_scratch, &mut batched);
            let mut single_scratch = ViewScratch::new();
            for (e, got) in events.iter().zip(&batched) {
                let mut single = Vec::new();
                frozen.match_view(e, &mut single_scratch, &mut single);
                let mut got = got.clone();
                got.sort_unstable();
                single.sort_unstable();
                assert_eq!(got, single, "engine {}", kind.label());
            }
            frozen.match_batch_into(&events, &mut batched);
            let single = books(&single_scratch.stats);
            assert_eq!(books(&batch_scratch.stats), single, "{}", kind.label());
            assert_eq!(books(frozen.stats()), single, "{}", kind.label());
        }
    }

    /// `heap_bytes` counts data structures, never per-event scratch, so
    /// matching leaves it unchanged.
    #[test]
    fn matching_leaves_heap_bytes_unchanged() {
        for kind in ALL_KINDS {
            let mut engine = loaded(kind, 50, 7);
            let before = engine.heap_bytes();
            let mut out = Vec::new();
            for v in 0..100i64 {
                out.clear();
                engine.match_event(&event(v % 7, v), &mut out);
            }
            assert_eq!(engine.heap_bytes(), before, "engine {}", kind.label());
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
