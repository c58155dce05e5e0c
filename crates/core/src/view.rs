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
//! differs (§2.2). Every engine supplies only its phase 2 through the
//! crate-private `Phase2Engine` trait. The [`MatchView`] impl over it is the
//! skeleton for an engine that owns its predicate index, written once:
//! phase 1 against that index, the phase timers, the engine's `phase2_view`,
//! counters and stats.
//!
//! A [`TierEngine`] built by [`build_tier`] owns no index at all: it is
//! loaded with predicate ids its caller interned, and its caller runs phase 1
//! once per event against the index that minted them and lends the same bit
//! vector to every tier.
//!
//! [`SnapshotEngine`] bundles both traits for the self-contained engines
//! built by [`build_frozen`]; every in-tree engine implements it.

use crate::engine::{EngineKind, EngineStats, MatchEngine};
use pubsub_index::{Phase1Batch, PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::metrics::Counter;
use pubsub_types::{Event, Subscription, SubscriptionId, Value};
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
        record_phases(stats, phase1, phase2, checked, matched);
        self.count(checked, matched);
    }

    /// Counts one event's checks and matches.
    fn count(&self, checked: u64, matched: u64) {
        self.events.inc();
        self.verified.add(checked);
        self.matched.add(matched);
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

/// An engine's phase 2 and how it is loaded, over predicate ids that are
/// interned elsewhere: in the engine's own index ([`Indexed`]) or by the
/// caller of [`build_tier`].
pub(crate) trait Phase2Engine {
    /// The engine's `core.<engine>.*` counters.
    const COUNTERS: EngineCounters;

    /// Registers `id` under `pred_ids`, the interned ids of
    /// `sub.predicates()` in order.
    fn insert_ids(&mut self, id: SubscriptionId, sub: &Subscription, pred_ids: Vec<PredicateId>);

    /// The one-time hook after loading ([`MatchEngine::finalize`]).
    fn seal(&mut self) {}

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

/// An engine that owns the predicate index its ids come from; its
/// [`MatchView`] is the one match driver below, which runs phase 1 against
/// that index and keeps the books.
pub(crate) trait Indexed: Phase2Engine {
    /// The predicate index phase 1 evaluates.
    fn index(&self) -> &PredicateIndex;
}

/// The match driver: phase 1, the engine's phase 2, phase timers, counters
/// and stats, written once for counting, propagation and clustered.
impl<E: Indexed> MatchView for E {
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

/// A frozen engine over predicate ids its caller interned: phase 2 only,
/// built by [`build_tier`]. It holds no predicate index; the caller runs
/// phase 1 once per event against the index that minted the ids and lends
/// the same output to every tier.
pub trait TierEngine: Send + Sync {
    /// Phase 2: appends the subscriptions `event` matches to `out`, given
    /// the caller's phase-1 output (`bits` and the `satisfied` list).
    /// Returns the subscriptions checked. Bumps the engine's
    /// `core.<engine>.*` counters; phase timers and [`EngineStats`] are the
    /// caller's (see [`record_phases`]).
    fn phase2(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        scratch: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64;
}

impl<E: Phase2Engine + Send + Sync> TierEngine for E {
    fn phase2(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        scratch: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let (_, p2) = &mut **scratch.buffers.get_or_insert_with(Box::default);
        let before = out.len();
        let checked = self.phase2_view(event, bits, satisfied, p2, out);
        E::COUNTERS.count(checked, (out.len() - before) as u64);
        checked
    }
}

/// Builds a [`TierEngine`] of `kind` from `(rank, subscription, predicate
/// ids)` rows, the ids interned by the caller in `sub.predicates()` order.
/// Loads and clusters exactly as [`build_frozen`] followed by
/// [`MatchEngine::rebuild`] does, minus the engine's own index.
pub fn build_tier(
    kind: EngineKind,
    rows: &mut dyn Iterator<Item = (SubscriptionId, &Subscription, Vec<PredicateId>)>,
) -> Box<dyn TierEngine> {
    fn load<E: Phase2Engine + Send + Sync + 'static>(
        mut engine: E,
        rows: &mut dyn Iterator<Item = (SubscriptionId, &Subscription, Vec<PredicateId>)>,
    ) -> Box<dyn TierEngine> {
        for (id, sub, pred_ids) in rows {
            engine.insert_ids(id, sub, pred_ids);
        }
        engine.seal();
        Box::new(engine)
    }
    use crate::clustered::{ClusteredMatcher, DynamicConfig, Mode};
    use crate::propagation::PropagationMatcher;
    let clustered = |mode| ClusteredMatcher::<()>::with_mode(mode, DynamicConfig::default());
    match kind {
        EngineKind::Counting => load(crate::counting::CountingMatcher::<()>::default(), rows),
        EngineKind::Propagation => load(PropagationMatcher::<()>::with_prefetch(false), rows),
        EngineKind::PropagationPrefetch => {
            load(PropagationMatcher::<()>::with_prefetch(true), rows)
        }
        EngineKind::Static => load(clustered(Mode::Static), rows),
        EngineKind::Dynamic => load(clustered(Mode::Dynamic), rows),
        EngineKind::BruteForce => load(crate::brute::BruteForceMatcher::new(), rows),
    }
}

/// Folds one event's phase timings and counts into `stats` and the global
/// `core.phase{1,2}_nanos` histograms, for a caller that drives phase 1 and
/// the [`TierEngine`]s' phase 2 itself.
pub fn record_phases(
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
    crate::engine::PHASE1_NANOS.record(phase1);
    crate::engine::PHASE2_NANOS.record(phase2);
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

    /// A tier built against a caller's ids matches exactly as the engine
    /// with its own index does, also when the caller's index holds
    /// predicates the tier never names, minted after every one it does.
    #[test]
    fn tier_engines_match_like_indexed_engines() {
        for kind in ALL_KINDS {
            let mut index = PredicateIndex::new();
            let subs: Vec<Subscription> = (0..40).map(|i| sub(i % 7)).collect();
            let mut rows = subs.iter().enumerate().map(|(i, s)| {
                let ids = s.predicates().iter().map(|p| index.intern(*p)).collect();
                (SubscriptionId(i as u32), s, ids)
            });
            let tier = build_tier(kind, &mut rows);
            for v in 7..20 {
                sub(v).predicates().iter().for_each(|p| {
                    index.intern(*p);
                });
            }
            let frozen = loaded(kind, 40, 7);
            let mut scratch = ViewScratch::new();
            let (mut bits, mut satisfied) = (PredicateBitVec::new(), Vec::new());
            for v in 0..20i64 {
                let e = event(v, v * 7);
                satisfied.clear();
                index.eval_into(&e, &mut bits, &mut satisfied);
                let mut got = Vec::new();
                tier.phase2(&e, &bits, &satisfied, &mut scratch, &mut got);
                bits.clear();
                let mut want = Vec::new();
                frozen.match_view(&e, &mut scratch, &mut want);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "engine {}, value {v}", kind.label());
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
