//! Brute-force linear-scan matcher — the correctness oracle.
//!
//! Not in the paper's evaluation; exists so property tests can compare every
//! engine against the definitional semantics of §1.1.

use crate::engine::{EngineStats, MatchEngine};
use crate::view::{EngineCounters, MatchView, Phase2Engine, Phase2Scratch, ViewScratch};
use pubsub_index::{PredicateBitVec, PredicateId};
use pubsub_types::metrics::Counter;
use pubsub_types::{Event, FxHashMap, Subscription, SubscriptionId};
use std::time::Instant;

/// Events matched by the brute-force oracle.
static EVENTS: Counter = Counter::new("core.brute.events");
/// Subscriptions scanned (every live subscription, every event).
static VERIFIED: Counter = Counter::new("core.brute.verified");
/// Subscriptions the oracle reported as matches.
static MATCHED: Counter = Counter::new("core.brute.matched");
const COUNTERS: EngineCounters = EngineCounters {
    events: &EVENTS,
    verified: &VERIFIED,
    matched: &MATCHED,
};

/// Stores subscriptions verbatim and matches by scanning all of them.
#[derive(Debug, Default)]
pub struct BruteForceMatcher {
    subs: FxHashMap<SubscriptionId, Subscription>,
    /// Scratch the `&mut self` match path lends to [`MatchView::match_view`].
    scratch: ViewScratch,
}

impl BruteForceMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends every stored subscription `event` satisfies to `out`;
    /// returns how many were scanned.
    fn scan(&self, event: &Event, out: &mut Vec<SubscriptionId>) -> u64 {
        for (id, sub) in &self.subs {
            if sub.matches_event(event) {
                out.push(*id);
            }
        }
        self.subs.len() as u64
    }
}

/// Predicate ids and phase-1 output are ignored: the oracle evaluates every
/// subscription from scratch.
impl Phase2Engine for BruteForceMatcher {
    const COUNTERS: EngineCounters = COUNTERS;

    fn insert_ids(&mut self, id: SubscriptionId, sub: &Subscription, _: Vec<PredicateId>) {
        self.insert(id, sub);
    }

    fn phase2_view(
        &self,
        event: &Event,
        _bits: &PredicateBitVec,
        _satisfied: &[PredicateId],
        _scratch: &mut Phase2Scratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        self.scan(event, out)
    }
}

impl MatchEngine for BruteForceMatcher {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn insert(&mut self, id: SubscriptionId, sub: &Subscription) {
        let prev = self.subs.insert(id, sub.clone());
        assert!(prev.is_none(), "duplicate subscription id {id}");
    }

    fn remove(&mut self, id: SubscriptionId) {
        self.subs
            .remove(&id)
            .expect("removing unknown subscription");
    }

    fn match_event(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.match_view(event, &mut scratch, out);
        self.scratch = scratch;
    }

    fn len(&self) -> usize {
        self.subs.len()
    }

    fn stats(&self) -> &EngineStats {
        &self.scratch.stats
    }

    fn reset_stats(&mut self) {
        self.scratch.stats.reset();
    }

    fn heap_bytes(&self) -> usize {
        self.subs
            .values()
            .map(|s| std::mem::size_of_val(s.predicates()) + 64)
            .sum()
    }
}

impl MatchView for BruteForceMatcher {
    fn match_view(&self, event: &Event, scratch: &mut ViewScratch, out: &mut Vec<SubscriptionId>) {
        let start = Instant::now();
        let before = out.len();
        let checked = self.scan(event, out);
        let matched = (out.len() - before) as u64;
        let phase2 = start.elapsed().as_nanos() as u64;
        COUNTERS.record(&mut scratch.stats, 0, phase2, checked, matched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::{AttrId, Operator};

    #[test]
    fn insert_match_remove() {
        let mut m = BruteForceMatcher::new();
        let sub = Subscription::builder()
            .eq(AttrId(0), 5i64)
            .with(AttrId(1), Operator::Lt, 10i64)
            .build()
            .unwrap();
        m.insert(SubscriptionId(1), &sub);
        assert_eq!(m.len(), 1);

        let hit = Event::builder()
            .pair(AttrId(0), 5i64)
            .pair(AttrId(1), 3i64)
            .build()
            .unwrap();
        let miss = Event::builder()
            .pair(AttrId(0), 5i64)
            .pair(AttrId(1), 30i64)
            .build()
            .unwrap();
        let mut out = Vec::new();
        m.match_event(&hit, &mut out);
        assert_eq!(out, vec![SubscriptionId(1)]);
        out.clear();
        m.match_event(&miss, &mut out);
        assert!(out.is_empty());

        m.remove(SubscriptionId(1));
        assert!(m.is_empty());
        assert_eq!(m.stats().events, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate subscription id")]
    fn duplicate_id_panics() {
        let mut m = BruteForceMatcher::new();
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        m.insert(SubscriptionId(1), &sub);
        m.insert(SubscriptionId(1), &sub);
    }
}
