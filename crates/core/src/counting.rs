//! The counting algorithm — the paper's baseline (§5, NEONet-style).
//!
//! An association table maps each distinct predicate to the subscriptions
//! containing it. When an event arrives, phase 1 computes the satisfied
//! predicates; phase 2 walks their subscription lists and increments a hit
//! counter per subscription. A subscription matches when its counter reaches
//! its predicate count.
//!
//! Counters are "cleared" by an epoch stamp instead of a wipe: a counter is
//! valid only if its stamp equals the current event's epoch.

use crate::engine::{EngineStats, MatchEngine};
use crate::view::{EngineCounters, Indexed, MatchView, Phase2Engine, Phase2Scratch, ViewScratch};
use pubsub_index::{PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::metrics::Counter;
use pubsub_types::{Event, Subscription, SubscriptionId};

/// Events matched by the counting engine.
static EVENTS: Counter = Counter::new("core.counting.events");
/// Counter increments performed (candidate verifications).
static VERIFIED: Counter = Counter::new("core.counting.verified");
/// Subscriptions the counting engine reported as matches.
static MATCHED: Counter = Counter::new("core.counting.matched");

#[derive(Debug)]
struct SubEntry {
    /// Interned predicate ids, parallel to `positions`.
    pred_ids: Vec<PredicateId>,
    /// Position of this subscription inside each predicate's association
    /// list, for O(arity) removal.
    positions: Vec<u32>,
}

/// The counting matcher. `P` is where its predicate ids come from: its own
/// [`PredicateIndex`], or `()` for a tier engine loaded with a caller's ids
/// ([`crate::build_tier`]).
#[derive(Debug, Default)]
pub struct CountingMatcher<P = PredicateIndex> {
    index: P,
    /// Association table: predicate id → subscriptions containing it.
    assoc: Vec<Vec<SubscriptionId>>,
    subs: Vec<Option<SubEntry>>,
    /// Predicate count per subscription id (0 = absent).
    arity: Vec<u32>,
    live: usize,
    /// Scratch the `&mut self` match path lends to the match driver.
    scratch: ViewScratch,
}

impl CountingMatcher {
    /// Creates an empty counting matcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P> CountingMatcher<P> {
    fn ensure_sub_capacity(&mut self, id: SubscriptionId) {
        let need = id.index() + 1;
        if self.subs.len() < need {
            self.subs.resize_with(need, || None);
            self.arity.resize(need, 0);
        }
    }

    fn ensure_assoc_capacity(&mut self, pid: PredicateId) {
        if self.assoc.len() <= pid.index() {
            self.assoc.resize_with(pid.index() + 1, Vec::new);
        }
    }
}

impl Indexed for CountingMatcher {
    fn index(&self) -> &PredicateIndex {
        &self.index
    }
}

impl<P> Phase2Engine for CountingMatcher<P> {
    const COUNTERS: EngineCounters = EngineCounters {
        events: &EVENTS,
        verified: &VERIFIED,
        matched: &MATCHED,
    };

    fn insert_ids(&mut self, id: SubscriptionId, sub: &Subscription, pred_ids: Vec<PredicateId>) {
        self.ensure_sub_capacity(id);
        assert!(
            self.subs[id.index()].is_none(),
            "duplicate subscription id {id}"
        );
        let mut positions = Vec::with_capacity(pred_ids.len());
        for &pid in &pred_ids {
            self.ensure_assoc_capacity(pid);
            positions.push(self.assoc[pid.index()].len() as u32);
            self.assoc[pid.index()].push(id);
        }
        self.arity[id.index()] = sub.size() as u32;
        self.subs[id.index()] = Some(SubEntry {
            pred_ids,
            positions,
        });
        self.live += 1;
    }

    /// Walks the satisfied predicates' association lists, bumping the
    /// scratch's epoch-stamped counters and reporting subscriptions whose
    /// counter reaches their arity. Returns the increments performed.
    /// Counting does not read the bit vector.
    fn phase2_view(
        &self,
        _event: &Event,
        _bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        scratch: &mut Phase2Scratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let Phase2Scratch {
            counts,
            stamps,
            epoch,
            ..
        } = scratch;
        counts.resize(self.arity.len(), 0);
        stamps.resize(self.arity.len(), 0);
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            // Stamp wrap-around: invalidate everything explicitly once per
            // 2^32 events.
            stamps.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        let mut increments = 0u64;
        for &pid in satisfied {
            // A tier's ids are a broker-wide index's: a satisfied predicate
            // may lie past every one this engine holds.
            let Some(list) = self.assoc.get(pid.index()) else {
                continue;
            };
            for &sid in list {
                let i = sid.index();
                increments += 1;
                let c = if stamps[i] == epoch {
                    counts[i] + 1
                } else {
                    stamps[i] = epoch;
                    1
                };
                counts[i] = c;
                if c == self.arity[i] {
                    out.push(sid);
                }
            }
        }
        increments
    }
}

impl MatchEngine for CountingMatcher {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn insert(&mut self, id: SubscriptionId, sub: &Subscription) {
        let pred_ids = sub
            .predicates()
            .iter()
            .map(|p| self.index.intern(*p))
            .collect();
        self.insert_ids(id, sub, pred_ids);
    }

    fn remove(&mut self, id: SubscriptionId) {
        let entry = self.subs[id.index()]
            .take()
            .expect("removing unknown subscription");
        for (&pid, &pos) in entry.pred_ids.iter().zip(&entry.positions) {
            let list = &mut self.assoc[pid.index()];
            list.swap_remove(pos as usize);
            if (pos as usize) < list.len() {
                // Fix the moved subscription's recorded position.
                let moved = list[pos as usize];
                let moved_entry = self.subs[moved.index()]
                    .as_mut()
                    .expect("moved subscription must be live");
                let k = moved_entry
                    .pred_ids
                    .iter()
                    .position(|&q| q == pid)
                    .expect("moved subscription references this predicate");
                moved_entry.positions[k] = pos;
            }
            self.index.release(pid);
        }
        self.arity[id.index()] = 0;
        self.live -= 1;
    }

    fn match_event(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.match_view(event, &mut scratch, out);
        self.scratch = scratch;
    }

    fn match_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.match_batch_view(events, &mut scratch, out);
        self.scratch = scratch;
    }

    fn len(&self) -> usize {
        self.live
    }

    fn stats(&self) -> &EngineStats {
        &self.scratch.stats
    }

    fn reset_stats(&mut self) {
        self.scratch.stats.reset();
    }

    fn heap_bytes(&self) -> usize {
        let assoc: usize = self.assoc.iter().map(|l| l.capacity() * 4).sum();
        let entries: usize = self
            .subs
            .iter()
            .flatten()
            .map(|e| e.pred_ids.capacity() * 4 + e.positions.capacity() * 4)
            .sum();
        assoc + entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::{AttrId, Operator};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn sid(i: u32) -> SubscriptionId {
        SubscriptionId(i)
    }

    #[test]
    fn counts_must_reach_arity() {
        let mut m = CountingMatcher::new();
        let s1 = Subscription::builder()
            .eq(a(0), 1i64)
            .eq(a(1), 2i64)
            .build()
            .unwrap();
        let s2 = Subscription::builder().eq(a(0), 1i64).build().unwrap();
        m.insert(sid(1), &s1);
        m.insert(sid(2), &s2);

        // Event satisfying only the first predicate of s1 (but all of s2).
        let e = Event::builder().pair(a(0), 1i64).build().unwrap();
        let mut out = Vec::new();
        m.match_event(&e, &mut out);
        assert_eq!(out, vec![sid(2)]);

        // Event satisfying both predicates of s1.
        let e = Event::builder()
            .pair(a(0), 1i64)
            .pair(a(1), 2i64)
            .build()
            .unwrap();
        out.clear();
        m.match_event(&e, &mut out);
        out.sort();
        assert_eq!(out, vec![sid(1), sid(2)]);
    }

    #[test]
    fn counters_do_not_leak_across_events() {
        let mut m = CountingMatcher::new();
        let s = Subscription::builder()
            .eq(a(0), 1i64)
            .eq(a(1), 2i64)
            .build()
            .unwrap();
        m.insert(sid(1), &s);
        let half1 = Event::builder().pair(a(0), 1i64).build().unwrap();
        let half2 = Event::builder().pair(a(1), 2i64).build().unwrap();
        let mut out = Vec::new();
        m.match_event(&half1, &mut out);
        m.match_event(&half2, &mut out);
        assert!(
            out.is_empty(),
            "two half-matching events must not add up to a match"
        );
    }

    #[test]
    fn removal_updates_association_lists() {
        let mut m = CountingMatcher::new();
        let shared = Subscription::builder().eq(a(0), 1i64).build().unwrap();
        m.insert(sid(1), &shared);
        m.insert(sid(2), &shared);
        m.insert(sid(3), &shared);
        // Removing the first forces the position fix-up of the swapped-in id.
        m.remove(sid(1));
        let e = Event::builder().pair(a(0), 1i64).build().unwrap();
        let mut out = Vec::new();
        m.match_event(&e, &mut out);
        out.sort();
        assert_eq!(out, vec![sid(2), sid(3)]);
        // And removing the moved one must still work (its position changed).
        m.remove(sid(3));
        out.clear();
        m.match_event(&e, &mut out);
        assert_eq!(out, vec![sid(2)]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn inequality_predicates_are_counted_too() {
        let mut m = CountingMatcher::new();
        let s = Subscription::builder()
            .eq(a(0), 1i64)
            .with(a(1), Operator::Lt, 10i64)
            .with(a(1), Operator::Gt, 5i64)
            .build()
            .unwrap();
        m.insert(sid(1), &s);
        let hit = Event::builder()
            .pair(a(0), 1i64)
            .pair(a(1), 7i64)
            .build()
            .unwrap();
        let miss = Event::builder()
            .pair(a(0), 1i64)
            .pair(a(1), 12i64)
            .build()
            .unwrap();
        let mut out = Vec::new();
        m.match_event(&hit, &mut out);
        assert_eq!(out, vec![sid(1)]);
        out.clear();
        m.match_event(&miss, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shared_predicates_are_interned_once() {
        let mut m = CountingMatcher::new();
        let s = Subscription::builder().eq(a(0), 1i64).build().unwrap();
        for i in 0..100 {
            m.insert(sid(i), &s);
        }
        assert_eq!(m.index.len(), 1, "one distinct predicate");
        assert_eq!(m.assoc[0].len(), 100);
    }
}
