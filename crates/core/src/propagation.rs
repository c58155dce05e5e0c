//! The propagation algorithm (paper §2.2, §6: *propagation* and
//! *propagation-wp*).
//!
//! Each subscription is placed in a cluster list keyed by one of its
//! equality predicates — its *access predicate*. After phase 1 sets the
//! predicate bit vector, only the cluster lists of *satisfied* access
//! predicates are scanned, using the columnwise cluster kernel, optionally
//! with software prefetching (the `-wp` variant).
//!
//! Subscriptions without any equality predicate live in a fallback cluster
//! list scanned for every event (such subscriptions have no predicate `p`
//! with "s can only match events that verify p" available in hash form).

use crate::cluster::ClusterList;
use crate::engine::{EngineStats, MatchEngine};
use crate::view::{EngineCounters, Indexed, MatchView, Phase2Engine, Phase2Scratch, ViewScratch};
use pubsub_index::{PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::metrics::Counter;
use pubsub_types::{Event, FxHashMap, Subscription, SubscriptionId};

/// Events matched by the propagation engine (both variants).
static EVENTS: Counter = Counter::new("core.propagation.events");
/// Candidate subscriptions the cluster kernels verified.
static VERIFIED: Counter = Counter::new("core.propagation.verified");
/// Subscriptions the propagation engine reported as matches.
static MATCHED: Counter = Counter::new("core.propagation.matched");
/// Events that had to scan the no-access-predicate fallback list.
static FALLBACK_SCANS: Counter = Counter::new("core.propagation.fallback_scans");

#[derive(Debug)]
struct SubEntry {
    /// All interned predicate ids of the subscription.
    pred_ids: Vec<PredicateId>,
    /// The access predicate, or `None` for fallback subscriptions.
    access: Option<PredicateId>,
    /// Location inside the cluster list: (width, slot).
    width: u32,
    slot: u32,
}

/// The propagation matcher, with or without prefetching. `P` is where its
/// predicate ids come from: its own [`PredicateIndex`], or `()` for a tier
/// engine loaded with a caller's ids ([`crate::build_tier`]).
#[derive(Debug, Default)]
pub struct PropagationMatcher<P = PredicateIndex> {
    prefetch: bool,
    index: P,
    /// Cluster lists keyed by access predicate.
    access: FxHashMap<PredicateId, ClusterList>,
    /// Subscriptions with no equality predicate, checked on every event.
    fallback: ClusterList,
    subs: Vec<Option<SubEntry>>,
    live: usize,
    /// Scratch the `&mut self` match path lends to the match driver.
    scratch: ViewScratch,
}

impl PropagationMatcher {
    /// Creates an empty matcher. `prefetch` selects the *-wp* variant.
    pub fn new(prefetch: bool) -> Self {
        Self::with_prefetch(prefetch)
    }
}

impl<P: Default> PropagationMatcher<P> {
    /// An empty matcher of either variant, whatever its id source.
    pub(crate) fn with_prefetch(prefetch: bool) -> Self {
        Self {
            prefetch,
            ..Self::default()
        }
    }
}

impl<P> PropagationMatcher<P> {
    /// Whether this instance issues prefetches.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    fn slot_of(&mut self, id: SubscriptionId) -> &mut Option<SubEntry> {
        let need = id.index() + 1;
        if self.subs.len() < need {
            self.subs.resize_with(need, || None);
        }
        &mut self.subs[id.index()]
    }

    /// Picks the access predicate for a subscription: the equality predicate
    /// whose cluster list is currently smallest. This balances the lists and
    /// needs no event statistics (the cost-based choice belongs to the
    /// clustered engines).
    fn choose_access(&self, eq_ids: &[PredicateId]) -> Option<PredicateId> {
        eq_ids
            .iter()
            .copied()
            .min_by_key(|pid| self.access.get(pid).map_or(0, |l| l.len()))
    }

    fn location_fixup(&mut self, moved: Option<SubscriptionId>, width: u32, slot: u32) {
        if let Some(m) = moved {
            let e = self.subs[m.index()]
                .as_mut()
                .expect("moved subscription must be live");
            debug_assert_eq!(e.width, width);
            e.slot = slot;
        }
    }
}

impl Indexed for PropagationMatcher {
    fn index(&self) -> &PredicateIndex {
        &self.index
    }
}

impl<P> Phase2Engine for PropagationMatcher<P> {
    const COUNTERS: EngineCounters = EngineCounters {
        events: &EVENTS,
        verified: &VERIFIED,
        matched: &MATCHED,
    };

    /// `Subscription` stores equality first, which the cluster columns
    /// inherit so inequality bits are only read once all equality bits
    /// passed (short-circuit order, paper §6.2.1).
    fn insert_ids(&mut self, id: SubscriptionId, sub: &Subscription, pred_ids: Vec<PredicateId>) {
        assert!(self.slot_of(id).is_none(), "duplicate subscription id {id}");
        let eq_ids = &pred_ids[..sub.equality_count()];
        let access = self.choose_access(eq_ids);

        // Column refs: every predicate except the access predicate.
        let bit_refs: Vec<u32> = pred_ids
            .iter()
            .filter(|&&pid| Some(pid) != access)
            .map(|pid| pid.0)
            .collect();

        let (width, slot) = match access {
            Some(pid) => self.access.entry(pid).or_default().insert(id, &bit_refs),
            None => self.fallback.insert(id, &bit_refs),
        };
        *self.slot_of(id) = Some(SubEntry {
            pred_ids,
            access,
            width: width as u32,
            slot: slot as u32,
        });
        self.live += 1;
    }

    /// Scans the cluster lists of the satisfied access predicates (plus the
    /// fallback list) against `bits`. Returns candidates checked.
    fn phase2_view(
        &self,
        _event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        _scratch: &mut Phase2Scratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let mut checked = 0usize;
        for &pid in satisfied {
            if let Some(list) = self.access.get(&pid) {
                checked += if self.prefetch {
                    list.match_into::<true>(bits, out)
                } else {
                    list.match_into::<false>(bits, out)
                };
            }
        }
        if !self.fallback.is_empty() {
            FALLBACK_SCANS.inc();
            checked += if self.prefetch {
                self.fallback.match_into::<true>(bits, out)
            } else {
                self.fallback.match_into::<false>(bits, out)
            };
        }
        checked as u64
    }
}

impl MatchEngine for PropagationMatcher {
    fn name(&self) -> &'static str {
        if self.prefetch {
            "propagation-wp"
        } else {
            "propagation"
        }
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
        let (width, slot) = (entry.width, entry.slot);
        let moved = match entry.access {
            Some(pid) => {
                let list = self.access.get_mut(&pid).expect("access list exists");
                let moved = list.swap_remove(width as usize, slot as usize);
                if list.is_empty() {
                    self.access.remove(&pid);
                }
                moved
            }
            None => self.fallback.swap_remove(width as usize, slot as usize),
        };
        self.location_fixup(moved, width, slot);
        for pid in entry.pred_ids {
            self.index.release(pid);
        }
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
        let lists: usize = self.access.values().map(|l| l.heap_bytes()).sum();
        let entries: usize = self
            .subs
            .iter()
            .flatten()
            .map(|e| e.pred_ids.capacity() * 4 + 16)
            .sum();
        lists + self.fallback.heap_bytes() + entries
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

    fn matcher_pair() -> [PropagationMatcher; 2] {
        [
            PropagationMatcher::new(false),
            PropagationMatcher::new(true),
        ]
    }

    #[test]
    fn basic_equality_matching() {
        for mut m in matcher_pair() {
            let s = Subscription::builder()
                .eq(a(0), 1i64)
                .eq(a(1), 2i64)
                .build()
                .unwrap();
            m.insert(sid(1), &s);
            let hit = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), 2i64)
                .build()
                .unwrap();
            let near_miss = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), 3i64)
                .build()
                .unwrap();
            let mut out = Vec::new();
            m.match_event(&hit, &mut out);
            assert_eq!(out, vec![sid(1)], "{}", m.name());
            out.clear();
            m.match_event(&near_miss, &mut out);
            assert!(out.is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn inequality_only_subscription_uses_fallback() {
        for mut m in matcher_pair() {
            let s = Subscription::builder()
                .with(a(0), Operator::Lt, 10i64)
                .with(a(0), Operator::Gt, 5i64)
                .build()
                .unwrap();
            m.insert(sid(1), &s);
            let hit = Event::builder().pair(a(0), 7i64).build().unwrap();
            let miss = Event::builder().pair(a(0), 12i64).build().unwrap();
            let mut out = Vec::new();
            m.match_event(&hit, &mut out);
            assert_eq!(out, vec![sid(1)]);
            out.clear();
            m.match_event(&miss, &mut out);
            assert!(out.is_empty());
            m.remove(sid(1));
            assert!(m.is_empty());
        }
    }

    #[test]
    fn access_predicate_balancing_spreads_subscriptions() {
        let mut m = PropagationMatcher::new(false);
        // Both subscriptions share eq on attr 0; the second should pick the
        // (empty) attr-1 list rather than pile onto attr 0.
        let s1 = Subscription::builder()
            .eq(a(0), 1i64)
            .eq(a(1), 1i64)
            .build()
            .unwrap();
        let s2 = Subscription::builder()
            .eq(a(0), 1i64)
            .eq(a(1), 2i64)
            .build()
            .unwrap();
        m.insert(sid(1), &s1);
        m.insert(sid(2), &s2);
        assert_eq!(m.access.len(), 2, "two distinct access predicates in use");
    }

    #[test]
    fn mixed_operators_respect_all_predicates() {
        for mut m in matcher_pair() {
            let s = Subscription::builder()
                .eq(a(0), 1i64)
                .with(a(1), Operator::Ge, 10i64)
                .with(a(2), Operator::Ne, 5i64)
                .build()
                .unwrap();
            m.insert(sid(7), &s);
            let mut out = Vec::new();
            let hit = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), 10i64)
                .pair(a(2), 6i64)
                .build()
                .unwrap();
            m.match_event(&hit, &mut out);
            assert_eq!(out, vec![sid(7)]);
            out.clear();
            let miss = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), 10i64)
                .pair(a(2), 5i64)
                .build()
                .unwrap();
            m.match_event(&miss, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn removal_with_swapped_slots() {
        let mut m = PropagationMatcher::new(false);
        let mk = |v: i64| {
            Subscription::builder()
                .eq(a(0), 1i64)
                .eq(a(1), v)
                .build()
                .unwrap()
        };
        // Same size, likely same access list → same cluster.
        for i in 0..10u32 {
            m.insert(sid(i), &mk(i as i64));
        }
        // Remove from the front, forcing slot moves, then verify the rest.
        for i in 0..5u32 {
            m.remove(sid(i));
        }
        for i in 5..10u32 {
            let e = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), i as i64)
                .build()
                .unwrap();
            let mut out = Vec::new();
            m.match_event(&e, &mut out);
            assert_eq!(out, vec![sid(i)], "survivor {i} still matches");
        }
        // Removing the survivors exercises the fixed-up slots.
        for i in 5..10u32 {
            m.remove(sid(i));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn missing_event_attribute_never_matches() {
        for mut m in matcher_pair() {
            let s = Subscription::builder()
                .eq(a(0), 1i64)
                .eq(a(5), 1i64)
                .build()
                .unwrap();
            m.insert(sid(1), &s);
            let e = Event::builder().pair(a(0), 1i64).build().unwrap();
            let mut out = Vec::new();
            m.match_event(&e, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut m = PropagationMatcher::new(true);
        let s = Subscription::builder().eq(a(0), 1i64).build().unwrap();
        m.insert(sid(1), &s);
        let e = Event::builder().pair(a(0), 1i64).build().unwrap();
        let mut out = Vec::new();
        m.match_event(&e, &mut out);
        m.match_event(&e, &mut out);
        assert_eq!(m.stats().events, 2);
        assert_eq!(m.stats().matches, 2);
        assert_eq!(m.stats().subscriptions_checked, 2);
        m.reset_stats();
        assert_eq!(m.stats().events, 0);
    }
}
