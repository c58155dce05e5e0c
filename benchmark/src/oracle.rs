//! What every notify must contain, worked out without the system under
//! test: `Subscription::matches_event` over a candidate index for the whole
//! event pool, with `BruteForceMatcher` run over a sample of the pool as the
//! reference the index itself must equal id for id.

use pubsub_core::{BruteForceMatcher, MatchEngine};
use pubsub_types::{AttrId, Event, FxHashMap, Subscription, SubscriptionId, Value};

/// Pool events the brute-force reference is run on (it scans the whole
/// population per event: ~5 ms each at 100k subscriptions).
pub const BRUTE_SAMPLE: usize = 24;

/// For each event, the sorted population indices of the subscriptions it
/// matches.
pub fn expected_matches(subs: &[Subscription], events: &[Event]) -> Vec<Vec<u32>> {
    // A subscription can only match an event that satisfies its first
    // equality predicate, so it is filed under that (attribute, value);
    // subscriptions without one are candidates for every event.
    let mut by_eq: FxHashMap<(AttrId, Value), Vec<u32>> = FxHashMap::default();
    let mut always = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        match sub.equality_predicates().first() {
            Some(p) => by_eq.entry((p.attr, p.value)).or_default().push(i as u32),
            None => always.push(i as u32),
        }
    }
    events
        .iter()
        .map(|event| {
            let mut hits: Vec<u32> = event
                .pairs()
                .iter()
                .filter_map(|pair| by_eq.get(pair))
                .flatten()
                .chain(&always)
                .copied()
                .filter(|&i| subs[i as usize].matches_event(event))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// Checks `expected` against `BruteForceMatcher` on an evenly spread sample
/// of the pool. Returns the number of events whose match sets differ.
pub fn brute_force_disagreements(
    subs: &[Subscription],
    events: &[Event],
    expected: &[Vec<u32>],
) -> usize {
    let mut brute = BruteForceMatcher::new();
    for (i, sub) in subs.iter().enumerate() {
        brute.insert(SubscriptionId(i as u32), sub);
    }
    let step = (events.len() / BRUTE_SAMPLE).max(1);
    let mut out = Vec::new();
    (0..events.len())
        .step_by(step)
        .filter(|&e| {
            out.clear();
            brute.match_event(&events[e], &mut out);
            let mut got: Vec<u32> = out.iter().map(|id| id.0).collect();
            got.sort_unstable();
            got != expected[e]
        })
        .count()
}

/// Why a notify was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyFault {
    /// A static subscription that matches the event is absent.
    MissingId,
    /// A static subscription that does not match the event is present.
    WrongId,
    /// Ids are not strictly ascending (the protocol sorts them).
    Unsorted,
}

/// One subscriber session's view of the oracle, in server ids.
pub struct SessionOracle {
    /// Per pool event: the static ids this session must be notified of.
    expected: Vec<Vec<u32>>,
    /// `is_static[id]`: the id belongs to the static population.
    is_static: Vec<bool>,
}

impl SessionOracle {
    /// `id_of[i]` is the server id of population entry `i`; only entries
    /// with `session_of[i] == session` belong to this session.
    pub fn new(expected_pop: &[Vec<u32>], id_of: &[u32], session_of: &[u8], session: u8) -> Self {
        let bound = id_of.iter().max().map_or(0, |&m| m as usize + 1);
        let mut is_static = vec![false; bound];
        for &id in id_of {
            is_static[id as usize] = true;
        }
        let expected = expected_pop
            .iter()
            .map(|hits| {
                let mut ids: Vec<u32> = hits
                    .iter()
                    .filter(|&&i| session_of[i as usize] == session)
                    .map(|&i| id_of[i as usize])
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        Self {
            expected,
            is_static,
        }
    }

    /// Static ids event `pool_index` must notify this session of.
    #[cfg(test)]
    pub fn expected(&self, pool_index: usize) -> &[u32] {
        &self.expected[pool_index]
    }

    /// Checks the ids of one notify. The static ids among them must equal
    /// the expectation id for id; any other id is appended to `extra` for
    /// [`churned_id_allowed`] to judge.
    pub fn check(
        &self,
        pool_index: usize,
        ids: &[u32],
        extra: &mut Vec<u32>,
    ) -> Result<(), NotifyFault> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NotifyFault::Unsorted);
        }
        let mut want = self.expected[pool_index].iter();
        for &id in ids {
            if !self.is_static.get(id as usize).copied().unwrap_or(false) {
                extra.push(id);
            } else if want.next() != Some(&id) {
                // Sorted on both sides: a mismatch is an id we did not
                // expect, or one we expected and skipped over.
                return Err(if self.expected[pool_index].contains(&id) {
                    NotifyFault::MissingId
                } else {
                    NotifyFault::WrongId
                });
            }
        }
        if want.next().is_some() {
            return Err(NotifyFault::MissingId);
        }
        Ok(())
    }
}

/// The lifetime of one churned subscription as its owner saw it.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpan {
    /// When the subscribe request was sent.
    pub subscribe_sent_ns: u64,
    /// When the unsubscribe was acked; `None` while it is live or in flight.
    pub unsubscribe_acked_ns: Option<u64>,
}

/// A churned subscription's id in a notify is accepted only if the
/// subscription matches the event and was acked-live or in flight while the
/// event was: requested before the notify was read, and not yet acked as
/// removed when the event was sent.
pub fn churned_id_allowed(
    span: &ChurnSpan,
    sub: &Subscription,
    event: &Event,
    event_sent_ns: u64,
    notify_read_ns: u64,
) -> bool {
    span.subscribe_sent_ns <= notify_read_ns
        && span.unsubscribe_acked_ns.is_none_or(|t| t >= event_sent_ns)
        && sub.matches_event(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WORKLOADS};

    #[test]
    fn candidate_index_equals_brute_force() {
        for w in WORKLOADS {
            let g = generate(&w, 3_000, 5);
            let expected = expected_matches(&g.subs, &g.events);
            assert!(expected.iter().all(|hits| !hits.is_empty()), "{}", w.name);
            assert_eq!(brute_force_disagreements(&g.subs, &g.events, &expected), 0);
            // And the check does notice a wrong expectation.
            let mut broken = expected.clone();
            broken[0].pop();
            assert_eq!(brute_force_disagreements(&g.subs, &g.events, &broken), 1);
        }
    }

    fn oracle() -> SessionOracle {
        // Population entries 0..4 got server ids 10, 11, 12, 13; event 0
        // matches entries 1 and 3.
        SessionOracle::new(&[vec![1, 3]], &[10, 11, 12, 13], &[0, 0, 0, 0], 0)
    }

    #[test]
    fn exact_ids_pass() {
        let mut extra = Vec::new();
        assert_eq!(oracle().check(0, &[11, 13], &mut extra), Ok(()));
        assert!(extra.is_empty());
    }

    #[test]
    fn injected_missing_id_is_caught() {
        let mut extra = Vec::new();
        assert_eq!(
            oracle().check(0, &[11], &mut extra),
            Err(NotifyFault::MissingId)
        );
        assert_eq!(
            oracle().check(0, &[13], &mut extra),
            Err(NotifyFault::MissingId)
        );
        assert_eq!(
            oracle().check(0, &[], &mut extra),
            Err(NotifyFault::MissingId)
        );
    }

    #[test]
    fn injected_extra_id_is_caught() {
        let mut extra = Vec::new();
        // A static subscription that does not match.
        assert_eq!(
            oracle().check(0, &[11, 12, 13], &mut extra),
            Err(NotifyFault::WrongId)
        );
        assert_eq!(
            oracle().check(0, &[13, 11], &mut extra),
            Err(NotifyFault::Unsorted)
        );
        // An id outside the static population is handed to the churn rule…
        assert_eq!(oracle().check(0, &[11, 13, 99], &mut extra), Ok(()));
        assert_eq!(extra, vec![99]);
    }

    #[test]
    fn churned_ids_need_to_be_live_or_in_flight() {
        let g = generate(&WORKLOADS[0], 50, 3);
        let event = &g.events[0];
        let sub = g.subs.iter().find(|s| s.matches_event(event)).unwrap();
        let other = g.subs.iter().find(|s| !s.matches_event(event)).unwrap();
        let live = ChurnSpan {
            subscribe_sent_ns: 100,
            unsubscribe_acked_ns: None,
        };
        assert!(churned_id_allowed(&live, sub, event, 150, 200));
        // …and rejects it: not matching, removed before the event was
        // sent, or requested only after the notify was read.
        assert!(!churned_id_allowed(&live, other, event, 150, 200));
        let gone = ChurnSpan {
            unsubscribe_acked_ns: Some(140),
            ..live
        };
        assert!(!churned_id_allowed(&gone, sub, event, 150, 200));
        assert!(churned_id_allowed(&gone, sub, event, 130, 200));
        assert!(!churned_id_allowed(&live, sub, event, 50, 90));
    }
}
