//! Disjunctive-normal-form subscriptions.
//!
//! The paper's conclusion notes the filtering algorithm "already provides an
//! efficient support to a subscription language consisting of disjunctive
//! normal form conditions on events": a DNF subscription `C₁ ∨ C₂ ∨ …` is
//! registered as one engine subscription per conjunction, and notifications
//! are de-duplicated back to the user-level subscription.

use crate::shared::SharedBroker;
use crate::time::Validity;
use pubsub_types::{Event, FxHashMap, Subscription, SubscriptionId, TypeError};

/// A subscription in disjunctive normal form: an OR of conjunctions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnfSubscription {
    disjuncts: Vec<Subscription>,
}

impl DnfSubscription {
    /// Builds a DNF subscription from its disjuncts. At least one is
    /// required.
    pub fn new(disjuncts: Vec<Subscription>) -> Result<Self, TypeError> {
        if disjuncts.is_empty() {
            return Err(TypeError::EmptySubscription);
        }
        Ok(Self { disjuncts })
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Subscription] {
        &self.disjuncts
    }

    /// Reference semantics: true iff *any* disjunct is satisfied.
    pub fn matches_event(&self, event: &Event) -> bool {
        self.disjuncts.iter().any(|d| d.matches_event(event))
    }
}

/// Identifier of a registered DNF subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnfId(pub u64);

impl std::fmt::Display for DnfId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Maps engine-level subscription ids back to user-level DNF subscriptions.
///
/// Layered on top of a [`SharedBroker`] rather than inside it: conjunctive
/// users pay nothing for the indirection.
#[derive(Debug, Default)]
pub struct DnfRegistry {
    owner: FxHashMap<SubscriptionId, DnfId>,
    members: FxHashMap<DnfId, Vec<SubscriptionId>>,
    next: u64,
}

impl DnfRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered DNF subscriptions.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Registers each disjunct with the broker and records the mapping.
    ///
    /// # Panics
    /// As [`SharedBroker::subscribe`]: if the broker is durable and degraded.
    pub fn subscribe(
        &mut self,
        broker: &SharedBroker,
        dnf: DnfSubscription,
        validity: Validity,
    ) -> DnfId {
        let id = DnfId(self.next);
        self.next += 1;
        let mut ids = Vec::with_capacity(dnf.disjuncts.len());
        for d in dnf.disjuncts {
            let sid = broker.subscribe(d, validity);
            self.owner.insert(sid, id);
            ids.push(sid);
        }
        self.members.insert(id, ids);
        id
    }

    /// Unregisters a DNF subscription and its disjuncts. Returns `false` if
    /// the id was unknown.
    pub fn unsubscribe(&mut self, broker: &SharedBroker, id: DnfId) -> bool {
        let Some(ids) = self.members.remove(&id) else {
            return false;
        };
        for sid in ids {
            self.owner.remove(&sid);
            broker.unsubscribe(sid);
        }
        true
    }

    /// Translates engine-level matches into de-duplicated DNF ids. Matches
    /// not owned by any DNF subscription (plain conjunctive subscribers) are
    /// passed through in `plain`.
    pub fn translate(
        &self,
        matched: &[SubscriptionId],
        dnf_out: &mut Vec<DnfId>,
        plain: &mut Vec<SubscriptionId>,
    ) {
        for &sid in matched {
            match self.owner.get(&sid) {
                Some(&id) => {
                    // An event can satisfy several disjuncts of the same
                    // subscription; notify once.
                    if !dnf_out.contains(&id) {
                        dnf_out.push(id);
                    }
                }
                None => plain.push(sid),
            }
        }
    }

    /// Publishes an event and returns the de-duplicated DNF notifications
    /// plus the plain conjunctive ones.
    pub fn publish(
        &self,
        broker: &SharedBroker,
        event: &Event,
    ) -> (Vec<DnfId>, Vec<SubscriptionId>) {
        let matched = broker.publish(event);
        let mut dnf = Vec::new();
        let mut plain = Vec::new();
        self.translate(&matched, &mut dnf, &mut plain);
        (dnf, plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::EngineKind;
    use pubsub_types::{AttrId, Operator};

    fn sub(attr: u32, v: i64) -> Subscription {
        Subscription::builder().eq(AttrId(attr), v).build().unwrap()
    }

    fn range_sub(attr: u32, lo: i64, hi: i64) -> Subscription {
        Subscription::builder()
            .with(AttrId(attr), Operator::Ge, lo)
            .with(AttrId(attr), Operator::Le, hi)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_dnf_rejected() {
        assert!(matches!(
            DnfSubscription::new(vec![]),
            Err(TypeError::EmptySubscription)
        ));
    }

    #[test]
    fn any_disjunct_matches() {
        let dnf = DnfSubscription::new(vec![sub(0, 1), sub(1, 2)]).unwrap();
        let e = Event::builder().pair(AttrId(1), 2i64).build().unwrap();
        assert!(dnf.matches_event(&e));
        let e = Event::builder().pair(AttrId(1), 3i64).build().unwrap();
        assert!(!dnf.matches_event(&e));
    }

    #[test]
    fn notifications_are_deduplicated() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 1);
        let mut reg = DnfRegistry::new();
        // Overlapping disjuncts: value 5 satisfies both ranges.
        let dnf = DnfSubscription::new(vec![range_sub(0, 0, 5), range_sub(0, 5, 10)]).unwrap();
        let id = reg.subscribe(&broker, dnf, Validity::forever());

        let e = Event::builder().pair(AttrId(0), 5i64).build().unwrap();
        let (dnf_hits, plain) = reg.publish(&broker, &e);
        assert_eq!(dnf_hits, vec![id], "one notification despite two disjuncts");
        assert!(plain.is_empty());

        let e = Event::builder().pair(AttrId(0), 11i64).build().unwrap();
        let (dnf_hits, _) = reg.publish(&broker, &e);
        assert!(dnf_hits.is_empty());
    }

    #[test]
    fn plain_and_dnf_subscribers_coexist() {
        let broker = SharedBroker::new(EngineKind::PropagationPrefetch, 1);
        let mut reg = DnfRegistry::new();
        let plain_id = broker.subscribe(sub(0, 7), Validity::forever());
        let dnf_id = reg.subscribe(
            &broker,
            DnfSubscription::new(vec![sub(0, 7), sub(0, 8)]).unwrap(),
            Validity::forever(),
        );

        let e = Event::builder().pair(AttrId(0), 7i64).build().unwrap();
        let (dnf_hits, plain) = reg.publish(&broker, &e);
        assert_eq!(dnf_hits, vec![dnf_id]);
        assert_eq!(plain, vec![plain_id]);
    }

    #[test]
    fn unsubscribe_removes_all_disjuncts() {
        let broker = SharedBroker::new(EngineKind::Counting, 1);
        let mut reg = DnfRegistry::new();
        let id = reg.subscribe(
            &broker,
            DnfSubscription::new(vec![sub(0, 1), sub(1, 1), sub(2, 1)]).unwrap(),
            Validity::forever(),
        );
        assert_eq!(broker.subscription_count(), 3);
        assert!(reg.unsubscribe(&broker, id));
        assert!(!reg.unsubscribe(&broker, id));
        assert_eq!(broker.subscription_count(), 0);
        assert!(reg.is_empty());
    }
}
