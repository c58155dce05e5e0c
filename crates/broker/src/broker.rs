//! The publish/subscribe broker: subscription lifecycle, event publication,
//! validity handling, batching and notification delivery — the system of
//! paper §1 wrapped around a pluggable matching engine.

use crate::store::{EventId, EventStore};
use crate::table::SubTable;
use crate::time::{LogicalTime, Validity};
use pubsub_core::{EngineKind, EngineStats, MatchEngine};
use pubsub_types::metrics::Counter;
use pubsub_types::{AttrId, Event, Subscription, SubscriptionId, TypeError, Value, Vocabulary};
use std::sync::Arc;

/// Events published through a broker (single events; batched events count
/// each event in the batch). `pub(crate)` so
/// [`crate::shared::SharedBroker`]'s publish path counts here too.
pub(crate) static PUBLISHES: Counter = Counter::new("broker.publishes");
/// Stored events evicted by validity expiry.
static EVENTS_EVICTED: Counter = Counter::new("broker.events_evicted");

/// A notification: one published event matched these subscriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Id of the stored event (when the broker stores events) or `None` for
    /// fire-and-forget publication.
    pub event: Option<EventId>,
    /// The matched subscriptions.
    pub matched: Vec<SubscriptionId>,
}

/// The broker.
///
/// Owns a [`Vocabulary`] (attribute/string interning), a matching engine,
/// the subscription registry with validity-driven expiry, and the
/// valid-event store used to answer *new-subscription-against-stored-events*
/// queries.
pub struct Broker {
    vocab: Vocabulary,
    engine: Box<dyn MatchEngine + Send>,
    /// Ids, validities, expiry and the clock.
    table: SubTable,
    events: EventStore,
    /// Store published events (enables subscription replay) — on by default;
    /// benchmarks turn it off to isolate matching.
    store_events: bool,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("engine", &self.engine.name())
            .field("subscriptions", &self.table.len())
            .field("stored_events", &self.events.len())
            .field("now", &self.table.now())
            .finish()
    }
}

impl Broker {
    /// Creates a broker with a fresh engine of the given kind.
    pub fn new(kind: EngineKind) -> Self {
        Self::with_engine(kind.build())
    }

    /// Creates a broker around a caller-built engine.
    pub fn with_engine(engine: Box<dyn MatchEngine + Send>) -> Self {
        Self {
            vocab: Vocabulary::new(),
            engine,
            table: SubTable::new(),
            events: EventStore::new(),
            store_events: true,
        }
    }

    /// Disables the valid-event store (fire-and-forget publication).
    pub fn without_event_store(mut self) -> Self {
        self.store_events = false;
        self
    }

    // ---- vocabulary ------------------------------------------------------

    /// Interns an attribute name.
    pub fn attr(&mut self, name: &str) -> AttrId {
        self.vocab.attr(name)
    }

    /// Interns a string value.
    pub fn string(&mut self, s: &str) -> Value {
        self.vocab.string(s)
    }

    /// The broker's vocabulary (for display).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary (for parsers that intern whole
    /// expressions).
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    // ---- clock -----------------------------------------------------------

    /// Current logical time.
    pub fn now(&self) -> LogicalTime {
        self.table.now()
    }

    /// Advances the clock, expiring subscriptions and events whose validity
    /// ended. Returns `(subscriptions expired, events evicted)`.
    pub fn advance_to(&mut self, t: LogicalTime) -> (usize, usize) {
        let engine = &mut self.engine;
        let subs_expired = self.table.advance_to(t, |id| engine.remove(id));
        let events_evicted = self.events.evict_expired(t);
        EVENTS_EVICTED.add(events_evicted as u64);
        (subs_expired, events_evicted)
    }

    /// Advances the clock by one tick.
    pub fn tick(&mut self) -> (usize, usize) {
        self.advance_to(self.now().plus(1))
    }

    // ---- subscriptions -----------------------------------------------------

    /// Registers a subscription; returns its id.
    pub fn subscribe(&mut self, sub: Subscription, validity: Validity) -> SubscriptionId {
        self.engine.insert(self.table.peek_next_id(), &sub);
        self.table.insert(Arc::new(sub), validity)
    }

    /// Whether `id` refers to a live subscription of this broker.
    pub fn contains(&self, id: SubscriptionId) -> bool {
        self.table.contains(id)
    }

    /// Iterates over the live subscriptions with their ids and validities,
    /// in id order.
    pub fn live_subscriptions(
        &self,
    ) -> impl Iterator<Item = (SubscriptionId, &Subscription, Validity)> {
        self.table.iter()
    }

    /// Registers a subscription and immediately evaluates it against the
    /// stored valid events — the complementary functionality of §1. Returns
    /// the id and the stored events it already matches.
    pub fn subscribe_with_replay(
        &mut self,
        sub: Subscription,
        validity: Validity,
    ) -> (SubscriptionId, Vec<EventId>) {
        let replay = self.events.matches_for(&sub, self.now());
        let id = self.subscribe(sub, validity);
        (id, replay)
    }

    /// Registers a whole batch (`n_Sb` of Table 1); returns the ids.
    pub fn subscribe_batch(
        &mut self,
        subs: impl IntoIterator<Item = Subscription>,
        validity: Validity,
    ) -> Vec<SubscriptionId> {
        subs.into_iter()
            .map(|s| self.subscribe(s, validity))
            .collect()
    }

    /// Removes a subscription. Returns `false` if the id was unknown or
    /// already expired.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let removed = self.table.remove(id);
        if removed {
            self.engine.remove(id);
        }
        removed
    }

    /// The subscription behind an id, if still registered.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.table.get(id)
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.table.len()
    }

    // ---- events -------------------------------------------------------------

    /// Publishes an event valid only at this instant: matches it and returns
    /// the matched subscription ids (the notification set).
    pub fn publish(&mut self, event: &Event) -> Vec<SubscriptionId> {
        PUBLISHES.inc();
        let mut matched = Vec::new();
        self.engine.match_event(event, &mut matched);
        matched
    }

    /// Publishes an event, appending matches to a caller-owned buffer
    /// (zero-allocation hot path for benchmarks).
    pub fn publish_into(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        PUBLISHES.inc();
        self.engine.match_event(event, out);
    }

    /// Publishes an event with a validity interval: matches it, stores it
    /// (if the store is enabled) for future subscription replay, and returns
    /// the notification.
    pub fn publish_with_validity(&mut self, event: Event, validity: Validity) -> Notification {
        PUBLISHES.inc();
        let mut matched = Vec::new();
        self.engine.match_event(&event, &mut matched);
        let event_id = if self.store_events && !validity.expired_at(self.now()) {
            Some(self.events.insert(event, validity))
        } else {
            None
        };
        Notification {
            event: event_id,
            matched,
        }
    }

    /// Publishes a batch (`n_Eb` of Table 1); returns one notification per
    /// event. Routed through [`MatchEngine::match_batch_into`], so the
    /// engine amortises phase 1 across the batch.
    pub fn publish_batch(&mut self, events: &[Event]) -> Vec<Notification> {
        PUBLISHES.add(events.len() as u64);
        let mut matched = Vec::new();
        self.engine.match_batch_into(events, &mut matched);
        matched
            .into_iter()
            .map(|m| Notification {
                event: None,
                matched: m,
            })
            .collect()
    }

    /// Publishes a batch into a caller-owned buffer of per-event result
    /// vectors (zero-allocation steady state; inner vectors are reused).
    pub fn publish_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        PUBLISHES.add(events.len() as u64);
        self.engine.match_batch_into(events, out);
    }

    /// Number of stored valid events.
    pub fn stored_event_count(&self) -> usize {
        self.events.len()
    }

    /// Looks up a stored event.
    pub fn stored_event(&self, id: EventId) -> Option<&Event> {
        self.events.get(id)
    }

    // ---- engine pass-through -------------------------------------------------

    /// Runs the engine's one-time optimization hook (static clustering).
    pub fn finalize(&mut self) {
        self.engine.finalize();
    }

    /// The engine's performance counters.
    pub fn engine_stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// The engine's name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Convenience: builds an event from `(attr, value)` pairs.
    pub fn event(&self, pairs: Vec<(AttrId, Value)>) -> Result<Event, TypeError> {
        Event::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::Operator;

    fn demo_broker(kind: EngineKind) -> (Broker, AttrId, AttrId) {
        let mut b = Broker::new(kind);
        let movie = b.attr("movie");
        let price = b.attr("price");
        (b, movie, price)
    }

    #[test]
    fn paper_quickstart_flow() {
        for kind in EngineKind::PAPER_ENGINES {
            let (mut b, movie, price) = demo_broker(kind);
            let title = b.string("groundhog day");
            let sub = Subscription::builder()
                .eq(movie, title)
                .with(price, Operator::Le, 10i64)
                .build()
                .unwrap();
            let id = b.subscribe(sub, Validity::forever());
            let event = Event::builder()
                .pair(movie, title)
                .pair(price, 8i64)
                .build()
                .unwrap();
            let matched = b.publish(&event);
            assert_eq!(matched, vec![id], "engine {}", b.engine_name());
        }
    }

    #[test]
    fn subscription_expiry_on_clock_advance() {
        let (mut b, movie, _) = demo_broker(EngineKind::Dynamic);
        let title = b.string("up");
        let sub = Subscription::builder().eq(movie, title).build().unwrap();
        let id = b.subscribe(sub.clone(), Validity::until(LogicalTime(10)));
        let keep = b.subscribe(sub, Validity::forever());
        assert_eq!(b.subscription_count(), 2);

        let event = Event::builder().pair(movie, title).build().unwrap();
        assert_eq!(b.publish(&event).len(), 2);

        let (expired, _) = b.advance_to(LogicalTime(10));
        assert_eq!(expired, 1);
        assert_eq!(b.subscription_count(), 1);
        assert!(b.subscription(id).is_none());
        assert!(b.subscription(keep).is_some());
        assert_eq!(b.publish(&event), vec![keep]);
    }

    #[test]
    fn unsubscribe_then_expiry_is_harmless() {
        let (mut b, movie, _) = demo_broker(EngineKind::Counting);
        let title = b.string("x");
        let sub = Subscription::builder().eq(movie, title).build().unwrap();
        let id = b.subscribe(sub, Validity::until(LogicalTime(5)));
        assert!(b.unsubscribe(id));
        assert!(!b.unsubscribe(id), "double unsubscribe is reported");
        // The stale expiry entry must not panic or double-remove.
        let (expired, _) = b.advance_to(LogicalTime(10));
        assert_eq!(expired, 0);
    }

    #[test]
    fn new_subscription_replays_stored_events() {
        let (mut b, movie, price) = demo_broker(EngineKind::Dynamic);
        let title = b.string("brazil");
        let e1 = Event::builder()
            .pair(movie, title)
            .pair(price, 8i64)
            .build()
            .unwrap();
        let e2 = Event::builder()
            .pair(movie, title)
            .pair(price, 15i64)
            .build()
            .unwrap();
        let n1 = b.publish_with_validity(e1, Validity::until(LogicalTime(100)));
        let _n2 = b.publish_with_validity(e2, Validity::until(LogicalTime(100)));
        assert!(n1.matched.is_empty());
        assert_eq!(b.stored_event_count(), 2);

        let sub = Subscription::builder()
            .eq(movie, title)
            .with(price, Operator::Le, 10i64)
            .build()
            .unwrap();
        let (_, replay) = b.subscribe_with_replay(sub, Validity::forever());
        assert_eq!(replay, vec![n1.event.unwrap()], "only the cheap screening");
    }

    #[test]
    fn batch_apis() {
        let (mut b, movie, _) = demo_broker(EngineKind::PropagationPrefetch);
        let t1 = b.string("a");
        let t2 = b.string("b");
        let subs = vec![
            Subscription::builder().eq(movie, t1).build().unwrap(),
            Subscription::builder().eq(movie, t2).build().unwrap(),
        ];
        let ids = b.subscribe_batch(subs, Validity::forever());
        assert_eq!(ids.len(), 2);

        let events = vec![
            Event::builder().pair(movie, t1).build().unwrap(),
            Event::builder().pair(movie, t2).build().unwrap(),
        ];
        let notes = b.publish_batch(&events);
        assert_eq!(notes[0].matched, vec![ids[0]]);
        assert_eq!(notes[1].matched, vec![ids[1]]);
        assert_eq!(b.engine_stats().events, 2);
    }

    #[test]
    fn event_store_can_be_disabled() {
        let mut b = Broker::new(EngineKind::Dynamic).without_event_store();
        let movie = b.attr("movie");
        let t = b.string("y");
        let e = Event::builder().pair(movie, t).build().unwrap();
        let n = b.publish_with_validity(e, Validity::forever());
        assert!(n.event.is_none());
        assert_eq!(b.stored_event_count(), 0);
    }
}
