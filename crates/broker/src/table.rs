//! The subscription table: id assignment on a lane, dense slot storage,
//! validity-driven expiry and the logical clock — everything about the
//! subscription lifecycle that is not matching.
//!
//! [`crate::broker::Broker`] composes one table with a live engine;
//! [`crate::shared::SharedBroker`] keeps one per stripe next to that
//! stripe's published snapshot. Subscriptions are held by `Arc` so the
//! snapshot's L0 shares the table's allocation instead of cloning it.

use crate::time::{LogicalTime, Validity};
use pubsub_types::metrics::Counter;
use pubsub_types::{Subscription, SubscriptionId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Subscriptions registered.
static SUBSCRIBES: Counter = Counter::new("broker.subscribes");
/// Successful unsubscribes.
static UNSUBSCRIBES: Counter = Counter::new("broker.unsubscribes");
/// Unsubscribe calls for unknown/expired ids (rejected, not fatal).
static UNSUBSCRIBE_MISSES: Counter = Counter::new("broker.unsubscribe_misses");
/// Subscriptions dropped by validity expiry.
static SUBS_EXPIRED: Counter = Counter::new("broker.subs_expired");

#[derive(Debug)]
struct SubRecord {
    sub: Arc<Subscription>,
    validity: Validity,
}

/// Live subscriptions of one id lane, with their validities and the clock
/// that expires them.
#[derive(Debug)]
pub(crate) struct SubTable {
    subs: Vec<Option<SubRecord>>,
    /// Count of ids assigned so far; the next id is
    /// `id_base + next_id * id_step`.
    next_id: u32,
    /// First id of this table's id lane (see [`SubTable::with_id_lane`]).
    id_base: u32,
    /// Stride of this table's id lane.
    id_step: u32,
    live: usize,
    expiry: BinaryHeap<Reverse<(LogicalTime, SubscriptionId)>>,
    now: LogicalTime,
}

impl SubTable {
    /// An empty table assigning ids `0, 1, 2, …` at time zero.
    pub(crate) fn new() -> Self {
        Self::with_id_lane(0, 1)
    }

    /// An empty table assigning ids on the lane `base, base + step,
    /// base + 2·step, …`. Tables on disjoint lanes assign globally unique
    /// ids with no coordination while each keeps its slot storage dense.
    ///
    /// # Panics
    /// Panics if `step == 0` or `base >= step`.
    pub(crate) fn with_id_lane(base: u32, step: u32) -> Self {
        assert!(step >= 1, "id lane stride must be at least 1");
        assert!(base < step, "id lane base must be below the stride");
        Self {
            subs: Vec::new(),
            next_id: 0,
            id_base: base,
            id_step: step,
            live: 0,
            expiry: BinaryHeap::new(),
            now: LogicalTime::ZERO,
        }
    }

    /// The dense storage slot of `id`, or `None` if `id` lies outside this
    /// table's id lane.
    fn slot_of(&self, id: SubscriptionId) -> Option<usize> {
        let raw = id.0.checked_sub(self.id_base)?;
        if raw % self.id_step != 0 {
            return None;
        }
        Some((raw / self.id_step) as usize)
    }

    fn id_of(&self, slot: usize) -> SubscriptionId {
        SubscriptionId(self.id_base + slot as u32 * self.id_step)
    }

    /// Stores a record in `slot` (growing the storage) and schedules its
    /// expiry.
    fn put(&mut self, slot: usize, sub: Arc<Subscription>, validity: Validity) {
        if self.subs.len() <= slot {
            self.subs.resize_with(slot + 1, || None);
        }
        if let Some(until) = validity.until {
            self.expiry.push(Reverse((until, self.id_of(slot))));
        }
        self.subs[slot] = Some(SubRecord { sub, validity });
        self.live += 1;
    }

    /// Current logical time.
    pub(crate) fn now(&self) -> LogicalTime {
        self.now
    }

    /// Advances the clock to `t`, dropping every subscription whose
    /// validity ended and handing its id to `on_expired`. Returns how many
    /// expired.
    ///
    /// # Panics
    /// Panics if `t` lies before the current time.
    pub(crate) fn advance_to(
        &mut self,
        t: LogicalTime,
        mut on_expired: impl FnMut(SubscriptionId),
    ) -> usize {
        assert!(t >= self.now, "clock cannot go backwards");
        self.now = t;
        let mut expired = 0;
        while let Some(&Reverse((until, id))) = self.expiry.peek() {
            if until > t {
                break;
            }
            self.expiry.pop();
            let slot = self.slot_of(id).expect("expiry heap only holds own ids");
            // The record may already be gone (explicit unsubscribe).
            if let Some(rec) = &self.subs[slot] {
                if rec.validity.until == Some(until) {
                    self.subs[slot] = None;
                    self.live -= 1;
                    expired += 1;
                    on_expired(id);
                }
            }
        }
        SUBS_EXPIRED.add(expired as u64);
        expired
    }

    /// Registers a subscription under the next id of the lane.
    pub(crate) fn insert(&mut self, sub: Arc<Subscription>, validity: Validity) -> SubscriptionId {
        SUBSCRIBES.inc();
        let id = self.peek_next_id();
        let slot = self.next_id as usize;
        self.next_id += 1;
        self.put(slot, sub, validity);
        id
    }

    /// Whether `id` refers to a live subscription of this table.
    pub(crate) fn contains(&self, id: SubscriptionId) -> bool {
        self.get(id).is_some()
    }

    /// The subscription behind an id, if still registered.
    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        let rec = self.subs.get(self.slot_of(id)?)?.as_ref()?;
        Some(&rec.sub)
    }

    /// The id the next [`SubTable::insert`] will assign. A durable broker
    /// logs the subscribe record *before* applying it, so the id must be
    /// observable without consuming it.
    pub(crate) fn peek_next_id(&self) -> SubscriptionId {
        self.id_of(self.next_id as usize)
    }

    /// One past the largest raw id this table has assigned (0 when none) —
    /// the per-stripe contribution to a durability snapshot's id high-water
    /// mark.
    pub(crate) fn assigned_id_high_water(&self) -> u32 {
        match self.next_id {
            0 => 0,
            n => self.id_of(n as usize - 1).0 + 1,
        }
    }

    /// Forbids assigning any id whose raw value is below `high_water` —
    /// applied when restoring from a durability snapshot, so ids retired
    /// before the snapshot (and therefore absent from it) are never reissued
    /// to new subscribers after recovery.
    pub(crate) fn reserve_ids_below(&mut self, high_water: u32) {
        if high_water > self.id_base {
            // Lane ids strictly below `high_water`: ceil((hw - base) / step).
            let reserved = (high_water - self.id_base).div_ceil(self.id_step);
            self.next_id = self.next_id.max(reserved);
        }
    }

    /// Re-registers a subscription under the id it held before a crash
    /// (replay of a WAL `Subscribe` record). Replayed ids need not arrive in
    /// order — concurrent subscribers could have reached the log out of id
    /// order — so the assignment cursor only ever moves forward. Returns
    /// `true` if a live subscription already held `id` and was replaced: a
    /// duplicate id can only come out of a damaged log recovered under the
    /// skip policy; last write wins, like a re-subscribe.
    ///
    /// # Panics
    /// Panics if `id` is outside this table's id lane.
    pub(crate) fn restore_one(
        &mut self,
        id: SubscriptionId,
        sub: Arc<Subscription>,
        validity: Validity,
    ) -> bool {
        let slot = self
            .slot_of(id)
            .expect("restored id must belong to this broker's lane");
        let replaced = self.subs.get_mut(slot).and_then(Option::take).is_some();
        if replaced {
            self.live -= 1;
        }
        self.next_id = self.next_id.max(slot as u32 + 1);
        self.put(slot, sub, validity);
        replaced
    }

    /// Bulk-restores a snapshot's subscription set into this (empty) table
    /// and sets its clock.
    ///
    /// # Panics
    /// Panics if the table already holds subscriptions, if the clock has
    /// already advanced, or if an id is duplicated or outside the lane.
    pub(crate) fn restore(
        &mut self,
        entries: Vec<(SubscriptionId, Subscription, Validity)>,
        now: LogicalTime,
    ) {
        assert_eq!(self.live, 0, "restore requires an empty broker");
        assert_eq!(
            self.now,
            LogicalTime::ZERO,
            "restore requires a fresh clock"
        );
        self.now = now;
        for (id, sub, validity) in entries {
            let replaced = self.restore_one(id, Arc::new(sub), validity);
            assert!(!replaced, "snapshot ids are unique");
        }
    }

    /// Removes a subscription. Returns `false` if the id was unknown or
    /// already expired.
    pub(crate) fn remove(&mut self, id: SubscriptionId) -> bool {
        let removed = self
            .slot_of(id)
            .and_then(|slot| self.subs.get_mut(slot)?.take())
            .is_some();
        if removed {
            self.live -= 1;
            UNSUBSCRIBES.inc();
        } else {
            UNSUBSCRIBE_MISSES.inc();
        }
        removed
    }

    /// Number of live subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Iterates over the live subscriptions with their ids and validities,
    /// in id order — the payload of a durability snapshot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SubscriptionId, &Subscription, Validity)> {
        self.subs.iter().enumerate().filter_map(|(slot, rec)| {
            rec.as_ref()
                .map(|r| (self.id_of(slot), &*r.sub, r.validity))
        })
    }

    /// The live subscriptions with ids in `[lo, hi)`, in id order — the
    /// input of a snapshot tier build. Ids ascend with their slots, so the
    /// range is one contiguous run of slots.
    pub(crate) fn range(
        &self,
        lo: SubscriptionId,
        hi: SubscriptionId,
    ) -> impl Iterator<Item = (SubscriptionId, &Subscription)> {
        // First slot whose id is at least `id`.
        let slot_from = |id: SubscriptionId| {
            (id.0.saturating_sub(self.id_base).div_ceil(self.id_step) as usize).min(self.subs.len())
        };
        let (start, end) = (slot_from(lo), slot_from(hi));
        self.subs[start..end.max(start)]
            .iter()
            .enumerate()
            .filter_map(move |(i, rec)| rec.as_ref().map(|r| (self.id_of(start + i), &*r.sub)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::AttrId;

    fn sub(v: i64) -> Arc<Subscription> {
        Arc::new(Subscription::builder().eq(AttrId(0), v).build().unwrap())
    }

    fn ids(table: &SubTable) -> Vec<u32> {
        table.iter().map(|(id, _, _)| id.0).collect()
    }

    #[test]
    fn lane_assigns_strided_ids_and_rejects_foreign_ones() {
        let mut table = SubTable::with_id_lane(1, 3);
        assert_eq!(table.assigned_id_high_water(), 0);
        assert_eq!(table.peek_next_id(), SubscriptionId(1));
        let a = table.insert(sub(1), Validity::forever());
        let b = table.insert(sub(2), Validity::forever());
        assert_eq!((a, b), (SubscriptionId(1), SubscriptionId(4)));
        assert_eq!(table.assigned_id_high_water(), 5);
        assert!(table.contains(b));
        assert!(!table.contains(SubscriptionId(2)), "other lane");
        assert!(!table.remove(SubscriptionId(0)), "below the lane base");
        assert!(table.remove(a));
        assert!(!table.remove(a), "double remove is reported");
        assert_eq!(ids(&table), vec![4]);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn reserved_ids_are_never_reissued() {
        let mut table = SubTable::with_id_lane(1, 2);
        table.reserve_ids_below(1);
        assert_eq!(table.peek_next_id(), SubscriptionId(1), "1 is not below 1");
        table.reserve_ids_below(6);
        assert_eq!(table.peek_next_id(), SubscriptionId(7), "1, 3, 5 reserved");
        table.reserve_ids_below(2);
        assert_eq!(
            table.peek_next_id(),
            SubscriptionId(7),
            "cursor never moves back"
        );
    }

    #[test]
    fn expiry_skips_removed_and_replaced_records() {
        let mut table = SubTable::new();
        let gone = table.insert(sub(1), Validity::until(LogicalTime(5)));
        let due = table.insert(sub(2), Validity::until(LogicalTime(5)));
        let later = table.insert(sub(3), Validity::until(LogicalTime(9)));
        let keep = table.insert(sub(4), Validity::forever());
        assert!(table.remove(gone));
        let mut expired = Vec::new();
        assert_eq!(table.advance_to(LogicalTime(5), |id| expired.push(id)), 1);
        assert_eq!(expired, vec![due], "the stale heap entry is harmless");
        assert_eq!(table.now(), LogicalTime(5));
        assert_eq!(ids(&table), vec![later.0, keep.0]);
        // A stale validity expires on the next advance, even to `now`.
        let stale = table.insert(sub(5), Validity::until(LogicalTime(2)));
        assert_eq!(
            table.advance_to(LogicalTime(5), |id| assert_eq!(id, stale)),
            1
        );
    }

    #[test]
    fn restore_one_is_order_free_and_last_write_wins() {
        let mut table = SubTable::with_id_lane(0, 2);
        assert!(!table.restore_one(SubscriptionId(6), sub(6), Validity::forever()));
        assert!(!table.restore_one(SubscriptionId(2), sub(2), Validity::forever()));
        assert_eq!(
            table.peek_next_id(),
            SubscriptionId(8),
            "cursor past the max"
        );
        assert!(table.restore_one(SubscriptionId(2), sub(7), Validity::forever()));
        assert_eq!(table.len(), 2);
        let seven = sub(7);
        assert_eq!(table.get(SubscriptionId(2)), Some(&*seven));
    }

    #[test]
    fn bulk_restore_sets_clock_cursor_and_expiry() {
        let mut table = SubTable::with_id_lane(1, 2);
        let entries = vec![
            (
                SubscriptionId(5),
                (*sub(5)).clone(),
                Validity::until(LogicalTime(8)),
            ),
            (SubscriptionId(1), (*sub(1)).clone(), Validity::forever()),
        ];
        table.restore(entries, LogicalTime(7));
        assert_eq!(table.now(), LogicalTime(7));
        assert_eq!(ids(&table), vec![1, 5]);
        assert_eq!(table.peek_next_id(), SubscriptionId(7));
        assert_eq!(table.advance_to(LogicalTime(8), |_| {}), 1);
        assert_eq!(ids(&table), vec![1]);
    }

    #[test]
    fn range_yields_live_lane_ids_inside_the_bounds() {
        let mut table = SubTable::with_id_lane(1, 3);
        let ids: Vec<SubscriptionId> = (0..6)
            .map(|v| table.insert(sub(v), Validity::forever()))
            .collect();
        assert!(table.remove(ids[2]));
        let range = |lo: u32, hi: u32| -> Vec<u32> {
            table
                .range(SubscriptionId(lo), SubscriptionId(hi))
                .map(|(id, _)| id.0)
                .collect()
        };
        assert_eq!(range(0, 100), vec![1, 4, 10, 13, 16], "7 was removed");
        assert_eq!(range(4, 13), vec![4, 10], "off-lane bounds round up");
        assert_eq!(range(5, 11), vec![10]);
        assert_eq!(
            range(11, 5),
            Vec::<u32>::new(),
            "an inverted range is empty"
        );
        assert_eq!(range(17, 40), Vec::<u32>::new(), "past the last slot");
    }
}
