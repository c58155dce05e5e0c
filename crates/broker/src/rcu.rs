//! Published engine snapshots for the lock-free publish path of
//! [`crate::shared::SharedBroker`].
//!
//! Each stripe's subscription set is published as a [`ShardSnap`]: a short
//! list of *frozen tiers* plus an *L0* of at most 32 subscriptions added
//! since the newest tier was built. A tier is an immutable engine
//! (built by [`pubsub_core::build_frozen`], shared by `Arc`, matched through
//! [`pubsub_core::MatchView`]) with its own sorted *tombstones*: the ids
//! removed from it since it was built. Readers match every tier, drop that
//! tier's tombstoned ids, and brute-force L0.
//!
//! A stripe assigns ids in increasing order, so every tier covers one
//! contiguous id range and is rebuilt from that range of the stripe's
//! table. Tiers merge geometrically, like carries in a base-8 counter: a
//! tier of level `i` holds at most `32·8^(i+1)` subscriptions, and when L0
//! fills it is rebuilt together with every tier below the first level that
//! has room for the lot. The oldest, largest tier is the base. A tier whose
//! tombstones pass 1/8 of its size is rebuilt alone. A subscription is
//! therefore fed to O(log n) engine builds over its life, a stripe holds
//! O(log n) tiers, and a flip clones at most 32 L0 handles plus one handle
//! per tier — no reader ever brute-forces more than L0.
//!
//! A [`BrokerSnapshot`] is one consistent cut across all stripes; the writer
//! publishes it through a [`pubsub_core::RcuCell`] after every mutation that
//! changes a stripe.

use crate::table::SubTable;
use pubsub_core::{build_frozen, EngineKind, SnapshotEngine, ViewScratch};
use pubsub_types::{Event, Subscription, SubscriptionId};
use std::sync::Arc;

/// Subscriptions L0 collects before they are frozen into a tier.
const L0_CAP: usize = 32;
/// Size ratio between consecutive tier levels; also the inverse of the
/// tombstone share at which a tier is rebuilt alone.
const GROWTH: usize = 8;

/// Most live subscriptions a tier of `level` may hold: `32·8^(level+1)`.
fn capacity(level: u32) -> usize {
    L0_CAP.saturating_mul(GROWTH.saturating_pow(level + 1))
}

/// The lowest level whose capacity holds `n` subscriptions.
fn level_for(n: usize) -> u32 {
    (0..)
        .find(|&level| capacity(level) >= n)
        .expect("capacity saturates at usize::MAX")
}

/// An immutable engine and the ids of the subscriptions it was built from.
/// The engine knows each subscription by its rank in `ids`, so its
/// id-indexed tables are as long as the tier, not as the stripe's id space.
struct Frozen {
    engine: Box<dyn SnapshotEngine>,
    /// Ascending.
    ids: Vec<SubscriptionId>,
}

/// One frozen tier: the engine over the live subscriptions of the id range
/// `[lo, hi)` at build time, and the ids removed from it since.
#[derive(Clone)]
struct Tier {
    frozen: Arc<Frozen>,
    level: u32,
    lo: SubscriptionId,
    hi: SubscriptionId,
    /// Sorted. Shared with published snapshots until the writer edits it.
    dead: Arc<Vec<SubscriptionId>>,
}

impl Tier {
    /// Subscriptions the tier was built with.
    fn len(&self) -> usize {
        self.frozen.ids.len()
    }

    /// Subscriptions of this tier still alive.
    fn live(&self) -> usize {
        self.len() - self.dead.len()
    }

    /// Turns the engine's ranks in `out[start..]` into subscription ids,
    /// dropping tombstoned ones in place; returns how many were dropped.
    fn resolve(&self, out: &mut Vec<SubscriptionId>, start: usize) -> usize {
        let end = out.len();
        let mut w = start;
        for r in start..end {
            let id = self.frozen.ids[out[r].index()];
            if self.dead.binary_search(&id).is_err() {
                out[w] = id;
                w += 1;
            }
        }
        out.truncate(w);
        end - w
    }
}

/// One stripe's published state: frozen tiers + L0.
#[derive(Clone)]
pub(crate) struct ShardSnap {
    /// Engine kind of every tier.
    kind: EngineKind,
    /// Oldest (lowest ids, highest level) first; levels strictly decrease.
    tiers: Vec<Tier>,
    /// Subscriptions with ids from `l0_from` on, in no tier yet. `Arc` per
    /// entry so a flip copies 16-byte handles, not predicate vectors.
    l0: Vec<(SubscriptionId, Arc<Subscription>)>,
    l0_from: SubscriptionId,
    /// Subscriptions fed to engine builds over the stripe's life.
    built: u64,
}

impl ShardSnap {
    /// The stripe's live set in `table`, frozen as a single base.
    pub(crate) fn frozen(kind: EngineKind, table: &SubTable) -> Self {
        let mut snap = Self {
            kind,
            tiers: Vec::new(),
            l0: Vec::new(),
            l0_from: SubscriptionId(0),
            built: 0,
        };
        snap.freeze(table);
        snap
    }

    /// Rebuilds the whole stripe as one base from the table's live set,
    /// clearing L0 and every tombstone. Called under the writer lock, off
    /// the read path.
    pub(crate) fn freeze(&mut self, table: &SubTable) {
        let hi = table.peek_next_id();
        self.tiers.clear();
        self.l0.clear();
        self.l0_from = hi;
        let base = self.build(table, SubscriptionId(0), hi, level_for(table.len()));
        self.tiers.extend(base);
    }

    /// Whether the stripe is a single base with no L0 and no tombstones.
    pub(crate) fn is_compact(&self) -> bool {
        self.l0.is_empty() && self.tiers.len() <= 1 && self.tiers.iter().all(|t| t.dead.is_empty())
    }

    /// Whether a subscription with `id` may join L0: it lies above every
    /// frozen tier's range.
    pub(crate) fn is_unfrozen(&self, id: SubscriptionId) -> bool {
        id >= self.l0_from
    }

    /// Records a subscription the table just assigned `id` (above every
    /// tier, see [`ShardSnap::is_unfrozen`]), freezing L0 once it is full.
    pub(crate) fn note_insert(
        &mut self,
        id: SubscriptionId,
        sub: Arc<Subscription>,
        table: &SubTable,
    ) {
        debug_assert!(self.is_unfrozen(id), "tier ranges need ascending ids");
        self.l0.push((id, sub));
        if self.l0.len() >= L0_CAP {
            self.flush(table);
        }
    }

    /// Records a removal (explicit unsubscribe or validity expiry): an L0
    /// entry is dropped in place; a tier gains a tombstone and is rebuilt
    /// alone once more than 1/8 of it is dead.
    pub(crate) fn note_remove(&mut self, id: SubscriptionId, table: &SubTable) {
        if self.is_unfrozen(id) {
            if let Some(pos) = self.l0.iter().position(|&(d, _)| d == id) {
                self.l0.swap_remove(pos);
            }
            return;
        }
        let Some(i) = self.tiers.iter().rposition(|t| t.lo <= id && id < t.hi) else {
            return;
        };
        let tier = &mut self.tiers[i];
        let dead = Arc::make_mut(&mut tier.dead);
        if let Err(pos) = dead.binary_search(&id) {
            dead.insert(pos, id);
        }
        if dead.len() * GROWTH > tier.len() {
            let (lo, hi, level) = (tier.lo, tier.hi, tier.level);
            match self.build(table, lo, hi, level) {
                Some(rebuilt) => self.tiers[i] = rebuilt,
                None => {
                    self.tiers.remove(i);
                }
            }
        }
    }

    /// Freezes L0 into a tier, carrying upward: walking from the newest
    /// tier, each level's tier is absorbed until the lot fits a level's
    /// capacity, and the absorbed suffix of the id space is rebuilt as one
    /// tier at that level.
    fn flush(&mut self, table: &SubTable) {
        let mut carry = self.l0.len();
        let mut keep = self.tiers.len();
        let mut level = 0;
        loop {
            if let Some(tier) = self.tiers[..keep].last().filter(|t| t.level == level) {
                carry += tier.live();
                keep -= 1;
            }
            if carry <= capacity(level) {
                break;
            }
            level += 1;
        }
        let lo = self.tiers.get(keep).map_or(self.l0_from, |t| t.lo);
        let hi = table.peek_next_id();
        self.tiers.truncate(keep);
        self.l0.clear();
        self.l0_from = hi;
        let merged = self.build(table, lo, hi, level);
        self.tiers.extend(merged);
    }

    /// Builds one tier from the table's live subscriptions in `[lo, hi)`;
    /// `None` when the range holds none.
    fn build(
        &mut self,
        table: &SubTable,
        lo: SubscriptionId,
        hi: SubscriptionId,
        level: u32,
    ) -> Option<Tier> {
        let mut engine = build_frozen(self.kind);
        let mut ids = Vec::new();
        engine.rebuild(&mut table.range(lo, hi).map(|(id, sub)| {
            ids.push(id);
            (SubscriptionId(ids.len() as u32 - 1), sub)
        }));
        self.built += ids.len() as u64;
        (!ids.is_empty()).then(|| Tier {
            frozen: Arc::new(Frozen { engine, ids }),
            level,
            lo,
            hi,
            dead: Arc::default(),
        })
    }

    /// `(frozen tiers, L0 entries, subscriptions fed to builds)`.
    pub(crate) fn shape(&self) -> (usize, usize, u64) {
        (self.tiers.len(), self.l0.len(), self.built)
    }

    /// Every tier's `(subscriptions built, tombstones)`, oldest first.
    #[cfg(test)]
    pub(crate) fn tier_sizes(&self) -> Vec<(usize, usize)> {
        self.tiers.iter().map(|t| (t.len(), t.dead.len())).collect()
    }

    /// Matches one event: every tier through its read-only view, its
    /// ranks resolved to ids minus its tombstones, plus the brute-forced L0. Appends to `out` in no
    /// particular order (the caller sorts the merged publish result).
    pub(crate) fn match_into(
        &self,
        event: &Event,
        scratch: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) {
        let mut dropped = 0;
        for tier in &self.tiers {
            let start = out.len();
            tier.frozen.engine.match_view(event, scratch, out);
            dropped += tier.resolve(out, start);
        }
        let added = self.match_l0(event, out);
        self.account(scratch, 1, added, dropped);
    }

    /// Batched [`ShardSnap::match_into`]: appends each event's matches to
    /// the parallel vector of `out`, using `buf` (reused across calls) for
    /// the tiers' batch results.
    pub(crate) fn match_batch_into(
        &self,
        events: &[Event],
        scratch: &mut ViewScratch,
        buf: &mut Vec<Vec<SubscriptionId>>,
        out: &mut [Vec<SubscriptionId>],
    ) {
        let mut dropped = 0;
        for tier in &self.tiers {
            tier.frozen.engine.match_batch_view(events, scratch, buf);
            for (dst, src) in out.iter_mut().zip(buf.iter()) {
                let start = dst.len();
                dst.extend_from_slice(src);
                dropped += tier.resolve(dst, start);
            }
        }
        let added = events
            .iter()
            .zip(out.iter_mut())
            .map(|(event, dst)| self.match_l0(event, dst))
            .sum();
        self.account(scratch, events.len(), added, dropped);
    }

    /// Brute-forces L0 against `event`; returns how many matched.
    fn match_l0(&self, event: &Event, out: &mut Vec<SubscriptionId>) -> usize {
        let before = out.len();
        out.extend(
            self.l0
                .iter()
                .filter(|(_, sub)| sub.matches_event(event))
                .map(|&(id, _)| id),
        );
        out.len() - before
    }

    /// The engines recorded their own work; account for the snapshot's
    /// corrections over `events` events (L0 hits and checks, tombstoned
    /// hits) so the aggregate reflects what was delivered.
    fn account(&self, scratch: &mut ViewScratch, events: usize, added: usize, dropped: usize) {
        scratch.stats.matches = scratch.stats.matches + added as u64 - dropped as u64;
        scratch.stats.subscriptions_checked += (self.l0.len() * events) as u64;
    }
}

/// One consistent cut of the whole broker, published via
/// [`pubsub_core::RcuCell`]. Cloning the stripe vector (one clone per flip)
/// copies `Arc` handles only.
pub(crate) struct BrokerSnapshot {
    pub(crate) shards: Vec<ShardSnap>,
}

/// Point-in-time view of the RCU publish machinery, surfaced by
/// [`crate::shared::SharedBroker::rcu_status`] (and the CLI `stats`
/// command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcuStatus {
    /// Snapshot pointer flips since the broker was created.
    pub flips: u64,
    /// Current RCU epoch (1 + flips; grows with every publish of a new
    /// snapshot).
    pub epoch: u64,
    /// Retired snapshots whose reclamation is still deferred by readers.
    pub retired: usize,
    /// Reader slots currently pinned (sampled; readers pin only inside a
    /// publish call, so this is almost always 0 at rest).
    pub active_readers: usize,
    /// Frozen tier engines across all stripes of the published snapshot.
    pub tiers: usize,
    /// Brute-forced L0 entries across all stripes of the published snapshot.
    pub l0: usize,
    /// Subscriptions fed to engine builds since the broker was created.
    pub built: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_grow_by_the_factor() {
        assert_eq!(capacity(0), 256);
        assert_eq!(capacity(1), 2048);
        assert_eq!(level_for(0), 0);
        assert_eq!(level_for(256), 0);
        assert_eq!(level_for(257), 1);
        assert_eq!(level_for(100_000), 3);
        assert_eq!(capacity(40), usize::MAX, "saturates instead of overflowing");
    }
}
