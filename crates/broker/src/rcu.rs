//! Published engine snapshots for the lock-free publish path of
//! [`crate::shared::SharedBroker`].
//!
//! Each shard's subscription set is published as a [`ShardSnap`]: an
//! immutable *base* engine (shared by `Arc`, matched through
//! [`pubsub_core::MatchView`]) plus a small *delta* of subscriptions added
//! since the base was frozen and a *tombstone* list of base subscriptions
//! removed since. Readers match the base engine, drop tombstoned ids, and
//! brute-force the delta — correct for any delta size, and fast because the
//! writer merges the delta back into a fresh base once it outgrows a small
//! threshold (amortised O(n) rebuild, like a log-structured index).
//!
//! A [`BrokerSnapshot`] is one consistent cut across all shards; the writer
//! publishes it through a [`pubsub_core::RcuCell`] after every mutation.

use crate::table::SubTable;
use pubsub_core::{build_frozen, EngineKind, MatchView, SnapshotEngine, ViewScratch};
use pubsub_types::{Event, Subscription, SubscriptionId};
use std::sync::Arc;

/// Delta size at which the writer merges a shard's delta and tombstones
/// back into a freshly built base engine. Small enough that the
/// brute-forced delta never dominates a publish, large enough that a
/// subscribe burst does not rebuild the base every time.
fn merge_threshold(base_len: usize) -> usize {
    (base_len / 8).clamp(32, 1024)
}

/// An immutable engine built for shared reads.
struct FrozenShard {
    engine: Box<dyn SnapshotEngine>,
}

/// One shard's published state: frozen base + delta + tombstones.
#[derive(Clone)]
pub(crate) struct ShardSnap {
    /// Engine kind of the base (and of every rebuild).
    kind: EngineKind,
    base: Arc<FrozenShard>,
    /// Subscriptions added since the base was frozen. `Arc` per entry so a
    /// clone of the snapshot (one per flip) copies 16-byte handles, not
    /// predicate vectors.
    delta: Vec<(SubscriptionId, Arc<Subscription>)>,
    /// Base subscriptions removed since the base was frozen, sorted by id.
    /// (Delta removals edit the delta in place and never land here.)
    dead: Vec<SubscriptionId>,
}

impl ShardSnap {
    /// An empty shard snapshot for a fresh broker.
    pub(crate) fn empty(kind: EngineKind) -> Self {
        Self {
            kind,
            base: Arc::new(FrozenShard {
                engine: build_frozen(kind),
            }),
            delta: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Rebuilds the base engine from the stripe table's live subscription
    /// set, clearing the delta and tombstones. Called under the writer
    /// lock, off the read path.
    pub(crate) fn rebuild_from(&mut self, table: &SubTable) {
        let mut engine = build_frozen(self.kind);
        let mut iter = table.iter().map(|(id, sub, _)| (id, sub));
        engine.rebuild(&mut iter);
        self.base = Arc::new(FrozenShard { engine });
        self.delta.clear();
        self.dead.clear();
    }

    /// Records a subscription added after the base was frozen, rebuilding
    /// the base if the delta outgrew its threshold.
    pub(crate) fn note_insert(
        &mut self,
        id: SubscriptionId,
        sub: Arc<Subscription>,
        table: &SubTable,
    ) {
        self.delta.push((id, sub));
        self.merge_if_due(table);
    }

    /// Records a removal (explicit unsubscribe or validity expiry),
    /// rebuilding the base if the tombstone set outgrew its threshold.
    pub(crate) fn note_remove(&mut self, id: SubscriptionId, table: &SubTable) {
        if let Some(pos) = self.delta.iter().position(|&(d, _)| d == id) {
            self.delta.swap_remove(pos);
            return;
        }
        if let Err(pos) = self.dead.binary_search(&id) {
            self.dead.insert(pos, id);
        }
        self.merge_if_due(table);
    }

    fn merge_if_due(&mut self, table: &SubTable) {
        if self.delta.len() + self.dead.len() > merge_threshold(self.base.engine.len()) {
            self.rebuild_from(table);
        }
    }

    /// Whether any delta or tombstone entries are pending a merge.
    pub(crate) fn has_pending(&self) -> bool {
        !self.delta.is_empty() || !self.dead.is_empty()
    }

    /// Matches one event: base engine through the read-only view, minus
    /// tombstones, plus the brute-forced delta. Appends to `out` in no
    /// particular order (the caller sorts the merged publish result).
    pub(crate) fn match_into(
        &self,
        event: &Event,
        scratch: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) {
        let start = out.len();
        self.base.engine.match_view(event, scratch, out);
        let dropped = self.retain_live(out, start);
        let before_delta = out.len();
        for (id, sub) in &self.delta {
            if sub.matches_event(event) {
                out.push(*id);
            }
        }
        // The engine recorded its own work; account for the snapshot's
        // corrections so the aggregate reflects what was delivered.
        scratch.stats.matches += (out.len() - before_delta) as u64;
        scratch.stats.matches -= dropped as u64;
        scratch.stats.subscriptions_checked += self.delta.len() as u64;
    }

    /// Batched [`ShardSnap::match_into`]: fills `results` with one match
    /// vector per event (reused across calls).
    pub(crate) fn match_batch_into(
        &self,
        events: &[Event],
        scratch: &mut ViewScratch,
        results: &mut Vec<Vec<SubscriptionId>>,
    ) {
        self.base.engine.match_batch_view(events, scratch, results);
        for (event, dst) in events.iter().zip(results.iter_mut()) {
            let dropped = self.retain_live(dst, 0);
            let before_delta = dst.len();
            for (id, sub) in &self.delta {
                if sub.matches_event(event) {
                    dst.push(*id);
                }
            }
            scratch.stats.matches += (dst.len() - before_delta) as u64;
            scratch.stats.matches -= dropped as u64;
            scratch.stats.subscriptions_checked += self.delta.len() as u64;
        }
    }

    /// Drops tombstoned ids from `out[start..]` in place; returns how many
    /// were dropped.
    fn retain_live(&self, out: &mut Vec<SubscriptionId>, start: usize) -> usize {
        if self.dead.is_empty() {
            return 0;
        }
        let end = out.len();
        let mut w = start;
        for r in start..end {
            if self.dead.binary_search(&out[r]).is_err() {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
        end - w
    }
}

/// One consistent cut of the whole broker, published via
/// [`pubsub_core::RcuCell`]. Cloning the shard vector (one clone per flip)
/// copies `Arc` handles and small id vectors only.
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
}
