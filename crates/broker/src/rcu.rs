//! Published engine snapshots for the lock-free publish path of
//! [`crate::shared::SharedBroker`].
//!
//! Each stripe's subscription set is published as a `ShardSnap`: a short
//! list of *frozen tiers* plus an *L0* of at most 32 subscriptions added
//! since the newest tier was built. A tier is an immutable phase-2 engine
//! (built by [`pubsub_core::build_tier`], shared by `Arc`) with its own
//! sorted *tombstones*: the ids removed from it since it was built.
//!
//! Every tier of every stripe is built against the ids of one broker-wide
//! `Registry`, and a `BrokerSnapshot` publishes its index beside the
//! stripes. A publish runs phase 1 once against that copy, then
//! every tier's phase 2 on the one bit vector, drops each tier's
//! tombstoned ids, and brute-forces L0 (which needs no ids).
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
//! A `BrokerSnapshot` is one consistent cut across all stripes; the writer
//! publishes it through a [`pubsub_core::RcuCell`] after every mutation that
//! changes a stripe.

use crate::table::SubTable;
use pubsub_core::{build_tier, record_phases, EngineKind, EngineStats, TierEngine, ViewScratch};
use pubsub_index::{Phase1Batch, PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::{Event, Predicate, Subscription, SubscriptionId};
use std::sync::Arc;
use std::time::Instant;

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

/// The broker-wide predicate registry every tier is built against: one
/// [`PredicateIndex`], shared by `Arc` with the snapshot that publishes it,
/// and per id the number of tiers in the writer's state that name it.
///
/// An id is freed, and so may be recycled, at the flip that drops its last
/// naming tier; the index changes only then and when a tier needs a
/// predicate it lacks. A published index is never edited: readers pinned on
/// an older snapshot keep evaluating theirs. The writer edits the index one
/// flip behind instead (`spare`), once no snapshot holds it, after replaying
/// the edits it missed (`lag`), so an edit costs its own size; it copies the
/// newest index only while a reader still pins the spare.
pub(crate) struct Registry {
    /// The newest index; the published snapshot shares it once flipped.
    index: Arc<PredicateIndex>,
    /// The index `index` replaced, missing the edits in `lag`.
    spare: Option<Arc<PredicateIndex>>,
    lag: Vec<Edit>,
    /// Per id: tiers in the writer's state that name it.
    naming_tiers: Vec<u32>,
    /// Per id: the build that last named it, so a tier counts each of its
    /// predicates once.
    named_by: Vec<u64>,
    /// Tier builds started so far.
    builds: u64,
    /// Ids whose last naming tier was dropped, freed at the next flip
    /// unless a build named them again.
    unnamed: Vec<PredicateId>,
}

/// One edit of the index, replayed on the spare.
enum Edit {
    Intern(Predicate, PredicateId),
    Release(PredicateId),
}

impl Edit {
    fn apply(&self, index: &mut PredicateIndex) {
        match *self {
            Edit::Intern(pred, id) => {
                let got = index.intern(pred);
                debug_assert_eq!(got, id, "replay assigns the same ids");
            }
            Edit::Release(id) => {
                index.release(id);
            }
        }
    }
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            index: Arc::default(),
            spare: None,
            lag: Vec::new(),
            naming_tiers: Vec::new(),
            named_by: Vec::new(),
            builds: 0,
            unnamed: Vec::new(),
        }
    }

    /// Starts a tier build: from here on, ids count once for the new tier.
    fn begin_build(&mut self) {
        self.builds += 1;
    }

    /// The id of `pred` for the tier being built, appended to the tier's
    /// `named` list (and counted) the first time the build names it.
    fn id_for(&mut self, pred: &Predicate, named: &mut Vec<PredicateId>) -> PredicateId {
        let id = match self.index.lookup(pred) {
            Some(id) if self.named_by[id.index()] == self.builds => return id,
            Some(id) => id,
            None => {
                let id = self.writable().intern(*pred);
                self.log(Edit::Intern(*pred, id));
                if self.named_by.len() <= id.index() {
                    self.named_by.resize(id.index() + 1, 0);
                    self.naming_tiers.resize(id.index() + 1, 0);
                }
                id
            }
        };
        self.named_by[id.index()] = self.builds;
        self.naming_tiers[id.index()] += 1;
        named.push(id);
        id
    }

    /// The newest index, for an edit. Once a snapshot has published it, the
    /// spare, brought up to date, takes its place.
    fn writable(&mut self) -> &mut PredicateIndex {
        if Arc::get_mut(&mut self.index).is_none() {
            let next = match self.spare.take().map(Arc::try_unwrap) {
                Some(Ok(mut spare)) => {
                    self.lag.iter().for_each(|edit| edit.apply(&mut spare));
                    spare
                }
                // No spare yet, or a reader still pins a snapshot holding it.
                _ => (*self.index).clone(),
            };
            self.lag.clear();
            self.spare = Some(std::mem::replace(&mut self.index, Arc::new(next)));
        }
        Arc::get_mut(&mut self.index).expect("no snapshot holds the new index")
    }

    /// Records an edit of the newest index for the spare to replay.
    fn log(&mut self, edit: Edit) {
        if self.spare.is_some() {
            self.lag.push(edit);
        }
    }

    /// Drops dropped tiers' references.
    fn release(&mut self, tiers: impl IntoIterator<Item = Tier>) {
        for tier in tiers {
            for &id in &tier.frozen.preds {
                self.naming_tiers[id.index()] -= 1;
                if self.naming_tiers[id.index()] == 0 {
                    self.unnamed.push(id);
                }
            }
        }
    }

    /// The index to publish, with every id that no tier names any more
    /// freed first.
    pub(crate) fn published(&mut self) -> Arc<PredicateIndex> {
        while let Some(id) = self.unnamed.pop() {
            // An id listed twice is freed once.
            if self.naming_tiers[id.index()] == 0 && self.index.refcount(id) > 0 {
                self.writable().release(id);
                self.log(Edit::Release(id));
            }
        }
        Arc::clone(&self.index)
    }
}

/// An immutable engine, the ids of the subscriptions it was built from and
/// the registry ids it names. The engine knows each subscription by its
/// rank in `ids`, so its id-indexed tables are as long as the tier, not as
/// the stripe's id space.
struct Frozen {
    engine: Box<dyn TierEngine>,
    /// Ascending.
    ids: Vec<SubscriptionId>,
    /// Distinct; each counted once in the registry while the writer holds
    /// the tier.
    preds: Vec<PredicateId>,
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
    /// dropping tombstoned ones in place.
    fn resolve(&self, out: &mut Vec<SubscriptionId>, start: usize) {
        let mut w = start;
        for r in start..out.len() {
            let id = self.frozen.ids[out[r].index()];
            if self.dead.binary_search(&id).is_err() {
                out[w] = id;
                w += 1;
            }
        }
        out.truncate(w);
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
    pub(crate) fn frozen(kind: EngineKind, table: &SubTable, preds: &mut Registry) -> Self {
        let mut snap = Self {
            kind,
            tiers: Vec::new(),
            l0: Vec::new(),
            l0_from: SubscriptionId(0),
            built: 0,
        };
        snap.freeze(table, preds);
        snap
    }

    /// Rebuilds the whole stripe as one base from the table's live set,
    /// clearing L0 and every tombstone. Called under the writer lock, off
    /// the read path.
    pub(crate) fn freeze(&mut self, table: &SubTable, preds: &mut Registry) {
        let hi = table.peek_next_id();
        let old = std::mem::take(&mut self.tiers);
        self.l0.clear();
        self.l0_from = hi;
        let base = self.build(table, preds, SubscriptionId(0), hi, level_for(table.len()));
        self.tiers.extend(base);
        preds.release(old);
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
        preds: &mut Registry,
    ) {
        debug_assert!(self.is_unfrozen(id), "tier ranges need ascending ids");
        self.l0.push((id, sub));
        if self.l0.len() >= L0_CAP {
            self.flush(table, preds);
        }
    }

    /// Records a removal (explicit unsubscribe or validity expiry): an L0
    /// entry is dropped in place; a tier gains a tombstone and is rebuilt
    /// alone once more than 1/8 of it is dead.
    pub(crate) fn note_remove(
        &mut self,
        id: SubscriptionId,
        table: &SubTable,
        preds: &mut Registry,
    ) {
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
            let old = match self.build(table, preds, lo, hi, level) {
                Some(rebuilt) => std::mem::replace(&mut self.tiers[i], rebuilt),
                None => self.tiers.remove(i),
            };
            preds.release([old]);
        }
    }

    /// Freezes L0 into a tier, carrying upward: walking from the newest
    /// tier, each level's tier is absorbed until the lot fits a level's
    /// capacity, and the absorbed suffix of the id space is rebuilt as one
    /// tier at that level.
    fn flush(&mut self, table: &SubTable, preds: &mut Registry) {
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
        let absorbed = self.tiers.split_off(keep);
        self.l0.clear();
        self.l0_from = hi;
        let merged = self.build(table, preds, lo, hi, level);
        self.tiers.extend(merged);
        preds.release(absorbed);
    }

    /// Builds one tier from the table's live subscriptions in `[lo, hi)`
    /// against the registry's ids; `None` when the range holds none. The
    /// caller releases the tiers it replaces only after the build, so the
    /// predicates they share keep their ids.
    fn build(
        &mut self,
        table: &SubTable,
        preds: &mut Registry,
        lo: SubscriptionId,
        hi: SubscriptionId,
        level: u32,
    ) -> Option<Tier> {
        preds.begin_build();
        let mut ids = Vec::new();
        let mut named = Vec::new();
        let engine = build_tier(
            self.kind,
            &mut table.range(lo, hi).map(|(id, sub)| {
                ids.push(id);
                let pred_ids = sub.predicates().iter();
                let pred_ids = pred_ids.map(|p| preds.id_for(p, &mut named)).collect();
                (SubscriptionId(ids.len() as u32 - 1), sub, pred_ids)
            }),
        );
        self.built += ids.len() as u64;
        if ids.is_empty() {
            return None;
        }
        Some(Tier {
            frozen: Arc::new(Frozen {
                engine,
                ids,
                preds: named,
            }),
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

    /// Phase 2 of one event on this stripe, given the broker-wide phase-1
    /// output: every tier's phase 2, its ranks resolved to ids minus its
    /// tombstones, plus the brute-forced L0. Appends to `out` in no
    /// particular order (the caller sorts the merged publish result);
    /// returns the subscriptions checked.
    fn match_into(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        scratch: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let mut checked = self.l0.len() as u64;
        for tier in &self.tiers {
            let start = out.len();
            checked += tier
                .frozen
                .engine
                .phase2(event, bits, satisfied, scratch, out);
            tier.resolve(out, start);
        }
        out.extend(
            self.l0
                .iter()
                .filter(|(_, sub)| sub.matches_event(event))
                .map(|&(id, _)| id),
        );
        checked
    }
}

/// Per-thread publish scratch: the broker-wide phase-1 output and the
/// tiers' phase-2 buffers.
#[derive(Default)]
pub(crate) struct ReadScratch {
    bits: PredicateBitVec,
    satisfied: Vec<PredicateId>,
    batch: Phase1Batch,
    view: ViewScratch,
}

/// One consistent cut of the whole broker, published via
/// [`pubsub_core::RcuCell`]. Cloning the stripe vector (one clone per flip)
/// copies `Arc` handles only.
pub(crate) struct BrokerSnapshot {
    pub(crate) shards: Vec<ShardSnap>,
    /// The registry's index as of this cut: it names every predicate id
    /// the cut's tiers use.
    pub(crate) preds: Arc<PredicateIndex>,
}

impl BrokerSnapshot {
    /// Matches one event, appending its matches to `out` in no particular
    /// order: phase 1 once against the cut's index, then every stripe's
    /// phase 2 on its output. Returns the event's stats.
    pub(crate) fn match_into(
        &self,
        event: &Event,
        s: &mut ReadScratch,
        out: &mut Vec<SubscriptionId>,
    ) -> EngineStats {
        let start = out.len();
        let t0 = Instant::now();
        s.satisfied.clear();
        self.preds.eval_into(event, &mut s.bits, &mut s.satisfied);
        let t1 = Instant::now();
        let checked = self.phase2(event, &s.bits, &s.satisfied, &mut s.view, out);
        s.bits.clear();
        let phase2 = t1.elapsed().as_nanos() as u64;
        let mut stats = EngineStats::default();
        let matched = (out.len() - start) as u64;
        record_phases(&mut stats, nanos(t0, t1), phase2, checked, matched);
        stats
    }

    /// Batched [`BrokerSnapshot::match_into`]: one attribute-major phase 1
    /// for the whole batch, then per event materialize and phase 2,
    /// appending to the parallel vector of `out`.
    pub(crate) fn match_batch_into(
        &self,
        events: &[Event],
        s: &mut ReadScratch,
        out: &mut [Vec<SubscriptionId>],
    ) -> EngineStats {
        let t0 = Instant::now();
        self.preds.eval_batch_into(events, &mut s.batch);
        // Attribute the amortised phase-1 cost evenly across the batch.
        let phase1 = nanos(t0, Instant::now()) / events.len().max(1) as u64;
        let mut stats = EngineStats::default();
        for (i, (event, dst)) in events.iter().zip(out.iter_mut()).enumerate() {
            let start = dst.len();
            let tm = Instant::now();
            self.preds.materialize(&mut s.batch, i);
            let t2 = Instant::now();
            let (bits, satisfied) = (s.batch.bits(i), s.batch.satisfied(i));
            let checked = self.phase2(event, bits, satisfied, &mut s.view, dst);
            s.batch.clear_event(i);
            let phase2 = t2.elapsed().as_nanos() as u64;
            let matched = (dst.len() - start) as u64;
            record_phases(&mut stats, phase1 + nanos(tm, t2), phase2, checked, matched);
        }
        stats
    }

    /// Every stripe's phase 2 on one event's phase-1 output; returns the
    /// subscriptions checked.
    fn phase2(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        satisfied: &[PredicateId],
        view: &mut ViewScratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let shards = self.shards.iter();
        shards
            .map(|shard| shard.match_into(event, bits, satisfied, view, out))
            .sum()
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
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
    /// Predicates in the published snapshot's broker-wide index: those its
    /// frozen tiers name (L0 needs none).
    pub predicates: usize,
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
