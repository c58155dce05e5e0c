//! A thread-safe broker handle with a lock-free publish path.
//!
//! The matching engines are single-writer structures. `SharedBroker` splits
//! the subscription set across `N` stripes (`stripe = id mod N`), each a
//! plain subscription table (`SubTable`: ids, validities,
//! expiry, clock) next to the `ShardSnap` published from it. All stripes,
//! and the predicate registry their tiers share, live inside one writer
//! mutex.
//!
//! **Publishes take no locks at all**: every mutation that changes a stripe
//! publishes an immutable `BrokerSnapshot` through an
//! epoch-protected [`pubsub_core::RcuCell`], and publishers pin the current
//! snapshot, match it with per-thread scratch (phase 1 once against the
//! snapshot's broker-wide predicate index, then every tier's phase 2 on its
//! bit vector) and unpin — zero contention between concurrent publishers,
//! and between publishers and mutators. Mutators serialize on the writer
//! mutex, apply the change to the owning stripe's table, record it in that
//! stripe's snapshot state (an L0 entry or a tombstone on a frozen tier;
//! tiers merge geometrically, see [`crate::rcu`]), and flip the snapshot
//! pointer if some stripe changed; old snapshots are reclaimed once every
//! reader epoch has passed. The frozen tiers are the only engines this
//! handle owns — a subscription is indexed once, a predicate once. See
//! DESIGN.md §12 for the full protocol.
//!
//! Lock order, stated once: `writer < vocab < sessions < wal`. Every
//! multi-lock path acquires in that order.
//!
//! Consequences, documented rather than hidden:
//!
//! * A publish observes one immutable snapshot — it never sees a torn cut
//!   of a concurrent mutation. Mutations become visible in their
//!   serialization order, one flip each; a clock advance expires every
//!   stripe in a single flip (none when nothing expires).
//! * Each stripe's engine keeps stripe-local optimizer statistics (the
//!   dynamic algorithm clusters each partition independently).
//! * Attribute/string interning lives in one shared [`Vocabulary`], and
//!   predicate interning in one registry, so ids mean the same thing on
//!   every stripe.
//!
//! The stripes are the tree's one way to partition subscriptions: a single
//! [`crate::Broker`] is one engine on one thread, and `SharedBroker` is what
//! many threads drive.

use crate::durable::{BrokerError, DurabilityStatus};
use crate::rcu::{BrokerSnapshot, RcuStatus, ReadScratch, Registry, ShardSnap};
use crate::table::SubTable;
use crate::time::{LogicalTime, Validity};
use parking_lot::Mutex;
use pubsub_core::{EngineKind, EngineStats, RcuCell};
use pubsub_durability::{
    replication, DurabilityConfig, Lsn, Recovered, RecoveryReport, SnapshotState, Wal, WalError,
    WalOp,
};
use pubsub_types::metrics::Counter;
use pubsub_types::{AttrId, Event, Subscription, SubscriptionId, Symbol, Value, Vocabulary};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Snapshot pointer flips performed by the writer path.
static SNAPSHOT_FLIPS: Counter = Counter::new("broker.shared.snapshot_flips");

thread_local! {
    /// Per-thread publish scratch: thread-local, not a shared pool, so
    /// concurrent publishers never serialize on scratch acquisition.
    static PUBLISH_SCRATCH: RefCell<ReadScratch> = RefCell::new(ReadScratch::default());
}

/// Relaxed aggregate of the per-publish engine stats: the frozen tiers are
/// matched through shared references, so per-event counts and phase
/// timings live here.
#[derive(Default)]
struct RcuStatsAgg {
    events: AtomicU64,
    phase1_nanos: AtomicU64,
    phase2_nanos: AtomicU64,
    checked: AtomicU64,
    matches: AtomicU64,
}

impl RcuStatsAgg {
    fn fold(&self, s: EngineStats) {
        if s.events == 0 {
            return;
        }
        self.events.fetch_add(s.events, Ordering::Relaxed);
        self.phase1_nanos
            .fetch_add(s.phase1_nanos, Ordering::Relaxed);
        self.phase2_nanos
            .fetch_add(s.phase2_nanos, Ordering::Relaxed);
        self.checked
            .fetch_add(s.subscriptions_checked, Ordering::Relaxed);
        self.matches.fetch_add(s.matches, Ordering::Relaxed);
    }

    fn load(&self) -> EngineStats {
        EngineStats {
            events: self.events.load(Ordering::Relaxed),
            phase1_nanos: self.phase1_nanos.load(Ordering::Relaxed),
            phase2_nanos: self.phase2_nanos.load(Ordering::Relaxed),
            subscriptions_checked: self.checked.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            ..EngineStats::default()
        }
    }
}

/// The durability attachment of a [`SharedBroker`].
///
/// Mutations append to the WAL *before* applying in memory (write-ahead
/// discipline): an op that fails to log is never applied, so recovery can
/// only ever observe a prefix of the acknowledged history. The RCU snapshot
/// flip happens *after* the in-memory apply, still under the writer lock —
/// so a publish can trail the WAL (a logged subscription not yet visible to
/// matching) but never lead it.
struct DurableState {
    wal: Mutex<Wal>,
    /// Sticky read-only flag, set by the first failed durability write.
    degraded: AtomicBool,
    /// The error that caused degradation (first one wins).
    cause: Mutex<Option<WalError>>,
    /// What recovery did when this broker was opened.
    recovery: RecoveryReport,
}

impl DurableState {
    /// Refuses mutations once degraded.
    fn check(&self) -> Result<(), BrokerError> {
        if self.degraded.load(Ordering::Acquire) {
            let cause = self.cause.lock().clone().unwrap_or(WalError::Poisoned);
            Err(BrokerError::Degraded(cause))
        } else {
            Ok(())
        }
    }

    /// Flips the broker into read-only degraded mode, recording the first
    /// cause, and returns the error to surface to the caller.
    fn degrade(&self, e: WalError) -> BrokerError {
        let mut cause = self.cause.lock();
        if cause.is_none() {
            *cause = Some(e.clone());
        }
        drop(cause);
        self.degraded.store(true, Ordering::Release);
        BrokerError::Degraded(e)
    }
}

/// The durable token → subscription owner map.
///
/// Sessions exist so a network client can crash, reconnect (possibly to a
/// restarted server or a promoted replica) and find its subscriptions
/// intact. The table is broker state, not server state: every change is
/// logged through the WAL on durable brokers (and therefore replicates),
/// and in-memory brokers keep the same table without the log, so the
/// server's registry behaves identically in both modes.
///
/// The `owner` reverse map serves two jobs: O(1) ownership checks, and
/// **steal semantics** on bind replay — a leader crash between a
/// `SessionBind` and its paired `Subscribe` leaves the peeked id unconsumed,
/// so a later run may reissue it to another session; replaying both binds
/// must leave the id owned by the later (winning) session only.
#[derive(Debug, Clone)]
struct SessionTable {
    /// One past the largest token ever issued. Tokens start at 1: 0 is the
    /// wire protocol's "new session, please" sentinel.
    next_token: u64,
    sessions: HashMap<u64, BTreeSet<u32>>,
    /// Reverse map: subscription id → owning token.
    owner: HashMap<u32, u64>,
}

impl SessionTable {
    fn new() -> Self {
        SessionTable {
            next_token: 1,
            sessions: HashMap::new(),
            owner: HashMap::new(),
        }
    }

    /// Registers `token`, bumping the high-water so it is never reissued.
    /// Idempotent under replay of a log that was recovered with skips.
    fn create(&mut self, token: u64) {
        self.sessions.entry(token).or_default();
        self.next_token = self.next_token.max(token + 1);
    }

    fn contains(&self, token: u64) -> bool {
        self.sessions.contains_key(&token)
    }

    /// Binds `id` to `token`, stealing it from any prior owner. A bind to a
    /// token the table does not hold is dropped (only reachable through a
    /// log recovered under the skip policy, where the `SessionCreate` may
    /// have been lost).
    fn bind(&mut self, token: u64, id: u32) {
        if !self.sessions.contains_key(&token) {
            return;
        }
        if let Some(prev) = self.owner.insert(id, token) {
            if prev != token {
                if let Some(set) = self.sessions.get_mut(&prev) {
                    set.remove(&id);
                }
            }
        }
        self.sessions.entry(token).or_default().insert(id);
    }

    /// Unbinds `id` from `token` (no-op if not bound there).
    fn release(&mut self, token: u64, id: u32) {
        if let Some(set) = self.sessions.get_mut(&token) {
            if set.remove(&id) {
                self.owner.remove(&id);
            }
        }
    }

    /// Removes `token`'s session, returning its bound ids (sorted).
    fn reap(&mut self, token: u64) -> Vec<u32> {
        let Some(set) = self.sessions.remove(&token) else {
            return Vec::new();
        };
        for id in &set {
            self.owner.remove(id);
        }
        set.into_iter().collect()
    }

    /// The token the next [`SessionTable::create`] should use.
    fn peek_next_token(&self) -> u64 {
        self.next_token
    }

    /// The session owning `id`, if any.
    fn owner_of(&self, id: u32) -> Option<u64> {
        self.owner.get(&id).copied()
    }

    /// Drops bindings whose subscription is not alive in `is_live`. This is
    /// the one deterministic repair recovery needs: a crash between a
    /// `SessionBind` and its `Subscribe` (or between an `Unsubscribe` and
    /// its `SessionRelease`) leaves a binding pointing at a dead id — never
    /// the reverse, because binds are logged before subscribes and
    /// unsubscribes before releases. Run **only** on a writable broker
    /// (leader open, promotion): a follower's dangling binding may simply
    /// be a `Subscribe` the stream has not delivered yet.
    fn prune_dangling(&mut self, mut is_live: impl FnMut(u32) -> bool) -> usize {
        let dangling: Vec<(u32, u64)> = self
            .owner
            .iter()
            .filter(|(id, _)| !is_live(**id))
            .map(|(id, token)| (*id, *token))
            .collect();
        for (id, token) in &dangling {
            self.owner.remove(id);
            if let Some(set) = self.sessions.get_mut(token) {
                set.remove(id);
            }
        }
        dangling.len()
    }

    /// The table as sorted `(token, ids)` rows (snapshot encoding order).
    fn to_rows(&self) -> Vec<(u64, Vec<u32>)> {
        let mut rows: Vec<(u64, Vec<u32>)> = self
            .sessions
            .iter()
            .map(|(token, ids)| (*token, ids.iter().copied().collect()))
            .collect();
        rows.sort_by_key(|(token, _)| *token);
        rows
    }

    fn from_snapshot(next_token: u64, rows: Vec<(u64, Vec<u32>)>) -> Self {
        let mut table = SessionTable::new();
        table.next_token = next_token.max(1);
        for (token, ids) in rows {
            table.create(token);
            for id in ids {
                table.bind(token, id);
            }
        }
        table
    }
}

/// One stripe of the subscription set: the authoritative table and the
/// snapshot state published from it.
struct Stripe {
    table: SubTable,
    snap: ShardSnap,
}

/// The authoritative subscription state, inside the writer mutex: the
/// stripes and the broker-wide predicate registry their tiers are built
/// against.
struct Writer {
    stripes: Vec<Stripe>,
    preds: Registry,
}

impl Writer {
    /// Wraps `tables`, freezing each live set as its stripe's first base.
    fn new(tables: Vec<SubTable>, kind: EngineKind) -> Self {
        let mut preds = Registry::new();
        let stripes = tables
            .into_iter()
            .map(|table| Stripe {
                snap: ShardSnap::frozen(kind, &table, &mut preds),
                table,
            })
            .collect();
        Writer { stripes, preds }
    }

    /// The stripe owning `id` (ids are striped across stripes).
    fn stripe_of(&self, id: SubscriptionId) -> usize {
        id.0 as usize % self.stripes.len()
    }

    fn contains(&self, id: SubscriptionId) -> bool {
        self.stripes[self.stripe_of(id)].table.contains(id)
    }

    fn insert(&mut self, stripe: usize, sub: Subscription, validity: Validity) -> SubscriptionId {
        let sub = Arc::new(sub);
        let Stripe { table, snap } = &mut self.stripes[stripe];
        let id = table.insert(Arc::clone(&sub), validity);
        snap.note_insert(id, sub, table, &mut self.preds);
        id
    }

    /// Applies a replicated `Subscribe` record under the id the leader
    /// assigned.
    fn restore_one(&mut self, id: SubscriptionId, sub: Subscription, validity: Validity) {
        let sub = Arc::new(sub);
        let i = self.stripe_of(id);
        let Stripe { table, snap } = &mut self.stripes[i];
        if table.restore_one(id, Arc::clone(&sub), validity) || !snap.is_unfrozen(id) {
            // A duplicate id (damaged log, skip policy) replaced a record
            // the snapshot may hold, or an out-of-order id fell inside a
            // frozen tier's range: re-freeze.
            snap.freeze(table, &mut self.preds);
        } else {
            snap.note_insert(id, sub, table, &mut self.preds);
        }
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        let i = self.stripe_of(id);
        let Stripe { table, snap } = &mut self.stripes[i];
        let removed = table.remove(id);
        if removed {
            snap.note_remove(id, table, &mut self.preds);
        }
        removed
    }

    /// Advances every stripe's clock, tombstoning every expiry. Returns the
    /// number of expired subscriptions.
    fn advance_to(&mut self, t: LogicalTime) -> usize {
        let mut expired = Vec::new();
        for Stripe { table, snap } in &mut self.stripes {
            let from = expired.len();
            table.advance_to(t, |id| expired.push(id));
            for &id in &expired[from..] {
                snap.note_remove(id, table, &mut self.preds);
            }
        }
        expired.len()
    }

    /// Current logical time (all stripes tick together).
    fn now(&self) -> LogicalTime {
        self.stripes[0].table.now()
    }

    /// Replaces every stripe's table and re-freezes it.
    fn reset(&mut self, tables: Vec<SubTable>) {
        for (stripe, table) in self.stripes.iter_mut().zip(tables) {
            stripe.table = table;
            stripe.snap.freeze(&stripe.table, &mut self.preds);
        }
    }

    /// Re-freezes every stripe that is not a single clean base; returns
    /// whether any was.
    fn compact(&mut self) -> bool {
        let mut changed = false;
        for Stripe { table, snap } in &mut self.stripes {
            if !snap.is_compact() {
                snap.freeze(table, &mut self.preds);
                changed = true;
            }
        }
        changed
    }

    /// One consistent cut of the stripes' snapshot states and the registry.
    fn snapshot(&mut self) -> Arc<BrokerSnapshot> {
        Arc::new(BrokerSnapshot {
            shards: self.stripes.iter().map(|s| s.snap.clone()).collect(),
            preds: self.preds.published(),
        })
    }
}

/// Live `(id, subscription, validity)` rows across all stripes, stripe by
/// stripe and in id order within each.
fn live_rows(
    stripes: &[Stripe],
) -> impl Iterator<Item = (SubscriptionId, &Subscription, Validity)> {
    stripes.iter().flat_map(|stripe| stripe.table.iter())
}

struct Inner {
    vocab: Mutex<Vocabulary>,
    /// Round-robin cursor distributing new subscriptions over stripes.
    next_stripe: AtomicUsize,
    /// Write-ahead log plus degraded-mode state; `None` for the in-memory
    /// broker of [`SharedBroker::new`].
    durable: Option<DurableState>,
    /// `true` while this broker is a replication follower: its log is a
    /// replica of a remote leader's, so local mutations are refused (they
    /// would fork the history) and state changes arrive only through
    /// [`SharedBroker::apply_replicated`]. Cleared by
    /// [`SharedBroker::promote`].
    follower: AtomicBool,
    /// Engine kind of the frozen tiers.
    kind: EngineKind,
    /// Stripe count (fixed at construction; readable without the lock).
    stripes: usize,
    /// The durable session table (token → owned subscription ids). Kept on
    /// every broker — in-memory brokers just skip the logging — so the net
    /// server's registry has one source of truth in all modes.
    sessions: Mutex<SessionTable>,
    /// The authoritative subscription state, first in the lock order.
    /// Mutators update it in place and publish a clone of the stripes'
    /// snapshots through `published`.
    writer: Mutex<Writer>,
    /// The epoch-protected snapshot the publish path reads.
    published: RcuCell<BrokerSnapshot>,
    /// Snapshot flips, mirrored outside the metrics feature so `stats` can
    /// always report it.
    flips: AtomicU64,
    /// Aggregated read-path engine stats.
    rcu_stats: RcuStatsAgg,
}

/// Captures the full broker state for a point-in-time snapshot. Caller
/// holds the writer, vocabulary and session locks, so the state is a
/// consistent cut.
fn build_snapshot_state(
    vocab: &Vocabulary,
    sessions: &SessionTable,
    stripes: &[Stripe],
) -> SnapshotState {
    // Interners assign dense sequential ids; storing names in id order makes
    // re-interning them in order reproduce identical ids at recovery.
    let mut attrs: Vec<(AttrId, &str)> = vocab.attrs.iter().collect();
    attrs.sort_by_key(|(id, _)| id.0);
    let mut strings: Vec<(Symbol, &str)> = vocab.strings.iter().collect();
    strings.sort_by_key(|(sym, _)| sym.0);
    let mut subs: Vec<(SubscriptionId, Subscription, Validity)> = live_rows(stripes)
        .map(|(id, sub, validity)| (id, sub.clone(), validity))
        .collect();
    subs.sort_by_key(|(id, _, _)| id.0);
    SnapshotState {
        now: stripes[0].table.now(),
        high_water_id: stripes
            .iter()
            .map(|stripe| stripe.table.assigned_id_high_water())
            .max()
            .unwrap_or(0),
        attrs: attrs
            .into_iter()
            .map(|(_, name)| name.to_string())
            .collect(),
        strings: strings.into_iter().map(|(_, s)| s.to_string()).collect(),
        subs,
        next_token: sessions.peek_next_token(),
        sessions: sessions.to_rows(),
    }
}

/// Rebuilds the in-memory state (vocabulary, stripe tables, sessions) that
/// a recovered snapshot-plus-log-tail describes. Shared by durable open,
/// follower open, and mid-run snapshot installation on a follower.
fn rebuild_state(
    n: usize,
    snapshot: Option<SnapshotState>,
    ops: Vec<(Lsn, WalOp)>,
) -> (Vocabulary, Vec<SubTable>, SessionTable) {
    let mut vocab = Vocabulary::new();
    let mut sessions = SessionTable::new();
    let mut tables: Vec<SubTable> = (0..n)
        .map(|i| SubTable::with_id_lane(i as u32, n as u32))
        .collect();

    if let Some(snap) = snapshot {
        // Re-interning in stored (id) order reproduces identical ids,
        // so AttrId/Symbol references inside subscriptions stay valid.
        for name in &snap.attrs {
            vocab.attr(name);
        }
        for s in &snap.strings {
            vocab.string(s);
        }
        let mut per_stripe: Vec<Vec<(SubscriptionId, Subscription, Validity)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (id, sub, validity) in snap.subs {
            per_stripe[id.0 as usize % n].push((id, sub, validity));
        }
        for (table, entries) in tables.iter_mut().zip(per_stripe) {
            table.restore(entries, snap.now);
            // Ids assigned before the snapshot but already retired are
            // absent from it; never reissue them to new subscribers.
            table.reserve_ids_below(snap.high_water_id);
        }
        sessions = SessionTable::from_snapshot(snap.next_token, snap.sessions);
    }

    // Replay the WAL tail: its order is the original apply order, because
    // live mutations append under the writer lock.
    for (_lsn, op) in ops {
        match op {
            WalOp::InternAttr(name) => {
                vocab.attr(&name);
            }
            WalOp::InternString(s) => {
                vocab.string(&s);
            }
            WalOp::Subscribe { id, sub, validity } => {
                tables[id.0 as usize % n].restore_one(id, Arc::new(sub), validity);
            }
            WalOp::Unsubscribe(id) => {
                tables[id.0 as usize % n].remove(id);
            }
            WalOp::AdvanceTo(t) => {
                for table in tables.iter_mut() {
                    // `t == now` advances are real (they expire stale
                    // validities); the `<` guard only tolerates logs
                    // recovered under the skip policy, where a surviving
                    // op may predate the clock.
                    if t >= table.now() {
                        table.advance_to(t, |_| {});
                    }
                }
            }
            WalOp::SessionCreate { token } => sessions.create(token),
            WalOp::SessionBind { token, id } => sessions.bind(token, id.0),
            WalOp::SessionRelease { token, id } => sessions.release(token, id.0),
            WalOp::SessionReap { token } => {
                // The reaped session's unsubscribes are re-derived from the
                // table, mirroring how AdvanceTo re-derives expiries.
                for id in sessions.reap(token) {
                    tables[id as usize % n].remove(SubscriptionId(id));
                }
            }
        }
    }
    (vocab, tables, sessions)
}

/// A cloneable, thread-safe broker handle: lock-free publishes, mutations
/// serialized on one writer mutex.
#[derive(Clone)]
pub struct SharedBroker {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SharedBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBroker")
            .field("shards", &self.shard_count())
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}

impl SharedBroker {
    /// Creates an in-memory broker partitioned over `shards` stripes of the
    /// given engine kind (clamped to at least 1). There is no event store:
    /// this handle is the fire-and-forget publish surface.
    pub fn new(kind: EngineKind, shards: usize) -> Self {
        let (vocab, tables, sessions) = rebuild_state(shards.max(1), None, Vec::new());
        Self::assemble(kind, vocab, tables, sessions, None)
    }

    /// Builds the handle around recovered (or empty) state, freezing each
    /// table as its stripe's first published base — so lock-free publishes
    /// see a recovered subscription set from the first event onward.
    fn assemble(
        kind: EngineKind,
        vocab: Vocabulary,
        tables: Vec<SubTable>,
        sessions: SessionTable,
        durable: Option<DurableState>,
    ) -> Self {
        let mut writer = Writer::new(tables, kind);
        Self {
            inner: Arc::new(Inner {
                vocab: Mutex::new(vocab),
                sessions: Mutex::new(sessions),
                next_stripe: AtomicUsize::new(0),
                durable,
                follower: AtomicBool::new(false),
                kind,
                stripes: writer.stripes.len(),
                published: RcuCell::new(writer.snapshot()),
                writer: Mutex::new(writer),
                flips: AtomicU64::new(0),
                rcu_stats: RcuStatsAgg::default(),
            }),
        }
    }

    /// Opens (or creates) a durable broker backed by a segmented WAL in
    /// `dir`, with the default [`DurabilityConfig`]. Recovers any state a
    /// previous process logged there: the newest decodable snapshot plus the
    /// surviving WAL tail, with a torn final record truncated away. Returns
    /// the broker and a [`RecoveryReport`] describing what recovery did.
    pub fn open_durable(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        Self::open_durable_with(kind, shards, dir, DurabilityConfig::default())
    }

    /// [`SharedBroker::open_durable`] with an explicit durability
    /// configuration (segment size, fsync cadence, corruption policy,
    /// automatic snapshot threshold).
    ///
    /// The shard count may differ from the one the log was written under:
    /// ids carry their own identity (`shard = id mod N`), so recovery
    /// re-partitions the subscription set over the new shard count.
    pub fn open_durable_with(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        Self::open_durable_inner(kind, shards, dir, config, true)
    }

    /// The shared open path. `prune_sessions` runs the dangling-binding
    /// repair (a binding whose subscription is dead, left by a crash
    /// between the two records of a bound subscribe/unsubscribe pair).
    /// Leaders prune; followers must not — their dangling binding may be a
    /// `Subscribe` the replication stream has not delivered yet, and
    /// pruning it would orphan the subscription when it arrives. Promotion
    /// runs the same repair once the stream is sealed.
    fn open_durable_inner(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
        prune_sessions: bool,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        let n = shards.max(1);
        let (wal, recovered) = Wal::open(dir, config).map_err(BrokerError::Recovery)?;
        let Recovered {
            snapshot,
            ops,
            report,
        } = recovered;
        let (vocab, tables, mut sessions) = rebuild_state(n, snapshot, ops);
        if prune_sessions {
            sessions.prune_dangling(|id| tables[id as usize % n].contains(SubscriptionId(id)));
        }
        let durable = DurableState {
            wal: Mutex::new(wal),
            degraded: AtomicBool::new(false),
            cause: Mutex::new(None),
            recovery: report,
        };
        let broker = Self::assemble(kind, vocab, tables, sessions, Some(durable));
        Ok((broker, report))
    }

    /// Opens a **replication follower**: a durable broker whose WAL
    /// directory replicates a remote leader's log. The broker serves
    /// matching (publishes are read-only) but refuses every local mutation
    /// with [`BrokerError::Follower`]; state changes arrive exclusively via
    /// [`SharedBroker::apply_replicated`] /
    /// [`SharedBroker::install_replicated_snapshot`], and
    /// [`SharedBroker::promote`] turns it into a writable leader.
    ///
    /// The directory is branded with a follower marker file. A directory
    /// holding durable history written by a *non*-follower is refused
    /// ([`BrokerError::ForeignHistory`]): tailing a leader into it would
    /// interleave two unrelated logs.
    pub fn open_follower(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        let dir = dir.as_ref();
        if replication::dir_has_history(dir).map_err(BrokerError::Recovery)?
            && !replication::is_follower_dir(dir)
        {
            return Err(BrokerError::ForeignHistory(dir.to_path_buf()));
        }
        replication::mark_follower(dir).map_err(BrokerError::Replication)?;
        // `prune_sessions: false` — see `open_durable_inner`.
        let (broker, report) = Self::open_durable_inner(kind, shards, dir, config, false)?;
        broker.inner.follower.store(true, Ordering::Release);
        Ok((broker, report))
    }

    /// Creates a broker with one shard per available hardware thread.
    pub fn with_default_shards(kind: EngineKind) -> Self {
        Self::new(kind, pubsub_core::default_shards())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.stripes
    }

    /// The engine kind of the frozen tiers.
    pub fn engine_kind(&self) -> EngineKind {
        self.inner.kind
    }

    /// The stripe the next subscription lands on (round-robin keeps stripes
    /// balanced).
    fn next_stripe(&self) -> usize {
        self.inner.next_stripe.fetch_add(1, Ordering::Relaxed) % self.inner.stripes
    }

    // ---- RCU snapshot plumbing -------------------------------------------

    /// Publishes the writer state as a new immutable snapshot. Caller holds
    /// the writer lock, which serializes flips.
    fn flip(&self, writer: &mut Writer) {
        self.inner.published.publish(writer.snapshot());
        self.inner.flips.fetch_add(1, Ordering::Relaxed);
        SNAPSHOT_FLIPS.inc();
    }

    /// Point-in-time view of the RCU machinery: flips, epoch, deferred
    /// reclamation, pinned readers, and the published tier shape.
    pub fn rcu_status(&self) -> RcuStatus {
        let (tiers, l0, built, predicates) = {
            let snap = self.inner.published.pin();
            let (tiers, l0, built) = snap
                .shards
                .iter()
                .map(ShardSnap::shape)
                .fold((0, 0, 0), |(t, l, b), (st, sl, sb)| {
                    (t + st, l + sl, b + sb)
                });
            (tiers, l0, built, snap.preds.len())
        };
        RcuStatus {
            flips: self.inner.flips.load(Ordering::Relaxed),
            epoch: self.inner.published.epoch(),
            retired: self.inner.published.retired_len(),
            active_readers: self.inner.published.active_readers(),
            tiers,
            l0,
            built,
            predicates,
        }
    }

    /// Aggregated engine stats of the publish path: per-event counts and
    /// phase timings folded in from every publishing thread's scratch.
    pub fn rcu_stats(&self) -> EngineStats {
        self.inner.rcu_stats.load()
    }

    /// Rebuilds every stripe that holds more than one frozen tier, an L0
    /// entry or a tombstone as a single base engine, and drains reclaimable
    /// snapshot garbage. Publishes stay lock-free throughout. A compacted
    /// stripe runs one engine per event instead of one per tier, so this
    /// is useful before latency measurements and in quiet periods; the
    /// tiers keep publishes fast without it.
    pub fn compact(&self) {
        let mut writer = self.inner.writer.lock();
        if writer.compact() {
            self.flip(&mut writer);
        }
        drop(writer);
        self.inner.published.reclaim();
    }

    // ---- vocabulary (shared across shards) -------------------------------

    /// Interns an attribute name in the shared vocabulary.
    ///
    /// On a durable broker a *new* name is logged before being interned, so
    /// recovery reassigns the same [`AttrId`]. Interning stays infallible:
    /// if the log write fails the broker degrades (mutations start refusing)
    /// but the id is still returned — safe because a degraded broker never
    /// logs another op that could reference the unlogged id.
    pub fn attr(&self, name: &str) -> AttrId {
        let mut vocab = self.inner.vocab.lock();
        if let Some(id) = vocab.attrs.get(name) {
            return id;
        }
        assert!(
            !self.is_follower(),
            "interning a new name on a replication follower would fork its \
             vocabulary from the leader's; use lookup_attr / read_vocab"
        );
        self.log_intern(|| WalOp::InternAttr(name.to_string()));
        vocab.attr(name)
    }

    /// Interns a string value in the shared vocabulary (durable brokers log
    /// new strings first — see [`SharedBroker::attr`]).
    pub fn string(&self, s: &str) -> Value {
        let mut vocab = self.inner.vocab.lock();
        if let Some(sym) = vocab.strings.get(s) {
            return Value::Str(sym);
        }
        assert!(
            !self.is_follower(),
            "interning a new string on a replication follower would fork its \
             vocabulary from the leader's; use lookup_string / read_vocab"
        );
        self.log_intern(|| WalOp::InternString(s.to_string()));
        vocab.string(s)
    }

    /// Resolves an attribute name without interning — the publish-side
    /// lookup a replication follower must use: a name the leader never
    /// interned cannot appear in any subscription, so an event pair naming
    /// it can simply be dropped (it can match nothing). On a follower every
    /// publish and subscribe path resolves this way, never through
    /// [`SharedBroker::with_vocab`], whose follower check can only fire
    /// after its closure has already interned: the network server drops
    /// such pairs (still refusing an event that names one twice), gives an
    /// unknown string the symbol the next intern would take, and refuses
    /// a subscribe before interning anything.
    pub fn lookup_attr(&self, name: &str) -> Option<AttrId> {
        self.inner.vocab.lock().attrs.get(name)
    }

    /// Resolves a string value without interning (see
    /// [`SharedBroker::lookup_attr`] for why followers need this).
    pub fn lookup_string(&self, s: &str) -> Option<Value> {
        self.inner.vocab.lock().strings.get(s).map(Value::Str)
    }

    /// Runs `f` with read-only access to the shared vocabulary. Safe on
    /// followers (cannot intern, so cannot fork the replicated history).
    pub fn read_vocab<R>(&self, f: impl FnOnce(&Vocabulary) -> R) -> R {
        f(&self.inner.vocab.lock())
    }

    /// Logs an interning op on durable brokers, degrading silently on
    /// failure. Caller holds the vocabulary lock (lock order: vocab < wal).
    fn log_intern(&self, op: impl FnOnce() -> WalOp) {
        if let Some(durable) = &self.inner.durable {
            if !durable.degraded.load(Ordering::Acquire) {
                if let Err(e) = durable.wal.lock().append(&op()) {
                    let _ = durable.degrade(e);
                }
            }
        }
    }

    /// Runs `f` with mutable access to the shared vocabulary — the escape
    /// hatch for parsers that intern whole expressions at once. On durable
    /// brokers every interner entry `f` adds is logged afterwards (interner
    /// ids are dense and sequential, so the additions are exactly the id
    /// range grown during the call), with the same silent-degrade contract
    /// as [`SharedBroker::attr`].
    pub fn with_vocab<R>(&self, f: impl FnOnce(&mut Vocabulary) -> R) -> R {
        let mut vocab = self.inner.vocab.lock();
        let attrs_before = vocab.attrs.universe();
        let strings_before = vocab.strings.len();
        let out = f(&mut vocab);
        assert!(
            !self.is_follower()
                || (vocab.attrs.universe() == attrs_before
                    && vocab.strings.len() == strings_before),
            "interning new entries on a replication follower would fork its \
             vocabulary from the leader's; use read_vocab"
        );
        for raw in attrs_before..vocab.attrs.universe() {
            let name = vocab.attrs.name(AttrId(raw as u32)).to_string();
            self.log_intern(move || WalOp::InternAttr(name));
        }
        for raw in strings_before..vocab.strings.len() {
            let s = vocab.strings.resolve(Symbol(raw as u32)).to_string();
            self.log_intern(move || WalOp::InternString(s));
        }
        out
    }

    // ---- subscriptions (writer lock) -------------------------------------

    /// Registers a subscription on the next stripe in round-robin order.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_subscribe`] to handle degradation gracefully.
    pub fn subscribe(&self, sub: Subscription, validity: Validity) -> SubscriptionId {
        self.try_subscribe(sub, validity)
            .expect("subscribe failed: durable broker is degraded")
    }

    /// Registers a subscription, logging it to the WAL first on durable
    /// brokers. Fails with [`BrokerError::Degraded`] when the broker has
    /// degraded to read-only mode (a previous durability write failed), or
    /// degrades it now if this op's log write fails — in which case the
    /// subscription is *not* registered.
    pub fn try_subscribe(
        &self,
        sub: Subscription,
        validity: Validity,
    ) -> Result<SubscriptionId, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        let stripe = self.next_stripe();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            // Log under the writer lock so WAL order equals apply order;
            // the id is peeked (not consumed) so a failed append leaves no
            // gap.
            let op = WalOp::Subscribe {
                id: writer.stripes[stripe].table.peek_next_id(),
                sub: sub.clone(),
                validity,
            };
            if let Err(e) = durable.wal.lock().append(&op) {
                return Err(durable.degrade(e));
            }
        }
        let id = writer.insert(stripe, sub, validity);
        self.flip(&mut writer);
        Ok(id)
    }

    /// Removes a subscription.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_unsubscribe`] to handle degradation gracefully.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.try_unsubscribe(id)
            .expect("unsubscribe failed: durable broker is degraded")
    }

    /// Removes a subscription, logging the removal first on durable brokers.
    /// A miss (unknown or already-removed id) returns `Ok(false)` without
    /// logging anything.
    pub fn try_unsubscribe(&self, id: SubscriptionId) -> Result<bool, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if !writer.contains(id) {
                return Ok(false);
            }
            if let Err(e) = durable.wal.lock().append(&WalOp::Unsubscribe(id)) {
                return Err(durable.degrade(e));
            }
        }
        let removed = writer.remove(id);
        if removed {
            self.flip(&mut writer);
        }
        Ok(removed)
    }

    /// Number of live subscriptions across all shards.
    pub fn subscription_count(&self) -> usize {
        self.shard_subscription_counts().iter().sum()
    }

    /// Live subscriptions per shard.
    pub fn shard_subscription_counts(&self) -> Vec<usize> {
        let writer = self.inner.writer.lock();
        writer
            .stripes
            .iter()
            .map(|stripe| stripe.table.len())
            .collect()
    }

    /// Calls `f` on every live subscription with its id and validity (one
    /// consistent cut; mutators wait while it runs).
    pub fn for_each_live_subscription(
        &self,
        mut f: impl FnMut(SubscriptionId, &Subscription, Validity),
    ) {
        let writer = self.inner.writer.lock();
        live_rows(&writer.stripes).for_each(|(id, sub, validity)| f(id, sub, validity));
    }

    // ---- durable sessions ------------------------------------------------

    /// Creates a session, returning its resume token (tokens start at 1; 0
    /// is the wire protocol's "new session" sentinel and is never issued).
    /// On durable brokers the `SessionCreate` record is logged before the
    /// table changes, so a restarted — or promoted — broker reissues
    /// neither this token nor any before it.
    pub fn try_session_create(&self) -> Result<u64, BrokerError> {
        self.check_writable()?;
        let mut sessions = self.inner.sessions.lock();
        let token = sessions.peek_next_token();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if let Err(e) = durable.wal.lock().append(&WalOp::SessionCreate { token }) {
                return Err(durable.degrade(e));
            }
        }
        sessions.create(token);
        Ok(token)
    }

    /// Registers a subscription owned by session `token`
    /// ([`BrokerError::UnknownSession`] if the token was never issued or
    /// its session was reaped). On durable brokers the pair is logged as
    /// `SessionBind` *then* `Subscribe` under one WAL hold: a crash between
    /// the two leaves a dangling binding (repaired at the next writable
    /// open), never an ownerless live subscription.
    pub fn try_subscribe_bound(
        &self,
        token: u64,
        sub: Subscription,
        validity: Validity,
    ) -> Result<SubscriptionId, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        let stripe = self.next_stripe();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            let id = writer.stripes[stripe].table.peek_next_id();
            let mut wal = durable.wal.lock();
            if let Err(e) = wal.append(&WalOp::SessionBind { token, id }) {
                return Err(durable.degrade(e));
            }
            let op = WalOp::Subscribe {
                id,
                sub: sub.clone(),
                validity,
            };
            if let Err(e) = wal.append(&op) {
                // The bind made it to disk alone; recovery's prune repairs
                // it. Nothing was applied in memory.
                return Err(durable.degrade(e));
            }
        }
        let id = writer.insert(stripe, sub, validity);
        sessions.bind(token, id.0);
        self.flip(&mut writer);
        Ok(id)
    }

    /// Removes a subscription owned by session `token`. Returns `Ok(false)`
    /// without logging when `id` is not currently bound to that session
    /// (idempotent, mirroring [`SharedBroker::try_unsubscribe`]); fails
    /// with [`BrokerError::UnknownSession`] when the session itself is
    /// gone. On durable brokers the pair is logged `Unsubscribe` *then*
    /// `SessionRelease` — the crash window again leaves only a dangling
    /// binding.
    pub fn try_unsubscribe_bound(
        &self,
        token: u64,
        id: SubscriptionId,
    ) -> Result<bool, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        if sessions.owner_of(id.0) != Some(token) {
            return Ok(false);
        }
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if !writer.contains(id) {
                // A binding to a dead id cannot arise at runtime (only from
                // a torn log, repaired at open); drop it defensively.
                sessions.release(token, id.0);
                return Ok(false);
            }
            let mut wal = durable.wal.lock();
            if let Err(e) = wal.append(&WalOp::Unsubscribe(id)) {
                return Err(durable.degrade(e));
            }
            if let Err(e) = wal.append(&WalOp::SessionRelease { token, id }) {
                return Err(durable.degrade(e));
            }
        }
        let removed = writer.remove(id);
        sessions.release(token, id.0);
        if removed {
            self.flip(&mut writer);
        }
        Ok(removed)
    }

    /// Reaps a session: logs **one** `SessionReap` record, removes the
    /// session from the table, and unsubscribes every subscription it
    /// owned (returned sorted). The per-subscription unsubscribes are not
    /// logged — replay re-derives them from the table, exactly as
    /// `AdvanceTo` re-derives expiries — so reaping a thousand-subscription
    /// session costs one record. All removals land in a single RCU flip.
    pub fn try_session_reap(&self, token: u64) -> Result<Vec<SubscriptionId>, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if let Err(e) = durable.wal.lock().append(&WalOp::SessionReap { token }) {
                return Err(durable.degrade(e));
            }
        }
        let ids: Vec<SubscriptionId> = sessions
            .reap(token)
            .into_iter()
            .map(SubscriptionId)
            .collect();
        for &id in &ids {
            writer.remove(id);
        }
        if !ids.is_empty() {
            self.flip(&mut writer);
        }
        Ok(ids)
    }

    /// The subscription ids bound to session `token` (sorted), or `None`
    /// for an unknown/reaped token. Works on followers — this is how a
    /// server hydrates its registry from replicated session state.
    pub fn session_subscriptions(&self, token: u64) -> Option<Vec<SubscriptionId>> {
        let sessions = self.inner.sessions.lock();
        sessions
            .sessions
            .get(&token)
            .map(|set| set.iter().map(|&id| SubscriptionId(id)).collect())
    }

    /// Every durable session as sorted `(token, subscription ids)` rows —
    /// the server's startup hydration source.
    pub fn session_rows(&self) -> Vec<(u64, Vec<SubscriptionId>)> {
        self.inner
            .sessions
            .lock()
            .to_rows()
            .into_iter()
            .map(|(token, ids)| (token, ids.into_iter().map(SubscriptionId).collect()))
            .collect()
    }

    /// Number of live sessions in the table.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().sessions.len()
    }

    // ---- events (no locks) -----------------------------------------------

    /// Publishes an event, returning the matched subscriptions sorted by id.
    pub fn publish(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut out = Vec::new();
        self.publish_into(event, &mut out);
        out
    }

    /// Publishes an event, appending the matched ids to `out` (sorted by id
    /// within this publish): pin the current snapshot, run phase 1 once and
    /// every shard's phase 2 with this thread's scratch, unpin, sort. Nothing here blocks or
    /// contends — the pin is two atomic writes to a thread-owned slot — and
    /// nothing is allocated beyond what `out` needs.
    pub fn publish_into(&self, event: &Event, out: &mut Vec<SubscriptionId>) {
        crate::broker::PUBLISHES.inc();
        let start = out.len();
        let snap = self.inner.published.pin();
        let stats =
            PUBLISH_SCRATCH.with(|cell| snap.match_into(event, &mut cell.borrow_mut(), out));
        drop(snap);
        self.inner.rcu_stats.fold(stats);
        out[start..].sort_unstable();
    }

    /// Publishes a batch, returning one sorted match set per event.
    pub fn publish_batch(&self, events: &[Event]) -> Vec<Vec<SubscriptionId>> {
        let mut out = Vec::new();
        self.publish_batch_into(events, &mut out);
        out
    }

    /// Batched publish into a caller-owned buffer (one inner vector per
    /// event, reused across calls). One snapshot pin covers the whole
    /// batch, so every event in it matches against the same consistent cut.
    /// Phase 1 runs once for the whole batch. Scratch buffers are
    /// thread-local, so concurrent batch publishers never serialize on
    /// scratch acquisition and the steady state allocates nothing.
    pub fn publish_batch_into(&self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        out.resize_with(events.len(), Vec::new);
        out.truncate(events.len());
        for dst in out.iter_mut() {
            dst.clear();
        }
        if events.is_empty() {
            return;
        }
        crate::broker::PUBLISHES.add(events.len() as u64);
        let snap = self.inner.published.pin();
        let stats =
            PUBLISH_SCRATCH.with(|cell| snap.match_batch_into(events, &mut cell.borrow_mut(), out));
        drop(snap);
        self.inner.rcu_stats.fold(stats);
        for dst in out.iter_mut() {
            dst.sort_unstable();
        }
    }

    // ---- clock (writer lock, all shards in one flip) ----------------------

    /// Current logical time (all shards tick together).
    pub fn now(&self) -> LogicalTime {
        self.inner.writer.lock().now()
    }

    /// Advances every shard's clock to `t`, expiring subscriptions whose
    /// validity ended. Returns the number of expired subscriptions.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_advance_to`] to handle degradation gracefully.
    pub fn advance_to(&self, t: LogicalTime) -> usize {
        self.try_advance_to(t)
            .expect("advance_to failed: durable broker is degraded")
    }

    /// Advances the clock by one tick. Returns expired subscriptions.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_tick`] to handle degradation gracefully.
    pub fn tick(&self) -> usize {
        self.try_tick()
            .expect("tick failed: durable broker is degraded")
    }

    /// Advances every shard's clock to `t`, logging the advance first on
    /// durable brokers. Expired subscriptions are *not* logged individually:
    /// expiry is deterministic given the validities already in the log, so
    /// recovery re-derives it by replaying the clock.
    pub fn try_advance_to(&self, t: LogicalTime) -> Result<usize, BrokerError> {
        self.advance_locked(Some(t))
    }

    /// Advances the clock by one tick, logging it first on durable brokers.
    /// Returns expired subscriptions.
    pub fn try_tick(&self) -> Result<usize, BrokerError> {
        self.advance_locked(None)
    }

    /// The clock path shared by [`SharedBroker::try_advance_to`] (explicit
    /// target) and [`SharedBroker::try_tick`] (`now + 1`, computed under the
    /// writer lock). Also the automatic-snapshot trigger point: the writer
    /// lock is already held, so a due snapshot is a consistent cut.
    fn advance_locked(&self, t: Option<LogicalTime>) -> Result<usize, BrokerError> {
        self.check_writable()?;
        let mut writer = self.inner.writer.lock();
        let now = writer.now();
        let t = t.unwrap_or_else(|| now.plus(1));
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            // Validate before logging so a bad target never reaches the log.
            // Even `t == now` is logged: it can expire subscriptions whose
            // validity was already stale when they were registered, and
            // recovery must reproduce that.
            assert!(t >= now, "clock cannot go backwards");
            if let Err(e) = durable.wal.lock().append(&WalOp::AdvanceTo(t)) {
                return Err(durable.degrade(e));
            }
        }
        // All stripes' expiries land in the single flip below, so publishers
        // observe the clock advance atomically. The snapshot holds no clock:
        // an advance that expires nothing leaves it as it is.
        let expired = writer.advance_to(t);
        if expired > 0 {
            self.flip(&mut writer);
        }
        if let Some(durable) = &self.inner.durable {
            let vocab = self.inner.vocab.lock();
            let sessions = self.inner.sessions.lock();
            let mut wal = durable.wal.lock();
            if wal.wants_snapshot() {
                let state = build_snapshot_state(&vocab, &sessions, &writer.stripes);
                if let Err(e) = wal.snapshot(&state) {
                    // The advance itself is already durable; a failed
                    // snapshot only degrades the broker if it poisoned the
                    // WAL (torn append during the pre-snapshot sync path).
                    if wal.is_poisoned() {
                        drop(wal);
                        return Err(durable.degrade(e));
                    }
                }
            }
        }
        Ok(expired)
    }

    // ---- durability ------------------------------------------------------

    /// Whether this broker was opened with [`SharedBroker::open_durable`].
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Whether this broker is a replication follower (read-only replica of
    /// a remote leader; see [`SharedBroker::open_follower`]).
    pub fn is_follower(&self) -> bool {
        self.inner.follower.load(Ordering::Acquire)
    }

    /// Refuses local mutations on a replication follower.
    fn check_writable(&self) -> Result<(), BrokerError> {
        if self.is_follower() {
            Err(BrokerError::Follower)
        } else {
            Ok(())
        }
    }

    /// Whether a durability write has failed, flipping the broker into
    /// read-only degraded mode (always `false` for in-memory brokers).
    pub fn is_degraded(&self) -> bool {
        self.inner
            .durable
            .as_ref()
            .is_some_and(|d| d.degraded.load(Ordering::Acquire))
    }

    /// The durability failure that degraded this broker, if any.
    pub fn degraded_cause(&self) -> Option<WalError> {
        self.inner
            .durable
            .as_ref()
            .and_then(|d| d.cause.lock().clone())
    }

    /// What recovery did when this durable broker was opened (`None` for
    /// in-memory brokers).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.inner.durable.as_ref().map(|d| d.recovery)
    }

    /// Point-in-time durability status (`None` for in-memory brokers).
    pub fn durability(&self) -> Option<DurabilityStatus> {
        self.inner.durable.as_ref().map(|d| {
            let wal = d.wal.lock();
            DurabilityStatus {
                dir: wal.dir().to_path_buf(),
                next_lsn: wal.next_lsn(),
                ops_since_snapshot: wal.ops_since_snapshot(),
                degraded: d.degraded.load(Ordering::Acquire),
                follower: self.is_follower(),
                degraded_cause: d.cause.lock().clone(),
                recovery: d.recovery,
            }
        })
    }

    /// Writes a point-in-time snapshot of the full broker state (clock,
    /// vocabulary, live subscriptions with validities), then compacts WAL
    /// segments the snapshot supersedes. Takes every lock, so it is a
    /// stop-the-world operation — size snapshots via
    /// [`DurabilityConfig::snapshot_every_ops`] or call this in quiet
    /// periods. Returns the snapshot file path.
    pub fn snapshot(&self) -> Result<PathBuf, BrokerError> {
        self.check_writable()?;
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        durable.check()?;
        let writer = self.inner.writer.lock();
        let vocab = self.inner.vocab.lock();
        let sessions = self.inner.sessions.lock();
        let mut wal = durable.wal.lock();
        let state = build_snapshot_state(&vocab, &sessions, &writer.stripes);
        match wal.snapshot(&state) {
            Ok(path) => Ok(path),
            Err(e) => {
                if wal.is_poisoned() {
                    drop(wal);
                    Err(durable.degrade(e))
                } else {
                    Err(BrokerError::Snapshot(e))
                }
            }
        }
    }

    // ---- replication (follower side) -------------------------------------

    /// Applies a batch of replicated record payloads: each is decoded,
    /// appended to the local WAL (write-ahead, exactly like a local
    /// mutation), applied in memory, and the whole batch becomes visible to
    /// publishers in **one** RCU snapshot flip (none when no stripe
    /// changed). Returns the LSN the next batch must start at.
    ///
    /// The batch must start exactly at the local log's append position:
    /// anything else means the stream and the replica have diverged
    /// ([`BrokerError::ReplicationGap`] — nothing is applied). A payload
    /// that fails to decode refuses the whole remainder
    /// ([`BrokerError::Replication`]); payloads already appended stay
    /// applied, and the returned error leaves the log at a record boundary.
    pub fn apply_replicated(
        &self,
        first_lsn: Lsn,
        payloads: &[Vec<u8>],
    ) -> Result<Lsn, BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let mut writer = self.inner.writer.lock();
        let mut vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        durable.check()?;
        let mut wal = durable.wal.lock();
        let expected = wal.next_lsn();
        if first_lsn != expected {
            return Err(BrokerError::ReplicationGap {
                expected,
                got: first_lsn,
            });
        }
        // Whether any stripe changed: intern and session records alone
        // leave the published snapshot as it is.
        let mut changed = false;
        for (i, payload) in payloads.iter().enumerate() {
            let lsn = first_lsn + i as u64;
            let op = WalOp::decode(payload).map_err(|e| {
                BrokerError::Replication(WalError::Corrupt {
                    segment: lsn,
                    offset: 0,
                    detail: format!("undecodable replicated record: {e}"),
                })
            })?;
            // Write-ahead, same as a local mutation: an op that fails to
            // log is never applied, so the replica stays a prefix of the
            // leader's acknowledged history.
            if let Err(e) = wal.append(&op) {
                return Err(durable.degrade(e));
            }
            match op {
                WalOp::InternAttr(name) => {
                    vocab.attr(&name);
                }
                WalOp::InternString(s) => {
                    vocab.string(&s);
                }
                WalOp::Subscribe { id, sub, validity } => {
                    writer.restore_one(id, sub, validity);
                    changed = true;
                }
                WalOp::Unsubscribe(id) => {
                    changed |= writer.remove(id);
                }
                WalOp::AdvanceTo(t) => {
                    if t >= writer.now() {
                        changed |= writer.advance_to(t) > 0;
                    }
                }
                WalOp::SessionCreate { token } => sessions.create(token),
                WalOp::SessionBind { token, id } => sessions.bind(token, id.0),
                WalOp::SessionRelease { token, id } => sessions.release(token, id.0),
                WalOp::SessionReap { token } => {
                    // One record, many removals — re-derived here exactly as
                    // at local replay.
                    for raw in sessions.reap(token) {
                        changed |= writer.remove(SubscriptionId(raw));
                    }
                }
            }
        }
        let next = wal.next_lsn();
        drop(wal);
        if changed {
            self.flip(&mut writer);
        }
        Ok(next)
    }

    /// Installs a leader snapshot mid-run (the catch-up path: the
    /// follower's position predates the leader's oldest retained segment).
    /// Validates the raw snapshot-file bytes, installs them atomically into
    /// the WAL directory, reopens the log at `lsn`, and rebuilds the entire
    /// in-memory state — one stop-the-world swap, published to lock-free
    /// readers as a single snapshot flip. Streaming resumes at `lsn`.
    pub fn install_replicated_snapshot(&self, lsn: Lsn, bytes: &[u8]) -> Result<(), BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let mut writer = self.inner.writer.lock();
        let mut vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        durable.check()?;
        let mut wal = durable.wal.lock();
        let dir = wal.dir().to_path_buf();
        let config = *wal.config();
        replication::install_snapshot(&dir, lsn, bytes).map_err(BrokerError::Replication)?;
        let (new_wal, recovered) = Wal::open(&dir, config).map_err(BrokerError::Recovery)?;
        *wal = new_wal;
        let (new_vocab, tables, new_sessions) =
            rebuild_state(writer.stripes.len(), recovered.snapshot, recovered.ops);
        *vocab = new_vocab;
        *sessions = new_sessions;
        writer.reset(tables);
        drop(wal);
        self.flip(&mut writer);
        Ok(())
    }

    /// Promotes this follower to a writable leader (failover): seals the
    /// replicated tail (fsync), clears the directory's follower marker, and
    /// flips the role. The id high-water survives — every id the old leader
    /// ever issued (and that replicated here) is reserved, so a dead id is
    /// never reissued to a new subscriber. Returns the LSN the first
    /// post-promotion mutation will receive.
    pub fn promote(&self) -> Result<Lsn, BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let writer = self.inner.writer.lock();
        let _vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        durable.check()?;
        let mut wal = durable.wal.lock();
        if let Err(e) = wal.sync() {
            drop(wal);
            return Err(durable.degrade(e));
        }
        replication::clear_follower_mark(wal.dir()).map_err(BrokerError::Replication)?;
        let next = wal.next_lsn();
        drop(wal);
        // The broker becomes writable here, so this is the moment the
        // leader-only repair runs: a binding whose `Subscribe` the stream
        // never delivered (the old leader died inside the pair) is now
        // definitively dangling, not merely in flight.
        sessions.prune_dangling(|id| writer.contains(SubscriptionId(id)));
        drop(sessions);
        self.inner.follower.store(false, Ordering::Release);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::EngineKind;

    #[test]
    fn concurrent_publishers_and_subscribers() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 4);
        let attr = broker.attr("k");

        let mut handles = Vec::new();
        for t in 0..4i64 {
            let broker = broker.clone();
            handles.push(std::thread::spawn(move || {
                let sub = Subscription::builder().eq(attr, t).build().unwrap();
                let id = broker.subscribe(sub, Validity::forever());
                let event = Event::builder().pair(attr, t).build().unwrap();
                let mut hits = 0;
                for _ in 0..100 {
                    if broker.publish(&event).contains(&id) {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100, "own subscription always matches");
        }
        assert_eq!(broker.subscription_count(), 4);
    }

    #[test]
    fn clone_shares_state() {
        let broker = SharedBroker::new(EngineKind::Counting, 2);
        let b2 = broker.clone();
        let attr = broker.attr("x");
        let sub = Subscription::builder().eq(attr, 1i64).build().unwrap();
        b2.subscribe(sub, Validity::forever());
        assert_eq!(broker.subscription_count(), 1);
    }

    #[test]
    fn ids_stripe_across_shards() {
        let broker = SharedBroker::new(EngineKind::Counting, 3);
        let attr = broker.attr("a");
        let mut ids = Vec::new();
        for i in 0..9i64 {
            let sub = Subscription::builder().eq(attr, i).build().unwrap();
            ids.push(broker.subscribe(sub, Validity::forever()));
        }
        let counts = broker.shard_subscription_counts();
        assert_eq!(counts, vec![3, 3, 3], "round-robin keeps shards balanced");
        for id in &ids {
            assert!(broker.unsubscribe(*id));
        }
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn publish_batch_matches_individual_publishes() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 3);
        let attr = broker.attr("v");
        for i in 0..30i64 {
            let sub = Subscription::builder().eq(attr, i % 5).build().unwrap();
            broker.subscribe(sub, Validity::forever());
        }
        let events: Vec<Event> = (0..10i64)
            .map(|i| Event::builder().pair(attr, i % 5).build().unwrap())
            .collect();
        let batched = broker.publish_batch(&events);
        for (event, batch_result) in events.iter().zip(&batched) {
            assert_eq!(&broker.publish(event), batch_result);
        }
    }

    #[test]
    fn expiry_ticks_all_shards() {
        let broker = SharedBroker::new(EngineKind::Counting, 4);
        let attr = broker.attr("e");
        for i in 0..8i64 {
            let sub = Subscription::builder().eq(attr, i).build().unwrap();
            broker.subscribe(sub, Validity::until(LogicalTime(5)));
        }
        assert_eq!(broker.subscription_count(), 8);
        let expired = broker.advance_to(LogicalTime(5));
        assert_eq!(expired, 8);
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.now(), LogicalTime(5));
    }

    /// The ISSUE's stress shape: concurrent subscribers, publishers and a
    /// ticker; must not deadlock and counts must stay consistent.
    #[test]
    fn stress_subscribe_publish_tick() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 4);
        let attr = broker.attr("s");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        // Subscriber threads: half forever, half expiring.
        for t in 0..3i64 {
            let broker = broker.clone();
            handles.push(std::thread::spawn(move || {
                let mut kept = 0usize;
                for i in 0..200i64 {
                    let sub = Subscription::builder().eq(attr, i % 7).build().unwrap();
                    if i % 2 == 0 {
                        broker.subscribe(sub, Validity::forever());
                        kept += 1;
                    } else {
                        let id = broker.subscribe(sub, Validity::forever());
                        assert!(broker.unsubscribe(id));
                    }
                    let _ = t;
                }
                kept
            }));
        }
        // Publisher threads.
        let mut publishers = Vec::new();
        for _ in 0..2 {
            let broker = broker.clone();
            let stop = stop.clone();
            publishers.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut events = Vec::new();
                for i in 0..4i64 {
                    events.push(Event::builder().pair(attr, i % 7).build().unwrap());
                }
                let mut batches = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    out.clear();
                    broker.publish_into(&events[0], &mut out);
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                    broker.publish_batch_into(&events, &mut batches);
                }
            }));
        }
        // Ticker thread: a fixed tick count so progress is deterministic.
        let ticker = {
            let broker = broker.clone();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    broker.tick();
                }
                broker.now()
            })
        };

        let kept: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        for p in publishers {
            p.join().unwrap();
        }
        let end = ticker.join().unwrap();
        assert_eq!(end, LogicalTime(100), "every tick advanced every shard");
        assert_eq!(broker.subscription_count(), kept);
        let counts = broker.shard_subscription_counts();
        assert_eq!(counts.iter().sum::<usize>(), kept);
    }

    /// Loads one brute-force stripe (its builds are cheap) to `N` and to
    /// `8·N` subscriptions: the tier count stays logarithmic, L0 stays
    /// small, each subscription is fed to a bounded number of engine
    /// builds, and that number grows by little when the stripe grows 8×.
    #[test]
    fn tiers_stay_logarithmic_and_rebuild_work_stays_bounded() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const N: usize = 8192;
        // ⌈log8(n/32)⌉ + 1, in integers.
        let tier_bound = |n: usize| (0..).find(|&k| 32 * 8usize.pow(k) >= n).unwrap() as usize + 1;
        let broker = SharedBroker::new(EngineKind::BruteForce, 1);
        let attr = broker.attr("t");
        let mut ids = Vec::new();
        let mut load = |to: usize| {
            while ids.len() < to {
                let v = ids.len() as i64 % 64;
                let sub = Subscription::builder().eq(attr, v).build().unwrap();
                ids.push(broker.subscribe(sub, Validity::forever()));
            }
            broker.rcu_status()
        };
        let at_n = load(N);
        let at_8n = load(8 * N);
        for (n, status) in [(N, at_n), (8 * N, at_8n)] {
            assert!(status.l0 <= 32, "{n}: {status:?}");
            assert!(status.tiers <= tier_bound(n), "{n}: {status:?}");
        }
        let work_n = at_n.built as f64 / N as f64;
        let work_8n = at_8n.built as f64 / (8 * N) as f64;
        assert!(work_n <= 15.0, "{work_n} builds per subscription at {N}");
        assert!(
            work_8n <= 1.5 * work_n,
            "{work_8n} builds per subscription at 8·{N}, {work_n} at {N}"
        );

        let mut rng = SmallRng::seed_from_u64(0x7135);
        ids.retain(|&id| !(rng.gen_bool(0.1) && broker.unsubscribe(id)));
        for (len, dead) in broker.inner.writer.lock().stripes[0].snap.tier_sizes() {
            assert!(dead * 8 <= len, "{dead} tombstones in a tier of {len}");
        }
        // One stripe assigns ids 0, 1, 2, … in load order.
        let event = Event::builder().pair(attr, 5i64).build().unwrap();
        let expected: Vec<SubscriptionId> =
            ids.iter().copied().filter(|id| id.0 % 64 == 5).collect();
        assert_eq!(broker.publish(&event), expected);

        broker.compact();
        let status = broker.rcu_status();
        assert_eq!((status.tiers, status.l0), (1, 0), "{status:?}");
        assert_eq!(broker.publish(&event), expected);
    }

    /// The snapshot holds no clock, so a tick that expires nothing
    /// publishes nothing; one that expires a subscription flips once.
    #[test]
    fn only_ticks_that_expire_flip_the_snapshot() {
        let broker = SharedBroker::new(EngineKind::Counting, 2);
        let attr = broker.attr("c");
        let sub = |v: i64| Subscription::builder().eq(attr, v).build().unwrap();
        broker.subscribe(sub(1), Validity::until(LogicalTime(2)));
        broker.subscribe(sub(2), Validity::forever());
        let flips = broker.rcu_status().flips;
        assert_eq!(broker.tick(), 0);
        assert_eq!(broker.rcu_status().flips, flips, "nothing expired");
        assert_eq!(broker.tick(), 1);
        assert_eq!(broker.rcu_status().flips, flips + 1, "one expiry, one flip");
        assert_eq!(broker.now(), LogicalTime(2));
    }

    /// A replicated batch of intern and session records changes no stripe,
    /// so a follower publishes no new snapshot for it.
    #[test]
    fn replicated_batches_that_change_no_stripe_do_not_flip() {
        let dir = std::env::temp_dir().join(format!("fp-shared-noflip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (follower, _) =
            SharedBroker::open_follower(EngineKind::Counting, 2, &dir, DurabilityConfig::default())
                .unwrap();
        let encode = |op: WalOp| {
            let mut bytes = Vec::new();
            op.encode(&mut bytes);
            bytes
        };
        let flips = follower.rcu_status().flips;
        let quiet = [
            encode(WalOp::InternAttr("q".into())),
            encode(WalOp::SessionCreate { token: 1 }),
        ];
        let start = follower.durability().unwrap().next_lsn;
        let next = follower.apply_replicated(start, &quiet).unwrap();
        assert_eq!(follower.rcu_status().flips, flips);
        let sub = Subscription::builder().eq(AttrId(0), 1i64).build().unwrap();
        let subscribe = encode(WalOp::Subscribe {
            id: SubscriptionId(0),
            sub,
            validity: Validity::forever(),
        });
        follower.apply_replicated(next, &[subscribe]).unwrap();
        assert_eq!(follower.rcu_status().flips, flips + 1);
        drop(follower);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reader pinned on an old snapshot evaluates that snapshot's own
    /// copy of the predicate index. The writer churns until a dead
    /// predicate's id names a new one, and the pinned reader's publishes
    /// still equal the model at its cut.
    #[test]
    fn pinned_reader_keeps_its_cut_across_id_recycling() {
        for kind in EngineKind::PAPER_ENGINES {
            let broker = SharedBroker::new(kind, 1);
            let attr = broker.attr("v");
            let sub = |v: i64| Subscription::builder().eq(attr, v).build().unwrap();
            let event = |v: i64| Event::builder().pair(attr, v).build().unwrap();
            // A full L0 freezes into one tier naming 32 predicates.
            let ids: Vec<SubscriptionId> = (0..32)
                .map(|v| broker.subscribe(sub(v), Validity::forever()))
                .collect();
            let pinned = broker.inner.published.pin();

            // Five tombstones pass 1/8 of the tier, which is rebuilt
            // without their predicates; 32 fresh constants then freeze into
            // a tier that mints ids, the freed ones among them.
            for &id in &ids[..5] {
                assert!(broker.unsubscribe(id));
            }
            for v in 100..132 {
                broker.subscribe(sub(v), Validity::forever());
            }
            let current = broker.inner.published.pin();
            let recycled = pinned.preds.iter().any(|(id, old)| {
                current
                    .preds
                    .iter()
                    .any(|(cid, new)| cid == id && new != old)
            });
            assert!(recycled, "{kind:?}: no id was recycled");
            drop(current);

            let mut scratch = ReadScratch::default();
            for v in (0..32).chain(100..132) {
                let mut got = Vec::new();
                pinned.match_into(&event(v), &mut scratch, &mut got);
                let want: Vec<SubscriptionId> = ids.get(v as usize).copied().into_iter().collect();
                assert_eq!(got, want, "{kind:?}: pinned reader, value {v}");
            }
            drop(pinned);
            assert!(broker.publish(&event(0)).is_empty(), "{kind:?}");
            assert_eq!(broker.publish(&event(100)).len(), 1, "{kind:?}");
        }
    }

    /// A predicate whose last naming tier was dropped awaits its free until
    /// the flip. A build in the same writer operation that names it again
    /// takes it back: here `compact()` rebuilds stripe 0 without constant 0,
    /// and then stripe 1 freezes an L0 entry on it.
    #[test]
    fn a_predicate_named_again_keeps_its_id() {
        for kind in EngineKind::PAPER_ENGINES {
            let broker = SharedBroker::new(kind, 2);
            let attr = broker.attr("v");
            let sub = |v: i64| Subscription::builder().eq(attr, v).build().unwrap();
            let event = |v: i64| Event::builder().pair(attr, v).build().unwrap();
            // Subscribes alternate stripes: stripe 0 freezes 32 (constants
            // 0, 2, .., 62) into a tier; stripe 1 keeps 31 in L0, the first
            // on constant 0.
            let ids: Vec<SubscriptionId> = (0..63i64)
                .map(|i| {
                    let v = if i == 1 { 0 } else { i };
                    broker.subscribe(sub(v), Validity::forever())
                })
                .collect();
            let status = broker.rcu_status();
            assert_eq!((status.tiers, status.l0, status.predicates), (1, 31, 32));
            assert!(broker.unsubscribe(ids[0]));
            broker.compact();
            let status = broker.rcu_status();
            assert_eq!((status.tiers, status.l0), (2, 0), "{kind:?}");
            assert_eq!(status.predicates, 62, "{kind:?}: 31 + 31, constant 0 once");
            assert_eq!(broker.publish(&event(0)), vec![ids[1]], "{kind:?}");
            for (i, &id) in ids.iter().enumerate().skip(2) {
                assert_eq!(broker.publish(&event(i as i64)), vec![id], "{kind:?}");
            }
        }
    }

    /// `RcuStatus::predicates` counts what the published tiers name: a
    /// tombstone keeps its predicate, and the rebuild that drops the last
    /// tier naming it frees it at that flip.
    #[test]
    fn predicate_count_follows_the_tiers() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 1);
        let attr = broker.attr("v");
        let sub = |v: i64| Subscription::builder().eq(attr, v).build().unwrap();
        let ids: Vec<SubscriptionId> = (0..32)
            .map(|v| broker.subscribe(sub(v), Validity::forever()))
            .collect();
        assert_eq!(broker.rcu_status().predicates, 32);
        assert!(broker.unsubscribe(ids[0]));
        assert_eq!(broker.rcu_status().predicates, 32, "a tombstone");
        broker.compact();
        assert_eq!(broker.rcu_status().predicates, 31, "freed at compact");
        // Four tombstones pass 1/8 of the 31-entry tier, which is rebuilt.
        for &id in &ids[1..4] {
            assert!(broker.unsubscribe(id));
        }
        assert_eq!(broker.rcu_status().predicates, 31);
        assert!(broker.unsubscribe(ids[4]));
        assert_eq!(broker.rcu_status().predicates, 27, "freed at the rebuild");
    }
}
