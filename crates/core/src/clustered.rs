//! The clustered matchers: schema-based multi-attribute clustering with the
//! cost model of §3, in two flavours:
//!
//! * **static** — the greedy optimizer runs once over the whole subscription
//!   set ([`ClusteredMatcher::finalize`], paper §3.2); afterwards the table
//!   configuration never changes (the *no change* strategy of Figure 4).
//! * **dynamic** — the maintenance algorithm of §4 creates and deletes
//!   multi-attribute tables online, driven by cluster benefit margins and
//!   table benefits.
//!
//! Both start from the *natural clustering*: one single-attribute table per
//! equality attribute, created lazily (those hash structures exist for the
//! predicate phase anyway, so the cost model charges them nothing extra).

use crate::cluster::ClusterList;
use crate::engine::{EngineStats, MatchEngine};
use crate::tables::MultiAttrTable;
use crate::view::{EngineCounters, Indexed, MatchView, Phase2Engine, Phase2Scratch, ViewScratch};
use pubsub_cost::{
    greedy_clustering, CostConstants, EventStatistics, GreedyConfig, SelectivityEstimator,
    SubscriptionProfile,
};
use pubsub_index::{PredicateBitVec, PredicateId, PredicateIndex};
use pubsub_types::metrics::Counter;
use pubsub_types::{
    AttrId, AttrSet, Event, FxHashMap, FxHashSet, Subscription, SubscriptionId, Value,
};

/// Events matched by the clustered engine (static or dynamic).
static EVENTS: Counter = Counter::new("core.clustered.events");
/// Candidate subscriptions the table/fallback kernels verified.
static VERIFIED: Counter = Counter::new("core.clustered.verified");
/// Subscriptions the clustered engine reported as matches.
static MATCHED: Counter = Counter::new("core.clustered.matched");
/// Multi- or single-attribute tables created (lazy singletons included).
static TABLES_CREATED: Counter = Counter::new("core.clustered.tables_created");
/// Tables dropped (weak-table deletion and redistribution).
static TABLES_REMOVED: Counter = Counter::new("core.clustered.tables_removed");
/// Subscriptions relocated between tables/fallback by the optimizer.
static SUB_MIGRATIONS: Counter = Counter::new("core.clustered.sub_migrations");
/// Full maintenance passes executed (paper §4).
static MAINTENANCE_RUNS: Counter = Counter::new("core.clustered.maintenance_runs");
/// Cluster benefit-margin evaluations (`ν(p_c)·|c|` vs `BMmax`) — the
/// cost-model inputs of the dynamic algorithm.
static MARGIN_CHECKS: Counter = Counter::new("core.clustered.margin_checks");

/// Tuning knobs of the dynamic maintenance algorithm (paper §4 thresholds).
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Operations (inserts + removes + events) between maintenance passes —
    /// the paper's "metrics are updated periodically".
    pub period: usize,
    /// `BMmax`: a cluster whose benefit margin `ν(p_c)·|c|` (expected
    /// subscription checks per event) exceeds this is redistributed.
    pub bm_max: f64,
    /// `Bcreate`: a potential table is created once at least this many
    /// candidate subscriptions would benefit from it.
    pub b_create: usize,
    /// `Bdelete`: a table whose population falls below this is deleted and
    /// its subscriptions redistributed.
    pub b_delete: usize,
    /// Cap on new table schema size (see DESIGN.md §3 on `GA(S)`).
    pub max_schema_len: usize,
    /// Minimum expected checks-per-event saving a potential table must give
    /// one subscription before the subscription votes for it (or is moved to
    /// it). Guards against cascades of ever-wider tables whose marginal gain
    /// is noise next to the per-event table-probe overhead.
    pub min_gain: f64,
    /// Decay event statistics by half at each maintenance pass, so drifting
    /// event patterns are tracked (Figure 4b).
    pub decay_stats: bool,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            period: 8192,
            bm_max: 16.0,
            b_create: 1024,
            b_delete: 8,
            max_schema_len: 4,
            min_gain: 1e-4,
            decay_stats: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Static,
    Dynamic,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Placement {
    Table {
        table: u32,
        tuple: Box<[Value]>,
        width: u32,
        slot: u32,
    },
    Fallback {
        width: u32,
        slot: u32,
    },
}

#[derive(Debug)]
struct SubEntry {
    /// Interned predicate ids in canonical order (equality first).
    pred_ids: Vec<PredicateId>,
    /// Equality pairs, parallel to the leading `pred_ids`.
    eq_pairs: Vec<(AttrId, Value)>,
    size: u32,
    place: Placement,
    /// The paper's maintenance *mark*: set once this subscription has voted
    /// for potential tables, cleared when it moves (so it can vote again
    /// from its new cluster).
    voted: bool,
}

/// Accumulated benefit of a potential (not yet created) hash table — the
/// paper's `B(H)` for `H ∈ PH`, with its candidate subscriptions.
#[derive(Debug, Default)]
struct Potential {
    count: usize,
    /// Accumulated expected checks-per-event saving of the voters — the
    /// benefit side of cost formula 3.1 for this would-be table.
    gain: f64,
    /// Already queued on the ready list.
    queued: bool,
    candidates: Vec<SubscriptionId>,
}

/// The clustered matching engine (static or dynamic). `P` is where its
/// predicate ids come from: its own [`PredicateIndex`], or `()` for a tier
/// engine loaded with a caller's ids ([`crate::build_tier`]).
#[derive(Debug)]
pub struct ClusteredMatcher<P = PredicateIndex> {
    mode: Mode,
    config: DynamicConfig,
    consts: CostConstants,
    index: P,
    tables: Vec<Option<MultiAttrTable>>,
    free_tables: Vec<usize>,
    by_schema: FxHashMap<AttrSet, usize>,
    fallback: ClusterList,
    subs: Vec<Option<SubEntry>>,
    live: usize,
    est: EventStatistics,
    ops_since_maintenance: usize,
    ops_total: usize,
    /// Clusters whose benefit margin crossed `BMmax` at insert time, queued
    /// for local redistribution at the next operation boundary.
    pending: Vec<(u32, Box<[Value]>)>,
    pending_set: FxHashSet<(u32, Box<[Value]>)>,
    /// Clusters already redistributed since the last full pass. A cluster
    /// whose margin cannot be improved (e.g. genuinely hot under skew) must
    /// not be rescanned on every insertion; it gets another chance each
    /// period.
    cooldown: FxHashSet<(u32, Box<[Value]>)>,
    /// Potential tables and their accumulated votes (paper §4's `PH`).
    potential: FxHashMap<AttrSet, Potential>,
    /// Potential tables whose vote count crossed `Bcreate`, awaiting
    /// creation (so the potential map is never scanned on the hot path).
    ready: Vec<AttrSet>,
    in_maintenance: bool,
    /// Set by [`ClusteredMatcher::freeze`]: stop updating event statistics.
    stats_frozen: bool,
    /// Scratch the `&mut self` match path lends to the match driver; its
    /// stats are the engine's, maintenance counts included.
    scratch: ViewScratch,
}

impl ClusteredMatcher {
    /// Creates a static-clustering matcher (optimize via
    /// [`MatchEngine::finalize`]).
    pub fn new_static() -> Self {
        Self::with_mode(Mode::Static, DynamicConfig::default())
    }

    /// Creates a dynamic matcher with default thresholds.
    pub fn new_dynamic() -> Self {
        Self::with_mode(Mode::Dynamic, DynamicConfig::default())
    }

    /// Creates a dynamic matcher with custom thresholds.
    pub fn new_dynamic_with(config: DynamicConfig) -> Self {
        Self::with_mode(Mode::Dynamic, config)
    }
}

impl<P: Default> ClusteredMatcher<P> {
    /// An empty matcher in `mode`, whatever its id source.
    pub(crate) fn with_mode(mode: Mode, config: DynamicConfig) -> Self {
        Self {
            mode,
            config,
            consts: CostConstants::default(),
            index: P::default(),
            tables: Vec::new(),
            free_tables: Vec::new(),
            by_schema: FxHashMap::default(),
            fallback: ClusterList::new(),
            subs: Vec::new(),
            live: 0,
            est: EventStatistics::new(),
            ops_since_maintenance: 0,
            ops_total: 0,
            pending: Vec::new(),
            pending_set: FxHashSet::default(),
            cooldown: FxHashSet::default(),
            potential: FxHashMap::default(),
            ready: Vec::new(),
            in_maintenance: false,
            stats_frozen: false,
            scratch: ViewScratch::new(),
        }
    }
}

impl<P> ClusteredMatcher<P> {
    /// Freezes the current clustering: maintenance stops running *and* the
    /// event statistics stop updating, turning this instance into the
    /// *no change* strategy of Figure 4 — insertions still pick the best
    /// existing table, but against the selectivities as they were at freeze
    /// time; tables are never created or deleted again unless
    /// [`ClusteredMatcher::reoptimize`] is called explicitly.
    pub fn freeze(&mut self) {
        self.mode = Mode::Static;
        self.stats_frozen = true;
    }

    /// Summary of the current table configuration:
    /// `(schema, population, entries)` per table. Used by the experiments.
    pub fn table_summary(&self) -> Vec<(AttrSet, usize, usize)> {
        self.tables
            .iter()
            .flatten()
            .map(|t| (t.schema().clone(), t.population(), t.entry_count()))
            .collect()
    }

    /// Current event-statistics estimator (for inspection).
    pub fn statistics(&self) -> &EventStatistics {
        &self.est
    }

    // ---- table management -------------------------------------------------

    fn create_table(&mut self, schema: AttrSet) -> usize {
        debug_assert!(!self.by_schema.contains_key(&schema));
        TABLES_CREATED.inc();
        let table = MultiAttrTable::new(schema.clone());
        let idx = if let Some(i) = self.free_tables.pop() {
            self.tables[i] = Some(table);
            i
        } else {
            self.tables.push(Some(table));
            self.tables.len() - 1
        };
        self.by_schema.insert(schema, idx);
        idx
    }

    fn drop_table(&mut self, idx: usize) -> MultiAttrTable {
        TABLES_REMOVED.inc();
        let table = self.tables[idx].take().expect("dropping live table");
        self.by_schema.remove(table.schema());
        self.free_tables.push(idx);
        table
    }

    /// Lazily creates the single-attribute tables for every equality
    /// attribute of a new subscription — the natural clustering of §3.2.
    fn ensure_singletons(&mut self, eq_pairs: &[(AttrId, Value)]) {
        for &(a, _) in eq_pairs {
            let schema: AttrSet = [a].into_iter().collect();
            if !self.by_schema.contains_key(&schema) {
                self.create_table(schema);
            }
        }
    }

    // ---- placement --------------------------------------------------------

    /// Expected per-event cost of placing a subscription with `eq_pairs` /
    /// `size` in table `idx` (`ν(p)·checking(p, s)`), or `None` if the table
    /// schema is not covered by the pairs.
    fn table_score(&self, idx: usize, eq_pairs: &[(AttrId, Value)], size: usize) -> Option<f64> {
        let table = self.tables[idx].as_ref()?;
        // Allocation-free: this sits under every insertion (best_table scans
        // all tables) and under cluster redistribution.
        let mut nu = 1.0f64;
        let mut covered = 0usize;
        for &a in table.attrs() {
            let v = eq_pairs.iter().find(|&&(pa, _)| pa == a)?.1;
            nu *= self.est.eq_selectivity(a, v);
            covered += 1;
        }
        Some(nu * self.consts.checking(size, covered))
    }

    /// The best table for a subscription, if any covers its equality pairs.
    fn best_table(&self, eq_pairs: &[(AttrId, Value)], size: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..self.tables.len() {
            if let Some(score) = self.table_score(idx, eq_pairs, size) {
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((idx, score));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Computes the remaining-predicate bit references of a subscription
    /// placed in `table_idx`, plus the access tuple.
    fn refs_and_tuple(&self, entry: &SubEntry, table_idx: usize) -> (Vec<u32>, Box<[Value]>) {
        let table = self.tables[table_idx].as_ref().expect("live table");
        // Which equality predicates does the access predicate cover? For
        // each table attribute, the first equality pair with that attribute
        // (a subscription may carry two `=` on one attribute; only one can
        // be part of the access tuple).
        let mut covered = vec![false; entry.eq_pairs.len()];
        let mut tuple = Vec::with_capacity(table.attrs().len());
        for &a in table.attrs() {
            let i = entry
                .eq_pairs
                .iter()
                .position(|&(pa, _)| pa == a)
                .expect("placement covers schema");
            covered[i] = true;
            tuple.push(entry.eq_pairs[i].1);
        }
        let bit_refs: Vec<u32> = entry
            .pred_ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| i >= covered.len() || !covered[i])
            .map(|(_, pid)| pid.0)
            .collect();
        (bit_refs, tuple.into_boxed_slice())
    }

    /// Inserts the subscription (whose entry must already exist in
    /// `self.subs`) into `table_idx` or the fallback list, recording the
    /// placement.
    fn place(&mut self, id: SubscriptionId, table_idx: Option<usize>) {
        let entry = self.subs[id.index()].as_ref().expect("entry exists");
        match table_idx {
            Some(ti) => {
                let (bit_refs, tuple) = self.refs_and_tuple(entry, ti);
                let (width, slot) = self.tables[ti].as_mut().expect("live table").insert(
                    tuple.clone(),
                    id,
                    &bit_refs,
                );
                self.subs[id.index()].as_mut().unwrap().place = Placement::Table {
                    table: ti as u32,
                    tuple: tuple.clone(),
                    width: width as u32,
                    slot: slot as u32,
                };
                // The paper updates a cluster's benefit margin on insertion
                // and calls the maintenance algorithm when it crosses BMmax;
                // we queue the cluster for local redistribution at the next
                // operation boundary.
                if self.mode == Mode::Dynamic && !self.in_maintenance {
                    self.check_margin(ti, tuple);
                }
            }
            None => {
                let bit_refs: Vec<u32> = entry.pred_ids.iter().map(|p| p.0).collect();
                let (width, slot) = self.fallback.insert(id, &bit_refs);
                self.subs[id.index()].as_mut().unwrap().place = Placement::Fallback {
                    width: width as u32,
                    slot: slot as u32,
                };
            }
        }
    }

    /// Removes the subscription from its current placement, fixing up the
    /// location of whichever subscription was swapped into its slot.
    fn unplace(&mut self, id: SubscriptionId) {
        let place = self.subs[id.index()]
            .as_ref()
            .expect("entry exists")
            .place
            .clone();
        let moved = match &place {
            Placement::Table {
                table,
                tuple,
                width,
                slot,
            } => self.tables[*table as usize]
                .as_mut()
                .expect("live table")
                .remove(tuple, *width as usize, *slot as usize),
            Placement::Fallback { width, slot } => {
                self.fallback.swap_remove(*width as usize, *slot as usize)
            }
        };
        if let Some(m) = moved {
            let m_entry = self.subs[m.index()].as_mut().expect("moved sub is live");
            match (&mut m_entry.place, &place) {
                (Placement::Table { slot, .. }, Placement::Table { slot: new_slot, .. }) => {
                    *slot = *new_slot
                }
                (Placement::Fallback { slot, .. }, Placement::Fallback { slot: new_slot, .. }) => {
                    *slot = *new_slot
                }
                _ => unreachable!("moved subscription lives in the same structure"),
            }
        }
    }

    /// Moves a subscription to `table_idx` (or fallback).
    fn relocate(&mut self, id: SubscriptionId, table_idx: Option<usize>) {
        self.unplace(id);
        self.place(id, table_idx);
        // Moving deletes the vote mark (paper §4's Cluster_distribute).
        self.subs[id.index()].as_mut().expect("live sub").voted = false;
        self.scratch.stats.subscription_moves += 1;
        SUB_MIGRATIONS.inc();
    }

    fn current_table_of(&self, id: SubscriptionId) -> Option<usize> {
        match &self.subs[id.index()].as_ref()?.place {
            Placement::Table { table, .. } => Some(*table as usize),
            Placement::Fallback { .. } => None,
        }
    }

    // ---- maintenance (paper §4) -------------------------------------------

    /// Margin check for one cluster, queued when it crosses `BMmax`.
    fn check_margin(&mut self, ti: usize, tuple: Box<[Value]>) {
        let Some(table) = self.tables[ti].as_ref() else {
            return;
        };
        let Some(list) = table.entry_list(&tuple) else {
            return;
        };
        MARGIN_CHECKS.inc();
        let mut nu = 1.0f64;
        for (a, v) in table.attrs().iter().zip(tuple.iter()) {
            nu *= self.est.eq_selectivity(*a, *v);
        }
        if nu * list.len() as f64 > self.config.bm_max {
            let key = (ti as u32, tuple);
            if !self.cooldown.contains(&key) && self.pending_set.insert(key.clone()) {
                self.pending.push(key);
            }
        }
    }

    /// Operations between clears of the cluster cooldown set: a stubborn
    /// over-margin cluster is reconsidered after this many operations even
    /// if no full maintenance pass ran in between.
    const COOLDOWN_WINDOW: usize = 1024;

    fn bump_ops(&mut self) {
        if self.mode != Mode::Dynamic {
            return;
        }
        self.ops_since_maintenance += 1;
        self.ops_total += 1;
        if self.ops_total.is_multiple_of(Self::COOLDOWN_WINDOW) {
            self.cooldown.clear();
        }
        if !self.pending.is_empty() && !self.in_maintenance {
            self.process_pending();
        }
        if self.ops_since_maintenance >= self.config.period {
            self.run_maintenance();
            self.ops_since_maintenance = 0;
        }
    }

    /// Drains the queue of clusters whose margin crossed `BMmax` at insert
    /// time, redistributing each locally (the paper's per-metric-update
    /// maintenance trigger).
    fn process_pending(&mut self) {
        self.in_maintenance = true;
        while let Some((ti, tuple)) = self.pending.pop() {
            self.pending_set.remove(&(ti, tuple.clone()));
            self.redistribute_cluster(ti as usize, &tuple);
            self.cooldown.insert((ti, tuple));
        }
        self.create_ready_tables();
        self.in_maintenance = false;
    }

    /// One full maintenance pass: decay statistics, delete under-populated
    /// tables, sweep every cluster for excessive margins (statistics drift
    /// can push clusters over `BMmax` without any insertion), create tables
    /// whose accumulated benefit reached `Bcreate`, drop emptied tables.
    pub fn run_maintenance(&mut self) {
        MAINTENANCE_RUNS.inc();
        self.in_maintenance = true;
        if self.config.decay_stats {
            self.est.halve();
        }
        self.delete_weak_tables();

        // Prune potential tables that never came close to Bcreate so the
        // map stays small; their candidates' marks are cleared so they can
        // vote again from scratch if the pressure returns.
        let floor = (self.config.b_create / 8).max(8);
        let mut dropped: Vec<Potential> = Vec::new();
        self.potential.retain(|_, p| {
            if p.count < floor {
                dropped.push(std::mem::take(p));
                false
            } else {
                true
            }
        });
        for pot in dropped {
            for s in pot.candidates {
                if let Some(e) = self.subs.get_mut(s.index()).and_then(|e| e.as_mut()) {
                    e.voted = false;
                }
            }
        }

        // Sweep for over-margin clusters (rare outside skew drift; the
        // common trigger is the insert-time check).
        let mut over: Vec<(usize, Box<[Value]>)> = Vec::new();
        for (ti, table) in self.tables.iter().enumerate() {
            let Some(table) = table else { continue };
            for (tuple, list) in table.entries() {
                let mut nu = 1.0f64;
                for (a, v) in table.attrs().iter().zip(tuple.iter()) {
                    nu *= self.est.eq_selectivity(*a, *v);
                }
                if nu * list.len() as f64 > self.config.bm_max {
                    over.push((ti, tuple.to_vec().into_boxed_slice()));
                }
            }
        }
        if !over.is_empty() && std::env::var_os("FASTPUBSUB_MAINT_DEBUG").is_some() {
            eprintln!(
                "        [maint] {} over-margin clusters, {} tables, {} potentials",
                over.len(),
                self.by_schema.len(),
                self.potential.len()
            );
        }
        for (ti, tuple) in over {
            self.redistribute_cluster(ti, &tuple);
        }
        self.create_ready_tables();

        // Drop multi-attribute tables the redistribution emptied entirely.
        // Empty *singleton* tables stay: they are the natural clustering and
        // the next insertion would just recreate them (delete/recreate
        // cycles would dominate the deletion statistics).
        let empty: Vec<usize> = self
            .tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                t.as_ref()
                    .filter(|t| t.population() == 0 && t.schema().len() > 1)
                    .map(|_| i)
            })
            .collect();
        for idx in empty {
            self.drop_table(idx);
            self.scratch.stats.tables_deleted += 1;
        }
        // Drained pending entries may reference dropped tables; the guards
        // in check/redistribute tolerate that, but clear anyway. Clearing
        // the cooldown gives stubborn clusters another chance next period.
        self.pending.clear();
        self.pending_set.clear();
        self.cooldown.clear();
        self.in_maintenance = false;
    }

    /// Deletes tables whose benefit `B(H) ≈ |H|` fell below `Bdelete`,
    /// redistributing their subscriptions — unless a subscription would land
    /// in the always-checked fallback list, in which case the table is kept
    /// (deleting it could only make matching slower). Empty singletons are
    /// kept too: the next insertion would just recreate them.
    fn delete_weak_tables(&mut self) {
        let victims: Vec<usize> = self
            .tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                t.as_ref()
                    .filter(|t| t.population() > 0 && t.population() < self.config.b_delete)
                    .map(|_| i)
            })
            .collect();
        for idx in victims {
            let subs = self.tables[idx].as_ref().expect("live").all_subscriptions();
            // Every inhabitant must have an alternative table.
            let all_have_alternative = subs.iter().all(|&s| {
                let e = self.subs[s.index()].as_ref().expect("live sub");
                let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
                (0..self.tables.len())
                    .any(|other| other != idx && self.table_score(other, &pairs, size).is_some())
            });
            if !all_have_alternative {
                continue;
            }
            let table = self.drop_table(idx);
            self.scratch.stats.tables_deleted += 1;
            for s in table.all_subscriptions() {
                let e = self.subs[s.index()].as_ref().expect("live sub");
                let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
                let best = self.best_table(&pairs, size);
                debug_assert!(best.is_some());
                // The old placement died with the table: place directly.
                self.place(s, best);
                self.subs[s.index()].as_mut().expect("live sub").voted = false;
                self.scratch.stats.subscription_moves += 1;
            }
        }
    }

    /// The paper's `Cluster_distribute` for one cluster: move members to
    /// better existing tables; if the residual margin is still excessive,
    /// let unmarked members vote for the potential tables that would help
    /// them (`B(H) += 1`, mark the subscription).
    fn redistribute_cluster(&mut self, ti: usize, tuple: &[Value]) {
        let members: Vec<SubscriptionId> = {
            let Some(table) = self.tables[ti].as_ref() else {
                return;
            };
            let Some(list) = table.entry_list(tuple) else {
                return;
            };
            let mut m = Vec::with_capacity(list.len());
            for cluster in list.iter() {
                m.extend_from_slice(cluster.subscriptions());
            }
            m
        };

        let in_this_cluster = |this: &Self, s: SubscriptionId| -> bool {
            match &this.subs[s.index()].as_ref().expect("live sub").place {
                Placement::Table {
                    table, tuple: t, ..
                } => *table as usize == ti && t.as_ref() == tuple,
                Placement::Fallback { .. } => false,
            }
        };

        // Phase 1: redistribute into better existing tables.
        let mut still_score = 0.0f64;
        for &s in &members {
            if !in_this_cluster(self, s) {
                continue;
            }
            let e = self.subs[s.index()].as_ref().expect("live sub");
            let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
            let cur = self
                .table_score(ti, &pairs, size)
                .expect("current placement scores");
            if let Some(best) = self.best_table(&pairs, size) {
                if best != ti {
                    let score = self.table_score(best, &pairs, size).expect("covers");
                    if cur - score > self.config.min_gain {
                        self.relocate(s, Some(best));
                        continue;
                    }
                }
            }
            still_score += cur;
        }

        // Phase 2: residual margin still excessive → vote.
        if still_score <= self.config.bm_max {
            return;
        }
        for &s in &members {
            if !in_this_cluster(self, s) {
                continue;
            }
            if self.subs[s.index()].as_ref().expect("live sub").voted {
                continue;
            }
            let e = self.subs[s.index()].as_ref().expect("live sub");
            let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
            let cur = self.table_score(ti, &pairs, size).expect("scores");
            let schema: AttrSet = pairs.iter().map(|&(a, _)| a).collect();
            let mut voted = false;
            for subset in pubsub_cost::subsets_up_to(&schema, self.config.max_schema_len) {
                if self.by_schema.contains_key(&subset) {
                    continue;
                }
                // Only count the vote if the potential table would actually
                // lower this subscription's expected cost.
                let mut nu = 1.0f64;
                let mut covered = 0usize;
                for a in subset.iter() {
                    let v = pairs.iter().find(|&&(pa, _)| pa == a).expect("subset").1;
                    nu *= self.est.eq_selectivity(a, v);
                    covered += 1;
                }
                let score = nu * self.consts.checking(size, covered);
                let gain = cur - score;
                if gain > self.config.min_gain {
                    let overhead = self
                        .consts
                        .table_overhead(self.est.schema_inclusion(&subset), subset.len());
                    let p = self.potential.entry(subset.clone()).or_default();
                    p.count += 1;
                    p.gain += gain;
                    p.candidates.push(s);
                    // Create once enough subscriptions benefit (the paper's
                    // Bcreate) *and* the accumulated saving outweighs the
                    // table's per-event probe overhead (formula 3.1).
                    if !p.queued && p.count >= self.config.b_create && p.gain >= overhead {
                        p.queued = true;
                        self.ready.push(subset);
                    }
                    voted = true;
                }
            }
            if voted {
                self.subs[s.index()].as_mut().expect("live sub").voted = true;
            }
        }
    }

    /// Creates every potential table whose accumulated benefit reached
    /// `Bcreate` and redistributes its candidate subscriptions — the
    /// creation half of the paper's maintenance algorithm.
    fn create_ready_tables(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        // Most-voted first; deterministic tie-break.
        ready.sort_by(|a, b| {
            self.potential[b]
                .count
                .cmp(&self.potential[a].count)
                .then_with(|| a.to_sorted_vec().cmp(&b.to_sorted_vec()))
        });
        'next_schema: for schema in ready {
            let Some(pot) = self.potential.remove(&schema) else {
                continue;
            };
            if self.by_schema.contains_key(&schema) {
                continue;
            }
            // Votes go stale: a table created moments ago may already have
            // absorbed these candidates' benefit. Re-validate the total gain
            // against the candidates' *current* placements before paying for
            // another table.
            {
                let overhead = self
                    .consts
                    .table_overhead(self.est.schema_inclusion(&schema), schema.len());
                let mut live_gain = 0.0f64;
                let mut live_count = 0usize;
                for &s in &pot.candidates {
                    let Some(e) = self.subs.get(s.index()).and_then(|e| e.as_ref()) else {
                        continue;
                    };
                    let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
                    let cur = match self.current_table_of(s) {
                        Some(t) => self.table_score(t, &pairs, size).expect("scores"),
                        None => self.consts.checking(size, 0),
                    };
                    // Score under the would-be table.
                    let mut nu = 1.0f64;
                    let mut covered = 0usize;
                    let mut covers = true;
                    for a in schema.iter() {
                        match pairs.iter().find(|&&(pa, _)| pa == a) {
                            Some(&(_, v)) => {
                                nu *= self.est.eq_selectivity(a, v);
                                covered += 1;
                            }
                            None => {
                                covers = false;
                                break;
                            }
                        }
                    }
                    if !covers {
                        continue;
                    }
                    let score = nu * self.consts.checking(size, covered);
                    if cur - score > self.config.min_gain {
                        live_gain += cur - score;
                        live_count += 1;
                    }
                }
                if live_count < self.config.b_create || live_gain < overhead {
                    // Not worth it any more; let the candidates vote again
                    // from their current clusters if pressure returns.
                    for s in pot.candidates {
                        if let Some(e) = self.subs.get_mut(s.index()).and_then(|e| e.as_mut()) {
                            e.voted = false;
                        }
                    }
                    continue 'next_schema;
                }
            }
            self.create_table(schema);
            self.scratch.stats.tables_created += 1;
            for s in pot.candidates {
                if self.subs[s.index()].is_none() {
                    continue; // removed meanwhile
                }
                let e = self.subs[s.index()].as_ref().expect("live sub");
                let (pairs, size) = (e.eq_pairs.clone(), e.size as usize);
                let cur_table = self.current_table_of(s);
                let cur = match cur_table {
                    Some(t) => self.table_score(t, &pairs, size).expect("scores"),
                    None => self.consts.checking(size, 0),
                };
                if let Some(best) = self.best_table(&pairs, size) {
                    if Some(best) != cur_table {
                        let score = self.table_score(best, &pairs, size).expect("covers");
                        if cur - score > self.config.min_gain {
                            self.relocate(s, Some(best));
                        }
                    }
                }
            }
        }
    }

    // ---- static optimization (paper §3.2) -----------------------------------

    /// Runs the greedy cost-based optimizer over the full subscription set
    /// and rebuilds the table configuration to the resulting plan.
    pub fn reoptimize(&mut self, greedy: &GreedyConfig) {
        let mut ids: Vec<SubscriptionId> = Vec::with_capacity(self.live);
        let mut profiles: Vec<SubscriptionProfile> = Vec::with_capacity(self.live);
        for (i, e) in self.subs.iter().enumerate() {
            if let Some(e) = e {
                ids.push(SubscriptionId(i as u32));
                profiles.push(SubscriptionProfile {
                    eq_pairs: e.eq_pairs.clone(),
                    size: e.size as usize,
                });
            }
        }
        let plan = greedy_clustering(&profiles, &self.est, &self.consts, greedy);

        // Materialise the plan's tables.
        let mut plan_tables: Vec<usize> = Vec::with_capacity(plan.schemas.len());
        for schema in &plan.schemas {
            let idx = match self.by_schema.get(schema) {
                Some(&i) => i,
                None => self.create_table(schema.clone()),
            };
            plan_tables.push(idx);
        }

        // Re-place every subscription per the plan.
        for (k, &id) in ids.iter().enumerate() {
            let target = plan.assignment[k].map(|s| plan_tables[s]);
            if self.current_table_of(id) != target {
                self.relocate(id, target);
            }
        }

        // Remove tables the plan emptied.
        let empty: Vec<usize> = self
            .tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().filter(|t| t.population() == 0).map(|_| i))
            .collect();
        for idx in empty {
            self.drop_table(idx);
        }
    }
}

impl Indexed for ClusteredMatcher {
    fn index(&self) -> &PredicateIndex {
        &self.index
    }
}

impl<P> Phase2Engine for ClusteredMatcher<P> {
    const COUNTERS: EngineCounters = EngineCounters {
        events: &EVENTS,
        verified: &VERIFIED,
        matched: &MATCHED,
    };

    fn insert_ids(&mut self, id: SubscriptionId, sub: &Subscription, pred_ids: Vec<PredicateId>) {
        let need = id.index() + 1;
        if self.subs.len() < need {
            self.subs.resize_with(need, || None);
        }
        assert!(
            self.subs[id.index()].is_none(),
            "duplicate subscription id {id}"
        );
        let eq_pairs: Vec<(AttrId, Value)> = sub
            .equality_predicates()
            .iter()
            .map(|p| (p.attr, p.value))
            .collect();
        self.ensure_singletons(&eq_pairs);
        let best = self.best_table(&eq_pairs, sub.size());
        self.subs[id.index()] = Some(SubEntry {
            pred_ids,
            eq_pairs,
            size: sub.size() as u32,
            // Temporary; `place` overwrites it immediately.
            place: Placement::Fallback { width: 0, slot: 0 },
            voted: false,
        });
        self.place(id, best);
        self.live += 1;
        self.bump_ops();
    }

    /// The static engine runs its cost-based optimization here.
    fn seal(&mut self) {
        if self.mode == Mode::Static {
            self.reoptimize(&GreedyConfig::default());
        }
    }

    /// Probes every table whose schema the event covers (plus the fallback
    /// list) against `bits`. Returns candidates checked. The scratch's
    /// `view` and `probe_buf` are left cleared.
    fn phase2_view(
        &self,
        event: &Event,
        bits: &PredicateBitVec,
        _satisfied: &[PredicateId],
        scratch: &mut Phase2Scratch,
        out: &mut Vec<SubscriptionId>,
    ) -> u64 {
        let Phase2Scratch {
            view, probe_buf, ..
        } = scratch;
        let mut checked = 0usize;
        let schema = event.schema();
        // Dense attr → value view: probing every table per event must not
        // pay a binary search per schema attribute.
        for &(a, v) in event.pairs() {
            if view.len() <= a.index() {
                view.resize(a.index() + 1, None);
            }
            view[a.index()] = Some(v);
        }
        for table in self.tables.iter().flatten() {
            // A singleton table exists for every equality attribute any
            // subscription names, and placement leaves many empty: an
            // empty table cannot match, so skip its probe.
            if table.population() == 0 || !table.schema().is_subset(schema) {
                continue;
            }
            if let Some(list) = table.probe_view(view, probe_buf) {
                checked += list.match_into::<true>(bits, out);
            }
        }
        for &(a, _) in event.pairs() {
            view[a.index()] = None;
        }
        if !self.fallback.is_empty() {
            checked += self.fallback.match_into::<true>(bits, out);
        }
        checked as u64
    }
}

impl MatchEngine for ClusteredMatcher {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Static => "static",
            Mode::Dynamic => "dynamic",
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
        assert!(
            self.subs[id.index()].is_some(),
            "removing unknown subscription {id}"
        );
        self.unplace(id);
        let entry = self.subs[id.index()].take().expect("entry exists");
        for pid in entry.pred_ids {
            self.index.release(pid);
        }
        self.live -= 1;
        self.bump_ops();
    }

    /// Feeds the selectivity estimator and ticks the maintenance clock
    /// around the shared match driver. The `&self` [`MatchView`] does
    /// neither: under RCU the snapshot is immutable, so dynamic maintenance
    /// is driven solely by writer-side subscription churn (see DESIGN.md
    /// §12).
    fn match_event(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        if !self.stats_frozen {
            self.est.observe(event);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        self.match_view(event, &mut scratch, out);
        self.scratch = scratch;
        self.bump_ops();
    }

    /// Maintenance that an event in the batch triggers runs once the whole
    /// batch has matched.
    fn match_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        if !self.stats_frozen {
            for event in events {
                self.est.observe(event);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        self.match_batch_view(events, &mut scratch, out);
        self.scratch = scratch;
        for _ in events {
            self.bump_ops();
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn finalize(&mut self) {
        self.seal();
    }

    fn stats(&self) -> &EngineStats {
        &self.scratch.stats
    }

    fn reset_stats(&mut self) {
        self.scratch.stats.reset();
    }

    fn heap_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().flatten().map(|t| t.heap_bytes()).sum();
        let entries: usize = self
            .subs
            .iter()
            .flatten()
            .map(|e| e.pred_ids.capacity() * 4 + e.eq_pairs.capacity() * 24 + 48)
            .sum();
        tables + self.fallback.heap_bytes() + entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::Operator;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn sid(i: u32) -> SubscriptionId {
        SubscriptionId(i)
    }

    fn two_eq_sub(v0: i64, v1: i64) -> Subscription {
        Subscription::builder()
            .eq(a(0), v0)
            .eq(a(1), v1)
            .with(a(2), Operator::Lt, 100i64)
            .build()
            .unwrap()
    }

    #[test]
    fn basic_match_static_and_dynamic() {
        for mut m in [
            ClusteredMatcher::new_static(),
            ClusteredMatcher::new_dynamic(),
        ] {
            m.insert(sid(1), &two_eq_sub(1, 2));
            m.insert(sid(2), &two_eq_sub(1, 3));
            let e = Event::builder()
                .pair(a(0), 1i64)
                .pair(a(1), 2i64)
                .pair(a(2), 50i64)
                .build()
                .unwrap();
            let mut out = Vec::new();
            m.match_event(&e, &mut out);
            assert_eq!(out, vec![sid(1)], "{}", m.name());
        }
    }

    #[test]
    fn singleton_tables_created_lazily() {
        let mut m = ClusteredMatcher::new_dynamic();
        m.insert(sid(1), &two_eq_sub(1, 2));
        let summary = m.table_summary();
        assert_eq!(summary.len(), 2, "one singleton per equality attribute");
        assert!(summary.iter().all(|(s, _, _)| s.len() == 1));
        // The subscription lives in exactly one of them.
        let total: usize = summary.iter().map(|(_, p, _)| p).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn fallback_for_inequality_only() {
        let mut m = ClusteredMatcher::new_dynamic();
        let s = Subscription::builder()
            .with(a(0), Operator::Ge, 5i64)
            .build()
            .unwrap();
        m.insert(sid(1), &s);
        let mut out = Vec::new();
        m.match_event(
            &Event::builder().pair(a(0), 6i64).build().unwrap(),
            &mut out,
        );
        assert_eq!(out, vec![sid(1)]);
        m.remove(sid(1));
        assert!(m.is_empty());
    }

    #[test]
    fn static_finalize_builds_pair_tables() {
        let mut m = ClusteredMatcher::new_static();
        // A big population sharing the equality schema {0, 1}: after the
        // greedy pass a pair table should exist and hold everyone. The
        // population must be large enough that the expected saving beats the
        // honest per-event probe overhead of one more table (~75 K_c units).
        let mut id = 0u32;
        for v0 in 0..20i64 {
            for v1 in 0..20i64 {
                for _ in 0..3 {
                    m.insert(sid(id), &two_eq_sub(v0, v1));
                    id += 1;
                }
            }
        }
        // Feed uniform events so selectivities are realistic.
        let mut out = Vec::new();
        for i in 0..200i64 {
            let e = Event::builder()
                .pair(a(0), i % 20)
                .pair(a(1), (i / 3) % 20)
                .pair(a(2), 5i64)
                .build()
                .unwrap();
            m.match_event(&e, &mut out);
        }
        m.finalize();
        let has_pair = m
            .table_summary()
            .iter()
            .any(|(s, p, _)| s.len() == 2 && *p > 0);
        assert!(has_pair, "tables: {:?}", m.table_summary());

        // Matching still correct after the rebuild.
        out.clear();
        let e = Event::builder()
            .pair(a(0), 3i64)
            .pair(a(1), 4i64)
            .pair(a(2), 5i64)
            .build()
            .unwrap();
        m.match_event(&e, &mut out);
        assert_eq!(out.len(), 3, "three identical subscriptions per value cell");
    }

    #[test]
    fn dynamic_maintenance_creates_tables_under_load() {
        let mut m = ClusteredMatcher::new_dynamic_with(DynamicConfig {
            period: 512,
            bm_max: 4.0,
            b_create: 50,
            b_delete: 0,
            max_schema_len: 2,
            min_gain: 0.0,
            decay_stats: false,
        });
        // 400 subscriptions all with eq on attrs {0,1}, few distinct values:
        // singleton clusters get large and ν is high → margin explodes.
        let mut id = 0u32;
        for v0 in 0..2i64 {
            for v1 in 0..2i64 {
                for _ in 0..100 {
                    m.insert(sid(id), &two_eq_sub(v0, v1));
                    id += 1;
                }
            }
        }
        // Events keep selectivity estimates realistic and trigger passes.
        let mut out = Vec::new();
        for i in 0..1500i64 {
            let e = Event::builder()
                .pair(a(0), i % 2)
                .pair(a(1), (i / 2) % 2)
                .pair(a(2), 5i64)
                .build()
                .unwrap();
            out.clear();
            m.match_event(&e, &mut out);
            assert_eq!(out.len(), 100, "every event matches one value cell");
        }
        assert!(
            m.stats().tables_created > 0,
            "maintenance created multi-attribute tables: {:?}",
            m.table_summary()
        );
        let has_pair = m
            .table_summary()
            .iter()
            .any(|(s, p, _)| s.len() == 2 && *p > 0);
        assert!(has_pair, "tables: {:?}", m.table_summary());
    }

    #[test]
    fn weak_tables_are_deleted() {
        let mut m = ClusteredMatcher::new_dynamic_with(DynamicConfig {
            period: 100_000, // manual maintenance only
            bm_max: f64::INFINITY,
            b_create: usize::MAX,
            b_delete: 50,
            max_schema_len: 2,
            min_gain: 0.0,
            decay_stats: false,
        });
        // Two singleton tables; attr-1's table keeps only a handful of subs,
        // attr-0's table is big. Every sub has eq on both attrs, so each has
        // an alternative.
        for i in 0..100u32 {
            m.insert(sid(i), &two_eq_sub(i as i64, (i % 3) as i64));
        }
        let before = m.table_summary().len();
        assert_eq!(before, 2);
        m.run_maintenance();
        // One table must have fallen below 50 inhabitants and been emptied;
        // its subscriptions moved to the survivor. The empty singleton shell
        // is kept (natural clustering; recreating it on the next insert
        // would just thrash).
        let after = m.table_summary();
        let total: usize = after.iter().map(|(_, p, _)| p).sum();
        assert_eq!(total, 100, "survivor holds everyone: {after:?}");
        assert!(
            after.iter().any(|(_, p, _)| *p == 100),
            "single survivor table: {after:?}"
        );
        // Matching still works.
        let mut out = Vec::new();
        let e = Event::builder()
            .pair(a(0), 7i64)
            .pair(a(1), 1i64)
            .pair(a(2), 5i64)
            .build()
            .unwrap();
        m.match_event(&e, &mut out);
        assert_eq!(out, vec![sid(7)]);
    }

    #[test]
    fn removal_keeps_locations_consistent() {
        let mut m = ClusteredMatcher::new_dynamic();
        for i in 0..50u32 {
            m.insert(sid(i), &two_eq_sub((i % 5) as i64, (i % 7) as i64));
        }
        for i in (0..50u32).step_by(2) {
            m.remove(sid(i));
        }
        assert_eq!(m.len(), 25);
        let mut out = Vec::new();
        for i in (1..50u32).step_by(2) {
            out.clear();
            let e = Event::builder()
                .pair(a(0), (i % 5) as i64)
                .pair(a(1), (i % 7) as i64)
                .pair(a(2), 0i64)
                .build()
                .unwrap();
            m.match_event(&e, &mut out);
            assert!(out.contains(&sid(i)), "survivor {i} matches");
            assert!(out.iter().all(|s| s.0 % 2 == 1), "no ghost matches");
        }
    }

    #[test]
    fn duplicate_equality_on_same_attribute() {
        // price = 3 AND price = 5 is legal but unsatisfiable; the engine
        // must not crash and must never match.
        let mut m = ClusteredMatcher::new_dynamic();
        let s = Subscription::builder()
            .eq(a(0), 3i64)
            .eq(a(0), 5i64)
            .build()
            .unwrap();
        m.insert(sid(1), &s);
        let mut out = Vec::new();
        for v in [3i64, 5] {
            out.clear();
            let e = Event::builder().pair(a(0), v).build().unwrap();
            m.match_event(&e, &mut out);
            assert!(out.is_empty(), "value {v} cannot satisfy both predicates");
        }
        m.remove(sid(1));
    }
}
