//! Predicate interning and the phase-1 evaluator.
//!
//! Every distinct `(attribute, operator, value)` predicate in the system is
//! interned to a dense [`PredicateId`] with a reference count (one per
//! subscription using it; "indexes are updated only if s contains a new
//! predicate that is not already in the system", paper §2.3 footnote).
//!
//! Per attribute, the registry maintains:
//!
//! * a **hash index** for `=` predicates (one lookup per event pair),
//! * a **B+-tree interval index** for `<, ≤, ≥, >` predicates (two range
//!   scans per event pair: one ascending for `<`/`≤`, one descending for
//!   `>`/`≥`),
//! * a **list index** for `≠` predicates (scan-all-but-equal).
//!
//! [`PredicateIndex::eval_into`] runs the predicate phase of the matching
//! algorithm (paper Figure 2, step 1): it sets the bit of every satisfied
//! predicate and appends the satisfied ids to a caller-provided buffer.

use crate::bitvec::PredicateBitVec;
use crate::bptree::BPlusTree;
use crate::snapshot::OrderedSnapshot;
use pubsub_types::metrics::{Counter, Histogram};
use pubsub_types::{AttrId, Event, FxHashMap, Operator, Predicate, Value};
use std::ops::Bound;

/// Phase-1 evaluations answered by the flat snapshot path.
static SNAPSHOT_EVALS: Counter = Counter::new("index.phase1.snapshot_evals");
/// Batches evaluated through the batched phase-1 entry point.
static PHASE1_BATCHES: Counter = Counter::new("index.phase1.batches");
/// Events evaluated through the batched phase-1 entry point.
static PHASE1_BATCH_EVENTS: Counter = Counter::new("index.phase1.batch_events");
/// Distribution (log2 buckets) of batch sizes seen by the batched evaluator.
static PHASE1_BATCH_SIZE: Histogram = Histogram::new("index.phase1.batch_size");
/// Phase-1 evaluations answered by the B+-tree reference path.
static BTREE_EVALS: Counter = Counter::new("index.phase1.btree_evals");
/// Predicate bits set by phase 1 (satisfied predicates, both paths).
static BITS_SET: Counter = Counter::new("index.phase1.bits_set");
/// Snapshot merge-rebuilds forced via `rebuild_snapshots`.
static SNAPSHOT_FLUSHES: Counter = Counter::new("index.snapshot.flushes");
/// Predicates interned (new id minted or refcount bumped).
static PREDS_INTERNED: Counter = Counter::new("index.predicates.interned");
/// Predicates fully released (refcount hit zero).
static PREDS_RELEASED: Counter = Counter::new("index.predicates.released");

/// Dense id of an interned predicate; indexes the predicate bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateId(pub u32);

impl PredicateId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-`(key, ordered-op)` slots stored in the interval index.
///
/// Because predicates are interned, at most one predicate exists per
/// `(attribute, operator, constant)`, so each slot is an `Option`.
#[derive(Debug, Default, Clone, Copy)]
struct OpSlots {
    lt: Option<PredicateId>,
    le: Option<PredicateId>,
    ge: Option<PredicateId>,
    gt: Option<PredicateId>,
}

impl OpSlots {
    fn slot_mut(&mut self, op: Operator) -> &mut Option<PredicateId> {
        match op {
            Operator::Lt => &mut self.lt,
            Operator::Le => &mut self.le,
            Operator::Ge => &mut self.ge,
            Operator::Gt => &mut self.gt,
            _ => unreachable!("OpSlots only stores ordered operators"),
        }
    }

    fn is_empty(&self) -> bool {
        self.lt.is_none() && self.le.is_none() && self.ge.is_none() && self.gt.is_none()
    }
}

/// `≠` predicates on one attribute: a vector for scanning plus a position map
/// for O(1) removal.
#[derive(Debug, Default, Clone)]
struct NeIndex {
    items: Vec<(Value, PredicateId)>,
    pos: FxHashMap<Value, usize>,
}

impl NeIndex {
    fn insert(&mut self, value: Value, id: PredicateId) {
        debug_assert!(!self.pos.contains_key(&value));
        self.pos.insert(value, self.items.len());
        self.items.push((value, id));
    }

    fn remove(&mut self, value: Value) {
        if let Some(idx) = self.pos.remove(&value) {
            self.items.swap_remove(idx);
            if idx < self.items.len() {
                self.pos.insert(self.items[idx].0, idx);
            }
        }
    }
}

/// All index structures for one attribute.
///
/// Ordered predicates are indexed twice: the B+-trees are the mutation-
/// friendly reference structure (and the baseline the benchmarks compare
/// against), while the [`OrderedSnapshot`]s are the flat evaluation fast
/// path that [`PredicateIndex::eval_into`] actually reads.
#[derive(Debug, Default, Clone)]
struct AttrIndex {
    eq: FxHashMap<Value, PredicateId>,
    ne: NeIndex,
    ordered_int: BPlusTree<i64, OpSlots>,
    ordered_str: BPlusTree<u32, OpSlots>,
    snap_int: OrderedSnapshot<i64>,
    snap_str: OrderedSnapshot<u32>,
    /// Live predicates on this attribute (any operator); 0 lets the
    /// evaluator skip the attribute before any hash probe.
    live: u32,
}

#[derive(Debug, Clone)]
struct Entry {
    pred: Predicate,
    refcount: u32,
    live: bool,
}

/// The predicate registry and phase-1 evaluator.
#[derive(Debug, Default, Clone)]
pub struct PredicateIndex {
    entries: Vec<Entry>,
    free: Vec<u32>,
    by_key: FxHashMap<Predicate, PredicateId>,
    attrs: Vec<AttrIndex>,
    live: usize,
}

impl PredicateIndex {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct live predicates (the bit-vector population).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no predicate is interned.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity needed for a [`PredicateBitVec`] covering all ids.
    pub fn id_bound(&self) -> usize {
        self.entries.len()
    }

    /// The predicate for a live id.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn predicate(&self, id: PredicateId) -> &Predicate {
        let e = &self.entries[id.index()];
        assert!(e.live, "predicate id {id:?} is not live");
        &e.pred
    }

    /// Number of subscriptions currently referencing `id`.
    pub fn refcount(&self, id: PredicateId) -> u32 {
        self.entries[id.index()].refcount
    }

    fn attr_index_mut(&mut self, attr: AttrId) -> &mut AttrIndex {
        let idx = attr.index();
        if self.attrs.len() <= idx {
            self.attrs.resize_with(idx + 1, AttrIndex::default);
        }
        &mut self.attrs[idx]
    }

    /// Interns `pred` (or bumps its refcount) and returns its id.
    pub fn intern(&mut self, pred: Predicate) -> PredicateId {
        PREDS_INTERNED.inc();
        if let Some(&id) = self.by_key.get(&pred) {
            self.entries[id.index()].refcount += 1;
            return id;
        }
        let id = if let Some(slot) = self.free.pop() {
            self.entries[slot as usize] = Entry {
                pred,
                refcount: 1,
                live: true,
            };
            PredicateId(slot)
        } else {
            let id = PredicateId(self.entries.len() as u32);
            self.entries.push(Entry {
                pred,
                refcount: 1,
                live: true,
            });
            id
        };
        self.by_key.insert(pred, id);
        self.live += 1;

        let ai = self.attr_index_mut(pred.attr);
        ai.live += 1;
        match pred.op {
            Operator::Eq => {
                ai.eq.insert(pred.value, id);
            }
            Operator::Ne => {
                ai.ne.insert(pred.value, id);
            }
            op => {
                let slots = match pred.value {
                    Value::Int(i) => {
                        ai.snap_int.insert(op, i, id);
                        if ai.ordered_int.get(&i).is_none() {
                            ai.ordered_int.insert(i, OpSlots::default());
                        }
                        ai.ordered_int.get_mut(&i).expect("just inserted")
                    }
                    Value::Str(s) => {
                        ai.snap_str.insert(op, s.0, id);
                        if ai.ordered_str.get(&s.0).is_none() {
                            ai.ordered_str.insert(s.0, OpSlots::default());
                        }
                        ai.ordered_str.get_mut(&s.0).expect("just inserted")
                    }
                };
                *slots.slot_mut(op) = Some(id);
            }
        }
        id
    }

    /// Releases one reference to `id`; removes the predicate from all indexes
    /// when the count reaches zero. Returns `true` if the predicate was
    /// removed entirely.
    pub fn release(&mut self, id: PredicateId) -> bool {
        let e = &mut self.entries[id.index()];
        assert!(e.live, "releasing dead predicate {id:?}");
        e.refcount -= 1;
        if e.refcount > 0 {
            return false;
        }
        e.live = false;
        PREDS_RELEASED.inc();
        let pred = e.pred;
        self.by_key.remove(&pred);
        self.live -= 1;
        self.free.push(id.0);

        let ai = self.attr_index_mut(pred.attr);
        ai.live -= 1;
        match pred.op {
            Operator::Eq => {
                ai.eq.remove(&pred.value);
            }
            Operator::Ne => {
                ai.ne.remove(pred.value);
            }
            op => match pred.value {
                Value::Int(i) => {
                    ai.snap_int.remove(op, i);
                    if let Some(slots) = ai.ordered_int.get_mut(&i) {
                        *slots.slot_mut(op) = None;
                        if slots.is_empty() {
                            ai.ordered_int.remove(&i);
                        }
                    }
                }
                Value::Str(s) => {
                    ai.snap_str.remove(op, s.0);
                    if let Some(slots) = ai.ordered_str.get_mut(&s.0) {
                        *slots.slot_mut(op) = None;
                        if slots.is_empty() {
                            ai.ordered_str.remove(&s.0);
                        }
                    }
                }
            },
        }
        true
    }

    /// Looks up an interned predicate without changing its refcount.
    pub fn lookup(&self, pred: &Predicate) -> Option<PredicateId> {
        self.by_key.get(pred).copied()
    }

    /// Phase 1 of the matching algorithm: computes the set of predicates the
    /// event satisfies, setting their bits and appending their ids to
    /// `satisfied`.
    ///
    /// The caller owns both buffers so per-event allocation is zero; `bits`
    /// must have been cleared (or never written) and is grown here if the
    /// registry outgrew it.
    ///
    /// Ordered predicates are answered by the flat [`crate::snapshot`]
    /// evaluator — a binary search per direction plus contiguous remap-table
    /// runs — never by the B+-tree (which
    /// [`PredicateIndex::eval_into_btree`] keeps available as the reference
    /// path).
    pub fn eval_into(
        &self,
        event: &Event,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        SNAPSHOT_EVALS.inc();
        let satisfied_before = satisfied.len();
        bits.ensure_capacity(self.entries.len());
        for &(attr, value) in event.pairs() {
            let Some(ai) = self.attrs.get(attr.index()) else {
                continue;
            };
            // Attribute carries no live predicate: skip before any hash probe.
            if ai.live == 0 {
                continue;
            }
            // Equality: one hash probe.
            if let Some(&id) = ai.eq.get(&value) {
                bits.set(id.0);
                satisfied.push(id);
            }
            // Inequality (≠): everything with a different constant matches,
            // including constants of the other kind.
            if !ai.ne.items.is_empty() {
                for &(c, id) in &ai.ne.items {
                    if c != value {
                        bits.set(id.0);
                        satisfied.push(id);
                    }
                }
            }
            // Ordered operators: two snapshot runs on the matching kind.
            match value {
                Value::Int(x) => ai.snap_int.eval_into(x, bits, satisfied),
                Value::Str(s) => ai.snap_str.eval_into(s.0, bits, satisfied),
            }
        }
        BITS_SET.add((satisfied.len() - satisfied_before) as u64);
    }

    /// Batched phase 1: evaluates a whole batch of events **attribute-major**
    /// against one reusable [`Phase1Batch`] scratch.
    ///
    /// Instead of touching every attribute's indexes once per `(event,
    /// attribute)` pair, the batch's values are bucketed per attribute and
    /// each attribute's hash/≠/snapshot indexes are traversed once for the
    /// whole batch: equality and `≠` probe per bucketed value, and the
    /// ordered snapshots see the bucket *sorted ascending*, which turns
    /// their per-direction binary searches into one monotone gallop over the
    /// breakpoint array (see [`crate::snapshot`]) with word-parallel
    /// bit-setting through precomputed block masks.
    ///
    /// The scan records only *run boundaries* per event; call
    /// [`PredicateIndex::materialize`] on each event (in any order, one at a
    /// time) to fill the batch's shared output slot, after which
    /// `batch.satisfied(i)` and `batch.bits(i)` hold event `i`'s satisfied
    /// ids and bit vector (ids in a different order than the scalar path —
    /// attribute-major, not event-major). Materialized output is exactly
    /// equivalent to [`PredicateIndex::eval_into`] per event. All scratch in
    /// `batch` is retained across calls, so a warmed-up batch allocates
    /// nothing.
    pub fn eval_batch_into(&self, events: &[Event], batch: &mut Phase1Batch) {
        PHASE1_BATCHES.inc();
        PHASE1_BATCH_EVENTS.add(events.len() as u64);
        PHASE1_BATCH_SIZE.record(events.len() as u64);
        SNAPSHOT_EVALS.add(events.len() as u64);
        let fingerprint = batch.capacity_fingerprint();
        batch.len = events.len();
        batch.cursor = None;
        if batch.extras.len() < events.len() {
            batch.extras.resize_with(events.len(), Vec::new);
            batch.runs.resize_with(events.len(), Vec::new);
        }
        if batch.buckets.len() < self.attrs.len() {
            batch.buckets.resize_with(self.attrs.len(), Vec::new);
        }
        batch.touched.clear();
        for i in 0..events.len() {
            batch.extras[i].clear();
            batch.runs[i].clear();
        }
        // Bucket the batch attribute-major: (value, event slot) per attribute.
        for (i, event) in events.iter().enumerate() {
            for &(attr, value) in event.pairs() {
                let Some(ai) = self.attrs.get(attr.index()) else {
                    continue;
                };
                if ai.live == 0 {
                    continue;
                }
                let bucket = &mut batch.buckets[attr.index()];
                if bucket.is_empty() {
                    batch.touched.push(attr.0);
                }
                bucket.push((value, i as u32));
            }
        }
        // One pass over each touched attribute's indexes for the whole batch.
        // Only boundaries are recorded here; the (possibly large) per-event
        // output is materialized later, one cache-hot event at a time.
        for t in 0..batch.touched.len() {
            let a = batch.touched[t] as usize;
            let ai = &self.attrs[a];
            let bucket = std::mem::take(&mut batch.buckets[a]);
            batch.sorted_int.clear();
            batch.sorted_str.clear();
            // Equality-only attributes (both ordered snapshots empty) skip
            // value collection and the sort entirely — there is no
            // breakpoint array to scan, so the batch degenerates to the
            // same hash probes the scalar path does.
            let want_int = !ai.snap_int.is_empty();
            let want_str = !ai.snap_str.is_empty();
            for &(value, ev) in &bucket {
                let i = ev as usize;
                if let Some(&id) = ai.eq.get(&value) {
                    batch.extras[i].push(id);
                }
                for &(c, id) in &ai.ne.items {
                    if c != value {
                        batch.extras[i].push(id);
                    }
                }
                match value {
                    Value::Int(x) if want_int => batch.sorted_int.push((x, ev)),
                    Value::Str(s) if want_str => batch.sorted_str.push((s.0, ev)),
                    _ => {}
                }
            }
            batch.sorted_int.sort_unstable();
            batch.sorted_str.sort_unstable();
            let runs = &mut batch.runs;
            ai.snap_int
                .record_batch_runs(&batch.sorted_int, |suffix, ev, b, d| {
                    runs[ev as usize].push(RunRec {
                        attr: a as u32,
                        str_kind: false,
                        suffix,
                        b,
                        d,
                    });
                });
            ai.snap_str
                .record_batch_runs(&batch.sorted_str, |suffix, ev, b, d| {
                    runs[ev as usize].push(RunRec {
                        attr: a as u32,
                        str_kind: true,
                        suffix,
                        b,
                        d,
                    });
                });
            let mut bucket = bucket;
            bucket.clear();
            batch.buckets[a] = bucket;
        }
        if batch.capacity_fingerprint() != fingerprint {
            batch.regrowths += 1;
        }
    }

    /// Materializes event `i` of the last [`PredicateIndex::eval_batch_into`]
    /// call: emits the recorded run boundaries and eq/≠ hits into the batch's
    /// single reusable output slot, after which [`Phase1Batch::satisfied`]
    /// and [`Phase1Batch::bits`] serve event `i`. One event is live at a
    /// time — materializing event `i + 1` invalidates event `i`'s slices —
    /// which is what keeps large batches cache-resident: the attribute-major
    /// scan writes only boundary records, and each event's full output is
    /// built right before its phase 2 consumes it.
    ///
    /// The recorded boundaries are only valid against the exact index state
    /// they were computed from: any intern/release/rebuild between
    /// `eval_batch_into` and this call invalidates the batch.
    ///
    /// # Panics
    /// Panics if `i` is outside the last batch.
    pub fn materialize(&self, batch: &mut Phase1Batch, i: usize) {
        assert!(i < batch.len, "event {i} outside batch of {}", batch.len);
        batch.cur_sat.clear();
        batch.cur_bits.clear();
        batch.cur_bits.ensure_capacity(self.entries.len());
        let extras = &batch.extras[i];
        batch.cur_bits.set_from_slice(extras);
        batch.cur_sat.extend_from_slice(extras);
        for r in &batch.runs[i] {
            let ai = &self.attrs[r.attr as usize];
            if r.str_kind {
                ai.snap_str.emit_recorded(
                    r.suffix,
                    r.b,
                    r.d,
                    &mut batch.cur_bits,
                    &mut batch.cur_sat,
                );
            } else {
                ai.snap_int.emit_recorded(
                    r.suffix,
                    r.b,
                    r.d,
                    &mut batch.cur_bits,
                    &mut batch.cur_sat,
                );
            }
        }
        batch.cursor = Some(i);
        BITS_SET.add(batch.cur_sat.len() as u64);
    }

    /// The pre-snapshot phase-1 evaluator: identical contract to
    /// [`PredicateIndex::eval_into`], but ordered predicates are resolved by
    /// two B+-tree range scans per event pair. Kept as the reference
    /// implementation for the equivalence property tests and as the baseline
    /// of the `phase1_micro` benchmark.
    pub fn eval_into_btree(
        &self,
        event: &Event,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        BTREE_EVALS.inc();
        let satisfied_before = satisfied.len();
        bits.ensure_capacity(self.entries.len());
        for &(attr, value) in event.pairs() {
            let Some(ai) = self.attrs.get(attr.index()) else {
                continue;
            };
            if ai.live == 0 {
                continue;
            }
            if let Some(&id) = ai.eq.get(&value) {
                bits.set(id.0);
                satisfied.push(id);
            }
            for &(c, id) in &ai.ne.items {
                if c != value {
                    bits.set(id.0);
                    satisfied.push(id);
                }
            }
            match value {
                Value::Int(x) => {
                    scan_ordered(&ai.ordered_int, x, bits, satisfied);
                }
                Value::Str(s) => {
                    scan_ordered(&ai.ordered_str, s.0, bits, satisfied);
                }
            }
        }
        BITS_SET.add((satisfied.len() - satisfied_before) as u64);
    }

    /// Convenience wrapper for tests: evaluates and returns the satisfied set.
    pub fn eval(&self, event: &Event) -> Vec<PredicateId> {
        let mut bits = PredicateBitVec::with_capacity(self.entries.len());
        let mut out = Vec::new();
        self.eval_into(event, &mut bits, &mut out);
        out
    }

    /// Convenience wrapper for tests: the B+-tree reference evaluation.
    pub fn eval_btree(&self, event: &Event) -> Vec<PredicateId> {
        let mut bits = PredicateBitVec::with_capacity(self.entries.len());
        let mut out = Vec::new();
        self.eval_into_btree(event, &mut bits, &mut out);
        out
    }

    /// Merge-rebuilds every attribute snapshot that has pending delta or
    /// tombstone state, so subsequent matching runs overlay-free. Useful
    /// after a bulk load; never required for correctness.
    pub fn rebuild_snapshots(&mut self) {
        SNAPSHOT_FLUSHES.inc();
        for ai in &mut self.attrs {
            ai.snap_int.flush();
            ai.snap_str.flush();
        }
    }

    /// Total snapshot merge-rebuilds performed so far, across all attributes
    /// (the generation counter of the snapshot index; diagnostics/tests).
    pub fn snapshot_rebuilds(&self) -> u64 {
        self.attrs
            .iter()
            .map(|ai| ai.snap_int.rebuilds() + ai.snap_str.rebuilds())
            .sum()
    }

    /// Heap bytes held by the snapshot arrays and overlays (Fig 3c bookkeeping).
    pub fn snapshot_heap_bytes(&self) -> usize {
        self.attrs
            .iter()
            .map(|ai| ai.snap_int.heap_bytes() + ai.snap_str.heap_bytes())
            .sum()
    }

    /// Iterates over all live `(id, predicate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PredicateId, &Predicate)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.live)
            .map(|(i, e)| (PredicateId(i as u32), &e.pred))
    }
}

/// One recorded snapshot run: which attribute/kind/direction, plus the
/// snapshot and delta-overlay boundaries the gallop landed on. 16 bytes per
/// run — the whole attribute-major pass writes only these, deferring the
/// (possibly megabytes of) satisfied-id/bit output to
/// [`PredicateIndex::materialize`].
#[derive(Debug, Clone, Copy)]
struct RunRec {
    /// Attribute slot in the registry's attribute table.
    attr: u32,
    /// `false` = integer snapshot, `true` = interned-string snapshot.
    str_kind: bool,
    /// Direction: `true` = upper (`<`/`≤`, suffix run), `false` = lower.
    suffix: bool,
    /// Snapshot breakpoint boundary.
    b: u32,
    /// Delta-overlay boundary.
    d: u32,
}

/// Reusable scratch + per-event results for one batched phase-1 evaluation
/// ([`PredicateIndex::eval_batch_into`]).
///
/// The batched evaluator stores only *boundary records* per event (a few
/// hundred bytes each); the full satisfied-id list and bit vector live in a
/// **single** output slot shared by the whole batch, filled one event at a
/// time by [`PredicateIndex::materialize`]. That keeps a large batch's
/// working set cache-resident instead of streaming `batch × output` bytes
/// through memory twice. Everything is retained across calls, so a
/// warmed-up batch performs zero steady-state allocation — tracked by a
/// capacity fingerprint and surfaced through
/// [`Phase1Batch::scratch_regrowths`].
#[derive(Debug, Default)]
pub struct Phase1Batch {
    /// Events in the current batch (slots beyond this are stale scratch).
    len: usize,
    /// Per-event eq/≠ hits (small; recorded eagerly during the scan).
    extras: Vec<Vec<PredicateId>>,
    /// Per-event recorded snapshot runs.
    runs: Vec<Vec<RunRec>>,
    /// The one materialized satisfied-id list (attribute-major order).
    cur_sat: Vec<PredicateId>,
    /// The one materialized predicate bit vector.
    cur_bits: PredicateBitVec,
    /// Which event the output slot currently holds.
    cursor: Option<usize>,
    /// Attribute ids touched by the current batch.
    touched: Vec<u32>,
    /// Per-attribute `(value, event slot)` buckets.
    buckets: Vec<Vec<(Value, u32)>>,
    /// Sorted `(int value, event slot)` scratch for the snapshot gallop.
    sorted_int: Vec<(i64, u32)>,
    /// Sorted `(symbol id, event slot)` scratch for the snapshot gallop.
    sorted_str: Vec<(u32, u32)>,
    /// Times a call grew any scratch capacity after the first.
    regrowths: u64,
}

impl Phase1Batch {
    /// Creates an empty batch scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events evaluated by the most recent call.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events have been evaluated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Satisfied predicate ids for event `i` of the last batch. Event `i`
    /// must be the one currently materialized
    /// ([`PredicateIndex::materialize`]).
    ///
    /// Ids arrive attribute-major (all of attribute A's hits, then B's), not
    /// in the scalar evaluator's event-major order — equal as *sets*.
    ///
    /// # Panics
    /// Panics if event `i` is not the materialized event.
    pub fn satisfied(&self, i: usize) -> &[PredicateId] {
        assert_eq!(
            self.cursor,
            Some(i),
            "event {i} is not materialized (call PredicateIndex::materialize first)"
        );
        &self.cur_sat
    }

    /// Predicate bit vector for event `i` of the last batch. Event `i` must
    /// be the one currently materialized ([`PredicateIndex::materialize`]).
    ///
    /// # Panics
    /// Panics if event `i` is not the materialized event.
    pub fn bits(&self, i: usize) -> &PredicateBitVec {
        assert_eq!(
            self.cursor,
            Some(i),
            "event {i} is not materialized (call PredicateIndex::materialize first)"
        );
        &self.cur_bits
    }

    /// Resets event `i`'s state (keeping all capacity) — called by engines
    /// as soon as the event's phase 2 has consumed it. Clears the shared
    /// output slot if it holds event `i`.
    pub fn clear_event(&mut self, i: usize) {
        if self.cursor == Some(i) {
            self.cursor = None;
            self.cur_sat.clear();
            self.cur_bits.clear();
        }
        if let Some(e) = self.extras.get_mut(i) {
            e.clear();
        }
        if let Some(r) = self.runs.get_mut(i) {
            r.clear();
        }
    }

    /// Times a call to [`PredicateIndex::eval_batch_into`] had to grow any
    /// scratch buffer after the warm-up call. A steady-state workload keeps
    /// this flat; the zero-allocation tests assert exactly that.
    pub fn scratch_regrowths(&self) -> u64 {
        self.regrowths
    }

    /// Sum of every scratch capacity, in bytes-ish units — any allocation in
    /// the hot path changes this.
    fn capacity_fingerprint(&self) -> usize {
        let mut fp = self.extras.capacity()
            + self.runs.capacity()
            + self.cur_sat.capacity()
            + self.cur_bits.heap_bytes()
            + self.touched.capacity()
            + self.buckets.capacity()
            + self.sorted_int.capacity()
            + self.sorted_str.capacity();
        for e in &self.extras {
            fp += e.capacity();
        }
        for r in &self.runs {
            fp += r.capacity();
        }
        for bk in &self.buckets {
            fp += bk.capacity();
        }
        fp
    }
}

/// Pushes the satisfied ordered predicates for an event value `x`:
/// * ascending over constants `c ≥ x`: `≤` always (x ≤ c), `<` when `c > x`;
/// * descending over constants `c ≤ x`: `≥` always (x ≥ c), `>` when `c < x`.
fn scan_ordered<K: Ord + Copy + std::fmt::Debug>(
    tree: &BPlusTree<K, OpSlots>,
    x: K,
    bits: &mut PredicateBitVec,
    satisfied: &mut Vec<PredicateId>,
) {
    for (c, slots) in tree.range(Bound::Included(x), Bound::Unbounded) {
        if let Some(id) = slots.le {
            bits.set(id.0);
            satisfied.push(id);
        }
        if c > x {
            if let Some(id) = slots.lt {
                bits.set(id.0);
                satisfied.push(id);
            }
        }
    }
    for (c, slots) in tree.range_rev(Bound::Unbounded, Bound::Included(x)) {
        if let Some(id) = slots.ge {
            bits.set(id.0);
            satisfied.push(id);
        }
        if c < x {
            if let Some(id) = slots.gt {
                bits.set(id.0);
                satisfied.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::Symbol;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn event(pairs: Vec<(AttrId, Value)>) -> Event {
        Event::from_pairs(pairs).unwrap()
    }

    #[test]
    fn interning_dedups_and_refcounts() {
        let mut idx = PredicateIndex::new();
        let p = Predicate::new(a(0), Operator::Eq, 5i64);
        let id1 = idx.intern(p);
        let id2 = idx.intern(p);
        assert_eq!(id1, id2);
        assert_eq!(idx.refcount(id1), 2);
        assert_eq!(idx.len(), 1);
        assert!(!idx.release(id1));
        assert!(idx.release(id1));
        assert!(idx.is_empty());
    }

    #[test]
    fn freed_ids_are_reused() {
        let mut idx = PredicateIndex::new();
        let id1 = idx.intern(Predicate::new(a(0), Operator::Eq, 1i64));
        idx.release(id1);
        let id2 = idx.intern(Predicate::new(a(0), Operator::Eq, 2i64));
        assert_eq!(id1, id2, "slot is recycled");
        assert_eq!(idx.predicate(id2).value, Value::Int(2));
    }

    #[test]
    fn equality_evaluation() {
        let mut idx = PredicateIndex::new();
        let hit = idx.intern(Predicate::new(a(0), Operator::Eq, 5i64));
        let _miss = idx.intern(Predicate::new(a(0), Operator::Eq, 6i64));
        let _other_attr = idx.intern(Predicate::new(a(1), Operator::Eq, 5i64));
        let sat = idx.eval(&event(vec![(a(0), Value::Int(5))]));
        assert_eq!(sat, vec![hit]);
    }

    #[test]
    fn ordered_evaluation_covers_all_operators() {
        let mut idx = PredicateIndex::new();
        // Constants 10 and 20 for every ordered operator.
        let mut ids = std::collections::HashMap::new();
        for op in [Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt] {
            for c in [10i64, 20] {
                ids.insert((op, c), idx.intern(Predicate::new(a(0), op, c)));
            }
        }
        // Event value 10: matches <=10 (10<=10), <20, <=20, >=10... let's
        // enumerate: lt: 10<c -> c=20. le: 10<=c -> 10, 20. ge: 10>=c -> 10.
        // gt: 10>c -> none.
        let mut sat = idx.eval(&event(vec![(a(0), Value::Int(10))]));
        sat.sort();
        let mut expect = vec![
            ids[&(Operator::Lt, 20)],
            ids[&(Operator::Le, 10)],
            ids[&(Operator::Le, 20)],
            ids[&(Operator::Ge, 10)],
        ];
        expect.sort();
        assert_eq!(sat, expect);

        // Event value 15: lt 20, le 20, ge 10, gt 10.
        let mut sat = idx.eval(&event(vec![(a(0), Value::Int(15))]));
        sat.sort();
        let mut expect = vec![
            ids[&(Operator::Lt, 20)],
            ids[&(Operator::Le, 20)],
            ids[&(Operator::Ge, 10)],
            ids[&(Operator::Gt, 10)],
        ];
        expect.sort();
        assert_eq!(sat, expect);
    }

    #[test]
    fn ne_evaluation_matches_other_values_and_kinds() {
        let mut idx = PredicateIndex::new();
        let ne5 = idx.intern(Predicate::new(a(0), Operator::Ne, 5i64));
        let ne7 = idx.intern(Predicate::new(a(0), Operator::Ne, 7i64));
        let ne_str = idx.intern(Predicate::new(a(0), Operator::Ne, Value::Str(Symbol(0))));

        let mut sat = idx.eval(&event(vec![(a(0), Value::Int(5))]));
        sat.sort();
        let mut expect = vec![ne7, ne_str];
        expect.sort();
        assert_eq!(sat, expect, "5 != 7 and 5 != \"sym0\", but not 5 != 5");
        let _ = ne5;
    }

    #[test]
    fn string_ordered_uses_symbol_order() {
        let mut idx = PredicateIndex::new();
        let lt = idx.intern(Predicate::new(a(0), Operator::Lt, Value::Str(Symbol(5))));
        let sat = idx.eval(&event(vec![(a(0), Value::Str(Symbol(3)))]));
        assert_eq!(sat, vec![lt]);
        let sat = idx.eval(&event(vec![(a(0), Value::Str(Symbol(5)))]));
        assert!(sat.is_empty());
        // Integers never match string inequality predicates.
        let sat = idx.eval(&event(vec![(a(0), Value::Int(3))]));
        assert!(sat.is_empty());
    }

    #[test]
    fn eval_against_brute_force() {
        // Dense little universe, every operator, every value.
        let mut idx = PredicateIndex::new();
        let mut preds = Vec::new();
        for attr in 0..3u32 {
            for op in Operator::ALL {
                for c in 0..6i64 {
                    let p = Predicate::new(a(attr), op, c);
                    idx.intern(p);
                    preds.push(p);
                }
            }
        }
        for v0 in 0..6i64 {
            for v1 in 0..6i64 {
                let e = event(vec![(a(0), Value::Int(v0)), (a(2), Value::Int(v1))]);
                let mut got: Vec<Predicate> =
                    idx.eval(&e).iter().map(|&id| *idx.predicate(id)).collect();
                let mut want: Vec<Predicate> = preds
                    .iter()
                    .filter(|p| p.matches_event(&e))
                    .copied()
                    .collect();
                let key = |p: &Predicate| (p.attr.0, p.op as u8, p.value.as_int().unwrap());
                got.sort_by_key(key);
                want.sort_by_key(key);
                assert_eq!(got, want, "event ({v0}, {v1})");
            }
        }
    }

    #[test]
    fn release_removes_from_ordered_index() {
        let mut idx = PredicateIndex::new();
        let id = idx.intern(Predicate::new(a(0), Operator::Lt, 10i64));
        let id2 = idx.intern(Predicate::new(a(0), Operator::Gt, 10i64));
        idx.release(id);
        let sat = idx.eval(&event(vec![(a(0), Value::Int(5))]));
        assert!(sat.is_empty(), "released < predicate must not fire");
        let sat = idx.eval(&event(vec![(a(0), Value::Int(15))]));
        assert_eq!(sat, vec![id2], "sibling > predicate on same key survives");
    }

    #[test]
    fn bits_are_set_for_satisfied_predicates() {
        let mut idx = PredicateIndex::new();
        let id = idx.intern(Predicate::new(a(0), Operator::Ge, 3i64));
        let mut bits = PredicateBitVec::new();
        let mut sat = Vec::new();
        idx.eval_into(&event(vec![(a(0), Value::Int(4))]), &mut bits, &mut sat);
        assert!(bits.get(id.0));
        assert_eq!(sat, vec![id]);
    }

    #[test]
    fn unknown_event_attributes_are_ignored() {
        let mut idx = PredicateIndex::new();
        idx.intern(Predicate::new(a(0), Operator::Eq, 1i64));
        let sat = idx.eval(&event(vec![(a(99), Value::Int(1))]));
        assert!(sat.is_empty());
    }

    /// Runs `events` through both the scalar and batched evaluators and
    /// asserts identical satisfied sets and bit vectors per event.
    fn assert_batch_matches_scalar(idx: &PredicateIndex, events: &[Event]) {
        let mut batch = Phase1Batch::new();
        idx.eval_batch_into(events, &mut batch);
        assert_eq!(batch.len(), events.len());
        for (i, e) in events.iter().enumerate() {
            idx.materialize(&mut batch, i);
            let mut want = idx.eval(e);
            want.sort();
            let mut got: Vec<PredicateId> = batch.satisfied(i).to_vec();
            got.sort();
            assert_eq!(got, want, "event {i}: {e:?}");
            for &id in &got {
                assert!(batch.bits(i).get(id.0), "event {i} bit {id:?}");
            }
            assert_eq!(
                batch.bits(i).count_ones(),
                got.len(),
                "event {i}: spurious bits"
            );
        }
    }

    #[test]
    fn batched_agrees_with_scalar_across_operators_and_kinds() {
        let mut idx = PredicateIndex::new();
        for attr in 0..3u32 {
            for op in Operator::ALL {
                for c in 0..8i64 {
                    idx.intern(Predicate::new(a(attr), op, c));
                }
                for s in 0..4u32 {
                    idx.intern(Predicate::new(a(attr), op, Value::Str(Symbol(s))));
                }
            }
        }
        let mut events = Vec::new();
        for v in 0..10i64 {
            events.push(event(vec![
                (a(0), Value::Int(v)),
                (a(1), Value::Int(9 - v)),
                (a(2), Value::Str(Symbol((v % 5) as u32))),
            ]));
        }
        // Duplicate values across the batch exercise the boundary cache.
        events.push(event(vec![(a(0), Value::Int(3)), (a(1), Value::Int(3))]));
        events.push(event(vec![(a(0), Value::Int(3))]));
        events.push(event(vec![(a(99), Value::Int(1))]));
        assert_batch_matches_scalar(&idx, &events);
    }

    #[test]
    fn batched_agrees_under_churn_and_delta_overlay() {
        let mut idx = PredicateIndex::new();
        let mut ids = Vec::new();
        for c in 0..64i64 {
            ids.push(idx.intern(Predicate::new(a(0), Operator::Le, c)));
        }
        idx.rebuild_snapshots();
        // Tombstones and a delta overlay on top of the flushed snapshot.
        for &i in &[3usize, 17, 40, 63] {
            idx.release(ids[i]);
        }
        for c in 100..110i64 {
            idx.intern(Predicate::new(a(0), Operator::Ge, c));
        }
        let events: Vec<Event> = (0..120)
            .step_by(7)
            .map(|v| event(vec![(a(0), Value::Int(v))]))
            .collect();
        assert_batch_matches_scalar(&idx, &events);
    }

    #[test]
    fn batched_empty_batch_and_empty_index() {
        let idx = PredicateIndex::new();
        let mut batch = Phase1Batch::new();
        idx.eval_batch_into(&[], &mut batch);
        assert!(batch.is_empty());
        let events = vec![event(vec![(a(0), Value::Int(1))])];
        idx.eval_batch_into(&events, &mut batch);
        assert_eq!(batch.len(), 1);
        idx.materialize(&mut batch, 0);
        assert!(batch.satisfied(0).is_empty());
    }

    #[test]
    fn batch_scratch_does_not_regrow_in_steady_state() {
        let mut idx = PredicateIndex::new();
        for op in Operator::ALL {
            for c in 0..32i64 {
                idx.intern(Predicate::new(a(0), op, c));
            }
        }
        let events: Vec<Event> = (0..64)
            .map(|v| event(vec![(a(0), Value::Int(v % 40))]))
            .collect();
        let mut batch = Phase1Batch::new();
        // Warm-up may allocate; afterwards the fingerprint must hold still.
        idx.eval_batch_into(&events, &mut batch);
        idx.eval_batch_into(&events, &mut batch);
        let after_warmup = batch.scratch_regrowths();
        for _ in 0..16 {
            idx.eval_batch_into(&events, &mut batch);
            for i in 0..events.len() {
                idx.materialize(&mut batch, i);
                batch.clear_event(i);
            }
        }
        assert_eq!(
            batch.scratch_regrowths(),
            after_warmup,
            "steady-state batches must not allocate"
        );
    }

    #[test]
    fn clear_event_resets_slot_for_reuse() {
        let mut idx = PredicateIndex::new();
        let id = idx.intern(Predicate::new(a(0), Operator::Ge, 0i64));
        let events = vec![event(vec![(a(0), Value::Int(5))])];
        let mut batch = Phase1Batch::new();
        idx.eval_batch_into(&events, &mut batch);
        idx.materialize(&mut batch, 0);
        assert_eq!(batch.satisfied(0), &[id]);
        batch.clear_event(0);
        // The cleared slot re-materializes empty (its records are gone)...
        idx.materialize(&mut batch, 0);
        assert!(batch.satisfied(0).is_empty());
        assert_eq!(batch.bits(0).count_ones(), 0);
        // ...and the next batch refills it.
        idx.eval_batch_into(&events, &mut batch);
        idx.materialize(&mut batch, 0);
        assert_eq!(batch.satisfied(0), &[id]);
    }
}
