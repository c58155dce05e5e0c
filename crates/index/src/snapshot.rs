//! Flat snapshot index for ordered predicates — the cache-conscious phase-1
//! fast path.
//!
//! This module keeps each attribute's ordered predicates in immutable sorted
//! arrays where the satisfied set for any event value is **one contiguous
//! run per direction**, so evaluation is a branchless binary search plus a
//! bulk bit-set:
//!
//! ```text
//!              upper direction (<, ≤)            lower direction (≥, >)
//!   keys: [(c0,r) (c1,r) (c2,r) (c3,r) …]   [(c0,r) (c1,r) (c2,r) …]
//!   ids:  [ p17    p4     p9     p23   …]   [ p3     p11    p6    …]
//!                  ▲______________________          ▲________
//!                  satisfied = suffix run           satisfied = prefix run
//! ```
//!
//! *Run space*: positions in the sorted array. The parallel `ids` vector is
//! the remap table from run space back to real [`PredicateId`]s; a run
//! `[lo, hi)` is resolved with `ids[lo..hi]`, which feeds
//! [`PredicateBitVec::set_from_slice`] and `Vec::extend_from_slice` directly.
//!
//! Within one direction the two operators are merged by a tie-break rank so
//! a single search serves both: for the upper direction `<` sorts before `≤`
//! at equal constants (rank 0 vs 1), and the satisfied set is exactly the
//! suffix starting at `partition_point(key < (x, 1))`; symmetrically the
//! lower direction (`≥` rank 0, `>` rank 1) is the prefix ending there.
//!
//! **Mutations** do not rewrite the snapshot. Inserts go to a small sorted
//! delta overlay (searched the same way at eval time); removals of
//! snapshot-resident predicates record a *tombstone position*, and the run is
//! emitted as segments around tombstones. Once an attribute's pending
//! mutation count exceeds [`rebuild_threshold`], the snapshot and delta are
//! merge-rebuilt in one O(n) pass — so the overlay stays small, and churn
//! costs amortized O(1) per mutation.
//!
//! **Batch-major evaluation** (`eval_batch_into`): callers hand over a whole
//! batch's `(value, event slot)` pairs sorted ascending. Because boundaries
//! of an ascending value sequence are monotone, each direction's breakpoint
//! array is walked *once per batch*: an exponential gallop brackets every
//! boundary and a word-parallel lower bound ([`crate::kernels`]) resolves it
//! inside the bracket. Each rebuild also precomputes, per 64-position block
//! of the remap table, the `(bit-vector word, mask)` pairs covering that
//! block's ids — so a satisfied run sets its bits with one OR per touched
//! word (partial head/tail blocks go per-id), instead of one mask merge per
//! id. Tombstones patch the affected block mask in place, keeping the
//! full-block ORs exact between rebuilds.

use crate::bitvec::PredicateBitVec;
use crate::kernels::{self, SnapKey};
use crate::registry::PredicateId;
use pubsub_types::Operator;

/// Remap-table positions covered by one precomputed block of word masks.
const BLOCK: usize = 64;

/// Pending mutations (delta inserts + tombstones) an attribute's direction
/// may accumulate before its snapshot is merge-rebuilt.
///
/// Proportional to the snapshot so rebuilds amortize to O(1) per mutation,
/// floored so tiny attributes don't rebuild on every insert, and capped so
/// the sorted-insert memmove and the eval-time overlay stay cache-resident.
pub fn rebuild_threshold(snapshot_len: usize) -> usize {
    (32 + snapshot_len / 8).min(1024)
}

/// One direction of one attribute: sorted `(constant, rank)` breakpoints, the
/// run-space → predicate-id remap table, tombstones, and the delta overlay.
#[derive(Debug, Default, Clone)]
struct DirectionIndex<K> {
    /// Sorted breakpoints; position in this vector is the run space.
    keys: Vec<(K, u8)>,
    /// Remap table, parallel to `keys`.
    ids: Vec<PredicateId>,
    /// Sorted positions in `keys` whose predicate was released since the
    /// last rebuild.
    tombs: Vec<u32>,
    /// Sorted overlay of breakpoints inserted since the last rebuild.
    delta_keys: Vec<(K, u8)>,
    /// Remap table of the overlay, parallel to `delta_keys`.
    delta_ids: Vec<PredicateId>,
    /// Order-preserving `u64` encodings of `keys`, parallel; the operand of
    /// the word-parallel lower-bound kernels on the batched path.
    enc: Vec<u64>,
    /// CSR offsets into `block_entries`: block `b`'s mask entries live at
    /// `block_entries[block_starts[b]..block_starts[b + 1]]`.
    block_starts: Vec<u32>,
    /// Per-block precomputed `(bit-vector word, mask)` pairs covering the
    /// ids in that block of the remap table, patched on tombstone/revival.
    block_entries: Vec<(u32, u64)>,
}

impl<K: SnapKey> DirectionIndex<K> {
    fn pending(&self) -> usize {
        self.tombs.len() + self.delta_keys.len()
    }

    fn live_len(&self) -> usize {
        self.keys.len() - self.tombs.len() + self.delta_keys.len()
    }

    /// Registers a predicate. If the same breakpoint was tombstoned since the
    /// last rebuild, the snapshot slot is revived in place (the remap entry
    /// is rewritten — the released id may have been recycled elsewhere);
    /// otherwise the breakpoint joins the sorted delta overlay.
    fn insert(&mut self, key: (K, u8), id: PredicateId) {
        if let Ok(p) = self.keys.binary_search(&key) {
            let t = self
                .tombs
                .binary_search(&(p as u32))
                .expect("re-inserted breakpoint must be tombstoned (interning dedups live ones)");
            self.tombs.remove(t);
            self.ids[p] = id;
            self.block_bit(p, id, true);
            return;
        }
        let at = self
            .delta_keys
            .binary_search(&key)
            .expect_err("breakpoint already present in delta overlay");
        self.delta_keys.insert(at, key);
        self.delta_ids.insert(at, id);
    }

    /// Unregisters a predicate: dropped from the delta if it never made it
    /// into a snapshot, tombstoned otherwise.
    fn remove(&mut self, key: (K, u8)) {
        if let Ok(d) = self.delta_keys.binary_search(&key) {
            self.delta_keys.remove(d);
            self.delta_ids.remove(d);
            return;
        }
        let p = self
            .keys
            .binary_search(&key)
            .expect("removed breakpoint must exist") as u32;
        let t = self
            .tombs
            .binary_search(&p)
            .expect_err("breakpoint already tombstoned");
        self.tombs.insert(t, p);
        self.block_bit(p as usize, self.ids[p as usize], false);
    }

    /// Sets or clears one id's bit in its block's mask entries — the
    /// tombstone/revival patch that keeps full-block ORs exact between
    /// rebuilds. Mutation path only; never on the matching path.
    fn block_bit(&mut self, p: usize, id: PredicateId, set: bool) {
        let b = p / BLOCK;
        let (s, e) = (
            self.block_starts[b] as usize,
            self.block_starts[b + 1] as usize,
        );
        let w = id.0 / 64;
        let bit = 1u64 << (id.0 % 64);
        if let Some(entry) = self.block_entries[s..e].iter_mut().find(|e| e.0 == w) {
            if set {
                entry.1 |= bit;
            } else {
                entry.1 &= !bit;
            }
            return;
        }
        debug_assert!(set, "clearing a bit its block never carried");
        // A revived slot's recycled id can land in a word no other id of
        // this block occupies: splice a fresh entry in (rare, mutation-path).
        self.block_entries.insert(e, (w, bit));
        for start in &mut self.block_starts[b + 1..] {
            *start += 1;
        }
    }

    /// Merges snapshot-minus-tombstones with the delta overlay into a fresh
    /// snapshot. O(keys + delta), no tree involved.
    fn rebuild(&mut self) {
        let mut keys = Vec::with_capacity(self.live_len());
        let mut ids = Vec::with_capacity(self.live_len());
        let mut t = 0usize;
        let mut d = 0usize;
        for (p, (&k, &id)) in self.keys.iter().zip(&self.ids).enumerate() {
            if t < self.tombs.len() && self.tombs[t] as usize == p {
                t += 1;
                continue;
            }
            while d < self.delta_keys.len() && self.delta_keys[d] < k {
                keys.push(self.delta_keys[d]);
                ids.push(self.delta_ids[d]);
                d += 1;
            }
            keys.push(k);
            ids.push(id);
        }
        keys.extend_from_slice(&self.delta_keys[d..]);
        ids.extend_from_slice(&self.delta_ids[d..]);
        self.keys = keys;
        self.ids = ids;
        self.tombs.clear();
        self.delta_keys.clear();
        self.delta_ids.clear();
        self.rebuild_accel();
    }

    /// Rebuilds the encoded-key array and the per-block word masks from the
    /// freshly merged snapshot (`keys`/`ids`, tombstone-free at this point).
    fn rebuild_accel(&mut self) {
        self.enc.clear();
        self.enc.extend(self.keys.iter().map(|&(k, _)| k.encode()));
        let blocks = self.ids.len().div_ceil(BLOCK);
        self.block_entries.clear();
        self.block_starts.clear();
        self.block_starts.push(0);
        for b in 0..blocks {
            let lo = b * BLOCK;
            let hi = ((b + 1) * BLOCK).min(self.ids.len());
            let start = self.block_entries.len();
            for &id in &self.ids[lo..hi] {
                let w = id.0 / 64;
                let bit = 1u64 << (id.0 % 64);
                // Ids are distinct but unsorted within a block; a linear
                // merge over ≤ 64 candidate entries keeps this allocation-
                // free and is amortized into the O(n) rebuild.
                match self.block_entries[start..].iter_mut().find(|e| e.0 == w) {
                    Some(entry) => entry.1 |= bit,
                    None => self.block_entries.push((w, bit)),
                }
            }
            self.block_starts.push(self.block_entries.len() as u32);
        }
    }

    /// Walks `[lo, hi)` of the snapshot split around tombstones, invoking
    /// `f` on each maximal live segment.
    fn for_each_live_segment(&self, lo: usize, hi: usize, mut f: impl FnMut(usize, usize)) {
        let mut a = lo;
        let first = self.tombs.partition_point(|&p| (p as usize) < lo);
        for &p in &self.tombs[first..] {
            let p = p as usize;
            if p >= hi {
                break;
            }
            if p > a {
                f(a, p);
            }
            a = p + 1;
        }
        if a < hi {
            f(a, hi);
        }
    }

    /// Emits the run `[lo, hi)` of the snapshot remap table, split around
    /// tombstones, via the bulk bit-set path.
    fn emit_run(
        &self,
        lo: usize,
        hi: usize,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        self.for_each_live_segment(lo, hi, |a, b| {
            bits.set_from_slice(&self.ids[a..b]);
            satisfied.extend_from_slice(&self.ids[a..b]);
        });
    }

    /// Emits the run `[lo, hi)` like [`DirectionIndex::emit_run`], but sets
    /// bits word-parallel through the precomputed block masks: every fully
    /// covered block is one [`PredicateBitVec::or_masks`] pass (tombstone
    /// patches already applied), only the partial head and tail go per-id.
    /// The satisfied-id list is still contiguous `memcpy`s per live segment.
    fn emit_run_blocks(
        &self,
        lo: usize,
        hi: usize,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        if lo >= hi {
            return;
        }
        self.for_each_live_segment(lo, hi, |a, b| {
            satisfied.extend_from_slice(&self.ids[a..b]);
        });
        let first_full = lo.div_ceil(BLOCK);
        let last_full = hi / BLOCK;
        if first_full < last_full {
            self.set_bits_per_id(lo, first_full * BLOCK, bits);
            let s = self.block_starts[first_full] as usize;
            let e = self.block_starts[last_full] as usize;
            bits.or_masks(&self.block_entries[s..e]);
            self.set_bits_per_id(last_full * BLOCK, hi, bits);
        } else {
            self.set_bits_per_id(lo, hi, bits);
        }
    }

    /// Per-id bit fallback for the partial blocks at a run's edges,
    /// skipping tombstoned positions.
    fn set_bits_per_id(&self, lo: usize, hi: usize, bits: &mut PredicateBitVec) {
        self.for_each_live_segment(lo, hi, |a, b| {
            bits.set_from_slice(&self.ids[a..b]);
        });
    }

    /// The boundary `partition_point(keys < (x, 1))`, computed from position
    /// `from` onward — valid whenever every position below `from` sorts
    /// below `(x, 0)`, which monotone batched probes guarantee. An
    /// exponential gallop brackets the boundary, a word-parallel lower
    /// bound resolves it inside the bracket, and the rank fix-up accounts
    /// for a rank-0 key at the landing spot (an `(x, 0)` key sorts below
    /// the probe `(x, 1)`; interning guarantees at most one per constant).
    fn boundary_from(&self, from: usize, x: K) -> usize {
        let target = x.encode();
        let enc = &self.enc;
        let n = enc.len();
        if from >= n || enc[from] >= target {
            return self.rank_fixup(from, x);
        }
        let mut lo = from;
        let mut step = 1usize;
        let hi = loop {
            let probe = lo + step;
            if probe >= n {
                break n;
            }
            if enc[probe] < target {
                lo = probe;
                step <<= 1;
            } else {
                break probe;
            }
        };
        let lb = lo + 1 + kernels::lower_bound_u64(&enc[lo + 1..hi], target);
        self.rank_fixup(lb, x)
    }

    #[inline]
    fn rank_fixup(&self, lb: usize, x: K) -> usize {
        lb + usize::from(self.keys.get(lb).is_some_and(|&(k, r)| k == x && r == 0))
    }

    /// Batched boundary scan: `sorted` holds `(value, event slot)` pairs in
    /// ascending value order, so boundaries are monotone and the breakpoint
    /// array is traversed once for the whole batch. Equal values share one
    /// boundary computation. Instead of emitting, invokes
    /// `f(event slot, snapshot boundary, delta boundary)` for every event
    /// whose run is non-empty — the caller records the boundaries and
    /// materializes each event's output later (cache-hot, one event at a
    /// time) via [`DirectionIndex::emit_recorded`].
    fn eval_batch_runs(&self, sorted: &[(K, u32)], suffix: bool, mut f: impl FnMut(u32, u32, u32)) {
        let n = self.keys.len();
        // (value, snapshot boundary, delta boundary) of the previous probe.
        let mut prev: Option<(K, usize, usize)> = None;
        for &(x, ev) in sorted {
            let (b, d) = match prev {
                Some((px, b, d)) if px == x => (b, d),
                _ => {
                    let from = prev.map_or(0, |(_, b, _)| b);
                    let b = self.boundary_from(from, x);
                    let d = self.delta_keys.partition_point(|k| *k < (x, 1u8));
                    prev = Some((x, b, d));
                    (b, d)
                }
            };
            let empty = if suffix {
                b >= n && d >= self.delta_ids.len()
            } else {
                b == 0 && d == 0
            };
            if !empty {
                f(ev, b as u32, d as u32);
            }
        }
    }

    /// Emits the output a recorded `(b, d)` boundary pair stands for: the
    /// snapshot run on `suffix`'s side of `b` (word-parallel through the
    /// block masks) plus the matching slice of the delta overlay. Boundaries
    /// are only valid against the exact index state they were recorded from
    /// ([`DirectionIndex::eval_batch_runs`]); any mutation in between
    /// invalidates them.
    fn emit_recorded(
        &self,
        suffix: bool,
        b: usize,
        d: usize,
        bits: &mut PredicateBitVec,
        sat: &mut Vec<PredicateId>,
    ) {
        if suffix {
            self.emit_run_blocks(b, self.keys.len(), bits, sat);
            if d < self.delta_ids.len() {
                bits.set_from_slice(&self.delta_ids[d..]);
                sat.extend_from_slice(&self.delta_ids[d..]);
            }
        } else {
            self.emit_run_blocks(0, b, bits, sat);
            if d > 0 {
                bits.set_from_slice(&self.delta_ids[..d]);
                sat.extend_from_slice(&self.delta_ids[..d]);
            }
        }
    }

    /// Evaluates an event value: one branchless binary search per array, then
    /// bulk-emits the satisfied run (`suffix` picks the direction's shape).
    fn eval(
        &self,
        x: K,
        suffix: bool,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        let probe = (x, 1u8);
        if !self.keys.is_empty() {
            let b = self.keys.partition_point(|k| *k < probe);
            if suffix {
                self.emit_run(b, self.keys.len(), bits, satisfied);
            } else {
                self.emit_run(0, b, bits, satisfied);
            }
        }
        if !self.delta_keys.is_empty() {
            let b = self.delta_keys.partition_point(|k| *k < probe);
            let (lo, hi) = if suffix {
                (b, self.delta_keys.len())
            } else {
                (0, b)
            };
            if lo < hi {
                bits.set_from_slice(&self.delta_ids[lo..hi]);
                satisfied.extend_from_slice(&self.delta_ids[lo..hi]);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<(K, u8)>()
            + self.delta_keys.capacity() * std::mem::size_of::<(K, u8)>()
            + (self.ids.capacity() + self.delta_ids.capacity() + self.tombs.capacity()) * 4
            + self.enc.capacity() * 8
            + self.block_starts.capacity() * 4
            + self.block_entries.capacity() * std::mem::size_of::<(u32, u64)>()
    }
}

/// The snapshot evaluator for the ordered predicates of one attribute and one
/// key kind (integers or interned-string symbols).
#[derive(Debug, Default, Clone)]
pub(crate) struct OrderedSnapshot<K> {
    /// `<` (rank 0) and `≤` (rank 1): satisfied ids are a suffix run.
    upper: DirectionIndex<K>,
    /// `≥` (rank 0) and `>` (rank 1): satisfied ids are a prefix run.
    lower: DirectionIndex<K>,
    /// Generation counter: number of merge-rebuilds performed.
    rebuilds: u64,
}

/// `(direction is upper, tie-break rank)` for an ordered operator.
fn direction_rank(op: Operator) -> (bool, u8) {
    match op {
        Operator::Lt => (true, 0),
        Operator::Le => (true, 1),
        Operator::Ge => (false, 0),
        Operator::Gt => (false, 1),
        _ => unreachable!("snapshot stores only ordered operators"),
    }
}

impl<K: SnapKey> OrderedSnapshot<K> {
    /// Registers an ordered predicate; rebuilds the affected direction if its
    /// pending-mutation budget is exhausted.
    pub(crate) fn insert(&mut self, op: Operator, key: K, id: PredicateId) {
        let (upper, rank) = direction_rank(op);
        let dir = if upper {
            &mut self.upper
        } else {
            &mut self.lower
        };
        dir.insert((key, rank), id);
        if dir.pending() > rebuild_threshold(dir.keys.len()) {
            dir.rebuild();
            self.rebuilds += 1;
        }
    }

    /// Unregisters an ordered predicate; same rebuild policy as insert.
    pub(crate) fn remove(&mut self, op: Operator, key: K) {
        let (upper, rank) = direction_rank(op);
        let dir = if upper {
            &mut self.upper
        } else {
            &mut self.lower
        };
        dir.remove((key, rank));
        if dir.pending() > rebuild_threshold(dir.keys.len()) {
            dir.rebuild();
            self.rebuilds += 1;
        }
    }

    /// True when neither direction holds any breakpoints (snapshot or
    /// delta). The batched evaluator uses this to skip collecting and
    /// sorting an attribute's values when there is nothing to scan —
    /// equality-only attributes would otherwise pay the sort for no runs.
    pub(crate) fn is_empty(&self) -> bool {
        self.upper.keys.is_empty()
            && self.upper.delta_keys.is_empty()
            && self.lower.keys.is_empty()
            && self.lower.delta_keys.is_empty()
    }

    /// Sets the bit and appends the id of every ordered predicate satisfied
    /// by event value `x`: two binary searches, two bulk runs.
    #[inline]
    pub(crate) fn eval_into(
        &self,
        x: K,
        bits: &mut PredicateBitVec,
        satisfied: &mut Vec<PredicateId>,
    ) {
        self.upper.eval(x, true, bits, satisfied);
        self.lower.eval(x, false, bits, satisfied);
    }

    /// Batched boundary scan over both directions: `sorted` is the batch's
    /// `(value, event slot)` pairs in ascending value order, traversed once
    /// per direction for the whole batch. Invokes `f(suffix, event slot,
    /// snapshot boundary, delta boundary)` for each non-empty per-event run;
    /// the recorded boundaries are materialized later through
    /// [`OrderedSnapshot::emit_recorded`]. Recording plus materializing is
    /// exactly equivalent to calling `eval_into` per event, as long as the
    /// snapshot is not mutated in between.
    pub(crate) fn record_batch_runs(
        &self,
        sorted: &[(K, u32)],
        mut f: impl FnMut(bool, u32, u32, u32),
    ) {
        if sorted.is_empty() {
            return;
        }
        self.upper
            .eval_batch_runs(sorted, true, |ev, b, d| f(true, ev, b, d));
        self.lower
            .eval_batch_runs(sorted, false, |ev, b, d| f(false, ev, b, d));
    }

    /// Materializes one recorded run: emits the satisfied ids and bits that
    /// the `(suffix, b, d)` boundaries recorded by
    /// [`OrderedSnapshot::record_batch_runs`] stand for.
    pub(crate) fn emit_recorded(
        &self,
        suffix: bool,
        b: u32,
        d: u32,
        bits: &mut PredicateBitVec,
        sat: &mut Vec<PredicateId>,
    ) {
        let dir = if suffix { &self.upper } else { &self.lower };
        dir.emit_recorded(suffix, b as usize, d as usize, bits, sat);
    }

    /// Batched variant of [`OrderedSnapshot::eval_into`]: `sorted` is the
    /// batch's `(value, event slot)` pairs in ascending value order; each
    /// event's satisfied ids and bits land in its slot of `sat`/`bits`.
    /// Exactly equivalent to calling `eval_into` per event. (Record +
    /// immediate materialize; the registry's [`crate::Phase1Batch`] path
    /// defers materialization instead.)
    #[cfg(test)]
    pub(crate) fn eval_batch_into(
        &self,
        sorted: &[(K, u32)],
        sat: &mut [Vec<PredicateId>],
        bits: &mut [PredicateBitVec],
    ) {
        self.record_batch_runs(sorted, |suffix, ev, b, d| {
            self.emit_recorded(suffix, b, d, &mut bits[ev as usize], &mut sat[ev as usize]);
        });
    }

    /// Merges any pending delta/tombstones into the snapshots now (e.g.
    /// after a bulk load, so the first events already run tombstone-free).
    pub(crate) fn flush(&mut self) {
        for dir in [&mut self.upper, &mut self.lower] {
            if dir.pending() > 0 {
                dir.rebuild();
                self.rebuilds += 1;
            }
        }
    }

    /// Number of merge-rebuilds performed so far (diagnostics and tests).
    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Heap bytes held by the snapshot arrays and overlays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.upper.heap_bytes() + self.lower.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_ids(snap: &OrderedSnapshot<i64>, x: i64) -> Vec<u32> {
        let mut bits = PredicateBitVec::with_capacity(1 << 16);
        let mut sat = Vec::new();
        snap.eval_into(x, &mut bits, &mut sat);
        let mut raw: Vec<u32> = sat.iter().map(|id| id.0).collect();
        // Every emitted id must also have its bit set.
        for id in &sat {
            assert!(bits.get(id.0));
        }
        raw.sort_unstable();
        raw
    }

    /// Brute-force oracle over `(op, constant, id)` triples.
    fn oracle(preds: &[(Operator, i64, u32)], x: i64) -> Vec<u32> {
        let mut out: Vec<u32> = preds
            .iter()
            .filter(|&&(op, c, _)| match op {
                Operator::Lt => x < c,
                Operator::Le => x <= c,
                Operator::Ge => x >= c,
                Operator::Gt => x > c,
                _ => unreachable!(),
            })
            .map(|&(_, _, id)| id)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn all_operators_all_boundaries() {
        let mut snap = OrderedSnapshot::<i64>::default();
        let mut preds = Vec::new();
        let mut next = 0u32;
        for op in [Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt] {
            for c in [10i64, 20, 30] {
                snap.insert(op, c, PredicateId(next));
                preds.push((op, c, next));
                next += 1;
            }
        }
        for x in [-5i64, 9, 10, 11, 20, 25, 30, 31, 100] {
            assert_eq!(eval_ids(&snap, x), oracle(&preds, x), "x = {x}");
        }
    }

    #[test]
    fn removal_tombstones_split_the_run() {
        let mut snap = OrderedSnapshot::<i64>::default();
        for c in 0..10i64 {
            snap.insert(Operator::Le, c, PredicateId(c as u32));
        }
        // Force everything into the snapshot arrays, then tombstone from the
        // middle of the run.
        snap.flush();
        snap.remove(Operator::Le, 4);
        snap.remove(Operator::Le, 7);
        let got = eval_ids(&snap, 2);
        assert_eq!(got, vec![2, 3, 5, 6, 8, 9], "x ≤ c run minus tombstones");
    }

    #[test]
    fn reinsert_after_tombstone_revives_slot_with_new_id() {
        let mut snap = OrderedSnapshot::<i64>::default();
        snap.insert(Operator::Ge, 5, PredicateId(0));
        snap.flush();
        snap.remove(Operator::Ge, 5);
        assert!(eval_ids(&snap, 9).is_empty());
        // Same breakpoint returns under a recycled (different) id.
        snap.insert(Operator::Ge, 5, PredicateId(42));
        assert_eq!(eval_ids(&snap, 9), vec![42]);
        assert!(eval_ids(&snap, 4).is_empty());
    }

    #[test]
    fn delta_overlay_and_snapshot_merge_agree_with_oracle() {
        let mut snap = OrderedSnapshot::<i64>::default();
        let mut preds = Vec::new();
        // Interleave inserts and removes way past the rebuild threshold so
        // the test exercises delta-resident, tombstoned, and merged states.
        let mut next = 0u32;
        for round in 0..3 {
            for i in 0..100i64 {
                let op = [Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt]
                    [(i as usize + round) % 4];
                let c = (i * 7 + round as i64 * 13) % 200;
                if preds.iter().any(|&(o, k, _)| (o, k) == (op, c)) {
                    continue;
                }
                snap.insert(op, c, PredicateId(next));
                preds.push((op, c, next));
                next += 1;
            }
            // Remove every third registered predicate.
            let victims: Vec<(Operator, i64, u32)> = preds.iter().copied().step_by(3).collect();
            for (op, c, _) in &victims {
                snap.remove(*op, *c);
            }
            preds.retain(|p| !victims.contains(p));
            for x in [-1i64, 0, 50, 99, 137, 200] {
                assert_eq!(eval_ids(&snap, x), oracle(&preds, x), "round {round} x {x}");
            }
        }
        assert!(snap.rebuilds() > 0, "churn volume must trigger rebuilds");
    }

    #[test]
    fn flush_merges_pending_state() {
        let mut snap = OrderedSnapshot::<i64>::default();
        for c in 0..20i64 {
            snap.insert(Operator::Lt, c, PredicateId(c as u32));
        }
        snap.remove(Operator::Lt, 3);
        let before = eval_ids(&snap, -1);
        let gens = snap.rebuilds();
        snap.flush();
        assert!(snap.rebuilds() > gens);
        assert_eq!(eval_ids(&snap, -1), before, "flush must not change results");
        snap.flush();
        assert_eq!(snap.rebuilds(), gens + 1, "idle flush is a no-op");
    }

    /// Evaluates `xs` through the batched entry point (sorted batch, one
    /// slot each) and checks every slot against the per-event path.
    fn assert_batched_matches_scalar(snap: &OrderedSnapshot<i64>, xs: &[i64]) {
        let mut sorted: Vec<(i64, u32)> =
            xs.iter().enumerate().map(|(i, &x)| (x, i as u32)).collect();
        sorted.sort_unstable();
        let mut sat: Vec<Vec<PredicateId>> = vec![Vec::new(); xs.len()];
        let mut bits: Vec<PredicateBitVec> = (0..xs.len())
            .map(|_| PredicateBitVec::with_capacity(1 << 16))
            .collect();
        snap.eval_batch_into(&sorted, &mut sat, &mut bits);
        for (i, &x) in xs.iter().enumerate() {
            let mut got: Vec<u32> = sat[i].iter().map(|id| id.0).collect();
            for id in &sat[i] {
                assert!(
                    bits[i].get(id.0),
                    "x = {x}: emitted id {} lacks its bit",
                    id.0
                );
            }
            assert_eq!(
                bits[i].count_ones(),
                sat[i].len(),
                "x = {x}: stray bits beyond the satisfied set"
            );
            got.sort_unstable();
            assert_eq!(got, eval_ids(snap, x), "x = {x}");
        }
    }

    #[test]
    fn batched_agrees_with_scalar_across_blocks_and_operators() {
        // Enough breakpoints that runs span multiple full 64-position
        // blocks, exercising the precomputed-mask path.
        let mut snap = OrderedSnapshot::<i64>::default();
        let mut next = 0u32;
        for op in [Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt] {
            for c in 0..200i64 {
                snap.insert(op, c, PredicateId(next));
                next += 1;
            }
        }
        snap.flush();
        assert_batched_matches_scalar(&snap, &[-1, 0, 1, 63, 64, 100, 150, 199, 200, 100, 0]);
    }

    #[test]
    fn batched_handles_tombstones_and_revivals_mid_block() {
        let mut snap = OrderedSnapshot::<i64>::default();
        for c in 0..300i64 {
            snap.insert(Operator::Le, c, PredicateId(c as u32));
        }
        snap.flush();
        // Tombstones inside fully covered blocks must not set their bits.
        for c in [10i64, 70, 71, 140, 299] {
            snap.remove(Operator::Le, c);
        }
        assert_batched_matches_scalar(&snap, &[0, 5, 69, 72, 139, 141, 250, 299, 300]);
        // Revive one under a recycled id landing in a fresh word.
        snap.insert(Operator::Le, 140, PredicateId(5000));
        assert_batched_matches_scalar(&snap, &[0, 100, 140, 141, 299]);
    }

    #[test]
    fn batched_sees_delta_overlay_and_duplicate_values() {
        let mut snap = OrderedSnapshot::<i64>::default();
        for c in 0..100i64 {
            snap.insert(Operator::Ge, c, PredicateId(c as u32));
        }
        snap.flush();
        // Fresh inserts stay in the delta overlay (below rebuild threshold).
        snap.insert(Operator::Gt, 17, PredicateId(200));
        snap.insert(Operator::Lt, 18, PredicateId(201));
        assert_batched_matches_scalar(&snap, &[17, 17, 18, 18, 0, 99, 120]);
    }

    #[test]
    fn batched_empty_cases() {
        let snap = OrderedSnapshot::<i64>::default();
        assert_batched_matches_scalar(&snap, &[]);
        assert_batched_matches_scalar(&snap, &[3, -5]);
        let mut one = OrderedSnapshot::<i64>::default();
        one.insert(Operator::Lt, 5, PredicateId(0));
        one.flush();
        assert_batched_matches_scalar(&one, &[4, 5, 6, i64::MIN, i64::MAX]);
    }

    #[test]
    fn threshold_is_floored_and_capped() {
        assert_eq!(rebuild_threshold(0), 32);
        assert_eq!(rebuild_threshold(80), 42);
        assert_eq!(rebuild_threshold(1 << 20), 1024);
    }
}
