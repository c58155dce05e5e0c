//! The range-predicate universe of the `phase1_micro` Criterion bench.

use pubsub_index::PredicateIndex;
use pubsub_types::{AttrId, Event, Operator, Predicate, Value};

/// Attributes in the range universe (and per event).
pub const ATTRS: u32 = 8;

/// The four ordered operators, round-robined over constants.
const ORDERED: [Operator; 4] = [Operator::Lt, Operator::Le, Operator::Ge, Operator::Gt];

/// Interns exactly `preds_per_attr` range predicates on each of `attrs`
/// attributes: the four ordered operators cycling over an integer constant
/// domain of `preds_per_attr / 4` values. Snapshots are compacted after the
/// bulk load so the bench measures the steady state (no delta-overlay
/// stragglers from the tail of the insert burst).
pub fn build_range_index(attrs: u32, preds_per_attr: usize) -> PredicateIndex {
    let mut idx = PredicateIndex::new();
    for a in 0..attrs {
        for k in 0..preds_per_attr {
            let op = ORDERED[k % 4];
            let c = (k / 4) as i64;
            idx.intern(Predicate::new(AttrId(a), op, c));
        }
    }
    idx.rebuild_snapshots();
    idx
}

/// Deterministic events over the same domain: every attribute present, values
/// spread across the constant range so run lengths vary per pair.
pub fn range_events(attrs: u32, preds_per_attr: usize, n: usize) -> Vec<Event> {
    let domain = (preds_per_attr / 4).max(1) as i64;
    (0..n)
        .map(|i| {
            Event::from_pairs(
                (0..attrs)
                    .map(|a| {
                        let v = (i as i64 * 131 + a as i64 * 17) % domain;
                        (AttrId(a), Value::Int(v))
                    })
                    .collect(),
            )
            .expect("distinct attributes")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_has_expected_size_and_events_satisfy_predicates() {
        let idx = build_range_index(3, 64);
        assert_eq!(idx.len(), 3 * 64);
        let satisfied: usize = range_events(3, 64, 8)
            .iter()
            .map(|e| idx.eval(e).len())
            .sum();
        assert!(satisfied > 0);
    }
}
