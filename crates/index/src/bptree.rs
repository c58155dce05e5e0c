//! A main-memory B+-tree.
//!
//! The paper evaluates inequality predicates with "simple B-Trees" (§2.3);
//! this module provides that substrate from scratch. It is an arena-based
//! B+-tree: nodes live in a `Vec` and refer to each other by dense `u32` ids,
//! which keeps the structure compact, allocation-light and free of `unsafe`.
//! Leaves are doubly linked so ascending and descending range scans — the
//! access pattern of the predicate phase — are sequential walks.
//!
//! The tree supports insert, point lookup, removal (with borrow/merge
//! rebalancing) and bidirectional bounded range scans.

use std::fmt::Debug;
use std::ops::Bound;

/// Maximum number of keys per node. Chosen so a leaf of `(i64, u64)` pairs
/// spans a handful of cache lines; splits occur at `MAX_KEYS`, rebalancing at
/// `MIN_KEYS`.
const MAX_KEYS: usize = 16;
const MIN_KEYS: usize = MAX_KEYS / 2;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// Separator keys; `keys[i]` is the smallest key reachable through
        /// `children[i + 1]`.
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
        next: u32,
        prev: u32,
    },
    /// Slot on the free list.
    Free,
}

/// An ordered map from `K` to `V` backed by a B+-tree.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl<K: Ord + Copy + Debug, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy + Debug, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let nodes = vec![Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: NIL,
            prev: NIL,
        }];
        Self {
            nodes,
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as u32;
            self.nodes.push(node);
            id
        }
    }

    fn dealloc(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free;
        self.free.push(id);
    }

    /// Index of the child to descend into for `key`.
    /// Separator keys are "smallest key of the right subtree", so equal keys
    /// descend right.
    fn child_slot(keys: &[K], key: &K) -> usize {
        keys.partition_point(|k| k <= key)
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    id = children[Self::child_slot(keys, key)];
                }
                Node::Leaf { keys, values, .. } => {
                    return keys.binary_search(key).ok().map(|i| &values[i]);
                }
                Node::Free => unreachable!("descended into free node"),
            }
        }
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    id = children[Self::child_slot(keys, key)];
                }
                Node::Leaf { keys, .. } => {
                    let slot = keys.binary_search(key).ok()?;
                    match &mut self.nodes[id as usize] {
                        Node::Leaf { values, .. } => return Some(&mut values[slot]),
                        _ => unreachable!(),
                    }
                }
                Node::Free => unreachable!("descended into free node"),
            }
        }
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.insert_rec(self.root, key, value) {
            InsertResult::Done(old) => old,
            InsertResult::Split(sep, right) => {
                // Grow a new root.
                let old_root = self.root;
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                });
                self.root = new_root;
                None
            }
        }
    }

    fn insert_rec(&mut self, id: u32, key: K, value: V) -> InsertResult<K, V> {
        // Figure out where to go without holding a borrow across the
        // recursive call.
        let child = match &self.nodes[id as usize] {
            Node::Internal { keys, children } => Some(children[Self::child_slot(keys, &key)]),
            Node::Leaf { .. } => None,
            Node::Free => unreachable!(),
        };

        if let Some(child) = child {
            return match self.insert_rec(child, key, value) {
                InsertResult::Done(old) => InsertResult::Done(old),
                InsertResult::Split(sep, right) => {
                    let Node::Internal { keys, children } = &mut self.nodes[id as usize] else {
                        unreachable!()
                    };
                    let slot = keys.partition_point(|k| *k <= sep);
                    keys.insert(slot, sep);
                    children.insert(slot + 1, right);
                    if keys.len() > MAX_KEYS {
                        self.split_internal(id)
                    } else {
                        InsertResult::Done(None)
                    }
                }
            };
        }

        // Leaf insertion.
        let Node::Leaf { keys, values, .. } = &mut self.nodes[id as usize] else {
            unreachable!()
        };
        match keys.binary_search(&key) {
            Ok(slot) => {
                let old = std::mem::replace(&mut values[slot], value);
                InsertResult::Done(Some(old))
            }
            Err(slot) => {
                keys.insert(slot, key);
                values.insert(slot, value);
                self.len += 1;
                if keys.len() > MAX_KEYS {
                    self.split_leaf(id)
                } else {
                    InsertResult::Done(None)
                }
            }
        }
    }

    fn split_leaf(&mut self, id: u32) -> InsertResult<K, V> {
        let (right_keys, right_values, old_next) = {
            let Node::Leaf {
                keys, values, next, ..
            } = &mut self.nodes[id as usize]
            else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), values.split_off(mid), *next)
        };
        let sep = right_keys[0];
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            values: right_values,
            next: old_next,
            prev: id,
        });
        if old_next != NIL {
            if let Node::Leaf { prev, .. } = &mut self.nodes[old_next as usize] {
                *prev = right;
            }
        }
        if let Node::Leaf { next, .. } = &mut self.nodes[id as usize] {
            *next = right;
        }
        InsertResult::Split(sep, right)
    }

    fn split_internal(&mut self, id: u32) -> InsertResult<K, V> {
        let (sep, right_keys, right_children) = {
            let Node::Internal { keys, children } = &mut self.nodes[id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let sep = keys[mid];
            let right_keys = keys.split_off(mid + 1);
            keys.pop(); // the separator moves up
            let right_children = children.split_off(mid + 1);
            (sep, right_keys, right_children)
        };
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        InsertResult::Split(sep, right)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.remove_rec(self.root, key);
        if removed.is_some() {
            // Collapse a root that became a single-child internal node.
            while let Node::Internal { keys, children } = &self.nodes[self.root as usize] {
                if keys.is_empty() {
                    debug_assert_eq!(children.len(), 1);
                    let only = children[0];
                    self.dealloc(self.root);
                    self.root = only;
                } else {
                    break;
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, id: u32, key: &K) -> Option<V> {
        let child_slot = match &self.nodes[id as usize] {
            Node::Internal { keys, .. } => Some(Self::child_slot(keys, key)),
            Node::Leaf { .. } => None,
            Node::Free => unreachable!(),
        };

        if let Some(slot) = child_slot {
            let child = match &self.nodes[id as usize] {
                Node::Internal { children, .. } => children[slot],
                _ => unreachable!(),
            };
            let removed = self.remove_rec(child, key)?;
            if self.node_underflows(child) {
                self.rebalance_child(id, slot);
            }
            return Some(removed);
        }

        let Node::Leaf { keys, values, .. } = &mut self.nodes[id as usize] else {
            unreachable!()
        };
        let slot = keys.binary_search(key).ok()?;
        keys.remove(slot);
        let v = values.remove(slot);
        self.len -= 1;
        Some(v)
    }

    fn node_underflows(&self, id: u32) -> bool {
        match &self.nodes[id as usize] {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len() < MIN_KEYS,
            Node::Free => unreachable!(),
        }
    }

    fn node_can_lend(&self, id: u32) -> bool {
        match &self.nodes[id as usize] {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len() > MIN_KEYS,
            Node::Free => unreachable!(),
        }
    }

    /// Restores the invariant for `children[slot]` of internal node `parent`,
    /// by borrowing from a sibling or merging with one.
    fn rebalance_child(&mut self, parent: u32, slot: usize) {
        let (left_sibling, right_sibling) = {
            let Node::Internal { children, .. } = &self.nodes[parent as usize] else {
                unreachable!()
            };
            (
                if slot > 0 {
                    Some(children[slot - 1])
                } else {
                    None
                },
                children.get(slot + 1).copied(),
            )
        };

        if let Some(left) = left_sibling {
            if self.node_can_lend(left) {
                self.borrow_from_left(parent, slot, left);
                return;
            }
        }
        if let Some(right) = right_sibling {
            if self.node_can_lend(right) {
                self.borrow_from_right(parent, slot, right);
                return;
            }
        }
        // Merge with a sibling; prefer merging into the left one.
        if left_sibling.is_some() {
            self.merge_children(parent, slot - 1);
        } else if right_sibling.is_some() {
            self.merge_children(parent, slot);
        }
        // A root with a single child is collapsed by `remove`.
    }

    fn borrow_from_left(&mut self, parent: u32, slot: usize, left: u32) {
        let child = match &self.nodes[parent as usize] {
            Node::Internal { children, .. } => children[slot],
            _ => unreachable!(),
        };
        let sep_idx = slot - 1;
        match (left, child) {
            _ if matches!(self.nodes[left as usize], Node::Leaf { .. }) => {
                // Move the last key/value of the left leaf to the front of
                // the child leaf; the new separator is the moved key.
                let (k, v) = {
                    let Node::Leaf { keys, values, .. } = &mut self.nodes[left as usize] else {
                        unreachable!()
                    };
                    (keys.pop().expect("left can lend"), values.pop().unwrap())
                };
                {
                    let Node::Leaf { keys, values, .. } = &mut self.nodes[child as usize] else {
                        unreachable!()
                    };
                    keys.insert(0, k);
                    values.insert(0, v);
                }
                let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                keys[sep_idx] = k;
            }
            _ => {
                // Internal: rotate through the parent separator.
                let (k, c) = {
                    let Node::Internal { keys, children } = &mut self.nodes[left as usize] else {
                        unreachable!()
                    };
                    (keys.pop().expect("left can lend"), children.pop().unwrap())
                };
                let old_sep = {
                    let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                        unreachable!()
                    };
                    std::mem::replace(&mut keys[sep_idx], k)
                };
                let Node::Internal { keys, children } = &mut self.nodes[child as usize] else {
                    unreachable!()
                };
                keys.insert(0, old_sep);
                children.insert(0, c);
            }
        }
    }

    fn borrow_from_right(&mut self, parent: u32, slot: usize, right: u32) {
        let child = match &self.nodes[parent as usize] {
            Node::Internal { children, .. } => children[slot],
            _ => unreachable!(),
        };
        let sep_idx = slot;
        if matches!(self.nodes[right as usize], Node::Leaf { .. }) {
            let (k, v, new_first) = {
                let Node::Leaf { keys, values, .. } = &mut self.nodes[right as usize] else {
                    unreachable!()
                };
                let k = keys.remove(0);
                let v = values.remove(0);
                (k, v, keys[0])
            };
            {
                let Node::Leaf { keys, values, .. } = &mut self.nodes[child as usize] else {
                    unreachable!()
                };
                keys.push(k);
                values.push(v);
            }
            let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            keys[sep_idx] = new_first;
        } else {
            let (k, c) = {
                let Node::Internal { keys, children } = &mut self.nodes[right as usize] else {
                    unreachable!()
                };
                (keys.remove(0), children.remove(0))
            };
            let old_sep = {
                let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                std::mem::replace(&mut keys[sep_idx], k)
            };
            let Node::Internal { keys, children } = &mut self.nodes[child as usize] else {
                unreachable!()
            };
            keys.push(old_sep);
            children.push(c);
        }
    }

    /// Merges `children[slot + 1]` of `parent` into `children[slot]`.
    fn merge_children(&mut self, parent: u32, slot: usize) {
        let (left, right, sep) = {
            let Node::Internal { keys, children } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            let left = children[slot];
            let right = children.remove(slot + 1);
            let sep = keys.remove(slot);
            (left, right, sep)
        };
        if matches!(self.nodes[right as usize], Node::Leaf { .. }) {
            let (mut rk, mut rv, rnext) = {
                let Node::Leaf {
                    keys, values, next, ..
                } = &mut self.nodes[right as usize]
                else {
                    unreachable!()
                };
                (std::mem::take(keys), std::mem::take(values), *next)
            };
            {
                let Node::Leaf {
                    keys, values, next, ..
                } = &mut self.nodes[left as usize]
                else {
                    unreachable!()
                };
                keys.append(&mut rk);
                values.append(&mut rv);
                *next = rnext;
            }
            if rnext != NIL {
                if let Node::Leaf { prev, .. } = &mut self.nodes[rnext as usize] {
                    *prev = left;
                }
            }
        } else {
            let (mut rk, mut rc) = {
                let Node::Internal { keys, children } = &mut self.nodes[right as usize] else {
                    unreachable!()
                };
                (std::mem::take(keys), std::mem::take(children))
            };
            let Node::Internal { keys, children } = &mut self.nodes[left as usize] else {
                unreachable!()
            };
            keys.push(sep);
            keys.append(&mut rk);
            children.append(&mut rc);
        }
        self.dealloc(right);
    }

    /// Finds the leaf and slot of the first key ≥ (`Included`) or >
    /// (`Excluded`) the bound; `Unbounded` yields the first key overall.
    fn seek_lower(&self, bound: Bound<&K>) -> (u32, usize) {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    let slot = match bound {
                        Bound::Included(k) | Bound::Excluded(k) => Self::child_slot(keys, k),
                        Bound::Unbounded => 0,
                    };
                    id = children[slot];
                }
                Node::Leaf { keys, next, .. } => {
                    let slot = match bound {
                        Bound::Included(k) => keys.partition_point(|x| x < k),
                        Bound::Excluded(k) => keys.partition_point(|x| x <= k),
                        Bound::Unbounded => 0,
                    };
                    if slot == keys.len() {
                        // First matching key lives in the next leaf (or none).
                        return (*next, 0);
                    }
                    return (id, slot);
                }
                Node::Free => unreachable!(),
            }
        }
    }

    /// Finds the leaf and slot of the last key ≤ (`Included`) or <
    /// (`Excluded`) the bound; `Unbounded` yields the last key overall.
    fn seek_upper(&self, bound: Bound<&K>) -> (u32, usize) {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    let slot = match bound {
                        Bound::Included(k) => Self::child_slot(keys, k),
                        Bound::Excluded(k) => keys.partition_point(|x| x < k),
                        Bound::Unbounded => children.len() - 1,
                    };
                    id = children[slot];
                }
                Node::Leaf { keys, prev, .. } => {
                    let count = match bound {
                        Bound::Included(k) => keys.partition_point(|x| x <= k),
                        Bound::Excluded(k) => keys.partition_point(|x| x < k),
                        Bound::Unbounded => keys.len(),
                    };
                    if count == 0 {
                        // Last matching key lives in the previous leaf.
                        let p = *prev;
                        if p == NIL {
                            return (NIL, 0);
                        }
                        let Node::Leaf { keys, .. } = &self.nodes[p as usize] else {
                            unreachable!()
                        };
                        return (p, keys.len() - 1);
                    }
                    return (id, count - 1);
                }
                Node::Free => unreachable!(),
            }
        }
    }

    /// Ascending iterator over `(key, &value)` in `[lower, upper]` bounds.
    pub fn range(&self, lower: Bound<K>, upper: Bound<K>) -> RangeIter<'_, K, V> {
        let (leaf, slot) = self.seek_lower(as_ref_bound(&lower));
        RangeIter {
            tree: self,
            leaf,
            slot,
            upper,
        }
    }

    /// Descending iterator over `(key, &value)` in `[lower, upper]` bounds.
    pub fn range_rev(&self, lower: Bound<K>, upper: Bound<K>) -> RangeRevIter<'_, K, V> {
        let (leaf, slot) = self.seek_upper(as_ref_bound(&upper));
        RangeRevIter {
            tree: self,
            leaf,
            slot,
            lower,
            done: leaf == NIL,
        }
    }

    /// Ascending iterator over all pairs.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Checks structural invariants; used by tests. Returns the tree depth.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> usize {
        fn walk<K: Ord + Copy + Debug, V>(
            t: &BPlusTree<K, V>,
            id: u32,
            lo: Option<K>,
            hi: Option<K>,
            is_root: bool,
        ) -> usize {
            match &t.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1, "child/key arity");
                    if !is_root {
                        assert!(keys.len() >= MIN_KEYS, "internal underflow: {}", keys.len());
                    } else {
                        assert!(!keys.is_empty(), "root internal must have a key");
                    }
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
                    if let (Some(lo), Some(&first)) = (lo, keys.first()) {
                        assert!(lo <= first, "separator below lower bound");
                    }
                    if let (Some(hi), Some(&last)) = (hi, keys.last()) {
                        assert!(last < hi, "separator above upper bound");
                    }
                    let mut depth = None;
                    for (i, &c) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                        let d = walk(t, c, clo, chi, false);
                        match depth {
                            None => depth = Some(d),
                            Some(prev) => assert_eq!(prev, d, "uneven leaf depth"),
                        }
                    }
                    depth.unwrap() + 1
                }
                Node::Leaf { keys, values, .. } => {
                    assert_eq!(keys.len(), values.len());
                    if !is_root {
                        assert!(keys.len() >= MIN_KEYS, "leaf underflow: {}", keys.len());
                    }
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
                    if let (Some(lo), Some(&first)) = (lo, keys.first()) {
                        assert!(lo <= first, "leaf key below lower bound");
                    }
                    if let (Some(hi), Some(&last)) = (hi, keys.last()) {
                        assert!(last < hi, "leaf key above upper bound");
                    }
                    0
                }
                Node::Free => panic!("reachable free node"),
            }
        }
        walk(self, self.root, None, None, true)
    }
}

fn as_ref_bound<K>(b: &Bound<K>) -> Bound<&K> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

enum InsertResult<K, V> {
    Done(Option<V>),
    Split(K, u32),
}

/// Ascending range iterator.
pub struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: u32,
    slot: usize,
    upper: Bound<K>,
}

impl<'a, K: Ord + Copy + Debug, V> Iterator for RangeIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<(K, &'a V)> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            let Node::Leaf {
                keys, values, next, ..
            } = &self.tree.nodes[self.leaf as usize]
            else {
                unreachable!()
            };
            if self.slot >= keys.len() {
                self.leaf = *next;
                self.slot = 0;
                continue;
            }
            let k = keys[self.slot];
            let in_range = match &self.upper {
                Bound::Included(u) => k <= *u,
                Bound::Excluded(u) => k < *u,
                Bound::Unbounded => true,
            };
            if !in_range {
                self.leaf = NIL;
                return None;
            }
            let v = &values[self.slot];
            self.slot += 1;
            return Some((k, v));
        }
    }
}

/// Descending range iterator.
pub struct RangeRevIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: u32,
    slot: usize,
    lower: Bound<K>,
    done: bool,
}

impl<'a, K: Ord + Copy + Debug, V> Iterator for RangeRevIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<(K, &'a V)> {
        if self.done {
            return None;
        }
        let Node::Leaf {
            keys, values, prev, ..
        } = &self.tree.nodes[self.leaf as usize]
        else {
            unreachable!()
        };
        let k = keys[self.slot];
        let in_range = match &self.lower {
            Bound::Included(l) => k >= *l,
            Bound::Excluded(l) => k > *l,
            Bound::Unbounded => true,
        };
        if !in_range {
            self.done = true;
            return None;
        }
        let v = &values[self.slot];
        // Step backwards.
        if self.slot > 0 {
            self.slot -= 1;
        } else {
            let p = *prev;
            if p == NIL {
                self.done = true;
            } else {
                let Node::Leaf { keys, .. } = &self.tree.nodes[p as usize] else {
                    unreachable!()
                };
                self.leaf = p;
                self.slot = keys.len() - 1;
            }
        }
        Some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    #[test]
    fn empty_tree() {
        let t: BPlusTree<i64, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.range_rev(Unbounded, Unbounded).count(), 0);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(5, "five"), None);
        assert_eq!(t.insert(5, "FIVE"), Some("five"));
        assert_eq!(t.get(&5), Some(&"FIVE"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = BPlusTree::new();
        t.insert(1, 10);
        *t.get_mut(&1).unwrap() += 5;
        assert_eq!(t.get(&1), Some(&15));
        assert_eq!(t.get_mut(&2), None);
    }

    #[test]
    fn many_inserts_stay_sorted_and_balanced() {
        let mut t = BPlusTree::new();
        // Insert in a scrambled order.
        for i in 0..1000i64 {
            let k = (i * 7919) % 1000;
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        let collected: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        let sorted: Vec<i64> = (0..1000).collect();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn range_scans_match_btreemap() {
        let mut t = BPlusTree::new();
        let mut oracle = BTreeMap::new();
        for i in (0..500i64).step_by(3) {
            t.insert(i, i);
            oracle.insert(i, i);
        }
        for (lo, hi) in [(10i64, 100i64), (0, 499), (7, 8), (100, 100), (-5, 1000)] {
            let got: Vec<i64> = t
                .range(Included(lo), Excluded(hi))
                .map(|(k, _)| k)
                .collect();
            let want: Vec<i64> = oracle.range(lo..hi).map(|(&k, _)| k).collect();
            assert_eq!(got, want, "range [{lo}, {hi})");

            let got_rev: Vec<i64> = t
                .range_rev(Excluded(lo), Included(hi))
                .map(|(k, _)| k)
                .collect();
            let want_rev: Vec<i64> = oracle
                .range((Excluded(lo), Included(hi)))
                .rev()
                .map(|(&k, _)| k)
                .collect();
            assert_eq!(got_rev, want_rev, "rev range ({lo}, {hi}]");
        }
    }

    #[test]
    fn remove_every_other_then_all() {
        let mut t = BPlusTree::new();
        for i in 0..300i64 {
            t.insert(i, i);
        }
        for i in (0..300i64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
            assert_eq!(t.remove(&i), None);
        }
        t.check_invariants();
        assert_eq!(t.len(), 150);
        let keys: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..300i64).filter(|k| k % 2 == 1).collect::<Vec<_>>());
        for i in (1..300i64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn remove_descending_exercises_left_merges() {
        let mut t = BPlusTree::new();
        for i in 0..200i64 {
            t.insert(i, ());
        }
        for i in (0..200i64).rev() {
            assert_eq!(t.remove(&i), Some(()));
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_ascending_exercises_right_borrows() {
        let mut t = BPlusTree::new();
        for i in 0..200i64 {
            t.insert(i, ());
        }
        for i in 0..200i64 {
            assert_eq!(t.remove(&i), Some(()));
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn leaf_links_survive_merges() {
        let mut t = BPlusTree::new();
        for i in 0..128i64 {
            t.insert(i, ());
        }
        // Remove a middle run to force merges, then walk both directions.
        for i in 40..90i64 {
            t.remove(&i);
        }
        t.check_invariants();
        let fwd: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        let mut expect: Vec<i64> = (0..40).chain(90..128).collect();
        assert_eq!(fwd, expect);
        let rev: Vec<i64> = t.range_rev(Unbounded, Unbounded).map(|(k, _)| k).collect();
        expect.reverse();
        assert_eq!(rev, expect);
    }

    #[test]
    fn seek_bounds_on_leaf_edges() {
        let mut t = BPlusTree::new();
        for i in (0..100i64).step_by(10) {
            t.insert(i, ());
        }
        // Bound exactly between leaves / on keys.
        let got: Vec<i64> = t.range(Excluded(30), Unbounded).map(|(k, _)| k).collect();
        assert_eq!(got, vec![40, 50, 60, 70, 80, 90]);
        let got: Vec<i64> = t.range(Included(31), Unbounded).map(|(k, _)| k).collect();
        assert_eq!(got, vec![40, 50, 60, 70, 80, 90]);
        let got: Vec<i64> = t
            .range_rev(Unbounded, Excluded(30))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, vec![20, 10, 0]);
        let got: Vec<i64> = t
            .range_rev(Unbounded, Included(30))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, vec![30, 20, 10, 0]);
        // Bound past either end.
        assert_eq!(t.range(Included(1000), Unbounded).count(), 0);
        assert_eq!(t.range_rev(Unbounded, Excluded(0)).count(), 0);
    }
}
