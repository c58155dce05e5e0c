//! Predicate indexing substrate for `fastpubsub` — phase 1 of the paper's
//! two-phase matching algorithm.
//!
//! Contents:
//!
//! * [`bitvec`] — the predicate bit vector of Figure 1, with O(touched)
//!   clearing.
//! * [`registry`] — predicate interning with reference counts, the
//!   per-attribute equality / inequality / `≠` indexes, and the phase-1
//!   evaluator [`PredicateIndex::eval_into`].
//! * [`snapshot`] — the flat snapshot index for ordered predicates: sorted
//!   breakpoint arrays whose satisfied set per event value is one contiguous
//!   run per direction, with a delta overlay and merge-rebuilds. This is the
//!   one ordered index: the search for inequalities of paper §2.3 that
//!   every phase-1 evaluator reads.
//! * [`kernels`] — the word-parallel lower-bound kernel (portable Rust the
//!   compiler auto-vectorizes) backing the batched evaluator
//!   [`PredicateIndex::eval_batch_into`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitvec;
pub mod kernels;
pub mod registry;
pub mod snapshot;

pub use bitvec::PredicateBitVec;
pub use registry::{Phase1Batch, PredicateId, PredicateIndex};
