//! The matching engines of `fastpubsub` — the primary contribution of the
//! SIGMOD 2001 paper.
//!
//! Five engines share the predicate phase of [`pubsub_index`] and differ in
//! how they map satisfied predicates to candidate subscriptions:
//!
//! * [`counting::CountingMatcher`] — the per-subscription hit-counter
//!   baseline (§5).
//! * [`propagation::PropagationMatcher`] — single-equality access predicates
//!   over columnwise clusters, with optional software prefetching (§2.2).
//! * [`clustered::ClusteredMatcher`] — multi-attribute hash tables chosen by
//!   the cost-based greedy optimizer (static, §3) or maintained online
//!   (dynamic, §4).
//! * [`brute::BruteForceMatcher`] — the linear-scan oracle used in tests.
//!
//! All implement [`MatchEngine`]; [`EngineKind`] builds them by name.
//!
//! [`view`] holds the indexed engines' one match driver (phase 1, phase
//! timers, stats; each engine supplies only its phase 2). It runs through
//! `&self` with caller-owned scratch as [`view::MatchView`];
//! [`view::build_tier`] builds the same engines without an index of their
//! own, as phase-2-only [`view::TierEngine`]s over a caller's predicate ids.
//!
//! The crate's one `unsafe` block is the paper's prefetch instruction
//! ([`prefetch::prefetch_read`], §2.2), which alone allows `unsafe_code`;
//! the crate denies it rather than forbidding it because `forbid` cannot
//! be relaxed for that one function.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod brute;
pub mod cluster;
pub mod clustered;
pub mod counting;
pub mod engine;
pub mod prefetch;
pub mod propagation;
pub mod tables;
pub mod view;

pub use brute::BruteForceMatcher;
pub use cluster::{Cluster, ClusterList, LOOKAHEAD, MAX_PREFETCH_COLS, UNFOLD};
pub use clustered::{ClusteredMatcher, DynamicConfig};
pub use counting::CountingMatcher;
pub use engine::{default_shards, EngineKind, EngineStats, MatchEngine};
pub use propagation::PropagationMatcher;
pub use tables::MultiAttrTable;
pub use view::{
    build_frozen, build_tier, record_phases, MatchView, SnapshotEngine, TierEngine, ViewScratch,
};
