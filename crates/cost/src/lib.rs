//! Statistics, selectivity estimation, cost model and clustering optimizer
//! for `fastpubsub` — the machinery of paper §3.
//!
//! * [`stats`] — per-attribute event histograms giving `ν(p)` and `μ(H)`;
//!   [`UniformEstimator`] for analytic workloads.
//! * [`model`] — the matching/space cost formulas and
//!   [`SubscriptionProfile`], the cost-relevant view of a subscription.
//! * [`greedy`] — the benefit-per-unit-space greedy algorithm computing a
//!   locally optimal hashing-configuration schema and clustering instance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod greedy;
pub mod model;
pub mod stats;
pub mod subsets;

pub use greedy::{greedy_clustering, ClusteringPlan, GreedyConfig};
pub use model::{CostConstants, SubscriptionProfile};
pub use stats::{EventStatistics, SelectivityEstimator, UniformEstimator, DEFAULT_EQ_SELECTIVITY};
pub use subsets::subsets_up_to;
