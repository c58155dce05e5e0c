//! The SIGMOD 2001 workload generator.
//!
//! [`spec`] mirrors the parameter vocabulary of the paper's Table 1
//! (`n_t, n_S, n_Sb, n_P, n_Pfix`, per-predicate value domains, `n_Eb, n_A`,
//! event domains and skew); [`presets`] provides the named workloads W0–W6
//! used by the evaluation; [`gen`] draws deterministic subscription and
//! event streams from a spec; [`golden`] holds the golden-file assertion
//! helpers (with the `UPDATE_GOLDEN=1` blessing path) used by the
//! workspace's fixture-pinned tests; [`json`] is the workspace's JSON
//! reader for `--json` tool output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod gen;
pub mod golden;
pub mod json;
pub mod presets;
pub mod spec;

pub use gen::WorkloadGen;
pub use spec::{
    EventSpec, FixedPredicateSpec, SubscriptionSpec, ValueDomain, WorkloadSpec, DEFAULT_DOMAIN,
};
