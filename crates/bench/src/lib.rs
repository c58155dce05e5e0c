//! Shared infrastructure for the figure-reproduction harnesses.
//!
//! One binary per paper figure lives in `src/bin/`; Criterion micro-benches
//! live in `benches/`. This library provides what they share: a counting
//! global allocator (heap-resident bytes for Figure 3(c)), workload loading
//! helpers, and plain-text series reporting.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod drift;
pub mod harness;
pub mod phase1;

pub use alloc::CountingAllocator;
pub use harness::{
    fmt_bytes, load_engine, load_shared_broker, measure_batched_throughput,
    measure_publish_scaling, measure_throughput, parse_args, HarnessArgs, SeriesReport,
};
