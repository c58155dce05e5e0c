//! Network-facing broker server for `fastpubsub`.
//!
//! Turns the in-process matcher into a system: a length-framed,
//! CRC-checked binary protocol ([`frame`]), a threaded server with
//! reconnect-safe sessions and bounded per-connection delivery queues
//! ([`server`]), a blocking client ([`client`]), and an end-to-end load
//! generator ([`load`]). See DESIGN.md §13 for the frame grammar, the
//! session lifecycle and the per-policy backpressure semantics.
//!
//! ```no_run
//! use pubsub_broker::SharedBroker;
//! use pubsub_core::EngineKind;
//! use pubsub_net::{Client, Server, WirePredicate, WireValue};
//! use pubsub_types::Operator;
//! use std::sync::Arc;
//!
//! let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 4));
//! let server = Server::start(broker, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let id = client
//!     .subscribe(vec![WirePredicate {
//!         attr: "price".into(),
//!         op: Operator::Le,
//!         value: WireValue::Int(10),
//!     }])
//!     .unwrap();
//! let token = client.token(); // resume later with Client::resume
//! # let _ = (id, token);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod frame;
pub mod load;
pub mod queue;
pub mod replication;
pub mod server;

pub use client::{Client, ClientError, Notification, ReconnectPolicy};
pub use frame::{
    Ack, ErrorCode, Frame, FrameError, FrameReader, PublishRef, WireEvent, WireEventRef,
    WirePredicate, WireValue, WireValueRef, MAX_FRAME_BYTES, NEW_SESSION, PROTOCOL_VERSION,
};
pub use load::{LoadConfig, LoadReport};
pub use queue::{Backpressure, OutQueue, PushError};
pub use replication::{Follower, FollowerConfig, ReplStatus};
pub use server::{Server, ServerConfig, ServerStatus};

// Unit tests count the heap allocations each thread makes, to hold the
// publish path to its budget (`server::tests`).
#[cfg(test)]
#[global_allocator]
static ALLOC: pubsub_bench::CountingAllocator = pubsub_bench::CountingAllocator;
