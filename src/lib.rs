//! # fastpubsub
//!
//! A complete Rust implementation of the matching algorithms from
//! *"Filtering Algorithms and Implementation for Very Fast Publish/Subscribe
//! Systems"* (SIGMOD 2001): the counting baseline, the propagation algorithm
//! with software prefetching, and the cost-based static and dynamic
//! multi-attribute clustering engines, wrapped in a publish/subscribe broker
//! with subscription/event validity, batching and notification delivery.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! * [`types`] — values, predicates, subscriptions, events.
//! * [`index`] — predicate indexes and the predicate bit vector (phase 1).
//! * [`core`] — the matching engines (phase 2).
//! * [`cost`] — statistics, the cost model and the greedy clustering
//!   optimizer.
//! * [`workload`] — the SIGMOD 2001 Table-1 workload generator.
//! * [`broker`] — the surrounding publish/subscribe system.
//! * [`durability`] — the segmented write-ahead log and snapshots behind
//!   [`broker::SharedBroker::open_durable`].
//! * [`lang`] — a textual subscription/event language.
//! * [`net`] — the network-facing server, wire protocol and client.
//!
//! ## Quickstart
//!
//! ```
//! use fastpubsub::prelude::*;
//!
//! let mut broker = Broker::new(EngineKind::Dynamic);
//! let movie = broker.attr("movie");
//! let price = broker.attr("price");
//! let title = broker.string("groundhog day");
//!
//! let sub = Subscription::builder()
//!     .eq(movie, title)
//!     .with(price, Operator::Le, 10i64)
//!     .build()
//!     .unwrap();
//! let id = broker.subscribe(sub, Validity::forever());
//!
//! let event = Event::builder()
//!     .pair(movie, title)
//!     .pair(price, 8i64)
//!     .build()
//!     .unwrap();
//! let matched = broker.publish(&event);
//! assert_eq!(matched, vec![id]);
//! ```

#![forbid(unsafe_code)]

pub use pubsub_broker as broker;
pub use pubsub_core as core;
pub use pubsub_cost as cost;
pub use pubsub_durability as durability;
pub use pubsub_index as index;
pub use pubsub_lang as lang;
pub use pubsub_net as net;
pub use pubsub_types as types;
pub use pubsub_workload as workload;

/// The most common imports, in one place.
pub mod prelude {
    pub use pubsub_broker::{Broker, BrokerError, Notification, SharedBroker, Validity};
    pub use pubsub_core::{EngineKind, MatchEngine};
    pub use pubsub_types::{
        AttrId, Event, Operator, Predicate, Subscription, SubscriptionId, Value, Vocabulary,
    };
}
