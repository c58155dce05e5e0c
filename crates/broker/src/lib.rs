//! The publish/subscribe broker of `fastpubsub`.
//!
//! Wraps a matching engine in the full system of paper §1: validity
//! intervals for subscriptions *and* events ([`time`]), a valid-event store
//! answering new-subscription-against-stored-events queries ([`store`]),
//! batch submission and notifications ([`broker`]), a thread-safe handle
//! ([`shared`]), DNF subscriptions ([`dnf`]) and the equilibrium churn
//! simulator of §6.2.2 ([`equilibrium`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod broker;
pub mod dnf;
pub mod durable;
pub mod equilibrium;
pub mod rcu;
pub mod shared;
pub mod store;
mod table;
pub mod time;

pub use broker::{Broker, Notification};
pub use dnf::{DnfId, DnfRegistry, DnfSubscription};
pub use durable::{BrokerError, DurabilityStatus};
pub use equilibrium::{EquilibriumConfig, EquilibriumSim, TickReport};
pub use rcu::RcuStatus;
pub use shared::SharedBroker;
pub use store::{EventId, EventStore};
pub use time::{LogicalTime, Validity};
