//! A small textual language for subscriptions and events.
//!
//! The paper calls for "a simple and expressive subscription interface";
//! this crate provides one:
//!
//! ```
//! use pubsub_lang::{parse_event, parse_subscription};
//! use pubsub_types::Vocabulary;
//!
//! let mut vocab = Vocabulary::new();
//! let sub = parse_subscription(
//!     "movie = 'groundhog day' AND price <= 10 AND price > 5",
//!     &mut vocab,
//! ).unwrap().into_conjunction();
//! let event = parse_event("{movie: 'groundhog day', price: 8}", &mut vocab).unwrap();
//! assert!(sub.matches_event(&event));
//! ```
//!
//! `OR` builds DNF subscriptions (register them through
//! `pubsub_broker::DnfRegistry`). All names and string values intern through
//! the caller's [`pubsub_types::Vocabulary`], so parsed objects plug straight
//! into the matcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;

pub use display::{format_dnf, format_event, format_subscription};
pub use error::ParseError;
pub use parser::{parse_event, parse_subscription, ParsedSubscription};
