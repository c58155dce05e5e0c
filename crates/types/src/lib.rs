//! Core data model for the `fastpubsub` publish/subscribe system.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, directly mirroring Section 1.1 of the paper:
//!
//! * A [`Predicate`] is a triple `(attribute, operator, value)` with
//!   `operator ∈ {<, ≤, =, ≠, ≥, >}`.
//! * A [`Subscription`] is a conjunction of predicates.
//! * An [`Event`] is a set of `(attribute, value)` pairs, at most one pair per
//!   attribute.
//!
//! An event pair `(a', v')` *matches* a predicate `(a, op, v)` iff `a = a'`
//! and `v' op v`. An event *satisfies* a subscription iff every predicate of
//! the subscription is matched by some pair of the event.
//!
//! Attributes and string values are interned to dense integer ids
//! ([`AttrId`], [`Symbol`]) so the hot matching path never touches string
//! data; see [`AttributeInterner`] and [`StringInterner`].
//!
//! The crate also provides [`AttrSet`], a small bitset over attribute ids used
//! for event/subscription schemas and multi-attribute hash-table schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod attr;
pub mod attrset;
pub mod codec;
pub mod error;
pub mod event;
pub mod faults;
pub mod hash;
pub mod interner;
pub mod metrics;
pub mod operator;
pub mod predicate;
pub mod subscription;
pub mod time;
pub mod value;

pub use attr::{AttrId, AttributeInterner};
pub use attrset::AttrSet;
pub use error::{CodecError, TypeError};
pub use event::{Event, EventBuilder};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{StringInterner, Symbol};
pub use operator::Operator;
pub use predicate::Predicate;
pub use subscription::{Subscription, SubscriptionBuilder, SubscriptionId};
pub use time::{LogicalTime, Validity};
pub use value::Value;

/// A convenient bundle of the two interners every component needs.
///
/// The matcher, broker and workload generator all resolve attribute names and
/// string values through a shared `Vocabulary` so that dense ids are
/// consistent across the system.
#[derive(Debug, Default)]
pub struct Vocabulary {
    /// Attribute-name interner.
    pub attrs: AttributeInterner,
    /// String-value interner.
    pub strings: StringInterner,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an attribute name.
    pub fn attr(&mut self, name: &str) -> AttrId {
        self.attrs.intern(name)
    }

    /// Interns a string value.
    pub fn string(&mut self, s: &str) -> Value {
        Value::Str(self.strings.intern(s))
    }
}
