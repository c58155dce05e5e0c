//! Error types for the data model.

use crate::attr::AttrId;

/// Errors building events or subscriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// An event listed the same attribute twice (forbidden by §1.1: "No two
    /// pairs have the same attribute").
    DuplicateEventAttribute(AttrId),
    /// A subscription had no predicates.
    EmptySubscription,
    /// A subscription repeated the exact same `(attr, op, value)` predicate.
    DuplicatePredicate,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::DuplicateEventAttribute(a) => {
                write!(f, "event has two pairs for attribute {a}")
            }
            TypeError::EmptySubscription => write!(f, "subscription has no predicates"),
            TypeError::DuplicatePredicate => {
                write!(f, "subscription repeats the same predicate twice")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Errors decoding the binary record format of [`crate::codec`].
///
/// Encoding is infallible; decoding consumes bytes that may come from a
/// truncated or corrupted write-ahead log, so every reader reports malformed
/// input through this type instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete. Carries the number of
    /// additional bytes the decoder needed.
    ShortRead {
        /// Bytes missing from the input.
        needed: usize,
    },
    /// An enum discriminant byte had no defined meaning.
    BadTag {
        /// What was being decoded (e.g. `"value"`, `"operator"`).
        what: &'static str,
        /// The unexpected discriminant.
        tag: u8,
    },
    /// An embedded string was not valid UTF-8.
    BadUtf8,
    /// A decoded structure violated its own invariants (e.g. an empty
    /// subscription or a duplicate predicate).
    BadStructure(TypeError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::ShortRead { needed } => {
                write!(f, "record truncated ({needed} more byte(s) needed)")
            }
            CodecError::BadTag { what, tag } => {
                write!(f, "bad {what} tag byte 0x{tag:02x}")
            }
            CodecError::BadUtf8 => write!(f, "embedded string is not valid UTF-8"),
            CodecError::BadStructure(e) => write!(f, "decoded structure invalid: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<TypeError> for CodecError {
    fn from(e: TypeError) -> Self {
        CodecError::BadStructure(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(TypeError::DuplicateEventAttribute(AttrId(3))
            .to_string()
            .contains("a3"));
        assert!(!TypeError::EmptySubscription.to_string().is_empty());
        assert!(!TypeError::DuplicatePredicate.to_string().is_empty());
    }
}
