//! Durable broker state: a segmented write-ahead log plus point-in-time
//! snapshots, with corruption-tolerant crash recovery.
//!
//! The paper's broker (§1) is a long-lived process whose subscription set is
//! the durable asset; this crate makes that state survive `kill -9` at any
//! byte boundary. The model is the classic WAL + checkpoint pair:
//!
//! * **Log** ([`Wal`]) — every mutation of broker state (interning a name,
//!   subscribing, unsubscribing, advancing the logical clock) is encoded as
//!   a [`WalOp`] and appended as a length-prefixed, CRC32C-checksummed
//!   record *before* it is applied in memory. Records live in numbered
//!   segment files (`wal-<first-lsn>.log`) that rotate at a configurable
//!   size; the fsync cadence is a [`FsyncPolicy`].
//! * **Snapshot** ([`SnapshotState`]) — a point-in-time capture of the full
//!   broker state (vocabulary, logical clock, id high-water mark, live
//!   subscriptions with validities), written atomically via a temp file +
//!   rename. A snapshot at LSN `n` makes every record below `n` redundant;
//!   [`Wal::compact`] retires the segments it covers.
//! * **Recovery** ([`Wal::open`]) — picks the newest decodable snapshot,
//!   replays the surviving log tail, and handles damage without panicking:
//!   a torn tail (crash mid-append) is truncated away; corruption *behind*
//!   valid data follows the configured [`CorruptionPolicy`] (fail recovery,
//!   or skip the damaged record and keep what decodes).
//!
//! The invariant the crash-recovery tests pin down: truncating the log at
//! any byte recovers exactly the state produced by the longest prefix of
//! operations whose records fully survive — never a partial operation,
//! never a resurrected unsubscribed/expired id.
//!
//! Fault injection ([`pubsub_types::faults`], `--features faults`) hooks the
//! I/O sites by name — [`FAULT_APPEND`], [`FAULT_FSYNC`], [`FAULT_ROTATE`],
//! [`FAULT_READ`], [`FAULT_SNAPSHOT`] — so tests can force torn writes,
//! short reads, bit flips, and fsync/rotation failures deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod record;
pub mod replication;
pub mod snapshot;
pub mod wal;

pub use record::{Lsn, WalOp};
pub use replication::TailChunk;
pub use snapshot::SnapshotState;
pub use wal::{Recovered, RecoveryReport, SegmentReport, SnapshotReport, Wal, WalReport};

use std::path::PathBuf;

/// Fault point hit before every record append. `Fail` leaves a torn record
/// prefix on disk and reports an error; `Corrupt` flips one payload bit
/// (silent on-disk corruption — the append itself succeeds).
pub const FAULT_APPEND: &str = "durability.wal.append";
/// Fault point hit at every explicit fsync. `Fail` reports an error without
/// syncing.
pub const FAULT_FSYNC: &str = "durability.wal.fsync";
/// Fault point hit before opening a fresh segment at rotation. `Fail`
/// reports an error and keeps appending to the old segment impossible.
pub const FAULT_ROTATE: &str = "durability.wal.rotate";
/// Fault point hit per record during recovery scans. `Fail` simulates a
/// short read (the file appears to end mid-record); `Corrupt` flips a bit in
/// the record as read.
pub const FAULT_READ: &str = "durability.wal.read";
/// Fault point hit before writing a snapshot file. `Fail` reports an error
/// and writes nothing.
pub const FAULT_SNAPSHOT: &str = "durability.snapshot.write";

/// When the write-ahead log forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record: no acknowledged operation is ever
    /// lost, at one disk flush per mutation.
    Always,
    /// fsync after every `n` appended records (and at rotation/snapshot):
    /// bounds the window of acknowledged-but-unsynced operations to `n - 1`.
    EveryN(u32),
    /// Never fsync explicitly; the OS page cache decides. Fastest, and loses
    /// whatever the kernel had not written back at crash time.
    OsManaged,
}

/// What recovery does about a record that fails its CRC (or cannot be
/// framed) *behind* later valid data — i.e. damage that is provably not a
/// torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// Refuse to recover: surface [`WalError::Corrupt`] so the operator
    /// decides. The default — silently dropping acknowledged operations is
    /// not something to opt into by accident.
    #[default]
    Fail,
    /// Skip the damaged record (using its length frame when plausible, else
    /// abandoning the rest of the segment) and keep replaying. Best-effort
    /// recovery for when some state beats none.
    Skip,
}

/// Configuration of the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (the record that crosses the threshold completes first).
    pub segment_bytes: u64,
    /// When appended records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// How recovery treats mid-log corruption (a torn *tail* is always
    /// truncated regardless of this policy).
    pub corruption: CorruptionPolicy,
    /// Automatically snapshot + compact after this many appended records
    /// (checked at clock-advance boundaries, where the whole broker is
    /// already quiesced). `0` disables automatic snapshots.
    pub snapshot_every_ops: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(64),
            corruption: CorruptionPolicy::Fail,
            snapshot_every_ops: 0,
        }
    }
}

/// Errors of the durability layer.
///
/// I/O errors carry the failing operation and path as strings (not
/// `std::io::Error`) so the type stays `Clone + PartialEq` for tests and for
/// embedding in broker-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An operating-system I/O operation failed (or was failed by fault
    /// injection).
    Io {
        /// The operation that failed (`"append"`, `"fsync"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// The log contains damage that the configured [`CorruptionPolicy`]
    /// refuses to skip.
    Corrupt {
        /// First LSN of the damaged segment.
        segment: Lsn,
        /// Byte offset of the damaged record within the segment file.
        offset: u64,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// The WAL rejected further appends because an earlier append failed
    /// mid-record; the tail of the active segment is torn and must be
    /// recovered (reopened) before new records can follow it.
    Poisoned,
}

impl WalError {
    pub(crate) fn io(op: &'static str, path: impl Into<PathBuf>, e: std::io::Error) -> Self {
        WalError::Io {
            op,
            path: path.into(),
            message: e.to_string(),
        }
    }

    pub(crate) fn injected(op: &'static str, path: impl Into<PathBuf>) -> Self {
        WalError::Io {
            op,
            path: path.into(),
            message: "injected fault".to_string(),
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, path, message } => {
                write!(f, "wal {op} failed on {}: {message}", path.display())
            }
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal segment {segment} corrupt at byte {offset}: {detail}"
            ),
            WalError::Poisoned => {
                write!(
                    f,
                    "wal poisoned by an earlier torn append; reopen to recover"
                )
            }
        }
    }
}

impl std::error::Error for WalError {}
