//! The wire protocol: typed frames and their binary encoding.
//!
//! Every message on a broker connection is one **frame**, framed exactly
//! like a `pubsub-durability` WAL record:
//!
//! ```text
//! [u32 payload_len (LE)] [u32 crc32c(payload) (LE)] [payload]
//! ```
//!
//! The payload is a one-byte frame tag followed by the frame body, encoded
//! with the [`pubsub_types::codec`] primitives (fixed-width little-endian
//! integers, length-prefixed UTF-8 strings, one-byte enum tags). The CRC
//! makes a frame self-validating: a flipped bit anywhere in the payload is
//! detected before the decoder runs, and the length prefix is bounded by
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile prefix can never make the
//! receiver allocate or buffer gigabytes.
//!
//! Attributes and string values travel as **names**, not interned ids:
//! client and server do not share a [`pubsub_types::Vocabulary`], so the
//! server interns on receipt (and the ids it assigns never leak onto the
//! wire, except subscription ids, which are the protocol's handles).
//!
//! Decoding is total: any byte sequence either yields a frame, asks for
//! more bytes, or reports a typed [`FrameError`] — never a panic and never
//! an unbounded allocation. The adversarial suite in
//! `crates/net/tests/protocol.rs` holds the decoder to that contract.

use pubsub_types::codec::{self, Reader};
use pubsub_types::{CodecError, Operator};

/// Protocol version carried in [`Frame::Hello`]. Bumped on any
/// wire-incompatible change; the server rejects other versions.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload. Generous for real traffic (the largest
/// legitimate frame is a subscription of a few dozen predicates or an event
/// batch of a few KiB) and small enough that a corrupt length prefix cannot
/// balloon the receive buffer.
pub const MAX_FRAME_BYTES: u32 = 1024 * 1024;

/// Bytes of framing overhead per frame (`len` + `crc`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Token value a [`Frame::Hello`] carries to request a brand-new session.
pub const NEW_SESSION: u64 = 0;

const TAG_HELLO: u8 = 1;
const TAG_SUBSCRIBE: u8 = 2;
const TAG_UNSUBSCRIBE: u8 = 3;
const TAG_PUBLISH: u8 = 4;
const TAG_NOTIFY: u8 = 5;
const TAG_ACK: u8 = 6;
const TAG_ERROR: u8 = 7;
const TAG_REPL_HELLO: u8 = 8;
const TAG_REPL_SEGMENT: u8 = 9;
const TAG_REPL_RECORDS: u8 = 10;
const TAG_REPL_SNAPSHOT: u8 = 11;
const TAG_REPL_LAG: u8 = 12;
const TAG_PING: u8 = 13;
const TAG_PONG: u8 = 14;

const ACK_HELLO: u8 = 1;
const ACK_SUBSCRIBE: u8 = 2;
const ACK_UNSUBSCRIBE: u8 = 3;
const ACK_PUBLISH: u8 = 4;

const VALUE_INT: u8 = 0;
const VALUE_STR: u8 = 1;

/// A value as it travels on the wire: integers verbatim, strings by name
/// (the server interns them into its vocabulary on receipt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireValue {
    /// A 64-bit signed integer.
    Int(i64),
    /// A string value, carried uninterned.
    Str(String),
}

/// One predicate of a wire subscription: `(attribute name, operator, value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePredicate {
    /// Attribute name (interned server-side).
    pub attr: String,
    /// Comparison operator.
    pub op: Operator,
    /// Comparison constant.
    pub value: WireValue,
}

/// An event as it travels on the wire: `(attribute name, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireEvent {
    /// The event's pairs, in client order (the server canonicalises).
    pub pairs: Vec<(String, WireValue)>,
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame stream was malformed (bad CRC, bad tag, truncated body);
    /// the server closes the connection after sending this.
    BadFrame,
    /// The handshake failed: first frame was not `Hello`, or the protocol
    /// version is unsupported. Connection-fatal.
    BadHandshake,
    /// A `Hello` named a session token this server has never issued.
    UnknownSession,
    /// The request was well-formed but semantically invalid (empty
    /// subscription, duplicate event attribute, foreign subscription id).
    BadRequest,
    /// The server refused the request because a durable broker is in
    /// read-only degraded mode.
    Unavailable,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadHandshake => 2,
            ErrorCode::UnknownSession => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Unavailable => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        Ok(match b {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadHandshake,
            3 => ErrorCode::UnknownSession,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Unavailable,
            6 => ErrorCode::Internal,
            tag => {
                return Err(CodecError::BadTag {
                    what: "error code",
                    tag,
                })
            }
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadHandshake => "bad-handshake",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// A server acknowledgement, one variant per acknowledged request kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ack {
    /// Handshake accepted. `resumed` lists the session's live subscription
    /// ids (sorted, exactly once each) — empty for a brand-new session.
    Hello {
        /// The session token to present on reconnect.
        token: u64,
        /// Live subscription ids re-attached to this connection.
        resumed: Vec<u32>,
    },
    /// Subscription registered under `id`.
    Subscribe {
        /// Echo of the client's request id.
        req: u32,
        /// The broker-assigned subscription id.
        id: u32,
    },
    /// Unsubscription processed; `existed` is false for an id that was
    /// already gone (idempotent removal, mirroring the broker API).
    Unsubscribe {
        /// Echo of the client's request id.
        req: u32,
        /// Whether the subscription existed.
        existed: bool,
    },
    /// Event matched and notifications enqueued.
    Publish {
        /// Echo of the client's request id.
        req: u32,
        /// Total subscriptions the event matched (across all sessions).
        matched: u32,
    },
}

/// One protocol message.
///
/// `Hello`, `Subscribe`, `Unsubscribe` and `Publish` travel client→server;
/// `Notify`, `Ack` and `Error` travel server→client. The decoder accepts
/// all seven in either direction (the direction check is the server's and
/// client's job — a `Notify` sent *to* the server is a `BadRequest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Opens (token = [`NEW_SESSION`]) or resumes (token ≠ 0) a session.
    /// Must be the first frame on every connection.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        proto: u32,
        /// Session token from a previous `Ack::Hello`, or [`NEW_SESSION`].
        token: u64,
    },
    /// Registers a conjunctive subscription owned by this session.
    Subscribe {
        /// Client-chosen request id, echoed in the matching ack/error.
        req: u32,
        /// The subscription's predicates (non-empty, no exact duplicates).
        preds: Vec<WirePredicate>,
    },
    /// Removes one of this session's subscriptions.
    Unsubscribe {
        /// Client-chosen request id.
        req: u32,
        /// The subscription id to remove (must belong to this session).
        id: u32,
    },
    /// Publishes an event to the broker.
    Publish {
        /// Client-chosen request id.
        req: u32,
        /// The event.
        event: WireEvent,
    },
    /// Delivers a matched event to a subscriber session. `seq` increases by
    /// one per notify within a session — a gap tells the client deliveries
    /// were shed, a repeat is a protocol violation.
    Notify {
        /// Per-session delivery sequence number (starts at 1).
        seq: u64,
        /// This session's subscription ids the event matched (sorted).
        ids: Vec<u32>,
        /// The matched event, echoed with names.
        event: WireEvent,
    },
    /// A positive acknowledgement.
    Ack(Ack),
    /// A request- or connection-level failure. `req` 0 means the error is
    /// not tied to one request (handshake/stream errors).
    Error {
        /// The failed request id, or 0.
        req: u32,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Opens a **replication** connection: sent by a follower as the *first*
    /// frame instead of `Hello`, turning the connection into a one-way WAL
    /// stream (leader → follower). The leader answers with `ReplSegment`,
    /// `ReplRecords`, `ReplSnapshot` and `ReplLag` frames; no other frame
    /// kind travels on a replication connection.
    ReplHello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        proto: u32,
        /// The LSN the follower's local log will append next — streaming
        /// starts here.
        from_lsn: u64,
    },
    /// Announces that subsequent `ReplRecords` come from the leader segment
    /// whose first LSN is `first_lsn` (observability; the record stream
    /// itself is dense across segments).
    ReplSegment {
        /// First LSN of the segment now being streamed.
        first_lsn: u64,
    },
    /// A batch of raw WAL record payloads with dense LSNs starting at
    /// `first_lsn`, exactly the bytes the leader's `WalOp::encode` produced
    /// (the follower re-frames them into its own log, keeping both logs
    /// bit-comparable).
    ReplRecords {
        /// LSN of the first payload; the rest follow densely.
        first_lsn: u64,
        /// Raw record payloads in LSN order.
        payloads: Vec<Vec<u8>>,
    },
    /// One chunk of a catch-up snapshot transfer (the follower's position
    /// predates the leader's oldest retained segment). Chunks arrive in
    /// offset order; the transfer is complete when `offset + chunk.len() ==
    /// total_len`, after which the follower validates the assembled bytes
    /// (magic, CRC, LSN) and installs them, resuming records at `lsn`.
    ReplSnapshot {
        /// The LSN the snapshot covers.
        lsn: u64,
        /// Total byte length of the snapshot file.
        total_len: u64,
        /// Byte offset of this chunk within the file.
        offset: u64,
        /// The chunk bytes.
        chunk: Vec<u8>,
    },
    /// Leader heartbeat while the follower is caught up: carries the LSN
    /// the leader will append next, letting the follower export an exact
    /// lag watermark even when no records flow.
    ReplLag {
        /// The leader's next append LSN.
        leader_next_lsn: u64,
    },
    /// Client liveness probe. Valid at any point on a client connection —
    /// even before the handshake — and answered immediately with a `Pong`
    /// echoing the nonce. Pings also count as activity for the server's
    /// idle-deadline reaper, so a subscriber that only listens can stay
    /// attached by pinging.
    Ping {
        /// Opaque value echoed in the matching `Pong`.
        nonce: u64,
    },
    /// The server's answer to a [`Frame::Ping`].
    Pong {
        /// The nonce from the ping being answered.
        nonce: u64,
    },
}

/// Errors produced by the frame decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`]; the stream is
    /// unrecoverable (framing is lost) and the connection must close.
    TooLarge {
        /// The advertised payload length.
        len: u32,
        /// The configured bound.
        max: u32,
    },
    /// The payload failed its checksum; the stream is unrecoverable.
    BadCrc {
        /// CRC from the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The checksummed payload did not decode as a frame (bad tag,
    /// truncated body, trailing bytes, invalid UTF-8).
    Codec(CodecError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte bound")
            }
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch (header {expected:#010x}, payload {actual:#010x})"
                )
            }
            FrameError::Codec(e) => write!(f, "frame payload invalid: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

fn put_wire_value(out: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Int(i) => {
            out.push(VALUE_INT);
            codec::put_i64(out, *i);
        }
        WireValue::Str(s) => {
            out.push(VALUE_STR);
            codec::put_str(out, s);
        }
    }
}

fn get_wire_value(r: &mut Reader<'_>) -> Result<WireValue, CodecError> {
    match r.u8()? {
        VALUE_INT => Ok(WireValue::Int(r.i64()?)),
        VALUE_STR => Ok(WireValue::Str(r.str()?.to_string())),
        tag => Err(CodecError::BadTag {
            what: "wire value",
            tag,
        }),
    }
}

/// Guards a count prefix against hostile values: every encoded element is
/// at least one byte, so a count exceeding the remaining payload is corrupt
/// and must be rejected *before* any allocation sized by it.
fn checked_count(r: &Reader<'_>, n: u32) -> Result<usize, CodecError> {
    let n = n as usize;
    if n > r.remaining() {
        return Err(CodecError::ShortRead {
            needed: n - r.remaining(),
        });
    }
    Ok(n)
}

fn put_wire_event(out: &mut Vec<u8>, event: &WireEvent) {
    codec::put_u32(out, event.pairs.len() as u32);
    for (attr, value) in &event.pairs {
        codec::put_str(out, attr);
        put_wire_value(out, value);
    }
}

fn get_wire_event(r: &mut Reader<'_>) -> Result<WireEvent, CodecError> {
    let count = r.u32()?;
    let n = checked_count(r, count)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = r.str()?.to_string();
        let value = get_wire_value(r)?;
        pairs.push((attr, value));
    }
    Ok(WireEvent { pairs })
}

impl Frame {
    /// Encodes this frame's payload (tag byte + body) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { proto, token } => {
                out.push(TAG_HELLO);
                codec::put_u32(out, *proto);
                codec::put_u64(out, *token);
            }
            Frame::Subscribe { req, preds } => {
                out.push(TAG_SUBSCRIBE);
                codec::put_u32(out, *req);
                codec::put_u32(out, preds.len() as u32);
                for p in preds {
                    codec::put_str(out, &p.attr);
                    codec::put_operator(out, p.op);
                    put_wire_value(out, &p.value);
                }
            }
            Frame::Unsubscribe { req, id } => {
                out.push(TAG_UNSUBSCRIBE);
                codec::put_u32(out, *req);
                codec::put_u32(out, *id);
            }
            Frame::Publish { req, event } => {
                out.push(TAG_PUBLISH);
                codec::put_u32(out, *req);
                put_wire_event(out, event);
            }
            Frame::Notify { seq, ids, event } => {
                out.push(TAG_NOTIFY);
                codec::put_u64(out, *seq);
                codec::put_u32(out, ids.len() as u32);
                for id in ids {
                    codec::put_u32(out, *id);
                }
                put_wire_event(out, event);
            }
            Frame::Ack(ack) => {
                out.push(TAG_ACK);
                match ack {
                    Ack::Hello { token, resumed } => {
                        out.push(ACK_HELLO);
                        codec::put_u64(out, *token);
                        codec::put_u32(out, resumed.len() as u32);
                        for id in resumed {
                            codec::put_u32(out, *id);
                        }
                    }
                    Ack::Subscribe { req, id } => {
                        out.push(ACK_SUBSCRIBE);
                        codec::put_u32(out, *req);
                        codec::put_u32(out, *id);
                    }
                    Ack::Unsubscribe { req, existed } => {
                        out.push(ACK_UNSUBSCRIBE);
                        codec::put_u32(out, *req);
                        out.push(u8::from(*existed));
                    }
                    Ack::Publish { req, matched } => {
                        out.push(ACK_PUBLISH);
                        codec::put_u32(out, *req);
                        codec::put_u32(out, *matched);
                    }
                }
            }
            Frame::Error { req, code, msg } => {
                out.push(TAG_ERROR);
                codec::put_u32(out, *req);
                out.push(code.to_byte());
                codec::put_str(out, msg);
            }
            Frame::ReplHello { proto, from_lsn } => {
                out.push(TAG_REPL_HELLO);
                codec::put_u32(out, *proto);
                codec::put_u64(out, *from_lsn);
            }
            Frame::ReplSegment { first_lsn } => {
                out.push(TAG_REPL_SEGMENT);
                codec::put_u64(out, *first_lsn);
            }
            Frame::ReplRecords {
                first_lsn,
                payloads,
            } => {
                out.push(TAG_REPL_RECORDS);
                codec::put_u64(out, *first_lsn);
                codec::put_u32(out, payloads.len() as u32);
                for p in payloads {
                    codec::put_bytes(out, p);
                }
            }
            Frame::ReplSnapshot {
                lsn,
                total_len,
                offset,
                chunk,
            } => {
                out.push(TAG_REPL_SNAPSHOT);
                codec::put_u64(out, *lsn);
                codec::put_u64(out, *total_len);
                codec::put_u64(out, *offset);
                codec::put_bytes(out, chunk);
            }
            Frame::ReplLag { leader_next_lsn } => {
                out.push(TAG_REPL_LAG);
                codec::put_u64(out, *leader_next_lsn);
            }
            Frame::Ping { nonce } => {
                out.push(TAG_PING);
                codec::put_u64(out, *nonce);
            }
            Frame::Pong { nonce } => {
                out.push(TAG_PONG);
                codec::put_u64(out, *nonce);
            }
        }
    }

    /// Decodes a payload produced by [`Frame::encode`]. Rejects trailing
    /// garbage — a payload must be exactly one frame.
    pub fn decode(payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello {
                proto: r.u32()?,
                token: r.u64()?,
            },
            TAG_SUBSCRIBE => {
                let req = r.u32()?;
                let count = r.u32()?;
                let n = checked_count(&r, count)?;
                let mut preds = Vec::with_capacity(n);
                for _ in 0..n {
                    let attr = r.str()?.to_string();
                    let op = codec::get_operator(&mut r)?;
                    let value = get_wire_value(&mut r)?;
                    preds.push(WirePredicate { attr, op, value });
                }
                Frame::Subscribe { req, preds }
            }
            TAG_UNSUBSCRIBE => Frame::Unsubscribe {
                req: r.u32()?,
                id: r.u32()?,
            },
            TAG_PUBLISH => Frame::Publish {
                req: r.u32()?,
                event: get_wire_event(&mut r)?,
            },
            TAG_NOTIFY => {
                let seq = r.u64()?;
                let count = r.u32()?;
                let n = checked_count(&r, count)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32()?);
                }
                Frame::Notify {
                    seq,
                    ids,
                    event: get_wire_event(&mut r)?,
                }
            }
            TAG_ACK => {
                let ack = match r.u8()? {
                    ACK_HELLO => {
                        let token = r.u64()?;
                        let count = r.u32()?;
                        let n = checked_count(&r, count)?;
                        let mut resumed = Vec::with_capacity(n);
                        for _ in 0..n {
                            resumed.push(r.u32()?);
                        }
                        Ack::Hello { token, resumed }
                    }
                    ACK_SUBSCRIBE => Ack::Subscribe {
                        req: r.u32()?,
                        id: r.u32()?,
                    },
                    ACK_UNSUBSCRIBE => {
                        let req = r.u32()?;
                        let existed = match r.u8()? {
                            0 => false,
                            1 => true,
                            tag => {
                                return Err(CodecError::BadTag {
                                    what: "ack existed flag",
                                    tag,
                                })
                            }
                        };
                        Ack::Unsubscribe { req, existed }
                    }
                    ACK_PUBLISH => Ack::Publish {
                        req: r.u32()?,
                        matched: r.u32()?,
                    },
                    tag => return Err(CodecError::BadTag { what: "ack", tag }),
                };
                Frame::Ack(ack)
            }
            TAG_ERROR => Frame::Error {
                req: r.u32()?,
                code: ErrorCode::from_byte(r.u8()?)?,
                msg: r.str()?.to_string(),
            },
            TAG_REPL_HELLO => Frame::ReplHello {
                proto: r.u32()?,
                from_lsn: r.u64()?,
            },
            TAG_REPL_SEGMENT => Frame::ReplSegment {
                first_lsn: r.u64()?,
            },
            TAG_REPL_RECORDS => {
                let first_lsn = r.u64()?;
                let count = r.u32()?;
                let n = checked_count(&r, count)?;
                let mut payloads = Vec::with_capacity(n);
                for _ in 0..n {
                    payloads.push(r.bytes()?.to_vec());
                }
                Frame::ReplRecords {
                    first_lsn,
                    payloads,
                }
            }
            TAG_REPL_SNAPSHOT => Frame::ReplSnapshot {
                lsn: r.u64()?,
                total_len: r.u64()?,
                offset: r.u64()?,
                chunk: r.bytes()?.to_vec(),
            },
            TAG_REPL_LAG => Frame::ReplLag {
                leader_next_lsn: r.u64()?,
            },
            TAG_PING => Frame::Ping { nonce: r.u64()? },
            TAG_PONG => Frame::Pong { nonce: r.u64()? },
            tag => return Err(CodecError::BadTag { what: "frame", tag }),
        };
        if !r.is_empty() {
            return Err(CodecError::BadTag {
                what: "frame trailing bytes",
                tag: 0,
            });
        }
        Ok(frame)
    }

    /// Appends this frame as a complete wire record (`len`, `crc`, payload)
    /// to `out`, reusing its capacity.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let header = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
        self.encode(out);
        let payload_len = (out.len() - header - FRAME_HEADER_BYTES) as u32;
        let crc = codec::crc32c(&out[header + FRAME_HEADER_BYTES..]);
        out[header..header + 4].copy_from_slice(&payload_len.to_le_bytes());
        out[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// This frame as a standalone wire record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }
}

/// An incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; pull complete frames
/// with [`FrameReader::next_frame`]. The reader holds at most one frame
/// header plus one bounded payload ([`MAX_FRAME_BYTES`], or the lower bound
/// passed to [`FrameReader::with_max`]) of buffered bytes per pending
/// frame, compacting consumed prefixes, so a peer can never grow the buffer
/// without bound. Any error is terminal: framing is lost, and the owner
/// must drop the connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix, compacted away once it outgrows the live suffix.
    start: usize,
    max: u32,
}

impl FrameReader {
    /// A reader enforcing the default [`MAX_FRAME_BYTES`] bound.
    pub fn new() -> Self {
        Self::with_max(MAX_FRAME_BYTES)
    }

    /// A reader enforcing a custom payload bound (tests use tiny bounds to
    /// exercise the limit without megabyte inputs).
    pub fn with_max(max: u32) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max,
        }
    }

    /// Appends received bytes to the buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` when more bytes are needed. Errors are terminal:
    /// the byte stream no longer has a trustworthy frame boundary.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let live = &self.buf[self.start..];
        if live.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(live[0..4].try_into().expect("4 bytes"));
        if len > self.max {
            return Err(FrameError::TooLarge { len, max: self.max });
        }
        let total = FRAME_HEADER_BYTES + len as usize;
        if live.len() < total {
            return Ok(None);
        }
        let expected = u32::from_le_bytes(live[4..8].try_into().expect("4 bytes"));
        let payload = &live[FRAME_HEADER_BYTES..total];
        let actual = codec::crc32c(payload);
        if actual != expected {
            return Err(FrameError::BadCrc { expected, actual });
        }
        let frame = Frame::decode(payload)?;
        self.start += total;
        // Compact once the dead prefix dominates, keeping amortised O(1)
        // copying while never holding more than ~2× the live bytes.
        if self.start > self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: PROTOCOL_VERSION,
                token: NEW_SESSION,
            },
            Frame::Subscribe {
                req: 7,
                preds: vec![
                    WirePredicate {
                        attr: "price".into(),
                        op: Operator::Le,
                        value: WireValue::Int(10),
                    },
                    WirePredicate {
                        attr: "movie".into(),
                        op: Operator::Eq,
                        value: WireValue::Str("groundhog day".into()),
                    },
                ],
            },
            Frame::Unsubscribe { req: 8, id: 3 },
            Frame::Publish {
                req: 9,
                event: WireEvent {
                    pairs: vec![
                        ("price".into(), WireValue::Int(8)),
                        ("movie".into(), WireValue::Str("groundhog day".into())),
                    ],
                },
            },
            Frame::Notify {
                seq: 41,
                ids: vec![3, 9, 12],
                event: WireEvent {
                    pairs: vec![("price".into(), WireValue::Int(8))],
                },
            },
            Frame::Ack(Ack::Hello {
                token: 0xDEAD_BEEF,
                resumed: vec![1, 2, 3],
            }),
            Frame::Ack(Ack::Subscribe { req: 7, id: 3 }),
            Frame::Ack(Ack::Unsubscribe {
                req: 8,
                existed: true,
            }),
            Frame::Ack(Ack::Publish {
                req: 9,
                matched: 17,
            }),
            Frame::Error {
                req: 0,
                code: ErrorCode::BadHandshake,
                msg: "first frame must be Hello".into(),
            },
            Frame::ReplHello {
                proto: PROTOCOL_VERSION,
                from_lsn: 42,
            },
            Frame::ReplSegment { first_lsn: 40 },
            Frame::ReplRecords {
                first_lsn: 42,
                payloads: vec![vec![1, 2, 3], vec![], vec![0xFF; 32]],
            },
            Frame::ReplSnapshot {
                lsn: 40,
                total_len: 1000,
                offset: 512,
                chunk: vec![9; 100],
            },
            Frame::ReplLag {
                leader_next_lsn: 45,
            },
            Frame::Ping { nonce: 0xCAFE },
            Frame::Pong { nonce: u64::MAX },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let mut payload = Vec::new();
            frame.encode(&mut payload);
            assert_eq!(Frame::decode(&payload).unwrap(), frame);
        }
    }

    /// One frame per tag against the grammar in DESIGN.md §13 (§14 for the
    /// replication frames), byte for byte, with a string wherever the
    /// grammar has one: an encoding change fails here until the documented
    /// grammar changes with it.
    #[test]
    fn encoding_matches_the_documented_grammar() {
        fn u32le(v: u32) -> Vec<u8> {
            v.to_le_bytes().to_vec()
        }
        fn u64le(v: u64) -> Vec<u8> {
            v.to_le_bytes().to_vec()
        }
        // string := len:u32le utf8 (the same prefix carries raw bytes).
        fn string(s: &[u8]) -> Vec<u8> {
            [u32le(s.len() as u32), s.to_vec()].concat()
        }
        // event := count:u32le (attr:string value)*; value := INT=0 i64le | STR=1 string
        let event = WireEvent {
            pairs: vec![
                ("qty".into(), WireValue::Int(-2)),
                ("side".into(), WireValue::Str("bid".into())),
            ],
        };
        let event_bytes = [
            u32le(2),
            string(b"qty"),
            vec![0],
            (-2i64).to_le_bytes().to_vec(),
            string(b"side"),
            vec![1],
            string(b"bid"),
        ]
        .concat();
        let cases: Vec<(Frame, Vec<Vec<u8>>)> = vec![
            (
                Frame::Hello { proto: 1, token: 9 },
                vec![vec![1], u32le(1), u64le(9)],
            ),
            (
                Frame::Subscribe {
                    req: 7,
                    preds: vec![WirePredicate {
                        attr: "movie".into(),
                        op: Operator::Ge,
                        value: WireValue::Str("up".into()),
                    }],
                },
                // op := LT=0 LE=1 EQ=2 NE=3 GE=4 GT=5
                vec![
                    vec![2],
                    u32le(7),
                    u32le(1),
                    string(b"movie"),
                    vec![4, 1],
                    string(b"up"),
                ],
            ),
            (
                Frame::Unsubscribe { req: 8, id: 3 },
                vec![vec![3], u32le(8), u32le(3)],
            ),
            (
                Frame::Publish {
                    req: 9,
                    event: event.clone(),
                },
                vec![vec![4], u32le(9), event_bytes.clone()],
            ),
            (
                Frame::Notify {
                    seq: 41,
                    ids: vec![3, 12],
                    event,
                },
                vec![
                    vec![5],
                    u64le(41),
                    u32le(2),
                    u32le(3),
                    u32le(12),
                    event_bytes,
                ],
            ),
            (
                Frame::Ack(Ack::Hello {
                    token: 5,
                    resumed: vec![4],
                }),
                vec![vec![6, 1], u64le(5), u32le(1), u32le(4)],
            ),
            (
                Frame::Ack(Ack::Subscribe { req: 7, id: 3 }),
                vec![vec![6, 2], u32le(7), u32le(3)],
            ),
            (
                Frame::Ack(Ack::Unsubscribe {
                    req: 8,
                    existed: true,
                }),
                vec![vec![6, 3], u32le(8), vec![1]],
            ),
            (
                Frame::Ack(Ack::Publish {
                    req: 9,
                    matched: 17,
                }),
                vec![vec![6, 4], u32le(9), u32le(17)],
            ),
            (
                Frame::Error {
                    req: 9,
                    code: ErrorCode::BadRequest,
                    msg: "dup".into(),
                },
                vec![vec![7], u32le(9), vec![4], string(b"dup")],
            ),
            (
                Frame::ReplHello {
                    proto: 1,
                    from_lsn: 42,
                },
                vec![vec![8], u32le(1), u64le(42)],
            ),
            (
                Frame::ReplSegment { first_lsn: 40 },
                vec![vec![9], u64le(40)],
            ),
            (
                Frame::ReplRecords {
                    first_lsn: 42,
                    payloads: vec![vec![0xAB], vec![]],
                },
                vec![vec![10], u64le(42), u32le(2), string(&[0xAB]), string(&[])],
            ),
            (
                Frame::ReplSnapshot {
                    lsn: 40,
                    total_len: 3,
                    offset: 1,
                    chunk: vec![7, 8],
                },
                vec![vec![11], u64le(40), u64le(3), u64le(1), string(&[7, 8])],
            ),
            (
                Frame::ReplLag {
                    leader_next_lsn: 45,
                },
                vec![vec![12], u64le(45)],
            ),
            (Frame::Ping { nonce: 6 }, vec![vec![13], u64le(6)]),
            (Frame::Pong { nonce: 6 }, vec![vec![14], u64le(6)]),
        ];
        for (frame, parts) in cases {
            let mut payload = Vec::new();
            frame.encode(&mut payload);
            assert_eq!(payload, parts.concat(), "{frame:?}");
        }
        // frame := len:u32le crc:u32le payload, the CRC being CRC-32C.
        assert_eq!(codec::crc32c(b"123456789"), 0xE306_9283);
        let bytes = Frame::Ping { nonce: 6 }.to_bytes();
        assert_eq!(bytes[..4], 9u32.to_le_bytes());
        assert_eq!(bytes[4..8], codec::crc32c(&bytes[8..]).to_le_bytes());
    }

    #[test]
    fn reader_reassembles_byte_by_byte() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for &b in &stream {
            reader.extend(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_buffering() {
        let mut reader = FrameReader::new();
        let mut bytes = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        reader.extend(&bytes);
        assert_eq!(
            reader.next_frame(),
            Err(FrameError::TooLarge {
                len: MAX_FRAME_BYTES + 1,
                max: MAX_FRAME_BYTES
            })
        );
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut bytes = sample_frames()[1].to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let mut payload = Vec::new();
        Frame::Unsubscribe { req: 1, id: 2 }.encode(&mut payload);
        payload.push(0xFF);
        assert!(Frame::decode(&payload).is_err());
    }

    #[test]
    fn hostile_count_prefixes_do_not_allocate() {
        // A Subscribe frame advertising u32::MAX predicates with no bytes
        // behind them must fail as a short read before any allocation.
        let mut payload = vec![TAG_SUBSCRIBE];
        codec::put_u32(&mut payload, 1);
        codec::put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            Frame::decode(&payload),
            Err(CodecError::ShortRead { .. })
        ));
        // Same for Notify's id list and the event pair count.
        let mut payload = vec![TAG_NOTIFY];
        codec::put_u64(&mut payload, 1);
        codec::put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            Frame::decode(&payload),
            Err(CodecError::ShortRead { .. })
        ));
        // And for a replication batch's payload count and a snapshot
        // chunk's length prefix.
        let mut payload = vec![TAG_REPL_RECORDS];
        codec::put_u64(&mut payload, 0);
        codec::put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            Frame::decode(&payload),
            Err(CodecError::ShortRead { .. })
        ));
        let mut payload = vec![TAG_REPL_SNAPSHOT];
        codec::put_u64(&mut payload, 0);
        codec::put_u64(&mut payload, u32::MAX as u64);
        codec::put_u64(&mut payload, 0);
        codec::put_u32(&mut payload, u32::MAX); // chunk length with no bytes
        assert!(matches!(
            Frame::decode(&payload),
            Err(CodecError::ShortRead { .. })
        ));
    }

    #[test]
    fn reader_compacts_consumed_prefixes() {
        let frame = Frame::Unsubscribe { req: 1, id: 2 };
        let bytes = frame.to_bytes();
        let mut reader = FrameReader::new();
        for _ in 0..1000 {
            reader.extend(&bytes);
            assert_eq!(reader.next_frame().unwrap(), Some(frame.clone()));
        }
        // The buffer must stay near one frame, not grow toward 1000 frames.
        assert!(reader.buf.len() < 4 * bytes.len(), "{}", reader.buf.len());
    }
}
