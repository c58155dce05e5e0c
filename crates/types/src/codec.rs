//! Binary record codec for durable broker state.
//!
//! The write-ahead log and snapshot files of `pubsub-durability` persist the
//! data-model types of this crate; the byte-level encoding lives here, next
//! to the types it serialises, so the two cannot drift apart. The format is
//! deliberately simple and versioned by the WAL container, not per value:
//!
//! * integers are fixed-width little-endian (`u32`/`u64`/`i64`),
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * enums are a one-byte tag followed by their payload,
//! * optional values are a presence byte (`0`/`1`) followed by the payload.
//!
//! Encoding (into a `Vec<u8>`) is infallible. Decoding reads from a
//! [`Reader`] and reports truncation, bad tags and invariant violations as
//! [`CodecError`] — WAL bytes may be torn or corrupted, so nothing here
//! panics on malformed input.
//!
//! The module also provides [`crc32c`], the Castagnoli CRC the WAL uses to
//! checksum every record and snapshot payload.

use crate::error::CodecError;
use crate::operator::Operator;
use crate::predicate::Predicate;
use crate::subscription::{Subscription, SubscriptionId};
use crate::time::{LogicalTime, Validity};
use crate::value::Value;
use crate::{AttrId, Symbol};

// ---- CRC32C ---------------------------------------------------------------

/// The CRC32C (Castagnoli) slice-by-8 tables, built at compile time from
/// the reflected polynomial 0x82F63B78. `CRC32C_TABLES[0]` is the classic
/// bytewise table; `CRC32C_TABLES[k][b]` is the CRC step of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the CRC by
/// eight bytes at once.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC32C checksum of `data`, eight bytes per step
/// (slice-by-8) and the tail bytewise.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- primitive writers ----------------------------------------------------

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` in little-endian order.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed raw byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Encodes a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---- reader ---------------------------------------------------------------

/// A cursor over a byte slice with typed, error-reporting accessors.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::ShortRead {
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed raw byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Consumes and returns every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

// ---- domain types ---------------------------------------------------------

const VALUE_INT: u8 = 0;
const VALUE_STR: u8 = 1;

/// Encodes a [`Value`] (tag byte + payload).
pub fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            out.push(VALUE_INT);
            put_i64(out, i);
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_u32(out, s.0);
        }
    }
}

/// Decodes a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_STR => Ok(Value::Str(Symbol(r.u32()?))),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

/// Encodes an [`Operator`] as one byte.
pub fn put_operator(out: &mut Vec<u8>, op: Operator) {
    let tag = match op {
        Operator::Lt => 0u8,
        Operator::Le => 1,
        Operator::Eq => 2,
        Operator::Ne => 3,
        Operator::Ge => 4,
        Operator::Gt => 5,
    };
    out.push(tag);
}

/// Decodes an [`Operator`].
pub fn get_operator(r: &mut Reader<'_>) -> Result<Operator, CodecError> {
    Ok(match r.u8()? {
        0 => Operator::Lt,
        1 => Operator::Le,
        2 => Operator::Eq,
        3 => Operator::Ne,
        4 => Operator::Ge,
        5 => Operator::Gt,
        tag => {
            return Err(CodecError::BadTag {
                what: "operator",
                tag,
            })
        }
    })
}

/// Encodes a [`Predicate`] (`attr`, `op`, `value`).
pub fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    put_u32(out, p.attr.0);
    put_operator(out, p.op);
    put_value(out, p.value);
}

/// Decodes a [`Predicate`].
pub fn get_predicate(r: &mut Reader<'_>) -> Result<Predicate, CodecError> {
    let attr = AttrId(r.u32()?);
    let op = get_operator(r)?;
    let value = get_value(r)?;
    Ok(Predicate { attr, op, value })
}

/// Encodes a [`Subscription`] as a predicate count plus predicates.
pub fn put_subscription(out: &mut Vec<u8>, sub: &Subscription) {
    put_u32(out, sub.predicates().len() as u32);
    for p in sub.predicates() {
        put_predicate(out, p);
    }
}

/// Decodes a [`Subscription`], re-validating its invariants (non-empty, no
/// duplicate predicates).
pub fn get_subscription(r: &mut Reader<'_>) -> Result<Subscription, CodecError> {
    let n = r.u32()? as usize;
    // Guard the allocation: a corrupt count must not OOM the decoder. The
    // remaining bytes bound the real count (every predicate is > 1 byte).
    if n > r.remaining() {
        return Err(CodecError::ShortRead {
            needed: n - r.remaining(),
        });
    }
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        preds.push(get_predicate(r)?);
    }
    Ok(Subscription::from_predicates(preds)?)
}

/// Encodes a [`LogicalTime`].
pub fn put_time(out: &mut Vec<u8>, t: LogicalTime) {
    put_u64(out, t.0);
}

/// Decodes a [`LogicalTime`].
pub fn get_time(r: &mut Reader<'_>) -> Result<LogicalTime, CodecError> {
    Ok(LogicalTime(r.u64()?))
}

/// Encodes a [`Validity`] (`from`, presence byte, optional `until`).
pub fn put_validity(out: &mut Vec<u8>, v: Validity) {
    put_time(out, v.from);
    match v.until {
        None => out.push(0),
        Some(u) => {
            out.push(1);
            put_time(out, u);
        }
    }
}

/// Decodes a [`Validity`].
pub fn get_validity(r: &mut Reader<'_>) -> Result<Validity, CodecError> {
    let from = get_time(r)?;
    let until = match r.u8()? {
        0 => None,
        1 => Some(get_time(r)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "validity",
                tag,
            })
        }
    };
    Ok(Validity { from, until })
}

/// Encodes a [`SubscriptionId`].
pub fn put_subscription_id(out: &mut Vec<u8>, id: SubscriptionId) {
    put_u32(out, id.0);
}

/// Decodes a [`SubscriptionId`].
pub fn get_subscription_id(r: &mut Reader<'_>) -> Result<SubscriptionId, CodecError> {
    Ok(SubscriptionId(r.u32()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::SubscriptionBuilder;

    /// The one-byte-at-a-time table loop: the oracle the slice-by-8
    /// [`crc32c`] must agree with on every input.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 §B.4 test vectors, plus the customary check value.
        let ascending: Vec<u8> = (0..32).collect();
        for (data, want) in [
            (&b""[..], 0),
            (&b"123456789"[..], 0xE306_9283),
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
        ] {
            assert_eq!(crc32c(data), want, "{data:?}");
            assert_eq!(crc32c_bytewise(data), want, "{data:?}");
        }
    }

    #[test]
    fn crc32c_matches_the_bytewise_loop_at_every_length_and_offset() {
        // Every tail length (0..8) at every alignment, over data that
        // touches every table entry.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32c(slice), crc32c_bytewise(slice), "{start}..{end}");
            }
        }
    }

    proptest::proptest! {
        /// Random bytes, lengths 0..=2048, placed at every start offset
        /// modulo 8 inside a larger buffer.
        #[test]
        fn crc32c_agrees_with_the_bytewise_loop(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2049),
            offset in 0usize..8,
        ) {
            let mut buf = vec![0xA5u8; offset];
            buf.extend_from_slice(&data);
            let slice = &buf[offset..];
            proptest::prop_assert_eq!(crc32c(slice), crc32c_bytewise(slice));
        }
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32c(data);
        for byte in 0..data.len() {
            for bit in 0..8u8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_i64(&mut buf, i64::MIN);
        put_str(&mut buf, "groundhog day");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.str().unwrap(), "groundhog day");
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_report_missing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(CodecError::ShortRead { needed: 2 }));
        // Failed reads consume nothing.
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn values_and_predicates_round_trip() {
        for v in [Value::Int(-42), Value::Int(i64::MAX), Value::Str(Symbol(9))] {
            let mut buf = Vec::new();
            put_value(&mut buf, v);
            assert_eq!(get_value(&mut Reader::new(&buf)).unwrap(), v);
        }
        for op in [
            Operator::Lt,
            Operator::Le,
            Operator::Eq,
            Operator::Ne,
            Operator::Ge,
            Operator::Gt,
        ] {
            let p = Predicate::new(AttrId(3), op, 17i64);
            let mut buf = Vec::new();
            put_predicate(&mut buf, &p);
            assert_eq!(get_predicate(&mut Reader::new(&buf)).unwrap(), p);
        }
    }

    #[test]
    fn subscriptions_round_trip_canonically() {
        let sub = SubscriptionBuilder::default()
            .eq(AttrId(1), Value::Str(Symbol(4)))
            .with(AttrId(0), Operator::Le, 10i64)
            .with(AttrId(0), Operator::Gt, 5i64)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        put_subscription(&mut buf, &sub);
        let back = get_subscription(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, sub);
    }

    #[test]
    fn corrupt_subscription_count_is_rejected_not_oom() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            get_subscription(&mut Reader::new(&buf)),
            Err(CodecError::ShortRead { .. })
        ));
        // An in-bounds count with no predicate bytes is also a short read.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(get_subscription(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn empty_subscription_is_structurally_invalid() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        assert!(matches!(
            get_subscription(&mut Reader::new(&buf)),
            Err(CodecError::BadStructure(_))
        ));
    }

    #[test]
    fn validity_round_trips() {
        for v in [
            Validity::forever(),
            Validity::until(LogicalTime(77)),
            Validity::between(LogicalTime(3), LogicalTime(9)),
        ] {
            let mut buf = Vec::new();
            put_validity(&mut buf, v);
            assert_eq!(get_validity(&mut Reader::new(&buf)).unwrap(), v);
        }
    }

    #[test]
    fn bad_tags_are_reported() {
        assert!(matches!(
            get_value(&mut Reader::new(&[9])),
            Err(CodecError::BadTag { what: "value", .. })
        ));
        assert!(matches!(
            get_operator(&mut Reader::new(&[200])),
            Err(CodecError::BadTag {
                what: "operator",
                ..
            })
        ));
    }
}
