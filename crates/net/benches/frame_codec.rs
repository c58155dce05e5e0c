//! The wire codec on one `match_eq`-shaped publish: an `eid` pair plus 32
//! integer attributes named as the benchmark's load generator names them,
//! a 535-byte payload.
//!
//! * `crc32c` — the checksum over that payload (slice-by-8).
//! * `decode_publish/owned` — `FrameReader::next_frame`: CRC, then the
//!   owned decode, one `String` per name.
//! * `decode_publish/borrowed` — what the server does instead: CRC
//!   (`next_payload`), `PublishRef::parse`, and the pair walk in place.
//! * `encode_notify/owned` — a one-id notify re-encoded from a cloned
//!   `WireEvent`, as the server built it before it forwarded bodies.
//! * `encode_notify/verbatim` — `write_notify` around the publish's body.
//!
//! Run with `cargo bench -p pubsub-net --bench frame_codec`.

use criterion::{criterion_group, criterion_main, Criterion};
use pubsub_net::frame::write_notify;
use pubsub_net::{
    Frame, FrameReader, PublishRef, WireEvent, WireEventRef, WireValue, WireValueRef,
};
use pubsub_types::codec;

fn match_eq_publish() -> (WireEvent, Vec<u8>) {
    let mut pairs = vec![("eid".to_string(), WireValue::Int(123_456))];
    pairs.extend((8..40).map(|a| (format!("a{a}"), WireValue::Int(a * 7))));
    let event = WireEvent { pairs };
    let bytes = Frame::Publish {
        req: 41,
        event: event.clone(),
    }
    .to_bytes();
    (event, bytes)
}

fn bench_frame_codec(c: &mut Criterion) {
    let (event, bytes) = match_eq_publish();
    let payload = &bytes[8..];
    assert_eq!(payload.len(), 535);
    let mut group = c.benchmark_group("frame_codec");
    group.bench_function("crc32c", |b| b.iter(|| codec::crc32c(payload)));

    let mut reader = FrameReader::new();
    group.bench_function("decode_publish/owned", |b| {
        b.iter(|| {
            reader.extend(&bytes);
            match reader.next_frame().unwrap() {
                Some(Frame::Publish { event, .. }) => event.pairs.len(),
                _ => unreachable!("a publish"),
            }
        })
    });
    group.bench_function("decode_publish/borrowed", |b| {
        b.iter(|| {
            reader.extend(&bytes);
            let span = reader.next_payload().unwrap().unwrap();
            let publish = PublishRef::parse(reader.payload(span)).unwrap().unwrap();
            let mut walk = WireEventRef::new(publish.body).unwrap();
            let mut sum = 0i64;
            while let Some((name, value)) = walk.next_pair().unwrap() {
                if let WireValueRef::Int(i) = value {
                    sum = sum.wrapping_add(i + name.len() as i64);
                }
            }
            sum
        })
    });

    group.bench_function("encode_notify/owned", |b| {
        b.iter(|| {
            Frame::Notify {
                seq: 9,
                ids: vec![17],
                event: event.clone(),
            }
            .to_bytes()
        })
    });
    let body = PublishRef::parse(payload).unwrap().unwrap().body;
    group.bench_function("encode_notify/verbatim", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            write_notify(&mut out, 9, &[17], body);
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_frame_codec);
criterion_main!(benches);
