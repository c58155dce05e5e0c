//! Protocol conformance: proptest round-trips of every frame type, and an
//! adversarial decoder suite — truncated frames, corrupt CRCs, oversized
//! length prefixes and random byte soup must produce typed errors (or ask
//! for more bytes), never a panic and never an allocation sized by
//! attacker-controlled counts. The live-server tests at the bottom hold
//! the *server* to the same standard: arbitrary bytes on a real socket
//! never kill it.

use proptest::prelude::*;
use pubsub_broker::SharedBroker;
use pubsub_core::EngineKind;
use pubsub_net::frame::write_notify;
use pubsub_net::{
    Ack, Client, ErrorCode, Frame, FrameError, FrameReader, PublishRef, Server, WireEvent,
    WireEventRef, WirePredicate, WireValue, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use pubsub_types::{CodecError, Operator};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

// ---- strategies ------------------------------------------------------------

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..64, 0..12).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b {
                0..=25 => (b'a' + b) as char,
                26..=51 => (b'A' + b - 26) as char,
                52..=61 => (b'0' + b - 52) as char,
                62 => 'é', // multi-byte UTF-8 exercises the str codec
                _ => '·',
            })
            .collect()
    })
}

fn arb_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        any::<i64>().prop_map(WireValue::Int),
        arb_string().prop_map(WireValue::Str),
    ]
}

fn arb_operator() -> impl Strategy<Value = Operator> {
    prop::sample::select(Operator::ALL.to_vec())
}

fn arb_predicate() -> impl Strategy<Value = WirePredicate> {
    (arb_string(), arb_operator(), arb_value()).prop_map(|(attr, op, value)| WirePredicate {
        attr,
        op,
        value,
    })
}

fn arb_event() -> impl Strategy<Value = WireEvent> {
    prop::collection::vec((arb_string(), arb_value()), 0..6).prop_map(|pairs| WireEvent { pairs })
}

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..8)
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop::sample::select(vec![
        ErrorCode::BadFrame,
        ErrorCode::BadHandshake,
        ErrorCode::UnknownSession,
        ErrorCode::BadRequest,
        ErrorCode::Unavailable,
        ErrorCode::Internal,
    ])
}

fn arb_ack() -> impl Strategy<Value = Ack> {
    prop_oneof![
        (any::<u64>(), arb_ids()).prop_map(|(token, resumed)| Ack::Hello { token, resumed }),
        (any::<u32>(), any::<u32>()).prop_map(|(req, id)| Ack::Subscribe { req, id }),
        (any::<u32>(), any::<bool>()).prop_map(|(req, existed)| Ack::Unsubscribe { req, existed }),
        (any::<u32>(), any::<u32>()).prop_map(|(req, matched)| Ack::Publish { req, matched }),
    ]
}

/// Every client/server frame variant, including the liveness pair.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(proto, token)| Frame::Hello { proto, token }),
        (any::<u32>(), prop::collection::vec(arb_predicate(), 0..5))
            .prop_map(|(req, preds)| Frame::Subscribe { req, preds }),
        (any::<u32>(), any::<u32>()).prop_map(|(req, id)| Frame::Unsubscribe { req, id }),
        (any::<u32>(), arb_event()).prop_map(|(req, event)| Frame::Publish { req, event }),
        (any::<u64>(), arb_ids(), arb_event()).prop_map(|(seq, ids, event)| Frame::Notify {
            seq,
            ids,
            event
        }),
        arb_ack().prop_map(Frame::Ack),
        (any::<u32>(), arb_error_code(), arb_string()).prop_map(|(req, code, msg)| Frame::Error {
            req,
            code,
            msg
        }),
        any::<u64>().prop_map(|nonce| Frame::Ping { nonce }),
        any::<u64>().prop_map(|nonce| Frame::Pong { nonce }),
    ]
}

/// A payload decoded the way the server reads a publish: the borrowed head,
/// then the event walked pair by pair in place. `Ok(None)` for any frame
/// that is not a publish.
fn decode_borrowed(payload: &[u8]) -> Result<Option<Frame>, CodecError> {
    let Some(publish) = PublishRef::parse(payload)? else {
        return Ok(None);
    };
    let mut walk = WireEventRef::new(publish.body)?;
    let mut pairs = Vec::new();
    while let Some((name, value)) = walk.next_pair()? {
        pairs.push((name.to_string(), value.to_owned_value()));
    }
    Ok(Some(Frame::Publish {
        req: publish.req,
        event: WireEvent { pairs },
    }))
}

// ---- round-trip conformance ------------------------------------------------

proptest! {
    /// encode → decode is the identity for every frame type, and the
    /// borrowed publish decode agrees with the owned one.
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let mut payload = Vec::new();
        frame.encode(&mut payload);
        prop_assert_eq!(Frame::decode(&payload).unwrap(), frame.clone());
        let borrowed = decode_borrowed(&payload).unwrap();
        if matches!(frame, Frame::Publish { .. }) {
            prop_assert_eq!(borrowed, Some(frame));
        } else {
            prop_assert_eq!(borrowed, None);
        }
    }

    /// A notify built by forwarding a publish's body verbatim is byte for
    /// byte the encoded `Notify` of the same event.
    #[test]
    fn verbatim_notifies_match_the_encoder(
        req in any::<u32>(),
        seq in any::<u64>(),
        ids in arb_ids(),
        event in arb_event(),
        prefix in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut payload = Vec::new();
        Frame::Publish { req, event: event.clone() }.encode(&mut payload);
        let publish = PublishRef::parse(&payload).unwrap().unwrap();
        // Appending after existing bytes, as a writer's buffer would.
        let mut out = prefix.clone();
        write_notify(&mut out, seq, &ids, publish.body);
        let mut expected = prefix;
        Frame::Notify { seq, ids, event }.write_to(&mut expected);
        prop_assert_eq!(out, expected);
    }

    /// Damaged publish payloads — a byte changed, cut short, or with bytes
    /// after the event — are refused by the borrowed decode exactly as by
    /// `Frame::decode`, and accepted by both only alike.
    #[test]
    fn borrowed_and_owned_publish_decodes_reject_alike(
        req in any::<u32>(),
        event in arb_event(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        damage in 0u8..3,
    ) {
        let mut payload = Vec::new();
        Frame::Publish { req, event }.encode(&mut payload);
        match damage {
            // Keep the tag: a changed tag is another frame, not a publish.
            0 => {
                let i = 1 + at.index(payload.len() - 1);
                payload[i] = byte;
            }
            1 => payload.truncate(at.index(payload.len())),
            _ => payload.push(byte),
        }
        let owned = Frame::decode(&payload);
        match decode_borrowed(&payload) {
            Ok(Some(frame)) => prop_assert_eq!(owned, Ok(frame)),
            Ok(None) => prop_assert!(payload.is_empty() || payload[0] != 4),
            Err(e) => prop_assert_eq!(owned, Err(e)),
        }
    }

    /// A stream of frames survives arbitrary re-chunking through the
    /// incremental reader, in order, with nothing left over.
    #[test]
    fn frame_streams_survive_rechunking(
        frames in prop::collection::vec(arb_frame(), 1..6),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.extend(piece);
            while let Some(f) = reader.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.pending(), 0);
    }

    // ---- adversarial decoder suite ----------------------------------------

    /// Any strict prefix of a valid frame decodes to "need more bytes",
    /// never to a frame and never to a panic.
    #[test]
    fn truncated_frames_wait_for_more(frame in arb_frame(), cut in any::<prop::sample::Index>()) {
        let bytes = frame.to_bytes();
        let cut = cut.index(bytes.len().max(1)); // 0..len → always strict
        let mut reader = FrameReader::new();
        reader.extend(&bytes[..cut]);
        prop_assert_eq!(reader.next_frame().unwrap(), None);
    }

    /// Flipping any payload byte is caught by the checksum before the
    /// decoder ever sees the payload.
    #[test]
    fn corrupt_payload_bytes_fail_the_crc(
        frame in arb_frame(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = frame.to_bytes();
        // Every payload is at least the tag byte, so there is always a
        // byte to corrupt.
        let payload_len = bytes.len() - 8;
        let at = 8 + at.index(payload_len);
        bytes[at] ^= flip;
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        let crc_failed = matches!(reader.next_frame(), Err(FrameError::BadCrc { .. }));
        prop_assert!(crc_failed, "corruption at byte {} went undetected", at);
    }

    /// A length prefix beyond the bound is rejected before the payload is
    /// buffered — the reader never allocates toward a hostile length.
    #[test]
    fn oversized_length_prefixes_are_rejected(extra in 1u32..=u32::MAX - MAX_FRAME_BYTES) {
        let len = MAX_FRAME_BYTES + extra;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        prop_assert_eq!(
            reader.next_frame(),
            Err(FrameError::TooLarge { len, max: MAX_FRAME_BYTES })
        );
    }

    /// Random byte soup: the reader yields typed errors or asks for more,
    /// never panics, and never buffers beyond what it was fed.
    #[test]
    fn random_bytes_never_panic_the_reader(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        loop {
            match reader.next_frame() {
                Ok(Some(_)) => continue, // fluke frame: fine, keep going
                Ok(None) => break,       // wants more bytes
                Err(_) => break,         // typed error
            }
        }
        prop_assert!(reader.pending() <= bytes.len());
    }

    /// Hostile count prefixes inside a checksummed payload (the CRC is
    /// recomputed, so the frame *looks* valid) must fail as short reads
    /// before any count-sized allocation happens.
    #[test]
    fn hostile_counts_are_short_reads(tag in prop::sample::select(vec![2u8, 5u8]), count in 1024u32..u32::MAX) {
        let mut payload = vec![tag];
        if tag == 5 {
            payload.extend_from_slice(&1u64.to_le_bytes()); // Notify.seq
        } else {
            payload.extend_from_slice(&1u32.to_le_bytes()); // Subscribe.req
        }
        payload.extend_from_slice(&count.to_le_bytes());
        let short_read = matches!(Frame::decode(&payload), Err(CodecError::ShortRead { .. }));
        prop_assert!(short_read, "hostile count was not a short read");
    }
}

// ---- live server robustness ------------------------------------------------

fn test_server() -> Server {
    let broker = Arc::new(SharedBroker::new(EngineKind::Counting, 2));
    Server::start(broker, "127.0.0.1:0").expect("bind loopback")
}

/// Sends `bytes` raw, then proves the server survived by completing a full
/// handshake + subscribe + publish round-trip on a fresh connection.
fn assault_and_verify(server: &Server, bytes: &[u8]) {
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(bytes).unwrap();
    let _ = sock.shutdown(std::net::Shutdown::Write);
    // Drain whatever the server answers (error frames) until it closes.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 1024];
    while matches!(sock.read(&mut sink), Ok(n) if n > 0) {}
    drop(sock);

    let mut client = Client::connect(server.local_addr()).expect("server must still accept");
    let id = client
        .subscribe(vec![WirePredicate {
            attr: "alive".into(),
            op: Operator::Eq,
            value: WireValue::Int(1),
        }])
        .expect("server must still subscribe");
    let matched = client
        .publish(WireEvent {
            pairs: vec![("alive".into(), WireValue::Int(1))],
        })
        .expect("server must still publish");
    assert!(matched >= 1, "own subscription must match");
    client.unsubscribe(id).unwrap();
}

#[test]
fn random_bytes_never_kill_the_server() {
    let server = test_server();
    let mut state = 0x0DDB_17E5u64;
    for round in 0..32 {
        let len = 1 + (round * 17) % 300;
        let soup: Vec<u8> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        assault_and_verify(&server, &soup);
    }
}

#[test]
fn hostile_frames_on_a_live_socket_get_typed_errors() {
    let server = test_server();

    // Oversized length prefix: connection must be refused with BadFrame.
    let mut bytes = (MAX_FRAME_BYTES + 7).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 4]);
    assault_and_verify(&server, &bytes);

    // Corrupt CRC on an otherwise valid Hello.
    let mut bytes = Frame::Hello {
        proto: PROTOCOL_VERSION,
        token: 0,
    }
    .to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assault_and_verify(&server, &bytes);

    // Valid framing, invalid tag inside the checksummed payload.
    let mut payload = vec![0xEEu8];
    payload.extend_from_slice(&[1, 2, 3]);
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&pubsub_types::codec::crc32c(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    assault_and_verify(&server, &framed);

    // A non-Hello first frame: BadHandshake, connection closed, server fine.
    assault_and_verify(&server, &Frame::Unsubscribe { req: 1, id: 0 }.to_bytes());

    // Unsupported protocol version.
    assault_and_verify(
        &server,
        &Frame::Hello {
            proto: PROTOCOL_VERSION + 9,
            token: 0,
        }
        .to_bytes(),
    );
}

#[test]
fn bad_frame_stream_is_reported_before_the_connection_closes() {
    let server = test_server();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Frame::Hello {
        proto: PROTOCOL_VERSION,
        token: 0,
    }
    .to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    sock.write_all(&bytes).unwrap();

    // The server must answer with a decodable Error frame, then EOF.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 1024];
    let frame = loop {
        if let Some(frame) = reader.next_frame().expect("server speaks valid frames") {
            break frame;
        }
        let n = sock.read(&mut buf).expect("read server reply");
        assert!(n > 0, "connection closed before the error frame");
        reader.extend(&buf[..n]);
    };
    match frame {
        Frame::Error { req, code, .. } => {
            assert_eq!(req, 0, "stream errors are connection-level");
            assert_eq!(code, ErrorCode::BadFrame);
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
}

/// Reads frames from a raw socket until one arrives (5s cap).
fn read_one_frame(sock: &mut TcpStream) -> Frame {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(frame) = reader.next_frame().expect("server speaks valid frames") {
            return frame;
        }
        let n = sock.read(&mut buf).expect("read server reply");
        assert!(n > 0, "connection closed before a frame arrived");
        reader.extend(&buf[..n]);
    }
}

#[test]
fn pings_are_answered_even_before_the_handshake() {
    let server = test_server();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(&Frame::Ping { nonce: 0xFEED }.to_bytes())
        .unwrap();
    assert_eq!(read_one_frame(&mut sock), Frame::Pong { nonce: 0xFEED });
    // The connection is still pristine: a handshake works afterwards.
    sock.write_all(
        &Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: 0,
        }
        .to_bytes(),
    )
    .unwrap();
    match read_one_frame(&mut sock) {
        Frame::Ack(Ack::Hello { token, .. }) => assert_ne!(token, 0),
        other => panic!("expected hello ack, got {other:?}"),
    }
}

#[test]
fn client_ping_round_trips_and_buffers_nothing() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client.ping().expect("ping round-trips");
    }
    // Requests still work on the same connection.
    let id = client
        .subscribe(vec![WirePredicate {
            attr: "k".into(),
            op: Operator::Eq,
            value: WireValue::Int(1),
        }])
        .unwrap();
    client.ping().expect("ping after subscribe");
    assert!(client.unsubscribe(id).unwrap());
}

#[test]
fn a_pong_sent_to_the_server_is_a_bad_request() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .send_raw(&Frame::Pong { nonce: 1 }.to_bytes())
        .unwrap();
    let err = client
        .drain_notifies(Duration::from_secs(2))
        .expect_err("server must refuse a client-sent pong");
    match err {
        pubsub_net::ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected server refusal, got {other}"),
    }
}

/// A publish whose checksummed payload does not decode (bad UTF-8 here),
/// pipelined between two good ones, is answered in place: the publish
/// before it is acked, then one `BadFrame` error reports it exactly as the
/// owned decoder words it, and the connection closes — the publish after it
/// is never answered.
#[test]
fn a_malformed_publish_mid_batch_is_a_bad_frame_in_place() {
    let server = test_server();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(
        &Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: 0,
        }
        .to_bytes(),
    )
    .unwrap();
    assert!(matches!(
        read_one_frame(&mut sock),
        Frame::Ack(Ack::Hello { .. })
    ));
    let publish = |req| Frame::Publish {
        req,
        event: WireEvent {
            pairs: vec![("name".into(), WireValue::Str("ok".into()))],
        },
    };
    let mut bad = Vec::new();
    publish(2).encode(&mut bad);
    let last = bad.len() - 1;
    bad[last] = 0xFF; // "ok" → "o\xFF": not UTF-8
    let expected = FrameError::Codec(Frame::decode(&bad).unwrap_err()).to_string();
    let mut bytes = publish(1).to_bytes();
    bytes.extend_from_slice(&(bad.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&pubsub_types::codec::crc32c(&bad).to_le_bytes());
    bytes.extend_from_slice(&bad);
    publish(3).write_to(&mut bytes);
    sock.write_all(&bytes).unwrap();

    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 1024];
    let mut replies = Vec::new();
    loop {
        while let Some(frame) = reader.next_frame().expect("server speaks valid frames") {
            replies.push(frame);
        }
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) => panic!("server neither answered nor closed: {e}"),
        }
    }
    assert_eq!(
        replies,
        [
            Frame::Ack(Ack::Publish { req: 1, matched: 0 }),
            Frame::Error {
                req: 0,
                code: ErrorCode::BadFrame,
                msg: expected,
            },
        ]
    );
}

/// Regression: a socket flipped to non-blocking used to turn the client's
/// blocking reads into `unreachable!` panics ("no timeout configured") in
/// both the handshake and `wait_ack`. Spurious `WouldBlock` on a blocking
/// read must be retried, not panicked on.
#[test]
fn spurious_wakeups_on_a_blocking_socket_do_not_panic_requests() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.stream().set_nonblocking(true).unwrap();
    let id = client
        .subscribe(vec![WirePredicate {
            attr: "k".into(),
            op: Operator::Eq,
            value: WireValue::Int(7),
        }])
        .expect("request must survive spurious WouldBlock");
    client
        .ping()
        .expect("ping must survive spurious WouldBlock");
    assert!(client.unsubscribe(id).unwrap());
}
