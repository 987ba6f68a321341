//! Incremental-parse torture tests for the RESP parser.
//!
//! The network layer's contract is: `parse` returns `Ok(None)` on any strict
//! prefix of a valid frame (accumulate and retry), `Ok(Some)` consuming
//! exactly one frame, and `Err` only on input that can never become valid.
//! These tests pin that contract by splitting frames at every byte boundary,
//! feeding byte-at-a-time streams, pipelining frames back-to-back, and
//! throwing malformed lengths/framing at the parser.

use abase_proto::{Command, ParseError, RequestScanner, RespValue, Scanned};
use bytes::Bytes;

/// What the server's reader makes of the head of `wire`: the borrowed
/// scanner, with the owned parser deciding what is not a command frame —
/// `Ok(true)` for a complete frame, `Ok(false)` for "read more".
fn scan(wire: &[u8]) -> Result<bool, ParseError> {
    match RequestScanner::new().scan(wire)? {
        Scanned::Command { .. } => Ok(true),
        Scanned::Incomplete => Ok(false),
        Scanned::Other => RespValue::parse(wire).map(|parsed| parsed.is_some()),
    }
}

fn sample_values() -> Vec<RespValue> {
    vec![
        RespValue::Simple("OK".into()),
        RespValue::Error("ERR something went wrong".into()),
        RespValue::Integer(i64::MIN),
        RespValue::Integer(i64::MAX),
        RespValue::bulk(""),
        RespValue::bulk("hello world"),
        RespValue::bulk(vec![0u8, 255, 13, 10, 7]), // binary incl. CRLF bytes
        RespValue::Bulk(None),
        RespValue::Array(None),
        RespValue::array(vec![]),
        RespValue::array(vec![
            RespValue::bulk("SET"),
            RespValue::bulk("key"),
            RespValue::bulk("value"),
        ]),
        // Deep nesting with mixed types.
        RespValue::array(vec![
            RespValue::Integer(1),
            RespValue::array(vec![
                RespValue::bulk("inner"),
                RespValue::array(vec![RespValue::Bulk(None), RespValue::ok()]),
                RespValue::Array(None),
            ]),
            RespValue::Error("E".into()),
        ]),
    ]
}

#[test]
fn every_prefix_of_every_frame_is_incomplete() {
    for value in sample_values() {
        let wire = value.to_bytes();
        for cut in 0..wire.len() {
            match RespValue::parse(&wire[..cut]) {
                Ok(None) => {}
                other => panic!(
                    "prefix {cut}/{} of {value:?} parsed as {other:?}",
                    wire.len()
                ),
            }
        }
        let (parsed, consumed) = RespValue::parse(&wire).unwrap().unwrap();
        assert_eq!(parsed, value);
        assert_eq!(consumed, wire.len());
    }
}

#[test]
fn byte_at_a_time_stream_reassembles() {
    // Simulate a network layer receiving one byte per read.
    let values = sample_values();
    let mut wire = Vec::new();
    for v in &values {
        v.encode(&mut wire);
    }
    let mut buffer = Vec::new();
    let mut decoded = Vec::new();
    for &byte in &wire {
        buffer.push(byte);
        while let Some((value, used)) = RespValue::parse(&buffer).unwrap() {
            decoded.push(value);
            buffer.drain(..used);
        }
    }
    assert!(buffer.is_empty(), "undrained bytes: {buffer:?}");
    assert_eq!(decoded, values);
}

#[test]
fn pipelined_frames_split_at_every_boundary() {
    // Two commands pipelined; split the stream at every position and feed the
    // two halves — the parser must produce the same two frames regardless.
    let a = Command::Set {
        key: Bytes::from("k"),
        value: Bytes::from("v1"),
        ttl_secs: Some(30),
    }
    .to_resp();
    let b = Command::HSet {
        key: Bytes::from("h"),
        pairs: vec![(Bytes::from("f"), Bytes::from("v2"))],
    }
    .to_resp();
    let mut wire = a.to_bytes();
    wire.extend_from_slice(&b.to_bytes());
    for split in 0..=wire.len() {
        let mut buffer = Vec::new();
        let mut decoded = Vec::new();
        for half in [&wire[..split], &wire[split..]] {
            buffer.extend_from_slice(half);
            while let Some((value, used)) = RespValue::parse(&buffer).unwrap() {
                decoded.push(value);
                buffer.drain(..used);
            }
        }
        assert_eq!(decoded.len(), 2, "split at {split}");
        assert_eq!(decoded[0], a);
        assert_eq!(decoded[1], b);
    }
}

#[test]
fn malformed_lengths_are_errors_not_incomplete() {
    // A parser that treated these as "need more bytes" would hang the
    // connection forever.
    assert_eq!(RespValue::parse(b"$abc\r\n"), Err(ParseError::BadInteger));
    assert_eq!(RespValue::parse(b"$-2\r\n"), Err(ParseError::BadInteger));
    assert_eq!(RespValue::parse(b"*-7\r\n"), Err(ParseError::BadInteger));
    assert_eq!(
        RespValue::parse(b"*1x\r\n$1\r\na\r\n"),
        Err(ParseError::BadInteger)
    );
    assert_eq!(RespValue::parse(b":12.5\r\n"), Err(ParseError::BadInteger));
    assert_eq!(RespValue::parse(b":\r\n"), Err(ParseError::BadInteger));
}

#[test]
fn bulk_payload_framing_violations_are_errors() {
    // Declared length 2 but the terminator is displaced.
    assert_eq!(RespValue::parse(b"$2\r\nabcd"), Err(ParseError::BadFraming));
    // Nested inside an array: the error must surface through recursion.
    assert_eq!(
        RespValue::parse(b"*2\r\n$1\r\na\r\n$2\r\nabXY"),
        Err(ParseError::BadFraming)
    );
}

#[test]
fn unknown_type_bytes_rejected_at_any_depth() {
    assert_eq!(
        RespValue::parse(b"!boom\r\n"),
        Err(ParseError::BadType(b'!'))
    );
    assert_eq!(
        RespValue::parse(b"*2\r\n:1\r\n?x\r\n"),
        Err(ParseError::BadType(b'?'))
    );
}

#[test]
fn huge_declared_bulk_stays_incomplete() {
    // A length header promising a megabyte with only a few payload bytes on
    // the wire is incomplete, not an error.
    let r = RespValue::parse(b"$1048576\r\nabc").unwrap();
    assert!(r.is_none());
    let r = RespValue::parse(b"*100000\r\n:1\r\n").unwrap();
    assert!(r.is_none());
}

#[test]
fn hostile_lengths_and_nesting_are_errors_not_crashes() {
    // A 22-byte header must not reserve i64::MAX elements.
    let (batch, status) = RespValue::parse_batch(b"*9223372036854775807\r\n");
    assert!(batch.frames.is_empty());
    assert_eq!(status, Err(ParseError::ArrayTooLong));
    // Under the cap, the reservation follows the buffered bytes, not the claim.
    assert_eq!(RespValue::parse(b"*1048576\r\n"), Ok(None));
    assert_eq!(
        RespValue::parse(b"*1048577\r\n"),
        Err(ParseError::ArrayTooLong)
    );

    // 40 KB of `*1\r\n` recurses once per level without a depth cap.
    let (batch, status) = RespValue::parse_batch(&b"*1\r\n".repeat(10_000));
    assert!(batch.frames.is_empty());
    assert_eq!(status, Err(ParseError::TooDeep));

    // The server's borrowed scanner answers every case above the same way.
    assert_eq!(
        scan(b"*9223372036854775807\r\n"),
        Err(ParseError::ArrayTooLong)
    );
    assert_eq!(scan(b"*1048576\r\n"), Ok(false));
    assert_eq!(scan(b"*1048577\r\n"), Err(ParseError::ArrayTooLong));
    assert_eq!(scan(&b"*1\r\n".repeat(10_000)), Err(ParseError::TooDeep));
    for wire in [
        &b"$9223372036854775807\r\n"[..],
        b"$536870913\r\nabc",
        b"*2\r\n$3\r\nGET\r\n$9223372036854775807\r\n",
        b"*2\r\n$3\r\nGET\r\n$536870913\r\nabc",
    ] {
        assert_eq!(scan(wire), Err(ParseError::BulkTooLong));
    }
    assert_eq!(scan(b"$536870912\r\nabc"), Ok(false));
    assert_eq!(scan(b"*2\r\n$3\r\nGET\r\n$536870912\r\nabc"), Ok(false));
    assert_eq!(scan(b"*1\r\n$-2\r\n"), Err(ParseError::BadInteger));
    assert_eq!(scan(b"*1\r\n$3\r\nGETxx"), Err(ParseError::BadFraming));

    // A bulk header may not commit the receiver to buffering without bound
    // (and `header + len + 2` must not overflow).
    for wire in [&b"$9223372036854775807\r\n"[..], b"$536870913\r\nabc"] {
        let (_, status) = RespValue::parse_batch(wire);
        assert_eq!(status, Err(ParseError::BulkTooLong));
    }
    assert_eq!(RespValue::parse(b"$536870912\r\nabc"), Ok(None));

    // Frames ahead of the hostile one are still delivered.
    let mut wire = RespValue::Integer(1).to_bytes();
    wire.extend_from_slice(b"*9223372036854775807\r\n");
    let (batch, status) = RespValue::parse_batch(&wire);
    assert_eq!(batch.frames, vec![RespValue::Integer(1)]);
    assert_eq!(status, Err(ParseError::ArrayTooLong));
}

#[test]
fn deeply_nested_arrays_roundtrip_incrementally() {
    let mut value = RespValue::Integer(42);
    for _ in 0..16 {
        value = RespValue::array(vec![value]);
    }
    let wire = value.to_bytes();
    for cut in 0..wire.len() {
        assert!(
            RespValue::parse(&wire[..cut]).unwrap().is_none(),
            "cut {cut}"
        );
    }
    let (parsed, used) = RespValue::parse(&wire).unwrap().unwrap();
    assert_eq!(parsed, value);
    assert_eq!(used, wire.len());
}

#[test]
fn replication_commands_parse() {
    let wait = Command::from_resp(&RespValue::array(vec![
        RespValue::bulk("WAIT"),
        RespValue::bulk("2"),
        RespValue::bulk("500"),
    ]))
    .unwrap();
    assert_eq!(
        wait,
        Command::Wait {
            numreplicas: 2,
            timeout_ms: 500
        }
    );
    let replconf = Command::from_resp(&RespValue::array(vec![
        RespValue::bulk("replconf"),
        RespValue::bulk("listening-port"),
        RespValue::bulk("6380"),
    ]))
    .unwrap();
    match &replconf {
        Command::ReplConf { pairs } => assert_eq!(pairs.len(), 1),
        other => panic!("{other:?}"),
    }
    // Both are control-plane commands and roundtrip through RESP.
    for cmd in [wait, replconf] {
        assert_eq!(cmd.kind(), abase_proto::CommandKind::Control);
        assert_eq!(Command::from_resp(&cmd.to_resp()).unwrap(), cmd);
    }
    // Malformed variants are rejected.
    assert!(Command::from_resp(&RespValue::array(vec![RespValue::bulk("WAIT")])).is_err());
    assert!(Command::from_resp(&RespValue::array(vec![
        RespValue::bulk("REPLCONF"),
        RespValue::bulk("odd"),
        RespValue::bulk("pair"),
        RespValue::bulk("dangling"),
    ]))
    .is_err());
}
