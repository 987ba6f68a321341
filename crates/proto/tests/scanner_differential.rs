//! Differential test of the server's request reader against the owned one.
//!
//! The server reads a request with [`RequestScanner`] + [`Command::from_args`]
//! over borrowed arguments and falls back to [`RespValue::parse`] only for
//! what is not a command frame; clients, tests and the parent of this design
//! read it with `RespValue::parse` + [`Command::from_resp`]. For every input
//! — valid commands, near-misses, frames holding non-bulk items, mutated
//! frames, arbitrary bytes, and every truncation of them — the two must
//! agree on *accept / need more bytes / which error*, on the consumed
//! length, and (through `to_resp`) on the command.

use abase_proto::{Command, ParseError, RequestScanner, RespValue, Scanned};
use proptest::prelude::*;

/// What a reader makes of the head of an input.
#[derive(Debug, PartialEq)]
enum Verdict {
    NeedMore,
    Malformed(ParseError),
    /// A complete frame: the bytes it covered and the command it spells (as
    /// its canonical RESP form) or the grammar's refusal.
    Frame {
        consumed: usize,
        command: Result<RespValue, String>,
    },
}

fn owned(input: &[u8]) -> Verdict {
    match RespValue::parse(input) {
        Ok(None) => Verdict::NeedMore,
        Err(e) => Verdict::Malformed(e),
        Ok(Some((value, consumed))) => Verdict::Frame {
            consumed,
            command: Command::from_resp(&value)
                .map(|c| c.to_resp())
                .map_err(|e| e.0),
        },
    }
}

/// The connection's reading of `input`: the scanner, the grammar over the
/// borrowed arguments, and the owned fallback for a non-command frame.
fn borrowed(scanner: &mut RequestScanner, input: &[u8]) -> Verdict {
    match scanner.scan(input) {
        Err(e) => Verdict::Malformed(e),
        Ok(Scanned::Incomplete) => Verdict::NeedMore,
        Ok(Scanned::Command { argv, consumed }) => Verdict::Frame {
            consumed,
            command: Command::from_args(argv.len(), |i| Ok(argv.get(i)))
                .map(|c| c.to_resp())
                .map_err(|e| e.0),
        },
        Ok(Scanned::Other) => {
            let verdict = owned(input);
            // The fallback may only ever produce an error reply.
            if let Verdict::Frame { command, .. } = &verdict {
                assert!(
                    command.is_err(),
                    "the scanner passed over a command the owned reader accepts: {command:?}"
                );
            }
            verdict
        }
    }
}

/// Both readers on `input` and on every prefix of it.
fn assert_agree(scanner: &mut RequestScanner, input: &[u8]) {
    for cut in 0..=input.len() {
        let head = &input[..cut];
        assert_eq!(
            borrowed(scanner, head),
            owned(head),
            "input {:?}",
            String::from_utf8_lossy(head)
        );
    }
}

const VERBS: [&str; 20] = [
    "GET",
    "SET",
    "SETEX",
    "DEL",
    "EXISTS",
    "EXPIRE",
    "HSET",
    "HGET",
    "HDEL",
    "HLEN",
    "HGETALL",
    "WAIT",
    "REPLCONF",
    "PSYNC",
    "CONSISTENCY",
    "INFO",
    "SLOWLOG",
    "METRICS",
    "PING",
    "AUTH",
];

fn bulk_frame(items: &[Vec<u8>]) -> Vec<u8> {
    RespValue::array(items.iter().map(|i| RespValue::bulk(i.clone())).collect()).to_bytes()
}

/// A verb: a real one in random case, or junk (often not UTF-8, often empty).
fn arb_verb() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..VERBS.len(), any::<u32>()).prop_map(|(i, mask)| {
            VERBS[i]
                .bytes()
                .enumerate()
                .map(|(bit, b)| {
                    if mask >> (bit % 32) & 1 == 1 {
                        b.to_ascii_lowercase()
                    } else {
                        b
                    }
                })
                .collect()
        }),
        (0usize..VERBS.len()).prop_map(|i| VERBS[i].as_bytes().to_vec()),
        prop::collection::vec(any::<u8>(), 0..8),
    ]
}

/// An argument: binary (CR and LF included, possibly empty), a plausible
/// key, an integer good or bad, or one of the grammar's option words.
fn arb_arg() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..12),
        "[a-z0-9:]{1,12}".prop_map(String::into_bytes),
        (0u64..100_000).prop_map(|n| n.to_string().into_bytes()),
        prop_oneof![
            Just(&b"EX"[..]),
            Just(&b"ex"[..]),
            Just(&b"PX"[..]),
            Just(&b"-1"[..]),
            Just(&b"?"[..]),
            Just(&b"+7"[..]),
            Just(&b"18446744073709551615"[..]),
            Just(&b"18446744073709551616"[..]),
            Just(&b"get"[..]),
            Just(&b"RESET"[..]),
            Just(&b"Len"[..]),
            Just(&b"ack"[..]),
            Just(&b"replica-id"[..]),
            Just(&b"\r\n"[..]),
        ]
        .prop_map(<[u8]>::to_vec),
    ]
}

/// A frame of bulk strings: valid commands and near-misses alike.
fn arb_command_frame() -> impl Strategy<Value = Vec<u8>> {
    (arb_verb(), prop::collection::vec(arb_arg(), 0..7)).prop_map(|(verb, mut args)| {
        args.insert(0, verb);
        bulk_frame(&args)
    })
}

/// A frame that is well-formed RESP but not (only) bulk strings.
fn arb_other_frame() -> impl Strategy<Value = Vec<u8>> {
    let item = prop_oneof![
        arb_arg().prop_map(RespValue::bulk),
        arb_verb().prop_map(RespValue::bulk),
        Just(RespValue::Bulk(None)),
        Just(RespValue::Array(None)),
        any::<i64>().prop_map(RespValue::Integer),
        "[a-zA-Z ]{0,8}".prop_map(|s| RespValue::Simple(s.into())),
        "[a-zA-Z ]{0,8}".prop_map(RespValue::Error),
        prop::collection::vec(arb_arg(), 0..3)
            .prop_map(|items| RespValue::array(items.into_iter().map(RespValue::bulk).collect())),
    ];
    prop_oneof![
        prop::collection::vec(item.clone(), 0..6)
            .prop_map(|items| RespValue::array(items).to_bytes()),
        item.prop_map(|value| value.to_bytes()),
    ]
}

/// A frame with one byte changed: mostly framing and length damage.
fn arb_damaged_frame() -> impl Strategy<Value = Vec<u8>> {
    (arb_command_frame(), any::<usize>(), any::<u8>()).prop_map(|(mut wire, at, byte)| {
        let at = at % wire.len();
        wire[at] = byte;
        wire
    })
}

proptest! {
    #[test]
    fn command_frames_read_the_same(frames in prop::collection::vec(arb_command_frame(), 1..12)) {
        let mut scanner = RequestScanner::new();
        for frame in &frames {
            assert_agree(&mut scanner, frame);
        }
        // Pipelined: the consumed length must land on the next frame.
        let wire = frames.concat();
        let mut at = 0;
        while at < wire.len() {
            let verdict = borrowed(&mut scanner, &wire[at..]);
            prop_assert_eq!(&verdict, &owned(&wire[at..]));
            match verdict {
                Verdict::Frame { consumed, .. } => at += consumed,
                other => prop_assert!(false, "a whole frame read as {other:?}"),
            }
        }
    }

    #[test]
    fn non_command_frames_read_the_same(frames in prop::collection::vec(arb_other_frame(), 1..12)) {
        let mut scanner = RequestScanner::new();
        for frame in &frames {
            assert_agree(&mut scanner, frame);
        }
    }

    #[test]
    fn damaged_frames_read_the_same(frames in prop::collection::vec(arb_damaged_frame(), 1..12)) {
        let mut scanner = RequestScanner::new();
        for frame in &frames {
            assert_agree(&mut scanner, frame);
        }
    }

    #[test]
    fn arbitrary_bytes_read_the_same(
        inputs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..12),
        resp_ish in prop::collection::vec("[*$:+0-9\r\n-]{0,24}", 1..12),
    ) {
        let mut scanner = RequestScanner::new();
        for input in inputs.iter().map(Vec::as_slice).chain(resp_ish.iter().map(String::as_bytes)) {
            assert_agree(&mut scanner, input);
        }
    }
}

/// The generators above must reach the grammar's accepting paths, not only
/// its refusals: every verb is accepted at least once over a fixed sample.
#[test]
fn the_generators_reach_every_verb() {
    use proptest::Strategy;
    let mut rng = proptest::test_rng();
    let mut accepted = std::collections::BTreeSet::new();
    let mut scanner = RequestScanner::new();
    let strategy = arb_command_frame();
    for _ in 0..60_000 {
        let wire = strategy.sample(&mut rng);
        if let Verdict::Frame {
            command: Ok(RespValue::Array(Some(items))),
            ..
        } = borrowed(&mut scanner, &wire)
        {
            if let Some(RespValue::Bulk(Some(verb))) = items.first() {
                accepted.insert(String::from_utf8_lossy(verb).into_owned());
            }
        }
    }
    // SETEX normalises to SET; AUTH is the connection layer's, not the
    // grammar's.
    let expected: std::collections::BTreeSet<String> = VERBS
        .iter()
        .filter(|v| !matches!(**v, "SETEX" | "AUTH"))
        .map(|v| v.to_string())
        .collect();
    assert_eq!(accepted, expected);
}
