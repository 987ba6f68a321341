//! RESP2 (REdis Serialization Protocol): the owned value model and the
//! server's borrowed request scanner.
//!
//! Two readers share one set of limits, one line reader and one
//! [`ParseError`]:
//!
//! * [`RespValue`] is the **owned** model of the five RESP2 types —
//!   what a client, a test or the replication handshake parses replies
//!   into, and what every reply is encoded from. [`RespValue::parse`]
//!   returns `Ok(None)` on incomplete input so a network layer can
//!   accumulate bytes and retry, and `Err` only on genuinely malformed
//!   frames; it allocates a tree per frame.
//! * [`RequestScanner`] is the **server's** per-request reader. A client may
//!   only send command frames — `*N` of non-null bulk strings — so the
//!   scanner recognises exactly that shape and hands back the arguments as
//!   slices of the input ([`Argv`]), allocating nothing. Anything else at
//!   the head of the input is [`Scanned::Other`]: the caller falls back to
//!   [`RespValue::parse`], which can only end in an error reply, so the
//!   fallback is a cold path and not a second reader of commands.

use bytes::Bytes;
use std::borrow::Cow;
use std::fmt;

/// A RESP2 protocol value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespValue {
    /// `+OK\r\n` — borrowed for the fixed replies (`OK`, `PONG`), so the
    /// commonest reply costs no allocation.
    Simple(Cow<'static, str>),
    /// `-ERR message\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`; `None` is the null bulk string `$-1\r\n`.
    Bulk(Option<Bytes>),
    /// `*2\r\n...`; `None` is the null array `*-1\r\n`.
    Array(Option<Vec<RespValue>>),
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unknown type byte.
    BadType(u8),
    /// A length or integer field did not parse.
    BadInteger,
    /// Line framing (`\r\n`) violated.
    BadFraming,
    /// A bulk string declared more than 512 MiB.
    BulkTooLong,
    /// An array declared more than 1 Mi elements.
    ArrayTooLong,
    /// Arrays nested more than 32 deep.
    TooDeep,
}

/// Largest bulk string a frame may declare (Redis's `proto-max-bulk-len`).
/// A peer cannot make the receiver buffer more than this for one value.
const MAX_BULK_LEN: usize = 512 << 20;
/// Most elements an array may declare (Redis's multibulk limit).
const MAX_ARRAY_LEN: usize = 1 << 20;
/// Deepest array nesting accepted: the parser recurses once per level, so
/// this bounds its stack. Commands nest 1 deep, `SLOWLOG GET` replies 3.
const MAX_DEPTH: usize = 32;
/// The shortest encoded value (`+\r\n`): `n` buffered bytes hold at most
/// `n / MIN_FRAME_LEN` array elements.
const MIN_FRAME_LEN: usize = 3;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadType(b) => write!(f, "unknown RESP type byte 0x{b:02x}"),
            ParseError::BadInteger => write!(f, "malformed RESP integer"),
            ParseError::BadFraming => write!(f, "malformed RESP framing"),
            ParseError::BulkTooLong => write!(f, "bulk string longer than {MAX_BULK_LEN} bytes"),
            ParseError::ArrayTooLong => write!(f, "array longer than {MAX_ARRAY_LEN} elements"),
            ParseError::TooDeep => write!(f, "arrays nested deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl RespValue {
    /// Shorthand for a non-null bulk string.
    pub fn bulk(data: impl Into<Bytes>) -> Self {
        RespValue::Bulk(Some(data.into()))
    }

    /// Shorthand for a non-null array.
    pub fn array(items: Vec<RespValue>) -> Self {
        RespValue::Array(Some(items))
    }

    /// The conventional OK reply.
    pub fn ok() -> Self {
        RespValue::Simple(Cow::Borrowed("OK"))
    }

    /// Serialize into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RespValue::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Error(s) => {
                out.push(b'-');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Integer(i) => {
                out.push(b':');
                if *i < 0 {
                    out.push(b'-');
                }
                push_decimal(out, i.unsigned_abs());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Bulk(None) => out.extend_from_slice(b"$-1\r\n"),
            RespValue::Bulk(Some(data)) => {
                out.push(b'$');
                push_decimal(out, data.len() as u64);
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(data);
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Array(None) => out.extend_from_slice(b"*-1\r\n"),
            RespValue::Array(Some(items)) => {
                out.push(b'*');
                push_decimal(out, items.len() as u64);
                out.extend_from_slice(b"\r\n");
                for item in items {
                    item.encode(out);
                }
            }
        }
    }

    /// Serialize into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Parse one value from the head of `input`.
    ///
    /// Returns `Ok(Some((value, consumed)))` on success, `Ok(None)` when the
    /// input is a valid prefix of a frame (read more bytes), or `Err` when the
    /// input can never become a valid frame.
    pub fn parse(input: &[u8]) -> Result<Option<(RespValue, usize)>, ParseError> {
        RespValue::parse_nested(input, 0)
    }

    /// [`RespValue::parse`] at array nesting level `depth`.
    fn parse_nested(input: &[u8], depth: usize) -> Result<Option<(RespValue, usize)>, ParseError> {
        let Some(&type_byte) = input.first() else {
            return Ok(None);
        };
        match type_byte {
            b'+' | b'-' | b':' => {
                let Some((line, consumed)) = read_line(&input[1..]) else {
                    return Ok(None);
                };
                let total = 1 + consumed;
                let text = std::str::from_utf8(line).map_err(|_| ParseError::BadFraming)?;
                let value = match type_byte {
                    b'+' => RespValue::Simple(Cow::Owned(text.to_string())),
                    b'-' => RespValue::Error(text.to_string()),
                    _ => {
                        RespValue::Integer(text.parse::<i64>().map_err(|_| ParseError::BadInteger)?)
                    }
                };
                Ok(Some((value, total)))
            }
            b'$' => {
                let Some((line, consumed)) = read_line(&input[1..]) else {
                    return Ok(None);
                };
                let header = 1 + consumed;
                let len = parse_len(line)?;
                let Some(len) = len else {
                    return Ok(Some((RespValue::Bulk(None), header)));
                };
                if len > MAX_BULK_LEN {
                    return Err(ParseError::BulkTooLong);
                }
                let need = header + len + 2;
                if input.len() < need {
                    return Ok(None);
                }
                if &input[header + len..need] != b"\r\n" {
                    return Err(ParseError::BadFraming);
                }
                let data = Bytes::copy_from_slice(&input[header..header + len]);
                Ok(Some((RespValue::Bulk(Some(data)), need)))
            }
            b'*' => {
                let Some((line, consumed)) = read_line(&input[1..]) else {
                    return Ok(None);
                };
                let mut pos = 1 + consumed;
                let len = parse_len(line)?;
                let Some(len) = len else {
                    return Ok(Some((RespValue::Array(None), pos)));
                };
                if len > MAX_ARRAY_LEN {
                    return Err(ParseError::ArrayTooLong);
                }
                if depth >= MAX_DEPTH {
                    return Err(ParseError::TooDeep);
                }
                // Reserve for the elements the buffered bytes could hold, not
                // for what the peer claims is coming.
                let mut items = Vec::with_capacity(len.min((input.len() - pos) / MIN_FRAME_LEN));
                for _ in 0..len {
                    match RespValue::parse_nested(&input[pos..], depth + 1)? {
                        None => return Ok(None),
                        Some((item, used)) => {
                            items.push(item);
                            pos += used;
                        }
                    }
                }
                Ok(Some((RespValue::Array(Some(items)), pos)))
            }
            other => Err(ParseError::BadType(other)),
        }
    }

    /// Parse **every** complete frame at the head of `input` into owned
    /// values — for a reader of pipelined *replies*, or a replay of recorded
    /// requests. (The server does not parse a batch ahead: it scans one
    /// command at a time with [`RequestScanner`].)
    ///
    /// Returns the parsed frames plus the total byte count they consumed
    /// (the caller drains exactly that prefix and keeps the partial-frame
    /// tail for the next read). A malformed frame surfaces as `Err` only
    /// after the frames preceding it — the caller serves those, then reports
    /// the protocol error in order.
    pub fn parse_batch(input: &[u8]) -> (Batch, Result<(), ParseError>) {
        let mut frames = Vec::new();
        let mut consumed = 0;
        loop {
            match RespValue::parse(&input[consumed..]) {
                Ok(Some((value, used))) => {
                    frames.push(value);
                    consumed += used;
                }
                Ok(None) => return (Batch { frames, consumed }, Ok(())),
                Err(e) => return (Batch { frames, consumed }, Err(e)),
            }
        }
    }
}

/// The complete frames [`RespValue::parse_batch`] drained from a buffer and
/// how many bytes of that buffer they covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Every complete frame, in wire order.
    pub frames: Vec<RespValue>,
    /// Total bytes the frames consumed (the partial-frame tail, if any,
    /// starts here).
    pub consumed: usize,
}

/// Append `n` in decimal, formatted on the stack.
pub fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The arguments of one scanned command frame, borrowed from the input it
/// was scanned from.
#[derive(Debug, Clone, Copy)]
pub struct Argv<'a> {
    input: &'a [u8],
    spans: &'a [(usize, usize)],
}

impl<'a> Argv<'a> {
    /// Number of arguments, the verb included.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True for the empty frame `*0`.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Argument `i` (the verb is argument 0). Panics when out of range.
    pub fn get(&self, i: usize) -> &'a [u8] {
        let (start, end) = self.spans[i];
        &self.input[start..end]
    }

    /// The arguments in wire order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        let input = self.input;
        self.spans
            .iter()
            .map(move |&(start, end)| &input[start..end])
    }
}

/// What [`RequestScanner::scan`] found at the head of the input.
#[derive(Debug)]
pub enum Scanned<'a> {
    /// One complete command frame: its arguments and the bytes it covered.
    Command {
        /// The frame's bulk strings, borrowed from the input.
        argv: Argv<'a>,
        /// Bytes of input the frame consumed.
        consumed: usize,
    },
    /// A valid prefix of a frame: read more bytes.
    Incomplete,
    /// Not an array of non-null bulk strings (as far as the bytes go): hand
    /// the same input to [`RespValue::parse`] for the verdict.
    Other,
}

/// Argument positions kept for a later frame; a frame with more arguments
/// than this gives its positions back once it is served.
const KEPT_SPANS: usize = 4096;

/// The allocation-free request scanner: one command frame → argument slices
/// borrowed from the input, under the limits and [`ParseError`]s of
/// [`RespValue::parse`]. It owns only the argument positions, reused from
/// frame to frame.
#[derive(Debug, Default)]
pub struct RequestScanner {
    spans: Vec<(usize, usize)>,
}

impl RequestScanner {
    /// A scanner with no positions buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan one command frame from the head of `input`. Agrees with
    /// [`RespValue::parse`] on every input: `Command` where it returns an
    /// array of non-null bulks (same consumed length), `Incomplete` where it
    /// returns `Ok(None)`, the same `Err` where the frame can be told to be
    /// malformed without leaving the command shape, and `Other` for the rest.
    pub fn scan<'a>(&'a mut self, input: &'a [u8]) -> Result<Scanned<'a>, ParseError> {
        self.spans.clear();
        self.spans.shrink_to(KEPT_SPANS);
        match input.first() {
            None => return Ok(Scanned::Incomplete),
            Some(b'*') => {}
            Some(_) => return Ok(Scanned::Other),
        }
        let Some((line, used)) = read_line(&input[1..]) else {
            return Ok(Scanned::Incomplete);
        };
        let mut pos = 1 + used;
        let Some(len) = parse_len(line)? else {
            return Ok(Scanned::Other);
        };
        if len > MAX_ARRAY_LEN {
            return Err(ParseError::ArrayTooLong);
        }
        for _ in 0..len {
            match input.get(pos) {
                None => return Ok(Scanned::Incomplete),
                Some(b'$') => {}
                Some(_) => return Ok(Scanned::Other),
            }
            let Some((line, used)) = read_line(&input[pos + 1..]) else {
                return Ok(Scanned::Incomplete);
            };
            let Some(len) = parse_len(line)? else {
                return Ok(Scanned::Other);
            };
            if len > MAX_BULK_LEN {
                return Err(ParseError::BulkTooLong);
            }
            let start = pos + 1 + used;
            let end = start + len;
            if input.len() < end + 2 {
                return Ok(Scanned::Incomplete);
            }
            if &input[end..end + 2] != b"\r\n" {
                return Err(ParseError::BadFraming);
            }
            self.spans.push((start, end));
            pos = end + 2;
        }
        Ok(Scanned::Command {
            argv: Argv {
                input,
                spans: &self.spans,
            },
            consumed: pos,
        })
    }
}

/// Read up to the first CRLF; returns (line content, bytes consumed incl CRLF).
fn read_line(input: &[u8]) -> Option<(&[u8], usize)> {
    let pos = input.windows(2).position(|w| w == b"\r\n")?;
    Some((&input[..pos], pos + 2))
}

/// Parse a RESP length field; `-1` means null.
fn parse_len(line: &[u8]) -> Result<Option<usize>, ParseError> {
    let text = std::str::from_utf8(line).map_err(|_| ParseError::BadInteger)?;
    let n = text.parse::<i64>().map_err(|_| ParseError::BadInteger)?;
    match n {
        -1 => Ok(None),
        n if n >= 0 => Ok(Some(n as usize)),
        _ => Err(ParseError::BadInteger),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &RespValue) {
        let encoded = v.to_bytes();
        let (parsed, consumed) = RespValue::parse(&encoded).unwrap().unwrap();
        assert_eq!(&parsed, v);
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn roundtrips_all_types() {
        roundtrip(&RespValue::Simple("OK".into()));
        roundtrip(&RespValue::Error("ERR boom".into()));
        roundtrip(&RespValue::Integer(-42));
        roundtrip(&RespValue::bulk("hello"));
        roundtrip(&RespValue::Bulk(None));
        roundtrip(&RespValue::Array(None));
        roundtrip(&RespValue::array(vec![
            RespValue::bulk("GET"),
            RespValue::bulk("key"),
            RespValue::Integer(7),
            RespValue::array(vec![RespValue::ok()]),
        ]));
    }

    #[test]
    fn known_wire_formats() {
        assert_eq!(RespValue::ok().to_bytes(), b"+OK\r\n");
        assert_eq!(RespValue::bulk("ab").to_bytes(), b"$2\r\nab\r\n");
        assert_eq!(RespValue::Bulk(None).to_bytes(), b"$-1\r\n");
        assert_eq!(RespValue::Integer(10).to_bytes(), b":10\r\n");
    }

    #[test]
    fn incomplete_input_returns_none() {
        let full = RespValue::array(vec![RespValue::bulk("GET"), RespValue::bulk("k")]).to_bytes();
        for cut in 0..full.len() {
            let r = RespValue::parse(&full[..cut]).unwrap();
            assert!(r.is_none(), "prefix of {cut} bytes parsed as complete");
        }
    }

    #[test]
    fn parse_consumes_exactly_one_frame() {
        let mut buf = RespValue::Integer(1).to_bytes();
        buf.extend_from_slice(&RespValue::Integer(2).to_bytes());
        let (v1, used) = RespValue::parse(&buf).unwrap().unwrap();
        assert_eq!(v1, RespValue::Integer(1));
        let (v2, _) = RespValue::parse(&buf[used..]).unwrap().unwrap();
        assert_eq!(v2, RespValue::Integer(2));
    }

    #[test]
    fn bad_type_byte_is_error() {
        assert_eq!(
            RespValue::parse(b"!oops\r\n"),
            Err(ParseError::BadType(b'!'))
        );
    }

    #[test]
    fn bad_bulk_framing_is_error() {
        // Declared 2 bytes but terminator is wrong.
        assert_eq!(RespValue::parse(b"$2\r\nabXY"), Err(ParseError::BadFraming));
    }

    #[test]
    fn bad_integer_is_error() {
        assert_eq!(RespValue::parse(b":4x\r\n"), Err(ParseError::BadInteger));
        assert_eq!(RespValue::parse(b"$-5\r\n"), Err(ParseError::BadInteger));
    }

    #[test]
    fn binary_safe_bulk() {
        let v = RespValue::bulk(vec![0u8, 13, 10, 255]);
        roundtrip(&v);
    }

    #[test]
    fn parse_batch_drains_every_complete_frame_and_keeps_the_tail() {
        let mut buf =
            RespValue::array(vec![RespValue::bulk("GET"), RespValue::bulk("a")]).to_bytes();
        buf.extend_from_slice(&RespValue::Integer(5).to_bytes());
        let full_len = buf.len();
        // A partial third frame: batch parsing must stop cleanly before it.
        buf.extend_from_slice(b"*2\r\n$3\r\nGET");
        let (batch, status) = RespValue::parse_batch(&buf);
        status.unwrap();
        assert_eq!(batch.frames.len(), 2);
        assert_eq!(batch.consumed, full_len);
        assert_eq!(batch.frames[1], RespValue::Integer(5));
    }

    #[test]
    fn parse_batch_reports_frames_before_a_protocol_error() {
        let mut buf = RespValue::Integer(1).to_bytes();
        buf.extend_from_slice(b"!bogus\r\n");
        let (batch, status) = RespValue::parse_batch(&buf);
        assert_eq!(batch.frames, vec![RespValue::Integer(1)]);
        assert_eq!(batch.consumed, 4);
        assert_eq!(status, Err(ParseError::BadType(b'!')));
    }

    #[test]
    fn integers_and_lengths_encode_without_a_heap_string() {
        for i in [0, 7, -7, 10, -10, 1_234_567_890, i64::MAX, i64::MIN] {
            assert_eq!(
                RespValue::Integer(i).to_bytes(),
                format!(":{i}\r\n").into_bytes()
            );
        }
        let mut out = Vec::new();
        push_decimal(&mut out, u64::MAX);
        assert_eq!(out, b"18446744073709551615");
        let big = RespValue::bulk(vec![b'x'; 1000]).to_bytes();
        assert!(big.starts_with(b"$1000\r\nxx"));
    }

    #[test]
    fn scanner_borrows_the_arguments_of_a_command_frame() {
        let mut scanner = RequestScanner::new();
        let wire = b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\na\r\nb\r\n*1\r\n$4\r\nPING\r\n";
        let Ok(Scanned::Command { argv, consumed }) = scanner.scan(wire) else {
            panic!("a complete command frame");
        };
        assert_eq!(consumed, 30);
        assert_eq!(argv.len(), 3);
        let args: Vec<&[u8]> = argv.iter().collect();
        assert_eq!(args, [&b"SET"[..], b"k", b"a\r\nb"]);
        // The positions are reused by the next scan.
        let Ok(Scanned::Command { argv, consumed }) = scanner.scan(&wire[30..]) else {
            panic!("a complete command frame");
        };
        assert_eq!((argv.len(), argv.get(0), consumed), (1, &b"PING"[..], 14));
        assert!(matches!(scanner.scan(&wire[..29]), Ok(Scanned::Incomplete)));
        assert!(matches!(scanner.scan(b""), Ok(Scanned::Incomplete)));
        // Anything that is not an array of non-null bulks is the owned
        // parser's to judge.
        for other in [
            &b":1\r\n"[..],
            b"*-1\r\n",
            b"*1\r\n$-1\r\n",
            b"*1\r\n:5\r\n",
            b"!",
        ] {
            assert!(
                matches!(scanner.scan(other), Ok(Scanned::Other)),
                "{other:?}"
            );
        }
        assert!(
            matches!(scanner.scan(b"*0\r\n"), Ok(Scanned::Command { argv, consumed: 4 }) if argv.is_empty())
        );
    }

    #[test]
    fn parse_batch_of_empty_input_is_empty() {
        let (batch, status) = RespValue::parse_batch(b"");
        status.unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(batch.consumed, 0);
    }
}
