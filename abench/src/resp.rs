//! The client's half of RESP2: a request encoder and a reply frame scanner
//! that finds frame boundaries and classifies replies without allocating.

/// Append `*N\r\n$len\r\npart\r\n...` for one command.
pub fn encode(out: &mut Vec<u8>, parts: &[&[u8]]) {
    out.push(b'*');
    push_decimal(out, parts.len());
    for part in parts {
        out.push(b'$');
        push_decimal(out, part.len());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
}

fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
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
    out.extend_from_slice(b"\r\n");
}

/// One reply frame, borrowed from the read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    Simple(&'a [u8]),
    Error(&'a [u8]),
    Int(i64),
    Bulk(&'a [u8]),
    Nil,
    /// An array of this many elements (the benchmark never looks inside).
    Array(usize),
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 8;

/// Length in bytes of the first complete frame in `buf`: `Ok(None)` when
/// more bytes are needed, `Err` when the bytes cannot be RESP.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, String> {
    frame_len_at(buf, 0)
}

fn frame_len_at(buf: &[u8], depth: usize) -> Result<Option<usize>, String> {
    let Some((line, header)) = read_line(buf) else {
        return Ok(None);
    };
    let (&kind, rest) = line.split_first().ok_or("empty RESP line")?;
    match kind {
        b'+' | b'-' | b':' => Ok(Some(header)),
        b'$' => match parse_int(rest)? {
            -1 => Ok(Some(header)),
            n if n >= 0 => {
                let total = header + n as usize + 2;
                Ok((buf.len() >= total).then_some(total))
            }
            n => Err(format!("bulk length {n}")),
        },
        b'*' => {
            let n = parse_int(rest)?;
            if n > 0 && depth >= MAX_DEPTH {
                return Err("RESP arrays nested too deeply".into());
            }
            let mut total = header;
            for _ in 0..n.max(0) {
                match frame_len_at(&buf[total..], depth + 1)? {
                    Some(len) => total += len,
                    None => return Ok(None),
                }
            }
            Ok(Some(total))
        }
        other => Err(format!("unknown RESP type byte 0x{other:02x}")),
    }
}

/// Classify one complete frame (as delimited by [`frame_len`]).
pub fn classify(frame: &[u8]) -> Result<Reply<'_>, String> {
    let (line, header) = read_line(frame).ok_or("incomplete frame")?;
    let (&kind, rest) = line.split_first().ok_or("empty RESP line")?;
    Ok(match kind {
        b'+' => Reply::Simple(rest),
        b'-' => Reply::Error(rest),
        b':' => Reply::Int(parse_int(rest)?),
        b'$' if rest == b"-1" => Reply::Nil,
        b'$' => Reply::Bulk(&frame[header..frame.len() - 2]),
        b'*' => Reply::Array(parse_int(rest)?.max(0) as usize),
        other => return Err(format!("unknown RESP type byte 0x{other:02x}")),
    })
}

/// The line up to the first CRLF, and the bytes consumed including it.
fn read_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let pos = buf.windows(2).position(|w| w == b"\r\n")?;
    Some((&buf[..pos], pos + 2))
}

fn parse_int(digits: &[u8]) -> Result<i64, String> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad RESP integer {:?}", String::from_utf8_lossy(digits)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_a_command() {
        let mut out = Vec::new();
        encode(&mut out, &[b"SET", b"k", b"hello"]);
        assert_eq!(out, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n");
    }

    #[test]
    fn scans_every_split_point_of_a_nested_frame() {
        // [ "ab", nil, [ 7, +OK ], -ERR x ] followed by the start of another frame.
        let frame = b"*4\r\n$2\r\nab\r\n$-1\r\n*2\r\n:7\r\n+OK\r\n-ERR x\r\n";
        let mut wire = frame.to_vec();
        wire.extend_from_slice(b"+PO");
        for cut in 0..frame.len() {
            assert_eq!(frame_len(&wire[..cut]), Ok(None), "cut at {cut}");
        }
        assert_eq!(frame_len(&wire), Ok(Some(frame.len())));
        assert_eq!(classify(&wire[..frame.len()]), Ok(Reply::Array(4)));
        assert_eq!(frame_len(&wire[frame.len()..]), Ok(None));
    }

    #[test]
    fn classifies_each_reply_type() {
        assert_eq!(classify(b"+OK\r\n"), Ok(Reply::Simple(b"OK")));
        assert_eq!(classify(b"-ERR no\r\n"), Ok(Reply::Error(b"ERR no")));
        assert_eq!(classify(b":-12\r\n"), Ok(Reply::Int(-12)));
        assert_eq!(classify(b"$-1\r\n"), Ok(Reply::Nil));
        assert_eq!(classify(b"$0\r\n\r\n"), Ok(Reply::Bulk(b"")));
        // A bulk payload may itself contain CRLF.
        assert_eq!(frame_len(b"$4\r\na\r\nb\r\n"), Ok(Some(10)));
        assert_eq!(classify(b"$4\r\na\r\nb\r\n"), Ok(Reply::Bulk(b"a\r\nb")));
        assert_eq!(classify(b"*0\r\n"), Ok(Reply::Array(0)));
        assert_eq!(frame_len(b"*-1\r\n"), Ok(Some(5)));
    }

    #[test]
    fn rejects_what_is_not_resp() {
        assert!(frame_len(b"?what\r\n").is_err());
        assert!(frame_len(b"$abc\r\n").is_err());
        assert!(frame_len(b"$-7\r\n").is_err());
        let deep = b"*1\r\n".repeat(MAX_DEPTH + 2);
        assert!(frame_len(&deep).is_err());
    }
}
