//! Binary encoding primitives: LEB128 varints and CRC-32 (IEEE).
//!
//! Implemented in-tree to keep the dependency set to the sanctioned crates;
//! both are small, standard algorithms with exhaustive tests below.

use crate::error::{Error, Result};

/// A `Corruption` error, built out of line so the decoders that can raise
/// one stay small enough to inline into the block search.
#[cold]
#[inline(never)]
pub(crate) fn corruption(what: &'static str) -> Error {
    Error::Corruption(what.into())
}

/// Append `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode an LEB128 varint from `buf[*pos..]`, advancing `pos`.
#[inline(always)]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    // Lengths, prefix counts and flags take one byte, sequence numbers up to
    // two million three: decode those without the loop.
    match buf.get(*pos..) {
        Some(&[a, ..]) if a < 0x80 => {
            *pos += 1;
            Ok(u64::from(a))
        }
        Some(&[a, b, ..]) if b < 0x80 => {
            *pos += 2;
            Ok(u64::from(a & 0x7f) | u64::from(b) << 7)
        }
        Some(&[a, b, c, ..]) if c < 0x80 => {
            *pos += 3;
            Ok(u64::from(a & 0x7f) | u64::from(b & 0x7f) << 7 | u64::from(c) << 14)
        }
        _ => get_varint_slow(buf, pos),
    }
}

fn get_varint_slow(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut shift = 0u32;
    let mut out = 0u64;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| corruption("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(corruption("varint overflow"));
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Append a length-prefixed byte slice.
pub fn put_len_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Decode a length-prefixed byte slice from `buf[*pos..]`, advancing `pos`.
#[inline(always)]
pub fn get_len_prefixed<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| corruption("length overflow"))?;
    if end > buf.len() {
        return Err(corruption("truncated byte slice"));
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

/// Append a fixed little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Decode a fixed little-endian u32.
#[inline]
pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let end = *pos + 4;
    if end > buf.len() {
        return Err(corruption("truncated u32"));
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

/// Append a fixed little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Decode a fixed little-endian u64.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let end = *pos + 8;
    if end > buf.len() {
        return Err(corruption("truncated u64"));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(b))
}

/// Byte-at-a-time table in row 0; row `k` advances a byte `k` positions
/// further, so eight lookups fold eight input bytes at once (slicing-by-8).
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), eight bytes per
/// step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        // Both sides of every length the inline paths decode, then the loop.
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"hello");
        put_len_prefixed(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(get_len_prefixed(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(get_len_prefixed(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn len_prefixed_rejects_overrun() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100); // claims 100 bytes, provides none
        let mut pos = 0;
        assert!(get_len_prefixed(&buf, &mut pos).is_err());
    }

    #[test]
    fn fixed_ints_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitivity: one flipped bit changes the sum.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn crc32_slicing_matches_the_reference_at_every_length_and_alignment() {
        // A fixed xorshift stream: the buffers only need to be irregular.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), crc32_reference(&data[..len]), "{len}");
        }
        for start in 0..16 {
            for len in [65, 129, 1000, 4096, 4099] {
                let buf = &data[start..start + len];
                assert_eq!(crc32(buf), crc32_reference(buf), "start {start} len {len}");
            }
        }
    }
}
