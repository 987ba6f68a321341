//! An LZ compressor in the LZ4 block format, and the one stored-block format
//! SST data blocks and WAL frames share.
//!
//! ```text
//! stored:  raw | 0                          (STORED_RAW)
//!        | varint raw_len | sequences | 1   (STORED_LZ, when that saves ≥ 1/8)
//! ```
//!
//! [`store`] writes that form and [`load`] reads it back; the trailer byte is
//! the only thing either caller sees of the codec.
//!
//! A compressed block is `varint raw_len | sequences`. A sequence is a token
//! byte (high nibble: literal count, low nibble: match length − 4; 15 in
//! either means "more follows" as bytes of 255 ending in one below it), the
//! literals, a 2-byte little-endian offset back into the output, and the
//! match length's extra bytes. The last sequence is literals only, and — as
//! LZ4 asks — the last 5 bytes are literals and no match starts in the last
//! 12, so any LZ4 block decoder reads what [`Compressor`] writes.
//!
//! The compressor is greedy with one probe: a 4096-slot table maps a hash of
//! the next four bytes to where they were last seen, and a candidate that
//! matches is taken and extended as far as it goes, backward too. A miss
//! steps further the longer the run of literals, so a block that does not
//! compress is given up on cheaply: stepping by one, writing noise-valued
//! SSTs took four times as long. It is built for blocks
//! of a few KiB whose records repeat each other's key prefixes and value
//! patterns, not for ratio.
//!
//! [`decompress`] is total: any input gives the block back or
//! [`Error::Corruption`], never a panic, and it allocates at most
//! [`max_decoded_len`] of its input's length — whatever `raw_len` claims —
//! because no sequence can expand by more than 255× (one extra length byte
//! adds at most 255 output bytes).

use crate::encoding::{corruption, get_varint, put_varint};
use crate::error::Result;
use std::sync::Arc;

const MIN_MATCH: usize = 4;
/// No match starts within this many bytes of the end of the input.
const MATCH_START_LIMIT: usize = 12;
/// The input ends in at least this many literals.
const LAST_LITERALS: usize = 5;
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 12;

/// Trailer byte of a block stored as given.
pub const STORED_RAW: u8 = 0;
/// Trailer byte of a block stored as [`Compressor`] output.
pub const STORED_LZ: u8 = 1;
/// A reused buffer that grew past this holding one stored block (a block
/// holding one huge value) is freed, not kept.
pub const KEPT_STORED_BYTES: usize = 64 << 10;

/// Append the stored form of `raw` to `out`: compressed when that saves at
/// least an eighth of it, raw otherwise, then the trailer byte naming which.
pub fn store(raw: &[u8], lz: &mut Compressor, out: &mut Vec<u8>) {
    let start = out.len();
    lz.compress(raw, out);
    if out.len() - start <= raw.len() - raw.len() / 8 {
        out.push(STORED_LZ);
    } else {
        out.truncate(start);
        out.extend_from_slice(raw);
        out.push(STORED_RAW);
    }
}

/// The block a [`store`]d block holds, in one fresh allocation.
pub fn load(stored: &[u8]) -> Result<Arc<[u8]>> {
    match stored.split_last() {
        Some((&STORED_RAW, raw)) => Ok(Arc::from(raw)),
        Some((&STORED_LZ, compressed)) => decompress(compressed),
        Some(_) => Err(corruption("unknown stored-block trailer")),
        None => Err(corruption("empty stored block")),
    }
}

/// Upper bound on what a compressed block of `stored_len` bytes can decode
/// to; a `raw_len` claiming more is corruption.
pub fn max_decoded_len(stored_len: usize) -> usize {
    stored_len.saturating_mul(255).saturating_add(16)
}

/// A compressor whose hash table's allocation is reused from block to block.
#[derive(Debug)]
pub struct Compressor {
    /// Position + 1 of the last four bytes hashing to each slot; 0 is empty.
    /// Cleared at the start of each block.
    table: Box<[u32; 1 << HASH_BITS]>,
}

impl Default for Compressor {
    fn default() -> Self {
        Self {
            table: Box::new([0; 1 << HASH_BITS]),
        }
    }
}

#[inline(always)]
fn read_u32(buf: &[u8], at: usize) -> u32 {
    // INVARIANT: a 4-byte slice converts to `[u8; 4]`.
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn hash(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common run of `src[a..]` and `src[b..limit]`, `a < b`.
#[inline(always)]
fn match_len(src: &[u8], mut a: usize, mut b: usize, limit: usize) -> usize {
    let start = b;
    while b + 8 <= limit {
        // INVARIANT: 8-byte slices convert to `[u8; 8]`.
        let x = u64::from_le_bytes(src[a..a + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(src[b..b + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return b - start + (diff.trailing_zeros() / 8) as usize;
        }
        a += 8;
        b += 8;
    }
    while b < limit && src[a] == src[b] {
        a += 1;
        b += 1;
    }
    b - start
}

/// Append `n` as a nibble's continuation: bytes of 255, then the rest.
fn put_length_tail(out: &mut Vec<u8>, mut n: usize) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

/// Append one sequence; `matched` is `Some((offset, length))` except on the
/// last.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15);
    let match_extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push((lit_nibble << 4 | match_extra.min(15)) as u8);
    if lit_nibble == 15 {
        put_length_tail(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, _)) = matched {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_extra >= 15 {
            put_length_tail(out, match_extra - 15);
        }
    }
}

impl Compressor {
    /// Append `varint src.len() | sequences` to `out`.
    pub fn compress(&mut self, src: &[u8], out: &mut Vec<u8>) {
        put_varint(out, src.len() as u64);
        self.table.fill(0);
        let mut anchor = 0;
        if src.len() > MATCH_START_LIMIT {
            let (last_start, match_end) =
                (src.len() - MATCH_START_LIMIT, src.len() - LAST_LITERALS);
            let mut i = 0;
            while i < last_start {
                let seq = read_u32(src, i);
                let slot = &mut self.table[hash(seq)];
                let seen = *slot as usize;
                *slot = (i as u32).wrapping_add(1);
                // A position past `u32` (a block over 4 GiB) wraps to an
                // earlier one; the byte comparison rejects a wrong candidate.
                let candidate = seen.wrapping_sub(1);
                if seen == 0 || i - candidate > MAX_OFFSET || read_u32(src, candidate) != seq {
                    // Step faster through input that keeps missing: past 8
                    // literals every other position, past 16 every third.
                    // A repeat entered late is extended back to its start.
                    i += 1 + ((i - anchor) >> 3);
                    continue;
                }
                let (mut start, mut from) = (i, candidate);
                while start > anchor && from > 0 && src[start - 1] == src[from - 1] {
                    start -= 1;
                    from -= 1;
                }
                let len =
                    MIN_MATCH + match_len(src, from + MIN_MATCH, start + MIN_MATCH, match_end);
                put_sequence(out, &src[anchor..start], Some((start - from, len)));
                i = start + len;
                anchor = i;
            }
        }
        put_sequence(out, &src[anchor..], None);
    }
}

/// Read a nibble's continuation bytes (see [`put_length_tail`]).
fn get_length_tail(src: &[u8], pos: &mut usize) -> Result<usize> {
    let mut n = 0usize;
    loop {
        let byte = *src
            .get(*pos)
            .ok_or_else(|| corruption("truncated lz length"))?;
        *pos += 1;
        n += usize::from(byte);
        if byte != 255 {
            return Ok(n);
        }
    }
}

/// Decode `sequences` into `dst`, which they must fill exactly.
fn decode(src: &[u8], dst: &mut [u8]) -> Result<()> {
    let (mut ip, mut op) = (0usize, 0usize);
    loop {
        let token = *src
            .get(ip)
            .ok_or_else(|| corruption("truncated lz token"))?;
        ip += 1;
        let mut literals = usize::from(token >> 4);
        if literals == 15 {
            literals += get_length_tail(src, &mut ip)?;
        }
        let (Some(lit_in), Some(lit_out)) =
            (src.get(ip..ip + literals), dst.get_mut(op..op + literals))
        else {
            return Err(corruption("lz literals overrun"));
        };
        lit_out.copy_from_slice(lit_in);
        ip += literals;
        op += literals;
        if ip == src.len() {
            return if op == dst.len() {
                Ok(())
            } else {
                Err(corruption("lz block decodes short of its length"))
            };
        }
        let Some(&[lo, hi]) = src.get(ip..ip + 2) else {
            return Err(corruption("truncated lz offset"));
        };
        ip += 2;
        let offset = usize::from(u16::from_le_bytes([lo, hi]));
        if offset == 0 || offset > op {
            return Err(corruption("lz offset out of range"));
        }
        let mut len = usize::from(token & 15) + MIN_MATCH;
        if len == 15 + MIN_MATCH {
            len += get_length_tail(src, &mut ip)?;
        }
        if len > dst.len() - op {
            return Err(corruption("lz match overrun"));
        }
        // Copy in chunks no longer than the distance back to the source, so a
        // match that overlaps its own output repeats it; the distance doubles
        // with each chunk.
        let from = op - offset;
        let end = op + len;
        while op < end {
            let n = (end - op).min(op - from);
            dst.copy_within(from..from + n, op);
            op += n;
        }
    }
}

/// Decode a block [`Compressor::compress`] wrote into one fresh allocation.
pub fn decompress(src: &[u8]) -> Result<Arc<[u8]>> {
    let mut pos = 0;
    let raw_len = get_varint(src, &mut pos)?;
    if raw_len > max_decoded_len(src.len()) as u64 {
        return Err(corruption("lz block claims more than it can decode to"));
    }
    let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, raw_len as usize).collect();
    // INVARIANT: the `Arc` was created on the line above and not cloned.
    let dst = Arc::get_mut(&mut block).expect("fresh allocation is unshared");
    decode(&src[pos..], dst)?;
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(c: &mut Compressor, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.compress(data, &mut out);
        let back = decompress(&out).unwrap();
        assert_eq!(&back[..], data, "roundtrip of {} bytes", data.len());
        out
    }

    /// Inputs an LZ coder gets wrong first: noise, long runs, short periods
    /// (matches that overlap their own output), and noise between repeats.
    fn input() -> impl Strategy<Value = Vec<u8>> {
        let pieces = prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..20),
                prop::collection::vec(any::<u8>(), 1..65),
                0usize..300,
            ),
            1..12,
        );
        let noise = prop::collection::vec(any::<u8>(), 0..600);
        (0u8..4, any::<u8>(), 0usize..3000, pieces, noise).prop_map(
            |(shape, byte, n, pieces, noise)| match shape {
                0 => noise,
                1 => vec![byte; n],
                2 => pieces[0].1.iter().cycle().take(n).copied().collect(),
                _ => {
                    let mut out = Vec::new();
                    for (noise, pattern, n) in pieces {
                        out.extend(noise);
                        out.extend(pattern.iter().cycle().take(n));
                    }
                    out
                }
            },
        )
    }

    proptest! {
        #[test]
        fn compress_then_decompress_is_the_identity(
            a in input(),
            b in input(),
        ) {
            // One compressor across inputs: the reused table must not carry
            // a position over from an earlier block.
            let mut c = Compressor::default();
            roundtrip(&mut c, &a);
            roundtrip(&mut c, &b);
            roundtrip(&mut c, &[a.clone(), b.clone()].concat());
        }

        #[test]
        fn decompress_is_total_and_bounded(
            noise in prop::collection::vec(any::<u8>(), 0..300),
            data in input(),
            at in any::<u32>(),
            byte in any::<u8>(),
        ) {
            let check = |src: &[u8]| {
                if let Ok(block) = decompress(src) {
                    assert!(block.len() <= max_decoded_len(src.len()));
                }
            };
            check(&noise);
            let mut out = Vec::new();
            Compressor::default().compress(&data, &mut out);
            let at = at as usize % out.len();
            out[at] = byte;
            check(&out);
        }
    }

    #[test]
    fn every_length_up_to_the_limits_roundtrips() {
        let mut c = Compressor::default();
        for n in 0..=40 {
            roundtrip(&mut c, &vec![b'a'; n]);
            roundtrip(&mut c, &(0..n as u8).collect::<Vec<_>>());
        }
        // Literal and match lengths across their 15 and 15 + 255 edges.
        for n in [14, 15, 16, 269, 270, 271, 1000] {
            let literals: Vec<u8> = (0..n as u32).map(|i| (i * 131 + i / 7) as u8).collect();
            roundtrip(&mut c, &[&literals[..], &[b'z'; 300][..]].concat());
            roundtrip(&mut c, &[&b"abcdefgh"[..], &vec![b'q'; n]].concat());
        }
    }

    #[test]
    fn overlapping_and_far_matches_roundtrip() {
        let mut c = Compressor::default();
        // Period 1..=64 repeated far past the period: offsets shorter than
        // the match they copy.
        for period in 1..=64u8 {
            let data: Vec<u8> = (0..2000).map(|i| (i % usize::from(period)) as u8).collect();
            let out = roundtrip(&mut c, &data);
            assert!(out.len() < 200, "period {period}: {} bytes", out.len());
        }
        // A repeat beyond the 64 KiB window is stored as literals.
        let noise: Vec<u8> = (0..70_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        roundtrip(&mut c, &[&noise[..], &noise[..100]].concat());
    }

    #[test]
    fn damaged_lengths_are_refused_before_allocating() {
        let mut src = Vec::new();
        put_varint(&mut src, u64::MAX);
        src.extend_from_slice(&[0x10, b'x']);
        assert!(decompress(&src).is_err());
        // One past the bound, and one byte short of a sequence's output.
        let mut src = Vec::new();
        put_varint(&mut src, max_decoded_len(5) as u64 + 1);
        src.extend_from_slice(&[0x10, b'x']);
        assert!(decompress(&src).is_err());
        let mut out = Vec::new();
        Compressor::default().compress(b"hello hello hello hello", &mut out);
        out[0] += 1;
        assert!(decompress(&out).is_err());
        // An offset reaching before the block's start.
        assert!(decompress(&[8, 0x14, b'a', 9, 0]).is_err());
        assert!(decompress(&[8, 0x14, b'a', 0, 0]).is_err());
    }

    #[test]
    fn store_compresses_only_what_saves_an_eighth_and_load_reads_both() {
        let mut c = Compressor::default();
        let noise: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for (raw, trailer) in [
            (&noise[..], STORED_RAW),
            (&[b'z'; 300][..], STORED_LZ),
            (&[][..], STORED_RAW),
        ] {
            // `store` appends: what the buffer held before stays in front.
            let mut out = vec![9];
            store(raw, &mut c, &mut out);
            assert_eq!((out[0], *out.last().unwrap()), (9, trailer));
            assert_eq!(&load(&out[1..]).unwrap()[..], raw);
        }
        assert!(load(&[]).is_err());
        assert!(load(b"x\x02").is_err());
    }

    #[test]
    fn the_lz4_reference_vector_decodes() {
        // "abcabcabcabcabcabcabc!!!!!" assembled by hand from the LZ4 block
        // format: literals "abc", a match at offset 3 of length 18, then the
        // literals "!!!!!".
        let src = [
            26, 0x3e, b'a', b'b', b'c', 3, 0, 0x50, b'!', b'!', b'!', b'!', b'!',
        ];
        assert_eq!(
            &decompress(&src).unwrap()[..],
            b"abcabcabcabcabcabcabc!!!!!"
        );
    }
}
