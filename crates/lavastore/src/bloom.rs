//! Bloom filter for SST files.
//!
//! A miss in the filter proves the key is absent from the file, letting the
//! read path skip a block fetch entirely — the dominant saving for the
//! read-heavy, low-hit workloads in Table 1 (e.g. the advertisement joiner at
//! an 18 % cache hit ratio).

use crate::encoding::{get_u32, put_u32};
use crate::error::{Error, Result};

/// A fixed-size bloom filter using double hashing (Kirsch–Mitzenmacher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u32,
}

/// 64-bit FNV-1a offset basis and prime — the base hash for the filter.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Seed of the second hash (the stride of the double hashing).
const STRIDE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl BloomFilter {
    /// Build a filter for `n` keys at `bits_per_key` bits each (10 by default
    /// gives ~1 % false positives).
    pub fn with_capacity(n: usize, bits_per_key: usize) -> Self {
        let n_bits = (n.max(1) * bits_per_key).max(64);
        // Optimal k = ln2 * bits/key ≈ 0.69 * bits_per_key, clamped to [1, 30].
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        Self {
            bits: vec![0u8; n_bits.div_ceil(8)],
            k,
        }
    }

    /// The filter's two base hashes of `key`: every filter derives its bit
    /// positions from this pair, so a lookup that probes several files
    /// hashes its key once ([`BloomFilter::may_contain_hashed`]).
    /// One pass over the key computes both (two seeds of FNV-1a).
    pub fn hash_pair(key: &[u8]) -> (u64, u64) {
        let (mut h1, mut h2) = (FNV_BASIS, FNV_BASIS ^ STRIDE_SEED);
        for &b in key {
            h1 = (h1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        (h1, h2 | 1) // odd stride
    }

    /// The k bit positions of a hashed key, computed as they are asked for.
    fn positions(&self, (h1, h2): (u64, u64)) -> impl Iterator<Item = usize> {
        let n_bits = self.bits.len() as u64 * 8;
        (0..self.k).map(move |i| (h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % n_bits) as usize)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        for pos in self.positions(Self::hash_pair(key)) {
            self.bits[pos / 8] |= 1 << (pos % 8);
        }
    }

    /// True if the key *may* be present; false proves absence.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(Self::hash_pair(key))
    }

    /// [`BloomFilter::may_contain`] for a key hashed by
    /// [`BloomFilter::hash_pair`]; stops at the first clear bit.
    pub fn may_contain_hashed(&self, hashes: (u64, u64)) -> bool {
        self.positions(hashes)
            .all(|pos| self.bits[pos / 8] & (1 << (pos % 8)) != 0)
    }

    /// Serialize to bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.k);
        put_u32(buf, self.bits.len() as u32);
        buf.extend_from_slice(&self.bits);
    }

    /// Deserialize from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let k = get_u32(buf, pos)?;
        let len = get_u32(buf, pos)? as usize;
        let end = *pos + len;
        if end > buf.len() {
            return Err(Error::Corruption("truncated bloom filter".into()));
        }
        // `positions` divides by the bit count and loops `k` times.
        if len == 0 || !(1..=30).contains(&k) {
            return Err(Error::Corruption(format!(
                "bloom filter of {len} bytes with k = {k}"
            )));
        }
        let bits = buf[*pos..end].to_vec();
        *pos = end;
        Ok(Self { bits, k })
    }

    /// Size of the filter in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key-{i}").into_bytes()).collect();
        let mut f = BloomFilter::with_capacity(keys.len(), 10);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..10_000)
            .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut f = BloomFilter::with_capacity(100, 10);
        f.insert(b"alpha");
        f.insert(b"beta");
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut pos = 0;
        let g = BloomFilter::decode(&buf, &mut pos).unwrap();
        assert_eq!(f, g);
        assert!(g.may_contain(b"alpha"));
        assert_eq!(pos, buf.len());
    }

    /// The bit positions are an on-disk format: every SST written before
    /// this filter stopped allocating must keep reading. The bytes are the
    /// output of the implementation that collected positions into a `Vec`.
    #[test]
    fn encoded_bits_match_the_golden_filter() {
        const GOLDEN: &str = "0600000032000000c2562cc061882e004a087102dd804001a93ac86e1681c93c\
                              602215109a4447917788fee048143186ad2d50470256107a1d84";
        let mut f = BloomFilter::with_capacity(40, 10);
        for i in 0..40 {
            f.insert(format!("user{i:08}").as_bytes());
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        for i in 0..40 {
            let key = format!("user{i:08}");
            assert!(f.may_contain_hashed(BloomFilter::hash_pair(key.as_bytes())));
        }
    }

    #[test]
    fn decode_refuses_a_filter_it_could_not_probe() {
        // No bits would divide by zero; k outside what `with_capacity` writes.
        for (k, len) in [(6u32, 0u32), (0, 8), (31, 8)] {
            let mut buf = Vec::new();
            put_u32(&mut buf, k);
            put_u32(&mut buf, len);
            buf.extend_from_slice(&[0xff; 8]);
            assert!(
                BloomFilter::decode(&buf, &mut 0).is_err(),
                "k {k} len {len}"
            );
        }
    }

    #[test]
    fn empty_filter_rejects() {
        let f = BloomFilter::with_capacity(10, 10);
        // An empty filter should contain nothing (modulo the all-zero check).
        assert!(!f.may_contain(b"anything"));
    }
}
