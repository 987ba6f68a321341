//! Internal record representation.
//!
//! Every logical operation becomes an internal record ordered by
//! `(user_key asc, seq desc)`: newer versions of a key shadow older ones, and a
//! tombstone shadows every older value. TTL is carried per record and evaluated
//! lazily against virtual time on read and during compaction.

use crate::encoding::{
    get_len_prefixed, get_u64, get_varint, put_len_prefixed, put_u64, put_varint,
};
use crate::error::{Error, Result};
use crate::memtable::MemEntry;
use bytes::Bytes;
use std::cmp::Ordering;

/// Monotonic sequence number assigned by the engine per write.
pub type SeqNo = u64;

/// What a record does to its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Insert/overwrite the key with a value.
    Put = 0,
    /// Delete the key (tombstone).
    Delete = 1,
}

impl RecordKind {
    fn from_u64(v: u64) -> Result<Self> {
        match v {
            0 => Ok(RecordKind::Put),
            1 => Ok(RecordKind::Delete),
            other => Err(Error::Corruption(format!("bad record kind {other}"))),
        }
    }
}

/// Sentinel meaning "no TTL".
pub const NO_EXPIRY: u64 = u64::MAX;

/// An internal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// User key.
    pub key: Bytes,
    /// Engine sequence number (larger = newer).
    pub seq: SeqNo,
    /// Operation kind.
    pub kind: RecordKind,
    /// Absolute virtual-time expiry in microseconds, or [`NO_EXPIRY`].
    pub expires_at: u64,
    /// Value (empty for tombstones).
    pub value: Bytes,
}

impl Record {
    /// A put record.
    pub fn put(
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
        seq: SeqNo,
        expires_at: Option<u64>,
    ) -> Self {
        Self {
            key: key.into(),
            seq,
            kind: RecordKind::Put,
            expires_at: expires_at.unwrap_or(NO_EXPIRY),
            value: value.into(),
        }
    }

    /// A tombstone record.
    pub fn delete(key: impl Into<Bytes>, seq: SeqNo) -> Self {
        Self {
            key: key.into(),
            seq,
            kind: RecordKind::Delete,
            expires_at: NO_EXPIRY,
            value: Bytes::new(),
        }
    }

    /// True if the record carries a TTL that has lapsed by `now`.
    pub fn is_expired(&self, now: u64) -> bool {
        self.expires_at != NO_EXPIRY && self.expires_at <= now
    }

    /// Internal ordering: key ascending, then sequence descending (newest
    /// version of a key sorts first).
    pub fn internal_cmp(&self, other: &Record) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }

    /// Serialized size estimate in bytes (used for memtable accounting).
    pub fn approximate_size(&self) -> usize {
        self.key.len() + self.value.len() + 24
    }

    /// Append the record to `buf` in the on-disk framing.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_len_prefixed(buf, &self.key);
        put_u64(buf, self.seq);
        put_varint(buf, self.kind as u64);
        put_u64(buf, self.expires_at);
        put_len_prefixed(buf, &self.value);
    }

    /// Read only the key of the record at `buf[*pos..]`, advancing `pos`
    /// past the whole record without materializing any field. Binary-search
    /// probes and short-circuited scans use this to skip records whose key
    /// already decided the comparison.
    pub fn peek_key<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
        let key = get_len_prefixed(buf, pos)?;
        get_u64(buf, pos)?; // seq
        get_varint(buf, pos)?; // kind
        get_u64(buf, pos)?; // expires_at
        get_len_prefixed(buf, pos)?; // value (bounds-checked slice, no copy)
        Ok(key)
    }

    /// Decode a record from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Record> {
        let key = Bytes::copy_from_slice(get_len_prefixed(buf, pos)?);
        let seq = get_u64(buf, pos)?;
        let kind = RecordKind::from_u64(get_varint(buf, pos)?)?;
        let expires_at = get_u64(buf, pos)?;
        let value = Bytes::copy_from_slice(get_len_prefixed(buf, pos)?);
        Ok(Record {
            key,
            seq,
            kind,
            expires_at,
            value,
        })
    }

    /// Decode the record at `buf[*pos..]` without its key, advancing `pos`:
    /// a point read already holds the key it searched for, so only the value
    /// is copied out of the block.
    pub fn decode_entry(buf: &[u8], pos: &mut usize) -> Result<MemEntry> {
        get_len_prefixed(buf, pos)?; // key (bounds-checked slice, no copy)
        let seq = get_u64(buf, pos)?;
        let kind = RecordKind::from_u64(get_varint(buf, pos)?)?;
        let expires_at = get_u64(buf, pos)?;
        let value = Bytes::copy_from_slice(get_len_prefixed(buf, pos)?);
        Ok(MemEntry {
            seq,
            kind,
            expires_at,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            Record::put("key1", "value1", 7, None),
            Record::put("key2", "", 8, Some(1_000_000)),
            Record::delete("key3", 9),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        for r in &records {
            assert_eq!(&Record::decode(&buf, &mut pos).unwrap(), r);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn peek_key_advances_like_decode() {
        let records = vec![
            Record::put("key1", "value1", 7, None),
            Record::delete("key2", 8),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        for r in &records {
            let before = pos;
            let key = Record::peek_key(&buf, &mut pos).unwrap();
            assert_eq!(key, r.key.as_ref());
            let mut decode_pos = before;
            Record::decode(&buf, &mut decode_pos).unwrap();
            assert_eq!(pos, decode_pos, "peek_key must skip the whole record");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_entry_is_decode_without_the_key() {
        let records = vec![
            Record::put("key1", "value1", 7, Some(99)),
            Record::delete("key2", 8),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let (mut pos, mut decode_pos) = (0, 0);
        for r in &records {
            let entry = Record::decode_entry(&buf, &mut pos).unwrap();
            let full = Record::decode(&buf, &mut decode_pos).unwrap();
            assert_eq!(pos, decode_pos);
            assert_eq!(
                (entry.seq, entry.kind, entry.expires_at, &entry.value),
                (full.seq, full.kind, full.expires_at, &r.value)
            );
        }
        // The kind byte (after the 5-byte key and the seq) is validated here too.
        buf[13] = 9;
        assert!(Record::decode_entry(&buf, &mut 0).is_err());
    }

    #[test]
    fn internal_ordering_newest_first_per_key() {
        let old = Record::put("a", "1", 1, None);
        let new = Record::put("a", "2", 2, None);
        let other = Record::put("b", "x", 1, None);
        assert_eq!(new.internal_cmp(&old), Ordering::Less);
        assert_eq!(old.internal_cmp(&other), Ordering::Less);
    }

    #[test]
    fn expiry_semantics() {
        let r = Record::put("k", "v", 1, Some(100));
        assert!(!r.is_expired(99));
        assert!(r.is_expired(100));
        let forever = Record::put("k", "v", 1, None);
        assert!(!forever.is_expired(u64::MAX - 1));
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut buf = Vec::new();
        Record::put("k", "v", 1, None).encode(&mut buf);
        // Corrupt the kind byte: it follows key (1+1 bytes) + seq (8 bytes).
        buf[10] = 9;
        let mut pos = 0;
        assert!(Record::decode(&buf, &mut pos).is_err());
    }
}
