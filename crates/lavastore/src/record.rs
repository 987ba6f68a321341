//! Internal record representation.
//!
//! Every logical operation becomes an internal record ordered by
//! `(user_key asc, seq desc)`: newer versions of a key shadow older ones, and a
//! tombstone shadows every older value. TTL is carried per record and evaluated
//! lazily against virtual time on read and during compaction.
//!
//! # Encoding (format v2)
//!
//! ```text
//! record: varint klen | key | tail
//! tail:   flags u8 | varint seq | varint expires_at (only if flags & 2) | varint vlen | value
//! flags:  bit 0 = tombstone, bit 1 = has an expiry; every other bit must be clear
//! ```
//!
//! The **tail** — everything after the key — has one encoder
//! ([`Record::encode_tail`]) and one decoder ([`Record::decode_tail`]). A WAL
//! frame and a replication `BATCH` payload hold whole records
//! ([`Record::encode`]); an SST entry writes its key prefix-compressed and then
//! the same tail. A record without a TTL spends no bytes on one, and a
//! sequence number costs what its magnitude needs (3 bytes up to two million
//! writes) rather than a fixed eight.

use crate::encoding::{corruption, get_len_prefixed, get_varint, put_len_prefixed, put_varint};
use crate::error::{Error, Result};
use crate::memtable::MemEntry;
use bytes::Bytes;

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

/// Sentinel meaning "no TTL".
pub const NO_EXPIRY: u64 = u64::MAX;

/// Tail flag: the record is a tombstone (equals `RecordKind::Delete as u8`).
const FLAG_DELETE: u8 = 1;
/// Tail flag: a varint `expires_at` follows the sequence number.
const FLAG_EXPIRES: u8 = 2;

#[cold]
#[inline(never)]
fn bad_flags(flags: u8) -> Error {
    Error::Corruption(format!("bad record flags {flags:#04x}"))
}

/// A decoded record tail: every field but the key, the value still borrowed
/// from the buffer it was read out of.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail<'a> {
    pub(crate) seq: SeqNo,
    pub(crate) kind: RecordKind,
    pub(crate) expires_at: u64,
    pub(crate) value: &'a [u8],
}

impl Tail<'_> {
    /// Copy the value out: the tail as the memtable and point reads hold it.
    pub(crate) fn to_entry(self) -> MemEntry {
        MemEntry {
            seq: self.seq,
            kind: self.kind,
            expires_at: self.expires_at,
            value: Bytes::copy_from_slice(self.value),
        }
    }

    /// Copy the value out and attach `key`.
    pub(crate) fn to_record(self, key: Bytes) -> Record {
        Record {
            key,
            seq: self.seq,
            kind: self.kind,
            expires_at: self.expires_at,
            value: Bytes::copy_from_slice(self.value),
        }
    }
}

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

    /// Serialized size estimate in bytes (used for memtable accounting).
    pub fn approximate_size(&self) -> usize {
        self.key.len() + self.value.len() + 24
    }

    /// Append the record to `buf` in the on-disk framing (see the module
    /// docs): the key, then the tail.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_len_prefixed(buf, &self.key);
        self.encode_tail(buf);
    }

    /// Append everything but the key — the one encoder of the record tail.
    pub(crate) fn encode_tail(&self, buf: &mut Vec<u8>) {
        let has_expiry = self.expires_at != NO_EXPIRY;
        buf.push(self.kind as u8 | if has_expiry { FLAG_EXPIRES } else { 0 });
        put_varint(buf, self.seq);
        if has_expiry {
            put_varint(buf, self.expires_at);
        }
        put_len_prefixed(buf, &self.value);
    }

    /// Decode a record from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Record> {
        let key = Bytes::copy_from_slice(get_len_prefixed(buf, pos)?);
        Ok(Self::decode_tail(buf, pos)?.to_record(key))
    }

    /// Decode the tail at `buf[*pos..]`, advancing `pos` past it — the one
    /// decoder of the record tail. Nothing is copied: a caller walking past
    /// a record pays for three varints and a bounds check.
    #[inline(always)]
    pub(crate) fn decode_tail<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Tail<'a>> {
        let Some(&flags) = buf.get(*pos) else {
            return Err(corruption("truncated record flags"));
        };
        *pos += 1;
        if flags > FLAG_DELETE | FLAG_EXPIRES {
            return Err(bad_flags(flags));
        }
        let kind = if flags & FLAG_DELETE != 0 {
            RecordKind::Delete
        } else {
            RecordKind::Put
        };
        let seq = get_varint(buf, pos)?;
        let expires_at = if flags & FLAG_EXPIRES != 0 {
            get_varint(buf, pos)?
        } else {
            NO_EXPIRY
        };
        let value = get_len_prefixed(buf, pos)?;
        Ok(Tail {
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
    fn decode_tail_is_decode_without_the_key() {
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
            get_len_prefixed(&buf, &mut pos).unwrap();
            let entry = Record::decode_tail(&buf, &mut pos).unwrap().to_entry();
            let full = Record::decode(&buf, &mut decode_pos).unwrap();
            assert_eq!(pos, decode_pos);
            assert_eq!(
                (entry.seq, entry.kind, entry.expires_at, &entry.value),
                (full.seq, full.kind, full.expires_at, &r.value)
            );
        }
        // The flags byte follows the 5-byte key; an unknown bit is refused.
        buf[5] = 9;
        assert!(Record::decode_tail(&buf, &mut 5).is_err());
    }

    #[test]
    fn the_tail_spends_bytes_only_on_what_a_record_has() {
        let len = |r: Record| {
            let mut buf = Vec::new();
            r.encode_tail(&mut buf);
            buf.len()
        };
        // flags + 1-byte seq + vlen + value.
        assert_eq!(len(Record::put("k", "v", 1, None)), 4);
        // A seq up to 2^21 - 1 takes three bytes, an expiry what it needs.
        assert_eq!(len(Record::put("k", "v", 200_000, None)), 6);
        assert_eq!(len(Record::put("k", "v", 1, Some(1_000_000))), 7);
        assert_eq!(len(Record::delete("k", 1)), 3);
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
    fn decode_rejects_bad_flags() {
        let mut buf = Vec::new();
        Record::put("k", "v", 1, None).encode(&mut buf);
        // Corrupt the flags byte: it follows the key (1+1 bytes).
        buf[2] = 9;
        let mut pos = 0;
        assert!(Record::decode(&buf, &mut pos).is_err());
    }
}
