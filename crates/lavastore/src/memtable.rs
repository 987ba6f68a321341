//! Sorted in-memory write buffer.
//!
//! The memtable keeps only the newest version of each key (the WAL holds the
//! full history for recovery), which makes flushes emit exactly one record per
//! key — matching the SST invariant of one version per key per file.

use crate::record::{Record, RecordKind, SeqNo};
use bytes::Bytes;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// The newest state of a key inside the memtable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Sequence number of the newest write.
    pub seq: SeqNo,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Absolute expiry or [`NO_EXPIRY`].
    pub expires_at: u64,
    /// Value (empty for tombstones).
    pub value: Bytes,
}

/// A sorted write buffer with byte-size accounting.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: BTreeMap<Bytes, MemEntry>,
    approximate_bytes: usize,
}

impl MemTable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a record (newest wins; an older record than the stored one is
    /// ignored, which makes WAL replay idempotent).
    pub fn apply(&mut self, record: &Record) {
        let entry = MemEntry {
            seq: record.seq,
            kind: record.kind,
            expires_at: record.expires_at,
            value: record.value.clone(),
        };
        // One descent of the tree finds the key's slot or the place for it.
        match self.entries.entry(record.key.clone()) {
            Entry::Vacant(slot) => {
                slot.insert(entry);
            }
            Entry::Occupied(mut slot) => {
                let existing = slot.get();
                if existing.seq >= record.seq {
                    return;
                }
                self.approximate_bytes -= existing.value.len() + record.key.len() + 24;
                slot.insert(entry);
            }
        }
        self.approximate_bytes += record.approximate_size();
    }

    /// Newest entry for `key`, if buffered (tombstones included).
    pub fn get(&self, key: &[u8]) -> Option<&MemEntry> {
        self.entries.get(key)
    }

    /// Number of buffered keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes
    }

    /// The records whose key starts with `prefix` (every record for an
    /// empty prefix), in key order: what a flush writes and a prefix scan
    /// merges.
    pub fn range<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = Record> + 'a {
        self.entries
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(key, _)| key.starts_with(prefix))
            .map(|(key, e)| Record {
                key: key.clone(),
                seq: e.seq,
                kind: e.kind,
                expires_at: e.expires_at,
                value: e.value.clone(),
            })
    }

    /// Drop everything (after a successful flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.approximate_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_EXPIRY;

    #[test]
    fn apply_newest_wins() {
        let mut m = MemTable::new();
        m.apply(&Record::put("k", "v1", 1, None));
        m.apply(&Record::put("k", "v2", 2, None));
        assert_eq!(m.get(b"k").unwrap().value, &b"v2"[..]);
        assert_eq!(m.len(), 1);
        // An out-of-order older record is ignored (idempotent replay).
        m.apply(&Record::put("k", "v0", 1, None));
        assert_eq!(m.get(b"k").unwrap().value, &b"v2"[..]);
    }

    #[test]
    fn tombstone_shadows_put() {
        let mut m = MemTable::new();
        m.apply(&Record::put("k", "v", 1, None));
        m.apply(&Record::delete("k", 2));
        let e = m.get(b"k").unwrap();
        assert_eq!(e.kind, RecordKind::Delete);
    }

    #[test]
    fn byte_accounting_tracks_replacements() {
        let mut m = MemTable::new();
        let small = Record::put("key", "small", 1, None);
        m.apply(&small);
        let b1 = m.approximate_bytes();
        assert_eq!(b1, small.approximate_size());
        let longer = Record::put("key", "a-much-longer-value", 2, None);
        m.apply(&longer);
        let b2 = m.approximate_bytes();
        assert!(b2 > b1);
        // A replacement is charged for the new version only, and a stale
        // record for nothing.
        assert_eq!(b2, longer.approximate_size());
        m.apply(&small);
        assert_eq!(m.approximate_bytes(), b2);
        m.clear();
        assert_eq!(m.approximate_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn range_of_the_empty_prefix_is_every_record_by_key() {
        let mut m = MemTable::new();
        m.apply(&Record::put("b", "2", 2, None));
        m.apply(&Record::put("a", "1", 1, None));
        m.apply(&Record::put("c", "3", 3, None));
        let keys: Vec<_> = m.range(b"").map(|r| r.key).collect();
        assert_eq!(keys, vec![&b"a"[..], &b"b"[..], &b"c"[..]]);
    }

    #[test]
    fn range_selects_a_prefix() {
        let mut m = MemTable::new();
        m.apply(&Record::put("user:1", "a", 1, None));
        m.apply(&Record::put("user:2", "b", 2, None));
        m.apply(&Record::put("video:1", "c", 3, None));
        let hits: Vec<_> = m.range(b"user:").collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.key.starts_with(b"user:")));
        assert_eq!(hits[1], Record::put("user:2", "b", 2, None));
    }

    #[test]
    fn expiry_carried_through() {
        let mut m = MemTable::new();
        m.apply(&Record::put("k", "v", 1, Some(500)));
        assert_eq!(m.get(b"k").unwrap().expires_at, 500);
        m.apply(&Record::put("k2", "v", 2, None));
        assert_eq!(m.get(b"k2").unwrap().expires_at, NO_EXPIRY);
    }
}
