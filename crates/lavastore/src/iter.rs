//! K-way merge over sorted record streams.
//!
//! Compaction and range scans merge several sorted sources (memtable, L0
//! files, leveled files). The merge yields records in internal order — key
//! ascending, sequence descending — and can deduplicate to the newest visible
//! version per key.

use crate::record::Record;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapItem {
    record: Record,
    /// Which source the record came from (lower = newer source, used as the
    /// final tie-break so identical (key, seq) prefers the newer source).
    source: usize,
    rest: std::vec::IntoIter<Record>,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on internal order.
        other
            .record
            .internal_cmp(&self.record)
            .then_with(|| other.source.cmp(&self.source))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Merge already-sorted record vectors into one internally-ordered stream.
///
/// Sources must each be sorted by key ascending (one version per key within a
/// source is typical but not required). `sources[0]` is treated as the newest
/// for tie-breaking.
pub struct MergeIterator {
    heap: BinaryHeap<HeapItem>,
}

impl MergeIterator {
    /// Build a merge over the given sorted sources.
    pub fn new(sources: Vec<Vec<Record>>) -> Self {
        let mut heap = BinaryHeap::new();
        for (source, records) in sources.into_iter().enumerate() {
            let mut it = records.into_iter();
            if let Some(record) = it.next() {
                heap.push(HeapItem {
                    record,
                    source,
                    rest: it,
                });
            }
        }
        Self { heap }
    }

    /// Collapse the stream to the newest version per key, applying GC policy.
    /// A newest version that is dead — a tombstone, or expired at `now` — is
    /// dropped only when `drop_tombstones` (bottom-level compaction, where
    /// nothing older can exist). Anywhere else it must keep shadowing older
    /// versions in deeper levels, so it stays, as a tombstone: an expired
    /// value dropped there would bring a deeper live version back to life.
    pub fn dedup_newest(self, now: u64, drop_tombstones: bool) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::new();
        let mut last_key: Option<bytes::Bytes> = None;
        for record in self {
            if last_key.as_ref() == Some(&record.key) {
                continue; // older version of the same key
            }
            last_key = Some(record.key.clone());
            if record.kind == crate::record::RecordKind::Delete || record.is_expired(now) {
                if !drop_tombstones {
                    out.push(Record::delete(record.key, record.seq));
                }
                continue;
            }
            out.push(record);
        }
        out
    }
}

impl Iterator for MergeIterator {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let mut top = self.heap.pop()?;
        let record = top.record;
        if let Some(next) = top.rest.next() {
            top.record = next;
            self.heap.push(top);
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    #[test]
    fn merges_in_internal_order() {
        let a = vec![
            Record::put("a", "new", 10, None),
            Record::put("c", "c1", 3, None),
        ];
        let b = vec![
            Record::put("a", "old", 5, None),
            Record::put("b", "b1", 4, None),
        ];
        let merged: Vec<_> = MergeIterator::new(vec![a, b]).collect();
        let keys: Vec<_> = merged.iter().map(|r| (r.key.clone(), r.seq)).collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), 10),
                ("a".into(), 5),
                ("b".into(), 4),
                ("c".into(), 3)
            ]
        );
    }

    #[test]
    fn dedup_keeps_newest_version() {
        let a = vec![Record::put("k", "new", 10, None)];
        let b = vec![Record::put("k", "old", 5, None)];
        let out = MergeIterator::new(vec![a, b]).dedup_newest(0, false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, &b"new"[..]);
    }

    #[test]
    fn dedup_drops_expired() {
        let a = vec![Record::put("k", "v", 10, Some(100))];
        // At the bottom an expired record simply goes; above it, a deeper
        // level may hold an older live version it must keep shadowing.
        let out = MergeIterator::new(vec![a.clone()]).dedup_newest(100, true);
        assert!(out.is_empty());
        let out = MergeIterator::new(vec![a.clone()]).dedup_newest(100, false);
        assert_eq!(out, vec![Record::delete("k", 10)]);
        let kept = MergeIterator::new(vec![a]).dedup_newest(99, false);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn newest_expired_version_shadows_older_live_one() {
        // The newest version expired ⇒ the key is gone; the older version must
        // NOT resurface.
        let newer = vec![Record::put("k", "expired", 10, Some(50))];
        let older = vec![Record::put("k", "live", 5, None)];
        let out = MergeIterator::new(vec![newer, older]).dedup_newest(100, false);
        assert_eq!(
            out,
            vec![Record::delete("k", 10)],
            "older version resurrected"
        );
    }

    #[test]
    fn tombstones_kept_or_dropped_by_level() {
        let a = vec![Record::delete("k", 10)];
        let b = vec![Record::put("k", "old", 5, None)];
        let intermediate = MergeIterator::new(vec![a.clone(), b.clone()]).dedup_newest(0, false);
        assert_eq!(intermediate.len(), 1);
        assert_eq!(intermediate[0].kind, RecordKind::Delete);
        let bottom = MergeIterator::new(vec![a, b]).dedup_newest(0, true);
        assert!(bottom.is_empty());
    }

    #[test]
    fn empty_sources_ok() {
        let out: Vec<_> = MergeIterator::new(vec![vec![], vec![]]).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn equal_key_seq_prefers_newer_source() {
        let newer = vec![Record::put("k", "from-source-0", 7, None)];
        let older = vec![Record::put("k", "from-source-1", 7, None)];
        let out = MergeIterator::new(vec![newer, older]).dedup_newest(0, false);
        assert_eq!(out[0].value, &b"from-source-0"[..]);
    }
}
