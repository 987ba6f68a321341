//! K-way merge over sorted record streams.
//!
//! Compaction and prefix scans merge several sorted sources, memtable ranges
//! and SST cursors ([`crate::sstable::SstReader::cursor`]), lazily: the
//! merge holds one record per source and pulls a source's next only when
//! its record leaves, so a compaction holds one data block per input, not
//! its inputs. It yields records in internal order — key ascending,
//! sequence descending — and [`dedup_newest`] collapses that stream to the
//! newest visible version per key as it goes.

use crate::error::Result;
use crate::record::{Record, RecordKind};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merge sorted record sources into one internally-ordered stream.
///
/// Sources must each be sorted by key ascending (one version per key within a
/// source is typical but not required). The first source is treated as the
/// newest for tie-breaking. A source's error ends the stream.
pub struct MergeIterator<I> {
    /// A min-heap of the waiting records' places: key, newest seq first,
    /// then the source, so identical (key, seq) prefers the newer source.
    heap: BinaryHeap<Reverse<(Bytes, Reverse<u64>, usize)>>,
    /// Each source, and the record it has waiting in the heap.
    sources: Vec<(I, Option<Record>)>,
}

impl<I: Iterator<Item = Result<Record>>> MergeIterator<I> {
    /// Build a merge over the given sorted sources, pulling the first record
    /// of each.
    pub fn new(sources: impl IntoIterator<Item = I>) -> Result<Self> {
        let mut merge = Self {
            heap: BinaryHeap::new(),
            sources: sources.into_iter().map(|s| (s, None)).collect(),
        };
        for source in 0..merge.sources.len() {
            merge.pull(source)?;
        }
        Ok(merge)
    }

    /// Move `source`'s next record, if any, into the heap.
    fn pull(&mut self, source: usize) -> Result<()> {
        let (records, waiting) = &mut self.sources[source];
        if let Some(record) = records.next().transpose()? {
            let place = (record.key.clone(), Reverse(record.seq), source);
            self.heap.push(Reverse(place));
            *waiting = Some(record);
        }
        Ok(())
    }
}

impl<I: Iterator<Item = Result<Record>>> Iterator for MergeIterator<I> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Result<Record>> {
        let Reverse((_, _, source)) = self.heap.pop()?;
        let record = self.sources[source].1.take()?;
        if let Err(e) = self.pull(source) {
            self.heap.clear();
            return Some(Err(e));
        }
        Some(Ok(record))
    }
}

/// Collapse an internally-ordered stream to the newest version per key,
/// applying GC policy. A newest version that is dead — a tombstone, or
/// expired at `now` — is dropped only when `drop_tombstones` (bottom-level
/// compaction, where nothing older can exist, or a read). Anywhere else it
/// must keep shadowing older versions in deeper levels, so it stays, as a
/// tombstone: an expired value dropped there would bring a deeper live
/// version back to life.
pub fn dedup_newest(
    records: impl Iterator<Item = Result<Record>>,
    now: u64,
    drop_tombstones: bool,
) -> impl Iterator<Item = Result<Record>> {
    let mut last_key: Option<Bytes> = None;
    records.filter_map(move |record| {
        let record = match record {
            Ok(record) => record,
            Err(e) => return Some(Err(e)),
        };
        if last_key.as_ref() == Some(&record.key) {
            return None; // older version of the same key
        }
        last_key = Some(record.key.clone());
        if record.kind == RecordKind::Delete || record.is_expired(now) {
            return (!drop_tombstones).then(|| Ok(Record::delete(record.key, record.seq)));
        }
        Some(Ok(record))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    /// A merge over in-memory sources, newest first.
    fn merge(sources: Vec<Vec<Record>>) -> MergeIterator<impl Iterator<Item = Result<Record>>> {
        MergeIterator::new(sources.into_iter().map(|s| s.into_iter().map(Ok))).unwrap()
    }

    fn dedup(sources: Vec<Vec<Record>>, now: u64, drop_tombstones: bool) -> Vec<Record> {
        dedup_newest(merge(sources), now, drop_tombstones)
            .collect::<Result<_>>()
            .unwrap()
    }

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
        let merged: Vec<_> = merge(vec![a, b]).map(Result::unwrap).collect();
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
        let out = dedup(vec![a, b], 0, false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, &b"new"[..]);
    }

    #[test]
    fn dedup_drops_expired() {
        let a = vec![Record::put("k", "v", 10, Some(100))];
        // At the bottom an expired record simply goes; above it, a deeper
        // level may hold an older live version it must keep shadowing.
        let out = dedup(vec![a.clone()], 100, true);
        assert!(out.is_empty());
        let out = dedup(vec![a.clone()], 100, false);
        assert_eq!(out, vec![Record::delete("k", 10)]);
        let kept = dedup(vec![a], 99, false);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn newest_expired_version_shadows_older_live_one() {
        // The newest version expired ⇒ the key is gone; the older version must
        // NOT resurface.
        let newer = vec![Record::put("k", "expired", 10, Some(50))];
        let older = vec![Record::put("k", "live", 5, None)];
        let out = dedup(vec![newer, older], 100, false);
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
        let intermediate = dedup(vec![a.clone(), b.clone()], 0, false);
        assert_eq!(intermediate.len(), 1);
        assert_eq!(intermediate[0].kind, RecordKind::Delete);
        let bottom = dedup(vec![a, b], 0, true);
        assert!(bottom.is_empty());
    }

    #[test]
    fn empty_sources_ok() {
        assert!(merge(vec![vec![], vec![]]).next().is_none());
    }

    #[test]
    fn equal_key_seq_prefers_newer_source() {
        let newer = vec![Record::put("k", "from-source-0", 7, None)];
        let older = vec![Record::put("k", "from-source-1", 7, None)];
        let out = dedup(vec![newer, older], 0, false);
        assert_eq!(out[0].value, &b"from-source-0"[..]);
    }

    #[test]
    fn a_source_is_read_one_record_ahead_and_its_error_ends_the_stream() {
        let pulls = std::cell::Cell::new(0);
        let counted = |records: Vec<Result<Record>>| {
            records.into_iter().inspect(|_| pulls.set(pulls.get() + 1))
        };
        let put = |key: &'static str| Ok(Record::put(key, "v", 1, None));
        let failing = Err(Error::Corruption("bad block".into()));
        let mut m = MergeIterator::new([
            counted(vec![put("a"), put("c"), put("e")]),
            counted(vec![put("b"), failing, put("d")]),
        ])
        .unwrap();
        assert_eq!(pulls.get(), 2, "one record per source, no more");
        assert_eq!(m.next().unwrap().unwrap().key, &b"a"[..]);
        assert_eq!(pulls.get(), 3);
        assert!(matches!(m.next(), Some(Err(Error::Corruption(_)))));
        assert!(m.next().is_none(), "the stream went on after an error");
    }
}
