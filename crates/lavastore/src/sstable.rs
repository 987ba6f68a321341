//! Sorted string table (SST) files.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [data block 0][data block 1]...[properties][footer]
//! block: [records][restart u32 × n][n u32]   (every record is a restart point)
//! footer (20 bytes): props_offset u64 | props_len u32 | props_crc u32 | magic u32
//! ```
//!
//! The *properties* region holds the record count, the key range, the block
//! index (`last_key, offset, len` per block), and the bloom filter — everything
//! a reader keeps **pinned** in memory for its whole lifetime. Point reads
//! therefore cost exactly **one block I/O** (or zero on a bloom miss or a
//! block-cache hit), the constant the I/O-WFQ's Rule 1 relies on. Within a
//! block, the restart-point trailer lets point reads binary-search record
//! offsets instead of decoding the block front to back.

use crate::block_cache::BlockCache;
use crate::bloom::BloomFilter;
use crate::encoding::{
    crc32, get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32, put_u64,
    put_varint,
};
use crate::error::{Error, Result};
use crate::memtable::MemEntry;
use crate::record::Record;
use bytes::Bytes;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: u32 = 0xAB5E_557A;
const FOOTER_LEN: usize = 20;

/// Index entry for one data block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockHandle {
    last_key: Bytes,
    offset: u64,
    len: u32,
}

/// Writes a sorted record stream into an SST file.
#[derive(Debug)]
pub struct SstWriter {
    path: PathBuf,
    file: File,
    block: Vec<u8>,
    /// Start offset of every record in the current block (restart points).
    restarts: Vec<u32>,
    block_target: usize,
    offset: u64,
    handles: Vec<BlockHandle>,
    bloom: BloomFilter,
    record_count: u64,
    min_key: Option<Bytes>,
    max_key: Option<Bytes>,
    last_key_in_block: Option<Bytes>,
}

impl SstWriter {
    /// Start writing an SST at `path`. `expected_records` sizes the bloom
    /// filter; `block_target` is the uncompressed block size goal.
    pub fn create(
        path: &Path,
        expected_records: usize,
        bloom_bits_per_key: usize,
        block_target: usize,
    ) -> Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            block: Vec::with_capacity(block_target * 2),
            restarts: Vec::new(),
            block_target,
            offset: 0,
            handles: Vec::new(),
            bloom: BloomFilter::with_capacity(expected_records, bloom_bits_per_key),
            record_count: 0,
            min_key: None,
            max_key: None,
            last_key_in_block: None,
        })
    }

    /// Append the next record; records must arrive in ascending key order.
    ///
    /// # Panics
    /// Debug-asserts key ordering.
    pub fn add(&mut self, record: &Record) -> Result<()> {
        debug_assert!(
            self.max_key.as_ref().is_none_or(|m| m < &record.key),
            "records must be added in strictly ascending key order"
        );
        if self.min_key.is_none() {
            self.min_key = Some(record.key.clone());
        }
        self.max_key = Some(record.key.clone());
        self.bloom.insert(&record.key);
        self.restarts.push(self.block.len() as u32);
        record.encode(&mut self.block);
        self.last_key_in_block = Some(record.key.clone());
        self.record_count += 1;
        if self.block.len() >= self.block_target {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let last_key = self
            .last_key_in_block
            .take()
            // INVARIANT: `add` records a last key with every entry, and the
            // empty-block case returned above.
            .expect("non-empty block has a last key");
        // Restart-point trailer: record start offsets + their count, so
        // readers can binary-search the block instead of scanning it.
        for &r in &self.restarts {
            put_u32(&mut self.block, r);
        }
        put_u32(&mut self.block, self.restarts.len() as u32);
        self.file.write_all(&self.block)?;
        self.handles.push(BlockHandle {
            last_key,
            offset: self.offset,
            len: self.block.len() as u32,
        });
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.restarts.clear();
        Ok(())
    }

    /// Finish the file: write properties + footer, fsync, and return the
    /// metadata needed by the manifest.
    pub fn finish(mut self) -> Result<SstFileInfo> {
        self.finish_block()?;
        let mut props = Vec::new();
        put_u64(&mut props, self.record_count);
        let min_key = self.min_key.clone().unwrap_or_default();
        let max_key = self.max_key.clone().unwrap_or_default();
        put_len_prefixed(&mut props, &min_key);
        put_len_prefixed(&mut props, &max_key);
        put_varint(&mut props, self.handles.len() as u64);
        for h in &self.handles {
            put_len_prefixed(&mut props, &h.last_key);
            put_u64(&mut props, h.offset);
            put_u32(&mut props, h.len);
        }
        self.bloom.encode(&mut props);
        let props_offset = self.offset;
        let props_crc = crc32(&props);
        self.file.write_all(&props)?;
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_u64(&mut footer, props_offset);
        put_u32(&mut footer, props.len() as u32);
        put_u32(&mut footer, props_crc);
        put_u32(&mut footer, MAGIC);
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        let file_size = props_offset + props.len() as u64 + FOOTER_LEN as u64;
        Ok(SstFileInfo {
            path: self.path,
            file_size,
            record_count: self.record_count,
            min_key,
            max_key,
        })
    }
}

/// Metadata returned when an SST finishes writing.
#[derive(Debug, Clone)]
pub struct SstFileInfo {
    /// Where the file was written.
    pub path: PathBuf,
    /// Total file size in bytes.
    pub file_size: u64,
    /// Number of records.
    pub record_count: u64,
    /// Smallest user key.
    pub min_key: Bytes,
    /// Largest user key.
    pub max_key: Bytes,
}

/// Block accesses performed by one reader operation, split by source so the
/// data node can distinguish real disk I/O from zero-copy cache hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockIo {
    /// Blocks read from disk.
    pub disk: u32,
    /// Blocks served by the block cache.
    pub cached: u32,
}

impl BlockIo {
    /// Total block accesses (the quantity Rule 1 prices as one I/O each).
    pub fn total(&self) -> u32 {
        self.disk + self.cached
    }

    /// Fold another operation's counts into this one.
    pub fn absorb(&mut self, other: BlockIo) {
        self.disk += other.disk;
        self.cached += other.cached;
    }
}

/// Parsed view of one data block: the record region plus the restart-point
/// offsets the writer appended as a trailer.
struct BlockView<'a> {
    /// Record bytes only (the trailer is sliced off).
    data: &'a [u8],
    /// `n` restart offsets, 4 bytes each, little-endian.
    restarts: &'a [u8],
}

impl<'a> BlockView<'a> {
    fn parse(block: &'a [u8]) -> Result<Self> {
        if block.len() < 4 {
            return Err(Error::Corruption("block shorter than restart count".into()));
        }
        let mut pos = block.len() - 4;
        let n = get_u32(block, &mut pos)? as usize;
        let trailer = 4 + n * 4;
        if block.len() < trailer {
            return Err(Error::Corruption(
                "block shorter than restart trailer".into(),
            ));
        }
        let data_end = block.len() - trailer;
        Ok(Self {
            data: &block[..data_end],
            restarts: &block[data_end..block.len() - 4],
        })
    }

    /// Number of records in the block.
    fn len(&self) -> usize {
        self.restarts.len() / 4
    }

    /// Byte offset of record `i` within the record region.
    fn offset(&self, i: usize) -> Result<usize> {
        let mut pos = i * 4;
        Ok(get_u32(self.restarts, &mut pos)? as usize)
    }

    /// Key of record `i`, read without decoding the rest of the record.
    fn key_at(&self, i: usize) -> Result<&'a [u8]> {
        let mut pos = self.offset(i)?;
        get_len_prefixed(self.data, &mut pos)
    }
}

/// Reads point and range queries from one SST file.
#[derive(Debug)]
pub struct SstReader {
    file: File,
    handles: Vec<BlockHandle>,
    bloom: BloomFilter,
    record_count: u64,
    min_key: Bytes,
    max_key: Bytes,
    /// Process-unique id naming this reader's blocks in the shared cache.
    /// Never the manifest file id: manifest ids restart per database, and an
    /// aliased id would let stale blocks from a previous instance answer
    /// reads for a different file (see `block_cache` module docs).
    file_id: u64,
    cache: Option<Arc<BlockCache>>,
    /// Bytes of index + bloom pinned in memory for this reader's lifetime.
    pinned_bytes: usize,
    /// Data-block reads served from disk by this reader (I/O accounting).
    block_reads: AtomicU64,
    /// Point lookups short-circuited by the bloom filter.
    bloom_skips: AtomicU64,
}

impl SstReader {
    /// Open an SST file with no block cache (blocks are read from disk every
    /// time). Equivalent to `open_cached(path, None)`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_cached(path, None)
    }

    /// Open an SST file, loading (and pinning) its index and bloom filter in
    /// memory, and routing data-block reads through `cache` when given.
    pub fn open_cached(path: &Path, cache: Option<Arc<BlockCache>>) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::Corruption("sst shorter than footer".into()));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN as u64)?;
        let mut pos = 0usize;
        let props_offset = get_u64(&footer, &mut pos)?;
        let props_len = get_u32(&footer, &mut pos)? as usize;
        let props_crc = get_u32(&footer, &mut pos)?;
        let magic = get_u32(&footer, &mut pos)?;
        if magic != MAGIC {
            return Err(Error::Corruption("bad sst magic".into()));
        }
        let mut props = vec![0u8; props_len];
        file.read_exact_at(&mut props, props_offset)?;
        if crc32(&props) != props_crc {
            return Err(Error::Corruption("sst properties crc mismatch".into()));
        }
        let mut pos = 0usize;
        let record_count = get_u64(&props, &mut pos)?;
        let min_key = Bytes::copy_from_slice(get_len_prefixed(&props, &mut pos)?);
        let max_key = Bytes::copy_from_slice(get_len_prefixed(&props, &mut pos)?);
        let n_handles = get_varint(&props, &mut pos)? as usize;
        let mut handles = Vec::with_capacity(n_handles);
        for _ in 0..n_handles {
            let last_key = Bytes::copy_from_slice(get_len_prefixed(&props, &mut pos)?);
            let offset = get_u64(&props, &mut pos)?;
            let len = get_u32(&props, &mut pos)?;
            handles.push(BlockHandle {
                last_key,
                offset,
                len,
            });
        }
        let bloom = BloomFilter::decode(&props, &mut pos)?;
        // The whole properties region (index + bloom + key range) stays in
        // reader memory for the reader's lifetime — these are the "pinned"
        // index/filter blocks; account them to the cache's resident gauge.
        let pinned_bytes = props_len;
        if let Some(cache) = &cache {
            cache.add_pinned(pinned_bytes);
        }
        Ok(Self {
            file,
            handles,
            bloom,
            record_count,
            min_key,
            max_key,
            file_id: BlockCache::next_file_id(),
            cache,
            pinned_bytes,
            block_reads: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
        })
    }

    /// Number of records in the file.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Smallest user key in the file.
    pub fn min_key(&self) -> &Bytes {
        &self.min_key
    }

    /// Largest user key in the file.
    pub fn max_key(&self) -> &Bytes {
        &self.max_key
    }

    /// Data-block reads performed so far.
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }

    /// Point lookups answered "absent" by the bloom filter alone.
    pub fn bloom_skips(&self) -> u64 {
        self.bloom_skips.load(Ordering::Relaxed)
    }

    /// True if `key` falls inside this file's `[min, max]` key range.
    pub fn key_in_range(&self, key: &[u8]) -> bool {
        key >= &self.min_key[..] && key <= &self.max_key[..]
    }

    /// Fetch one data block: cache first (when attached), then disk.
    /// `fill` controls whether a disk read populates the cache — bulk scans
    /// (compaction) pass `false` so one-shot reads of soon-dead files don't
    /// flush the hot set.
    fn read_block(&self, handle: &BlockHandle, fill: bool) -> Result<(Arc<[u8]>, BlockIo)> {
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(self.file_id, handle.offset) {
                return Ok((block, BlockIo { disk: 0, cached: 1 }));
            }
        }
        // One allocation, read into in place: the cache and the caller share
        // this `Arc`, and a `Vec` converted afterwards would copy the block.
        let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, handle.len as usize).collect();
        // INVARIANT: the `Arc` was created on the line above and not cloned.
        let buf = Arc::get_mut(&mut block).expect("fresh allocation is unshared");
        self.file.read_exact_at(buf, handle.offset)?;
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        if fill {
            if let Some(cache) = &self.cache {
                cache.insert(self.file_id, handle.offset, Arc::clone(&block));
            }
        }
        Ok((block, BlockIo { disk: 1, cached: 0 }))
    }

    /// Point lookup. Returns the record plus the block accesses performed
    /// (zero on a bloom or range miss, one access — cached or disk — else).
    pub fn get(&self, key: &[u8]) -> Result<(Option<Record>, BlockIo)> {
        let (entry, io) = self.get_entry(key, BloomFilter::hash_pair(key))?;
        let record = entry.map(|e| Record {
            key: Bytes::copy_from_slice(key),
            seq: e.seq,
            kind: e.kind,
            expires_at: e.expires_at,
            value: e.value,
        });
        Ok((record, io))
    }

    /// [`SstReader::get`] for a caller that keeps hold of `key` — the record
    /// comes back without a copy of it — and probes several files with it:
    /// `hashes` is the key's [`BloomFilter::hash_pair`], computed once.
    pub fn get_entry(&self, key: &[u8], hashes: (u64, u64)) -> Result<(Option<MemEntry>, BlockIo)> {
        if !self.key_in_range(key) {
            return Ok((None, BlockIo::default()));
        }
        crate::metrics::BLOOM_CHECKS.inc();
        if !self.bloom.may_contain_hashed(hashes) {
            self.bloom_skips.fetch_add(1, Ordering::Relaxed);
            crate::metrics::BLOOM_NEGATIVES.inc();
            return Ok((None, BlockIo::default()));
        }
        // First block whose last_key >= key.
        let idx = self.handles.partition_point(|h| h.last_key.as_ref() < key);
        let Some(handle) = self.handles.get(idx) else {
            return Ok((None, BlockIo::default()));
        };
        let (block, io) = self.read_block(handle, true)?;
        let view = BlockView::parse(&block)?;
        // Binary search over restart points: probes touch only the key bytes;
        // the record (and its value) is decoded once, at the final offset.
        let mut lo = 0usize;
        let mut hi = view.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if view.key_at(mid)? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < view.len() && view.key_at(lo)? == key {
            let mut pos = view.offset(lo)?;
            return Ok((Some(Record::decode_entry(view.data, &mut pos)?), io));
        }
        // The filter said "maybe" but the block search came up empty.
        crate::metrics::BLOOM_FALSE_POSITIVES.inc();
        Ok((None, io))
    }

    /// Scan every record in key order (used by compaction and range reads).
    /// Reads check the cache but do not populate it (`fill = false`): a
    /// compaction input is about to be deleted.
    pub fn scan_all(&self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.record_count as usize);
        for handle in &self.handles {
            let (block, _) = self.read_block(handle, false)?;
            let view = BlockView::parse(&block)?;
            let mut pos = 0usize;
            while pos < view.data.len() {
                out.push(Record::decode(view.data, &mut pos)?);
            }
        }
        Ok(out)
    }

    /// Records whose key starts with `prefix`, in key order, plus the block
    /// accesses used.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<(Vec<Record>, BlockIo)> {
        if prefix > &self.max_key[..] || !self.prefix_may_overlap(prefix) {
            return Ok((Vec::new(), BlockIo::default()));
        }
        let mut out = Vec::new();
        let mut io = BlockIo::default();
        let start = self
            .handles
            .partition_point(|h| h.last_key.as_ref() < prefix);
        for handle in &self.handles[start..] {
            let (block, block_io) = self.read_block(handle, true)?;
            io.absorb(block_io);
            let view = BlockView::parse(&block)?;
            let mut pos = 0usize;
            let mut past_prefix = false;
            while pos < view.data.len() {
                // Peek the key first; decode the value only for records that
                // actually match the prefix.
                let record_start = pos;
                let key = Record::peek_key(view.data, &mut pos)?;
                if key.starts_with(prefix) {
                    let mut decode_pos = record_start;
                    out.push(Record::decode(view.data, &mut decode_pos)?);
                } else if key > prefix {
                    past_prefix = true;
                    break;
                }
            }
            if past_prefix {
                break;
            }
        }
        Ok((out, io))
    }

    fn prefix_may_overlap(&self, prefix: &[u8]) -> bool {
        // max_key >= prefix and min_key's first |prefix| bytes <= prefix.
        let head = &self.min_key[..self.min_key.len().min(prefix.len())];
        head <= prefix
    }
}

impl Drop for SstReader {
    fn drop(&mut self) {
        if let Some(cache) = &self.cache {
            cache.sub_pinned(self.pinned_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "abase-sst-{tag}-{}-{:?}.sst",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn build_sst(path: &Path, n: usize) -> SstFileInfo {
        let mut w = SstWriter::create(path, n, 10, 256).unwrap();
        for i in 0..n {
            let key = format!("key-{i:06}");
            let value = format!("value-{i}");
            w.add(&Record::put(key, value, i as u64 + 1, None)).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_then_point_read() {
        let path = temp_path("point");
        let info = build_sst(&path, 500);
        assert_eq!(info.record_count, 500);
        let r = SstReader::open(&path).unwrap();
        let (rec, io) = r.get(b"key-000123").unwrap();
        assert_eq!(rec.unwrap().value, &b"value-123"[..]);
        assert_eq!(io, BlockIo { disk: 1, cached: 0 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absent_key_costs_no_io_via_bloom() {
        let path = temp_path("bloom");
        build_sst(&path, 500);
        let r = SstReader::open(&path).unwrap();
        let mut io_total = 0;
        for i in 0..200 {
            let (rec, io) = r.get(format!("missing-{i}").as_bytes()).unwrap();
            assert!(rec.is_none());
            io_total += io.total();
        }
        // Nearly all misses are range misses (prefix "missing" > "key-…" range)
        // or bloom-filtered; allow a small number of false positives.
        assert!(io_total <= 10, "io_total={io_total}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn in_range_absent_key_uses_bloom() {
        let path = temp_path("inrange");
        build_sst(&path, 500);
        let r = SstReader::open(&path).unwrap();
        let mut io_total = 0;
        for i in 0..200 {
            // Keys interleaved with existing ones, inside [min,max].
            let (rec, io) = r.get(format!("key-{i:06}x").as_bytes()).unwrap();
            assert!(rec.is_none());
            io_total += io.total();
        }
        assert!(io_total <= 20, "io_total={io_total}");
        assert!(r.bloom_skips() >= 180);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_all_returns_sorted_records() {
        let path = temp_path("scan");
        build_sst(&path, 300);
        let r = SstReader::open(&path).unwrap();
        let records = r.scan_all().unwrap();
        assert_eq!(records.len(), 300);
        assert!(records.windows(2).all(|w| w[0].key < w[1].key));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_prefix_selects_subset() {
        let path = temp_path("prefix");
        let mut w = SstWriter::create(&path, 10, 10, 128).unwrap();
        for (i, key) in ["a:1", "a:2", "b:1", "b:2", "c:1"].iter().enumerate() {
            w.add(&Record::put(*key, "v", i as u64 + 1, None)).unwrap();
        }
        w.finish().unwrap();
        let r = SstReader::open(&path).unwrap();
        let (records, _) = r.scan_prefix(b"b:").unwrap();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|rec| rec.key.starts_with(b"b:")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_range_metadata_is_correct() {
        let path = temp_path("range");
        build_sst(&path, 100);
        let r = SstReader::open(&path).unwrap();
        assert_eq!(r.min_key(), &Bytes::from("key-000000"));
        assert_eq!(r.max_key(), &Bytes::from("key-000099"));
        assert!(r.key_in_range(b"key-000050"));
        assert!(!r.key_in_range(b"zzz"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_properties_detected() {
        let path = temp_path("corrupt");
        build_sst(&path, 50);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the properties (just before the footer).
        let n = data.len();
        data[n - FOOTER_LEN - 5] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(SstReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_key_found_via_restart_binary_search() {
        // Exercise first/middle/last record of every block, plus probes that
        // land between keys, at both ends of the file, and on an empty-ish
        // boundary — the classic binary-search off-by-one sites.
        let path = temp_path("bsearch");
        build_sst(&path, 1000);
        let r = SstReader::open(&path).unwrap();
        for i in 0..1000 {
            let key = format!("key-{i:06}");
            let (rec, io) = r.get(key.as_bytes()).unwrap();
            assert_eq!(rec.expect(&key).value, format!("value-{i}").as_bytes());
            assert_eq!(io.total(), 1, "{key} cost more than one block access");
        }
        // Probes strictly between adjacent keys must miss without error.
        for i in (0..1000).step_by(97) {
            let (rec, _) = r.get(format!("key-{i:06}0").as_bytes()).unwrap();
            assert!(rec.is_none());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_reader_hits_after_first_read() {
        let path = temp_path("cached");
        build_sst(&path, 500);
        let cache = Arc::new(BlockCache::new(1 << 20));
        let r = SstReader::open_cached(&path, Some(Arc::clone(&cache))).unwrap();
        let (_, io) = r.get(b"key-000123").unwrap();
        assert_eq!(io, BlockIo { disk: 1, cached: 0 });
        let (rec, io) = r.get(b"key-000123").unwrap();
        assert_eq!(rec.unwrap().value, &b"value-123"[..]);
        assert_eq!(io, BlockIo { disk: 0, cached: 1 }, "second read not cached");
        assert_eq!(r.block_reads(), 1, "disk read counted twice");
        assert!(cache.resident_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_drop_releases_pinned_bytes() {
        let path = temp_path("pinned");
        build_sst(&path, 200);
        let cache = Arc::new(BlockCache::new(1 << 20));
        {
            let _r = SstReader::open_cached(&path, Some(Arc::clone(&cache))).unwrap();
            assert!(cache.pinned_bytes() > 0, "index/bloom not pinned");
        }
        assert_eq!(cache.pinned_bytes(), 0, "drop leaked pinned bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_readers_same_path_use_distinct_cache_keys() {
        // A reader reopened on the same path must never serve blocks cached
        // under a previous reader's id (file-id aliasing guard).
        let path = temp_path("alias");
        build_sst(&path, 300);
        let cache = Arc::new(BlockCache::new(1 << 20));
        let r1 = SstReader::open_cached(&path, Some(Arc::clone(&cache))).unwrap();
        let (_, io) = r1.get(b"key-000100").unwrap();
        assert_eq!(io.disk, 1);
        drop(r1);
        let r2 = SstReader::open_cached(&path, Some(Arc::clone(&cache))).unwrap();
        let (rec, io) = r2.get(b"key-000100").unwrap();
        assert!(rec.is_some());
        assert_eq!(io, BlockIo { disk: 1, cached: 0 }, "aliased a stale block");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_roundtrip() {
        let path = temp_path("tomb");
        let mut w = SstWriter::create(&path, 2, 10, 128).unwrap();
        w.add(&Record::delete("dead", 5)).unwrap();
        w.add(&Record::put("live", "v", 6, None)).unwrap();
        w.finish().unwrap();
        let r = SstReader::open(&path).unwrap();
        let (rec, _) = r.get(b"dead").unwrap();
        assert_eq!(rec.unwrap().kind, crate::record::RecordKind::Delete);
        std::fs::remove_file(&path).ok();
    }
}
