//! Sorted string table (SST) files, format v3.
//!
//! Layout (fixed-width integers little-endian, `varint` = LEB128):
//!
//! ```text
//! file:       [stored block 0][stored block 1]...[properties][footer]
//! stored:     block | 0u8                         (raw)
//!           | varint block_len | lz sequences | 1u8   (compressed, `lz.rs`)
//! block:      [entry 0][entry 1]...[restart u32 × n][n u32]
//! entry:      varint shared | varint unshared | key suffix | payload
//! properties: varint record_count | varint len, min_key | varint len, max_key
//!             | varint len, index block | bloom filter (k u32 | len u32 | bits)
//! footer:     props_offset u64 | props_len u32 | props_crc u32 | magic u32   (20 bytes)
//! ```
//!
//! **Entries** are prefix-compressed: `shared` is how many leading bytes the
//! key has in common with the entry before it, and only the rest is stored.
//! Every [`RESTART_INTERVAL`]-th entry of a block is a **restart point** — it
//! stores its whole key (`shared = 0`) and its offset goes into the block's
//! restart array — so a lookup binary-searches the restart keys as plain
//! slices and then walks at most one interval.
//!
//! There is **one block format** with two payloads. In a *data block* the
//! payload is the record tail ([`Record::encode_tail`]). The *index block* has
//! one entry per data block — key = that block's last key, payload =
//! `varint offset | varint stored len` — with a restart interval of 1, so
//! every index key is whole. Both are built by one [`BlockBuilder`] and
//! searched by one [`Block::seek`]; [`SstCursor`], the one range reader
//! behind compaction and prefix scans, walks a data block an entry at a time
//! with [`Block::next_entry`].
//!
//! The *properties* region is what a reader keeps **pinned** for its whole
//! lifetime: the key range, the index block (searched in place, never
//! unpacked into per-block heap keys) and the bloom filter. Point reads
//! therefore cost exactly **one block I/O** (or zero on a bloom miss or a
//! block-cache hit), the constant the I/O-WFQ's Rule 1 relies on.
//!
//! **Compression.** Each data block is stored with a one-byte trailer naming
//! how: compressed when that saves at least an eighth of the block, raw
//! otherwise ([`lz::store`], the stored form WAL frames share). The index
//! handle is `(offset, stored length)` and the block target counts
//! uncompressed bytes. A block is decoded on its
//! disk read only: the block cache holds decoded blocks, so a cache hit and
//! [`Block::seek`] never see the trailer.
//!
//! **Integrity.** The properties carry a CRC and the footer must describe
//! the file exactly; data blocks carry no checksum yet, so every length and
//! offset read from one is bounds-checked, the decompressor is total, and
//! damage surfaces as [`Error::Corruption`], never as a panic. The footer
//! magic names the format: [`MAGIC`] is v3, and a file ending in the v2
//! magic (no block trailer) or the v1 magic (fixed-width record fields, one
//! restart per record, index as a list in the properties) is refused by name
//! rather than misread — as `version.rs` refuses an older `MANIFEST`, which
//! is what turns away a whole older directory, logs included. A block CRC32C
//! goes before the trailer byte under a fourth magic.

use crate::block_cache::BlockCache;
use crate::bloom::BloomFilter;
use crate::encoding::{
    corruption, crc32, get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32,
    put_u64, put_varint,
};
use crate::error::{Error, Result};
use crate::lz;
use crate::memtable::MemEntry;
use crate::record::Record;
use bytes::Bytes;
use std::cell::Cell;
use std::cmp::Ordering as KeyOrder;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Footer magic of format v3.
const MAGIC: u32 = 0xAB5E_5573;
/// Footer magics of formats v2 and v1, kept only to name them when refusing
/// a file.
const MAGIC_V2: u32 = 0xAB5E_5572;
const MAGIC_V1: u32 = 0xAB5E_557A;
const FOOTER_LEN: usize = 20;
/// Entries per restart point in a data block. Against 8 it saves a whole key
/// and a restart offset per 16 records (0.7 % of the file) for a walk some
/// 30 ns longer — a cached point read still costs no more than format v1's,
/// and a trace cannot tell the two apart (CHANGES.md, PR 21).
const RESTART_INTERVAL: usize = 16;
/// The writer's file buffer: a flush issues one `write(2)` per this many
/// bytes instead of one per block.
const WRITE_BUF_BYTES: usize = 64 << 10;

#[inline]
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Builds one block (see the module docs) from keys added in ascending order.
#[derive(Debug)]
struct BlockBuilder {
    /// The entries so far; `finish` appends the restart trailer.
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    /// Entries added since the last restart point.
    since_restart: usize,
    /// Key of the last entry added. It outlives `clear` — a new block opens
    /// with a restart point, which shares nothing — so the writer reads a
    /// finished block's last key, and the file's largest, from here.
    last_key: Vec<u8>,
}

impl BlockBuilder {
    fn new(restart_interval: usize, capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            restarts: Vec::new(),
            restart_interval,
            since_restart: 0,
            last_key: Vec::new(),
        }
    }

    /// Start an entry with `key` and hand back the buffer for the caller to
    /// append the entry's payload to.
    fn add_key(&mut self, key: &[u8]) -> &mut Vec<u8> {
        let shared = if self.buf.is_empty() || self.since_restart == self.restart_interval {
            self.restarts.push(self.buf.len() as u32);
            self.since_restart = 0;
            0
        } else {
            common_prefix_len(&self.last_key, key)
        };
        self.since_restart += 1;
        put_varint(&mut self.buf, shared as u64);
        put_len_prefixed(&mut self.buf, &key[shared..]);
        self.last_key.truncate(shared);
        self.last_key.extend_from_slice(&key[shared..]);
        &mut self.buf
    }

    /// Append the restart trailer and return the finished block; `clear`
    /// before starting the next one.
    fn finish(&mut self) -> &[u8] {
        for &r in &self.restarts {
            put_u32(&mut self.buf, r);
        }
        put_u32(&mut self.buf, self.restarts.len() as u32);
        &self.buf
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.since_restart = 0;
    }
}

/// Writes a sorted record stream into an SST file.
#[derive(Debug)]
pub struct SstWriter {
    path: PathBuf,
    file: BufWriter<File>,
    data: BlockBuilder,
    index: BlockBuilder,
    /// The stored form of the block being finished, reused.
    lz: lz::Compressor,
    stored: Vec<u8>,
    block_target: usize,
    /// File offset the current data block will land at.
    offset: u64,
    bloom: BloomFilter,
    record_count: u64,
    min_key: Bytes,
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
            file: BufWriter::with_capacity(WRITE_BUF_BYTES, file),
            data: BlockBuilder::new(RESTART_INTERVAL, block_target * 2),
            index: BlockBuilder::new(1, 0),
            lz: lz::Compressor::default(),
            stored: Vec::new(),
            block_target,
            offset: 0,
            bloom: BloomFilter::with_capacity(expected_records, bloom_bits_per_key),
            record_count: 0,
            min_key: Bytes::new(),
        })
    }

    /// Append the next record; records must arrive in ascending key order.
    ///
    /// # Panics
    /// Debug-asserts key ordering.
    pub fn add(&mut self, record: &Record) -> Result<()> {
        debug_assert!(
            self.record_count == 0 || self.data.last_key.as_slice() < &record.key[..],
            "records must be added in strictly ascending key order"
        );
        if self.record_count == 0 {
            self.min_key = record.key.clone();
        }
        self.bloom.insert(&record.key);
        record.encode_tail(self.data.add_key(&record.key));
        self.record_count += 1;
        if self.data.buf.len() >= self.block_target {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.data.buf.is_empty() {
            return Ok(());
        }
        let raw = self.data.finish();
        let raw_len = raw.len();
        self.stored.clear();
        lz::store(raw, &mut self.lz, &mut self.stored);
        let len = self.stored.len() as u64;
        self.file.write_all(&self.stored)?;
        crate::metrics::BLOCK_RAW_BYTES.add(raw_len as u64);
        crate::metrics::BLOCK_STORED_BYTES.add(len);
        let handle = self.index.add_key(&self.data.last_key);
        put_varint(handle, self.offset);
        put_varint(handle, len);
        self.offset += len;
        self.data.clear();
        Ok(())
    }

    /// Finish the file: write properties + footer, fsync, and return the
    /// metadata needed by the manifest.
    pub fn finish(mut self) -> Result<SstFileInfo> {
        self.finish_block()?;
        let max_key = Bytes::copy_from_slice(&self.data.last_key);
        let mut props = Vec::new();
        put_varint(&mut props, self.record_count);
        put_len_prefixed(&mut props, &self.min_key);
        put_len_prefixed(&mut props, &max_key);
        put_len_prefixed(&mut props, self.index.finish());
        self.bloom.encode(&mut props);
        let props_offset = self.offset;
        self.file.write_all(&props)?;
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_u64(&mut footer, props_offset);
        put_u32(&mut footer, props.len() as u32);
        put_u32(&mut footer, crc32(&props));
        put_u32(&mut footer, MAGIC);
        self.file.write_all(&footer)?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        let file_size = props_offset + props.len() as u64 + FOOTER_LEN as u64;
        Ok(SstFileInfo {
            path: self.path,
            file_size,
            record_count: self.record_count,
            min_key: self.min_key,
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

/// Parsed view of one block: the entry region and the restart array the
/// builder appended. Parsing checks the trailer fits; everything inside the
/// entry region is checked as it is read.
struct Block<'a> {
    entries: &'a [u8],
    /// `n` restart offsets, 4 bytes each, little-endian.
    restarts: &'a [u8],
}

/// Payload decoder of the index block: `(offset, len)` of a data block.
#[inline(always)]
fn decode_handle(buf: &[u8], pos: &mut usize) -> Result<(u64, u64)> {
    Ok((get_varint(buf, pos)?, get_varint(buf, pos)?))
}

/// What [`Block::search_restarts`] found.
struct RestartSearch<'a> {
    /// Index of the first restart point whose key is `>= target`; the number
    /// of restart points when none is.
    at_or_above: usize,
    /// Key and payload position of the restart point before it, if any.
    below: Option<(&'a [u8], usize)>,
    /// Payload position of restart point `at_or_above`, and how its key
    /// compares to the target (`Equal` or `Greater`).
    above: Option<(usize, KeyOrder)>,
}

impl<'a> Block<'a> {
    fn parse(block: &'a [u8]) -> Result<Self> {
        let Some(mut pos) = block.len().checked_sub(4) else {
            return Err(corruption("block shorter than restart count"));
        };
        let n = get_u32(block, &mut pos)? as usize;
        let Some(data_end) = (block.len() - 4).checked_sub(n * 4) else {
            return Err(corruption("block shorter than restart trailer"));
        };
        Ok(Self {
            entries: &block[..data_end],
            restarts: &block[data_end..block.len() - 4],
        })
    }

    fn n_restarts(&self) -> usize {
        self.restarts.len() / 4
    }

    /// Offset of restart point `i` within the entry region.
    #[inline(always)]
    fn restart(&self, i: usize) -> Result<usize> {
        let offset = get_u32(self.restarts, &mut (i * 4))? as usize;
        if offset >= self.entries.len() {
            return Err(corruption("restart offset past the entries"));
        }
        Ok(offset)
    }

    /// `(shared, key suffix)` of the entry at `pos`, advancing to its payload.
    #[inline(always)]
    fn entry_key(&self, pos: &mut usize) -> Result<(u64, &'a [u8])> {
        Ok((
            get_varint(self.entries, pos)?,
            get_len_prefixed(self.entries, pos)?,
        ))
    }

    /// The whole key stored at restart point `i`, and where its payload is.
    #[inline(always)]
    fn restart_key(&self, i: usize) -> Result<(&'a [u8], usize)> {
        let mut pos = self.restart(i)?;
        let (shared, key) = self.entry_key(&mut pos)?;
        if shared != 0 {
            return Err(corruption("restart entry shares a prefix"));
        }
        Ok((key, pos))
    }

    /// Binary search for the first restart point whose key is `>= target`.
    /// The search's last probe on either side is that restart point and the
    /// one before it, so what those probes decoded comes back with the index
    /// and `seek` decodes nothing twice.
    fn search_restarts(&self, target: &[u8]) -> Result<RestartSearch<'a>> {
        let mut found = RestartSearch {
            at_or_above: self.n_restarts(),
            below: None,
            above: None,
        };
        let mut lo = 0;
        while lo < found.at_or_above {
            let mid = lo + (found.at_or_above - lo) / 2;
            let (key, payload) = self.restart_key(mid)?;
            match key.cmp(target) {
                KeyOrder::Less => {
                    lo = mid + 1;
                    found.below = Some((key, payload));
                }
                order => {
                    found.at_or_above = mid;
                    found.above = Some((payload, order));
                }
            }
        }
        Ok(found)
    }

    /// The payload of the first entry whose key is `>= target`, and whether
    /// its key *is* `target`. `payload` decodes (and so steps over) one
    /// entry's payload.
    ///
    /// That entry is the first restart point at or above `target`, unless one
    /// of the entries between it and the restart point before it is — at most
    /// one interval to walk, and the walk compares without rebuilding a key.
    /// `matched` is how many leading bytes the previous entry — known to sort
    /// below `target` — has in common with `target`. Keys ascend and `shared`
    /// is the full common prefix with that previous entry, so an entry sharing
    /// fewer than `matched` bytes differs from `target` where the previous one
    /// agreed with it, upwards: it is already past. One sharing more repeats
    /// the byte where the previous entry fell below `target`: still before.
    /// Only `shared == matched` has to look at suffix bytes. Nothing is
    /// allocated.
    fn seek<T>(
        &self,
        target: &[u8],
        payload: impl Fn(&'a [u8], &mut usize) -> Result<T>,
    ) -> Result<Option<(T, bool)>> {
        let found = self.search_restarts(target)?;
        // Start on the restart entry below `target`, to walk its interval
        // and then fall through to `next_restart`; without one, start on the
        // restart entry at or above `target`, which is then the answer.
        // `order` is how the entry whose payload sits at `pos` compares to
        // `target`.
        let (below_key, (mut pos, mut order), mut end, mut next_restart) = match found.below {
            Some((key, pos)) => {
                let end = if found.at_or_above < self.n_restarts() {
                    self.restart(found.at_or_above)?
                } else {
                    self.entries.len()
                };
                (key, (pos, KeyOrder::Less), end, found.above)
            }
            None => match found.above {
                Some(entry) => (&[][..], entry, 0, None),
                None => return Ok(None),
            },
        };
        let mut matched = None;
        // One call site for `payload`, so that it inlines into the loop.
        loop {
            let value = payload(self.entries, &mut pos)?;
            match order {
                KeyOrder::Less => {}
                KeyOrder::Equal => return Ok(Some((value, true))),
                KeyOrder::Greater => return Ok(Some((value, false))),
            }
            if pos < end {
                let matched = matched.get_or_insert_with(|| common_prefix_len(below_key, target));
                let (shared, suffix) = self.entry_key(&mut pos)?;
                order = match shared.cmp(&(*matched as u64)) {
                    KeyOrder::Less => KeyOrder::Greater,
                    KeyOrder::Greater => KeyOrder::Less,
                    KeyOrder::Equal => {
                        let rest = &target[*matched..];
                        let common = common_prefix_len(suffix, rest);
                        *matched += common;
                        // What follows the common part decides: the first
                        // differing byte, or which side ran out.
                        suffix.get(common).cmp(&rest.get(common))
                    }
                };
            } else {
                // The interval ended below `target`: the answer is the
                // restart entry after it, if the block has one.
                let Some(entry) = next_restart.take() else {
                    return Ok(None);
                };
                ((pos, order), end) = (entry, 0);
            }
        }
    }

    /// Decode the entry at `pos` — its key, rebuilt in `key` over the
    /// previous entry's, and its payload — advancing `pos` past it.
    fn next_entry<T>(
        &self,
        pos: &mut usize,
        key: &mut Vec<u8>,
        payload: impl Fn(&'a [u8], &mut usize) -> Result<T>,
    ) -> Result<T> {
        let (shared, suffix) = self.entry_key(pos)?;
        if shared > key.len() as u64 {
            return Err(corruption(
                "entry shares more bytes than the previous key has",
            ));
        }
        key.truncate(shared as usize);
        key.extend_from_slice(suffix);
        payload(self.entries, pos)
    }
}

thread_local! {
    /// A data block as read from disk, before it is decoded, kept between
    /// reads so a disk read costs only the decoded block's allocation.
    static STORED: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Reads point and range queries from one SST file.
#[derive(Debug)]
pub struct SstReader {
    file: File,
    /// The properties region up to the end of the index block, as read from
    /// the file (the bloom filter behind it is decoded into `bloom`).
    props: Vec<u8>,
    /// Where the index block sits in `props`.
    index: Range<usize>,
    /// Bytes of data blocks at the head of the file: no block may end past
    /// this.
    data_len: u64,
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
            return Err(corruption("sst shorter than footer"));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN as u64)?;
        let mut pos = 0usize;
        let props_offset = get_u64(&footer, &mut pos)?;
        let props_len = get_u32(&footer, &mut pos)? as usize;
        let props_crc = get_u32(&footer, &mut pos)?;
        match get_u32(&footer, &mut pos)? {
            MAGIC => {}
            old @ (MAGIC_V2 | MAGIC_V1) => {
                let version = if old == MAGIC_V2 { 2 } else { 1 };
                return Err(Error::Corruption(format!(
                    "sst is format v{version} (magic {old:#010x}); this build reads only format v3"
                )));
            }
            other => {
                return Err(Error::Corruption(format!(
                    "bad sst magic {other:#010x} (format v3 is {MAGIC:#010x})"
                )))
            }
        }
        // The footer must account for every byte of the file before its
        // length sizes an allocation.
        if props_offset
            .checked_add(props_len as u64 + FOOTER_LEN as u64)
            .is_none_or(|end| end != file_len)
        {
            return Err(Error::Corruption(format!(
                "sst footer places {props_len} property bytes at {props_offset} \
                 in a file of {file_len}"
            )));
        }
        let mut props = vec![0u8; props_len];
        file.read_exact_at(&mut props, props_offset)?;
        if crc32(&props) != props_crc {
            return Err(corruption("sst properties crc mismatch"));
        }
        let mut pos = 0usize;
        let record_count = get_varint(&props, &mut pos)?;
        let min_key = Bytes::copy_from_slice(get_len_prefixed(&props, &mut pos)?);
        let max_key = Bytes::copy_from_slice(get_len_prefixed(&props, &mut pos)?);
        let index_len = get_len_prefixed(&props, &mut pos)?.len();
        let index = pos - index_len..pos;
        Block::parse(&props[index.clone()])?;
        let bloom = BloomFilter::decode(&props, &mut pos)?;
        props.truncate(index.end);
        props.shrink_to_fit();
        // Everything read above stays in reader memory for the reader's
        // lifetime — key range, index block, bloom bits: the "pinned" blocks.
        // Account them to the cache's resident gauge.
        let pinned_bytes = props_len;
        if let Some(cache) = &cache {
            cache.add_pinned(pinned_bytes);
        }
        Ok(Self {
            file,
            props,
            index,
            data_len: props_offset,
            bloom,
            record_count,
            min_key,
            max_key,
            file_id: BlockCache::next_file_id(),
            cache,
            pinned_bytes,
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

    /// True if `key` falls inside this file's `[min, max]` key range.
    fn key_in_range(&self, key: &[u8]) -> bool {
        key >= &self.min_key[..] && key <= &self.max_key[..]
    }

    /// The pinned index block (its trailer was checked at open).
    fn index_block(&self) -> Result<Block<'_>> {
        Block::parse(&self.props[self.index.clone()])
    }

    /// Fetch the data block an index entry names: cache first (when
    /// attached), then disk. `fill` controls whether a disk read populates
    /// the cache — bulk scans (compaction) pass `false` so one-shot reads of
    /// soon-dead files don't flush the hot set.
    fn read_block(&self, (offset, len): (u64, u64), fill: bool) -> Result<(Arc<[u8]>, BlockIo)> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.data_len)
        {
            return Err(Error::Corruption(format!(
                "index names a block of {len} bytes at {offset}, past the {} of data",
                self.data_len
            )));
        }
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(self.file_id, offset) {
                return Ok((block, BlockIo { disk: 0, cached: 1 }));
            }
        }
        // The stored bytes land in a per-thread buffer; the decoded block is
        // the one allocation, which the cache and the caller share. A raw
        // block is copied out of the buffer where it used to be zero-filled.
        let mut stored = STORED.take();
        stored.resize(len as usize, 0);
        let block = match self.file.read_exact_at(&mut stored, offset) {
            Ok(()) => lz::load(&stored),
            Err(e) => Err(e.into()),
        };
        if stored.capacity() <= lz::KEPT_STORED_BYTES {
            STORED.set(stored);
        }
        let block = block?;
        if fill {
            if let Some(cache) = &self.cache {
                cache.insert(self.file_id, offset, Arc::clone(&block));
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
            crate::metrics::BLOOM_NEGATIVES.inc();
            return Ok((None, BlockIo::default()));
        }
        // First block whose last key >= key.
        let Some((handle, _)) = self.index_block()?.seek(key, decode_handle)? else {
            return Ok((None, BlockIo::default()));
        };
        let (block, io) = self.read_block(handle, true)?;
        // The value is copied out once, from the entry the search stops on.
        if let Some((tail, true)) = Block::parse(&block)?.seek(key, Record::decode_tail)? {
            return Ok((Some(tail.to_entry()), io));
        }
        // The filter said "maybe" but the block search came up empty.
        crate::metrics::BLOOM_FALSE_POSITIVES.inc();
        Ok((None, io))
    }

    /// A cursor over the records whose key starts with `prefix` (every
    /// record for an empty prefix), in key order. `fill` says whether its
    /// disk reads populate the block cache: a prefix scan's do, and a
    /// compaction's do not, since its inputs are about to be deleted.
    pub fn cursor<'a>(&'a self, prefix: &'a [u8], fill: bool) -> Result<SstCursor<'a>> {
        // Past the file's range when `prefix` sorts above its largest key or
        // below the head of its smallest. Otherwise the first index entry
        // at or above `prefix` names the first block that can hold a match
        // (every index entry is a restart point).
        let head = &self.min_key[..self.min_key.len().min(prefix.len())];
        let next_block = if prefix > &self.max_key[..] || head > prefix {
            usize::MAX
        } else {
            self.index_block()?.search_restarts(prefix)?.at_or_above
        };
        Ok(SstCursor {
            reader: self,
            prefix,
            fill,
            next_block,
            block: None,
            key: Vec::new(),
            io: BlockIo::default(),
        })
    }
}

impl Drop for SstReader {
    fn drop(&mut self) {
        if let Some(cache) = &self.cache {
            cache.sub_pinned(self.pinned_bytes);
        }
    }
}

/// Records of one SST in key order (see [`SstReader::cursor`]). It holds one
/// decoded data block at a time and reads the next only when the walk
/// reaches it; it stops at the first key past its prefix, so no block beyond
/// that key's is read.
pub struct SstCursor<'a> {
    reader: &'a SstReader,
    prefix: &'a [u8],
    fill: bool,
    /// Index entry of the next data block to read.
    next_block: usize,
    /// The data block being walked, and the offset of its next entry.
    block: Option<(Arc<[u8]>, usize)>,
    /// The last entry's key.
    key: Vec<u8>,
    io: BlockIo,
}

impl SstCursor<'_> {
    /// The block accesses made so far.
    pub fn io(&self) -> BlockIo {
        self.io
    }

    fn step(&mut self) -> Result<Option<Record>> {
        loop {
            if let Some((block, pos)) = &mut self.block {
                let block = Block::parse(&block[..])?;
                if *pos < block.entries.len() {
                    let tail = block.next_entry(pos, &mut self.key, Record::decode_tail)?;
                    // Only the first block holds keys below the prefix.
                    if self.key.as_slice() < self.prefix {
                        continue;
                    }
                    if !self.key.starts_with(self.prefix) {
                        return Ok(None);
                    }
                    return Ok(Some(tail.to_record(Bytes::copy_from_slice(&self.key))));
                }
            }
            // The block is spent: let it go before reading the next.
            self.block = None;
            let index = self.reader.index_block()?;
            if self.next_block >= index.n_restarts() {
                return Ok(None);
            }
            let (_, mut pos) = index.restart_key(self.next_block)?;
            let handle = decode_handle(index.entries, &mut pos)?;
            let (block, io) = self.reader.read_block(handle, self.fill)?;
            self.io.absorb(io);
            self.next_block += 1;
            // A block's first entry shares nothing with the last block's.
            self.key.clear();
            self.block = Some((block, 0));
        }
    }
}

impl Iterator for SstCursor<'_> {
    type Item = Result<Record>;

    /// The next record; after the last one, a key past the prefix or an
    /// error, `None` for good.
    fn next(&mut self) -> Option<Result<Record>> {
        let step = self.step().transpose();
        if !matches!(step, Some(Ok(_))) {
            (self.block, self.next_block) = (None, usize::MAX);
        }
        step
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
    fn a_huge_block_read_is_not_kept_in_the_thread_buffer() {
        let path = temp_path("huge-block");
        let mut w = SstWriter::create(&path, 2, 10, 1).unwrap();
        w.add(&Record::put("a", "small", 1, None)).unwrap();
        // Noise, so the block is stored raw at its full size.
        let mut x = 1u64;
        let big: Vec<u8> = (0..2 * lz::KEPT_STORED_BYTES)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        w.add(&Record::put("b", big.clone(), 2, None)).unwrap();
        w.finish().unwrap();
        let r = SstReader::open(&path).unwrap();
        assert_eq!(r.get(b"b").unwrap().0.unwrap().value, &big[..]);
        assert_eq!(STORED.take().capacity(), 0, "a huge buffer was kept");
        assert_eq!(r.get(b"a").unwrap().0.unwrap().value, &b"small"[..]);
        assert!(
            STORED.take().capacity() > 0,
            "a block-sized buffer was freed"
        );
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    /// Every record the cursor yields for `prefix`, and the accesses it made.
    fn scan(r: &SstReader, prefix: &[u8], fill: bool) -> (Vec<Record>, BlockIo) {
        let mut cursor = r.cursor(prefix, fill).unwrap();
        let records = cursor.by_ref().collect::<Result<Vec<_>>>().unwrap();
        (records, cursor.io())
    }

    #[test]
    fn an_empty_prefix_walks_every_record_in_order() {
        let path = temp_path("scan");
        build_sst(&path, 300);
        let r = SstReader::open(&path).unwrap();
        let (records, io) = scan(&r, b"", false);
        assert_eq!(records.len(), 300);
        assert!(records.windows(2).all(|w| w[0].key < w[1].key));
        assert!(io.disk > 1, "one block held at a time, so several read");
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
        let (records, _) = scan(&r, b"b:", true);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|rec| rec.key.starts_with(b"b:")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_prefix_scan_reads_no_block_past_the_first_key_beyond_it() {
        // One record per block: the blocks read are the prefix's records,
        // plus the one holding the first key after them.
        let path = temp_path("prefix-stop");
        let mut w = SstWriter::create(&path, 100, 10, 1).unwrap();
        for i in 0..100u64 {
            w.add(&Record::put(format!("k{i:03}"), "v", i + 1, None))
                .unwrap();
        }
        w.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let r = SstReader::open_cached(&path, Some(Arc::clone(&cache))).unwrap();
        let (records, io) = scan(&r, b"k01", true);
        assert_eq!(records.len(), 10);
        assert_eq!(
            io,
            BlockIo {
                disk: 11,
                cached: 0
            }
        );
        // A prefix scan fills the cache; a compaction's walk fills nothing.
        let (_, io) = scan(&r, b"k01", true);
        assert_eq!(
            io,
            BlockIo {
                disk: 0,
                cached: 11
            }
        );
        let resident = cache.resident_bytes();
        let (records, io) = scan(&r, b"", false);
        assert_eq!((records.len(), io.disk, io.cached), (100, 89, 11));
        assert_eq!(cache.resident_bytes(), resident);
        // A prefix outside the file's range reads nothing; one between two
        // keys reads the block of the key after it, and no further.
        for prefix in [&b"a"[..], b"z"] {
            assert_eq!(scan(&r, prefix, true), (Vec::new(), BlockIo::default()));
        }
        assert_eq!(
            scan(&r, b"k0005", false),
            (Vec::new(), BlockIo { disk: 1, cached: 0 })
        );
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

    #[test]
    fn a_footer_that_does_not_describe_the_file_is_corruption() {
        // `props_len` sizes an allocation and `props_offset` a read: both are
        // checked against the file length first, so a damaged footer is
        // `Corruption`, not a 4 GiB buffer followed by `UnexpectedEof`.
        let path = temp_path("footer");
        build_sst(&path, 50);
        let good = std::fs::read(&path).unwrap();
        let footer = good.len() - FOOTER_LEN;
        let props_len = u32::from_le_bytes(good[footer + 8..footer + 12].try_into().unwrap());
        let damage = |at: usize, bytes: &[u8]| {
            let mut data = good.clone();
            data[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&path, &data).unwrap();
            match SstReader::open(&path) {
                Err(Error::Corruption(_)) => {}
                other => panic!("expected Corruption, got {other:?}"),
            }
        };
        for len in [u32::MAX, 0, props_len - 1] {
            damage(footer + 8, &len.to_le_bytes());
        }
        damage(footer, &(good.len() as u64 + 1).to_le_bytes());
        damage(footer, &u64::MAX.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }

    /// The index block of a two-block file, byte for byte: whole keys (restart
    /// interval 1), `varint offset | varint len` payloads, the restart array.
    #[test]
    fn index_block_matches_the_golden_bytes() {
        // Each block is 41 bytes of entries + one restart + the count = 49,
        // stored compressed in 34 bytes + the trailer = 0x23.
        const GOLDEN: &str = "0006616c706861320023\
                              00066265746132322323\
                              000000000a000000\
                              02000000";
        let path = temp_path("golden-index");
        let mut w = SstWriter::create(&path, 4, 10, 32).unwrap();
        for (i, key) in ["alpha1", "alpha2", "beta21", "beta22"].iter().enumerate() {
            let value = [b'v'; 12];
            w.add(&Record::put(*key, &value[..], i as u64 + 1, None))
                .unwrap();
        }
        w.finish().unwrap();
        let r = SstReader::open(&path).unwrap();
        let hex: String = r.props[r.index.clone()]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_block_is_compressed_only_when_that_saves_an_eighth() {
        // One record per file: 300 bytes of noise, then a run of `run`
        // bytes that compresses to almost nothing. The longer the run, the
        // more compressing the block saves; the rule flips within the sweep.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noise: Vec<u8> = (0..300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let path = temp_path("eighth");
        let mut seen = [false; 2];
        for run in (0..120).step_by(4) {
            let record = Record::put("k", [&noise[..], &vec![b'r'; run]].concat(), 1, None);
            let mut raw = BlockBuilder::new(RESTART_INTERVAL, 0);
            record.encode_tail(raw.add_key(&record.key));
            let raw = raw.finish().to_vec();
            let mut lz = Vec::new();
            lz::Compressor::default().compress(&raw, &mut lz);
            let expected = if lz.len() <= raw.len() - raw.len() / 8 {
                lz::STORED_LZ
            } else {
                lz::STORED_RAW
            };

            let mut w = SstWriter::create(&path, 1, 10, 4096).unwrap();
            w.add(&record).unwrap();
            w.finish().unwrap();
            let r = SstReader::open(&path).unwrap();
            let file = std::fs::read(&path).unwrap();
            assert_eq!(file[r.data_len as usize - 1], expected, "run {run}");
            seen[usize::from(expected)] = true;
            assert_eq!(r.get(b"k").unwrap().0, Some(record));
        }
        assert_eq!(seen, [true, true], "the sweep did not cross the eighth");
        std::fs::remove_file(&path).ok();
    }

    mod block {
        use super::super::*;
        use proptest::prelude::*;

        /// Key shapes that stress prefix compression: `a`/`aa`/`aaa` chains,
        /// keys differing only in the last byte, `0xff` runs, keys sharing
        /// more than 127 bytes (a two-byte `shared`), and short random ones
        /// (the empty key among them).
        fn key() -> impl Strategy<Value = Vec<u8>> {
            let random = prop::collection::vec(any::<u8>(), 0..6);
            (0u8..5, any::<u8>(), 0usize..24, 0u16..400, random).prop_map(
                |(shape, b, n, i, random)| match shape {
                    0 => vec![b'a'; n + 1],
                    1 => [&b"same-to-the-last-byte-"[..], &[b]].concat(),
                    2 => [vec![0xff; n % 5], vec![b]].concat(),
                    3 => [vec![b'L'; 150], i.to_be_bytes().to_vec()].concat(),
                    _ => random,
                },
            )
        }

        fn sorted_keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
            prop::collection::vec(key(), 1..80).prop_map(|mut keys| {
                keys.sort();
                keys.dedup();
                keys
            })
        }

        /// A block whose entry `i` carries the payload `varint i`.
        fn build(keys: &[Vec<u8>], restart_interval: usize) -> Vec<u8> {
            let mut b = BlockBuilder::new(restart_interval, 0);
            for (i, key) in keys.iter().enumerate() {
                put_varint(b.add_key(key), i as u64);
            }
            b.finish().to_vec()
        }

        /// Every stored key, its neighbours on both sides, and both ends.
        fn probes(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
            let mut out = vec![Vec::new(), vec![0xff; 160]];
            for key in keys {
                out.push(key.clone());
                out.push([&key[..], &[0]].concat());
                out.push(key[..key.len().saturating_sub(1)].to_vec());
                if let Some((&last, head)) = key.split_last() {
                    out.push([head, &[last.wrapping_sub(1), 0xff]].concat());
                    out.push([head, &[last.wrapping_add(1)]].concat());
                }
            }
            out
        }

        proptest! {
            #[test]
            fn seek_and_next_entry_match_a_sorted_vec(keys in sorted_keys()) {
                for interval in [1, 2, 3, RESTART_INTERVAL] {
                    let bytes = build(&keys, interval);
                    let block = Block::parse(&bytes).unwrap();
                    prop_assert_eq!(block.n_restarts(), keys.len().div_ceil(interval));
                    for probe in probes(&keys) {
                        let first = keys.partition_point(|k| k < &probe);
                        let expected = keys.get(first).map(|k| (first as u64, *k == probe));
                        let found = block.seek(&probe, get_varint).unwrap();
                        prop_assert_eq!(found, expected, "interval {} probe {:?}", interval, probe);
                    }
                    for from in 0..block.n_restarts() {
                        let (mut pos, mut key, mut seen) = (block.restart(from).unwrap(), Vec::new(), Vec::new());
                        while pos < block.entries.len() {
                            let i = block.next_entry(&mut pos, &mut key, get_varint).unwrap();
                            seen.push((key.clone(), i));
                        }
                        let expected: Vec<_> = (from * interval..keys.len())
                            .map(|i| (keys[i].clone(), i as u64))
                            .collect();
                        prop_assert_eq!(seen, expected);
                    }
                }
            }
        }

        /// Run every decoder over `bytes` as a block: the results do not
        /// matter, only that each is a `Result` and not a panic.
        fn exercise(bytes: &[u8], probes: &[Vec<u8>]) {
            let Ok(block) = Block::parse(bytes) else {
                return;
            };
            for probe in probes {
                let _ = block.seek(probe, Record::decode_tail);
                let _ = block.seek(probe, decode_handle);
                let _ = block.search_restarts(probe);
            }
            // Walk from each restart point until the end or an error.
            let mut key = Vec::new();
            for from in 0..block.n_restarts().min(4) {
                for payload in [
                    |b: &[u8], pos: &mut usize| Record::decode_tail(b, pos).map(drop),
                    |b: &[u8], pos: &mut usize| decode_handle(b, pos).map(drop),
                ] {
                    let mut pos = block.restart(from).unwrap_or(usize::MAX);
                    while pos < block.entries.len()
                        && block.next_entry(&mut pos, &mut key, payload).is_ok()
                    {
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic_a_decoder(
                bytes in prop::collection::vec(any::<u8>(), 0..200),
                restarts in prop::collection::vec(0u32..64, 0..6),
                probe in key(),
            ) {
                exercise(&bytes, std::slice::from_ref(&probe));
                // The same bytes under a trailer that parses, so the entry
                // decoders are reached rather than turned away at the door.
                let mut framed = bytes.clone();
                for r in &restarts {
                    put_u32(&mut framed, *r);
                }
                put_u32(&mut framed, restarts.len() as u32);
                exercise(&framed, &[probe]);
            }

            #[test]
            fn one_damaged_byte_never_panics_a_decoder(
                keys in sorted_keys(),
                at in any::<u32>(),
                byte in any::<u8>(),
            ) {
                let mut b = BlockBuilder::new(RESTART_INTERVAL, 0);
                for (i, key) in keys.iter().enumerate() {
                    let expires = i.is_multiple_of(3).then_some(1 << 40);
                    Record::put(key.clone(), &b"value"[..], i as u64 * 1000, expires)
                        .encode_tail(b.add_key(key));
                }
                let mut bytes = b.finish().to_vec();
                let at = at as usize % bytes.len();
                bytes[at] = byte;
                exercise(&bytes, &probes(&keys));
            }
        }
    }
}
