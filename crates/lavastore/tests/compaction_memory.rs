//! Compaction's heap high-water mark, measured — not reviewed.
//!
//! One test, alone in its binary so nothing else allocates while it
//! measures: a `#[global_allocator]` that tracks live and peak bytes
//! brackets one `compact_once` over four L0 files holding ≥ 8 MiB of values
//! that do not compress, with the block cache off. The merge reads its
//! inputs through one cursor each, which holds one data block, so the peak
//! may grow with `inputs × block_bytes` and with the output's index and
//! bloom filter, which its reader keeps — not with the input size. A failure
//! means a compaction went back to holding its inputs (or its output) whole.
//! See TESTING.md §"Compaction memory".

use abase_lavastore::compaction::CompactionConfig;
use abase_lavastore::{Db, DbConfig};
use abase_util::TestDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and the most there have been since the last reset.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Count `bytes` more live, if the allocation at `ptr` succeeded.
fn grew(ptr: *mut u8, bytes: usize) -> *mut u8 {
    if !ptr.is_null() {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        grew(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        grew(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (that is, from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        grew(new, new_size)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const INPUTS: usize = 4;
const BLOCK_BYTES: usize = 4 << 10;
const VALUE_BYTES: usize = 1000;
/// Records per input file: 4 × 2 200 × 1 000 B = 8.8 MB of values.
const PER_INPUT: usize = 2_200;
/// The peak may reach this many times `inputs × block_bytes`: the block and
/// the one record each input's cursor holds, and the writer's buffers of
/// fixed size (64 KiB of file buffer, a 16 KiB compressor table, the block
/// being built and its stored form). Measured: about 7½ times.
const BLOCKS_FACTOR: usize = 8;
/// ... plus this many times the output's properties region (key range,
/// index block, bloom filter): the writer's index block, grown by doubling,
/// with its restart array; the region it encodes them into; and its bloom
/// filter. The reader's pinned copy comes after the writer is gone.
/// Measured: about 3 times.
const PROPS_FACTOR: usize = 4;

/// `len` bytes that do not compress, different for every `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// Bytes of the properties region (key range, index block, bloom filter) of
/// every SST in `dir`: the footer's `props_len`.
fn props_bytes(dir: &std::path::Path) -> Vec<usize> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "sst"))
        .map(|p| {
            let file = std::fs::read(p).unwrap();
            let footer = &file[file.len() - 20..];
            u32::from_le_bytes(footer[8..12].try_into().unwrap()) as usize
        })
        .collect()
}

#[test]
fn compaction_heap_grows_with_blocks_not_with_input() {
    let dir = TestDir::new("compaction-memory");
    let config = DbConfig {
        n_stripes: 1,
        block_cache_bytes: 0,
        block_bytes: BLOCK_BYTES,
        // Each input is one explicit flush, and the merge one output.
        memtable_bytes: 64 << 20,
        target_sst_bytes: 64 << 20,
        compaction: CompactionConfig {
            l0_trigger: INPUTS,
            ..CompactionConfig::default()
        },
        ..DbConfig::default()
    };
    let db = Db::open(dir.path(), config).unwrap();
    // Keys interleave across the inputs, so the merge draws on all of them
    // all the way through.
    for input in 0..INPUTS {
        for i in 0..PER_INPUT {
            let key = format!("key-{i:06}-{input}");
            let value = noise((input * PER_INPUT + i) as u64, VALUE_BYTES);
            db.put(key.as_bytes(), &value, None, 0).unwrap();
        }
        db.flush().unwrap();
    }
    let input_bytes = db.stats().sst_bytes_written;
    assert!(input_bytes >= 8 << 20, "inputs hold {input_bytes} B");

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    assert!(db.compact_once(0).unwrap(), "no compaction ran");
    let peak = PEAK.load(Ordering::Relaxed) - base;

    let props = props_bytes(dir.path());
    assert_eq!(props.len(), 1, "expected one output file");
    let blocks = INPUTS * BLOCK_BYTES;
    let bound = BLOCKS_FACTOR * blocks + PROPS_FACTOR * props[0];
    println!(
        "compacting {input_bytes} B over {INPUTS} inputs: heap peak +{peak} B; \
         bound {BLOCKS_FACTOR} × {blocks} B + {PROPS_FACTOR} × {} B of properties = {bound} B",
        props[0]
    );
    assert!(
        peak <= bound,
        "compaction's heap peak grew by {peak} B, over the bound of {bound} B"
    );
    for i in (0..PER_INPUT).step_by(97) {
        let key = format!("key-{i:06}-{}", i % INPUTS);
        let value = noise(((i % INPUTS) * PER_INPUT + i) as u64, VALUE_BYTES);
        assert_eq!(
            db.get(key.as_bytes(), 0).unwrap().value.as_deref(),
            Some(&value[..])
        );
    }
}
