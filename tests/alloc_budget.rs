//! The request path's allocation budget, counted — not reviewed.
//!
//! One test, alone in its binary so nothing else allocates while it counts:
//! a counting `#[global_allocator]` brackets ≥ 10 000 pipelined commands on
//! one connection to a real [`RespServer`] and asserts what the server may
//! allocate per command, amortised:
//!
//! | command | budget | what the allocations are |
//! |---|---|---|
//! | `GET` served from the memtable | 0 | — |
//! | `GET` served from a cached row | 0 | — |
//! | `GET` served from an SST block | ≤ 1 | the value copied out of the block |
//! | `SET` | ≤ 2 | the record's key and value, which the memtable keeps |
//!
//! A failure means something between `read(2)` and `write(2)` went back to
//! the heap per request: an owned argument, a formatted key or header, a
//! collected iterator. The client half pre-builds its request bytes and reads
//! into a pre-sized buffer, so it adds nothing inside the counted window.
//! See TESTING.md §"Event-loop front end".

use abase::core::{RespServer, TableEngine};
use abase::lavastore::DbConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every `alloc`/`realloc` the process makes, on any thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (that is, from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (that is, from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counted commands per window, sent as pipelined chunks.
const N: u64 = 12_000;
/// Commands per chunk: small replies, and replies of a few KiB each (a
/// chunk's replies stay under the reply buffer's keep-size, so the buffer is
/// grown once, not once per chunk).
const CHUNK: usize = 1_000;
const LARGE_CHUNK: usize = 40;
/// Allocations a window may make that no command owns: buffers growing to
/// the chunk's size.
const SLACK: u64 = 64;

fn cmd(parts: &[&[u8]]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", parts.len()).into_bytes();
    for p in parts {
        out.extend_from_slice(format!("${}\r\n", p.len()).as_bytes());
        out.extend_from_slice(p);
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// One pipelined chunk and the exact bytes the server must answer it with.
struct Chunk {
    request: Vec<u8>,
    expected: Vec<u8>,
    received: Vec<u8>,
}

impl Chunk {
    fn new(commands: impl Iterator<Item = (Vec<u8>, Vec<u8>)>) -> Self {
        let (mut request, mut expected) = (Vec::new(), Vec::new());
        for (req, reply) in commands {
            request.extend_from_slice(&req);
            expected.extend_from_slice(&reply);
        }
        let received = vec![0u8; expected.len()];
        Chunk {
            request,
            expected,
            received,
        }
    }

    /// Send the chunk and read its replies; allocates nothing.
    fn run(&mut self, stream: &mut TcpStream) {
        stream.write_all(&self.request).unwrap();
        stream.read_exact(&mut self.received).unwrap();
        assert!(self.received == self.expected, "a reply differs");
    }
}

/// Allocations the whole process makes while `chunk`, which holds
/// `commands` of them, runs until `N` commands are served (after one
/// uncounted warm-up pass).
fn counted(stream: &mut TcpStream, chunk: &mut Chunk, commands: usize) -> u64 {
    chunk.run(stream);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..N as usize / commands {
        chunk.run(stream);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn bulk(value: &[u8]) -> Vec<u8> {
    let mut out = format!("${}\r\n", value.len()).into_bytes();
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
    out
}

#[test]
fn the_request_path_stays_inside_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("abase-alloc-budget-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // The shipped defaults: a memtable the test's few keys never fill (no
    // flush inside a window) and a cache that holds every block and row.
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::default()).unwrap());
    let server = RespServer::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .io_threads(1);
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    Chunk::new(std::iter::once((
        cmd(&[b"AUTH", b"7"]),
        b"+OK\r\n".to_vec(),
    )))
    .run(&mut stream);

    // Small records share SST blocks; a large one has a block to itself.
    let small: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
        .map(|i| {
            (
                format!("user{i:08}").into_bytes(),
                vec![b'a' + (i % 26) as u8; 100],
            )
        })
        .collect();
    let large: Vec<(Vec<u8>, Vec<u8>)> = (0..16)
        .map(|i| {
            (
                format!("blob{i:08}").into_bytes(),
                vec![b'A' + i as u8; 5000],
            )
        })
        .collect();
    let sets = |records: &[(Vec<u8>, Vec<u8>)], commands: usize| {
        let n = records.len();
        let records = records.to_vec();
        Chunk::new((0..commands).map(move |i| {
            let (key, value) = &records[i % n];
            (cmd(&[b"SET", key, value]), b"+OK\r\n".to_vec())
        }))
    };
    let gets = |records: &[(Vec<u8>, Vec<u8>)], commands: usize| {
        let n = records.len();
        let records = records.to_vec();
        Chunk::new((0..commands).map(move |i| {
            let (key, value) = &records[i % n];
            (cmd(&[b"get", key]), bulk(value))
        }))
    };

    // SET: the record's key and value, nothing else.
    let set_allocs = counted(&mut stream, &mut sets(&small, CHUNK), CHUNK);
    assert!(
        set_allocs <= 2 * N + SLACK,
        "{set_allocs} allocations for {N} SETs (budget 2 each)"
    );
    assert!(set_allocs >= N, "SETs did not reach the store");

    // GET from the memtable: the value is a shared handle on the record's.
    let memtable_allocs = counted(&mut stream, &mut gets(&small, CHUNK), CHUNK);
    assert!(
        memtable_allocs <= SLACK,
        "{memtable_allocs} allocations for {N} memtable GETs (budget 0 each)"
    );

    // GET from an SST block: one copy of the value out of the block. The
    // first read of a block is a disk read, which admits that one key as a
    // row; its neighbours are served from the cached block ever after.
    sets(&large, large.len()).run(&mut stream);
    engine.db().flush().unwrap();
    let block_allocs = counted(&mut stream, &mut gets(&small, CHUNK), CHUNK);
    assert!(
        block_allocs <= N + SLACK,
        "{block_allocs} allocations for {N} SST-block GETs (budget 1 each)"
    );
    assert!(
        block_allocs >= N / 2,
        "{block_allocs} allocations: the GETs were not served from SST blocks"
    );

    // GET from a cached row: every large record was its block's disk read.
    let row_allocs = counted(&mut stream, &mut gets(&large, LARGE_CHUNK), LARGE_CHUNK);
    assert!(
        row_allocs <= SLACK,
        "{row_allocs} allocations for {N} cached-row GETs (budget 0 each)"
    );

    println!(
        "allocations per {N}: SET {set_allocs}, memtable GET {memtable_allocs}, \
         SST-block GET {block_allocs}, cached-row GET {row_allocs}"
    );
    shutdown.shutdown();
    serving.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
