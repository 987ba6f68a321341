//! Multi-writer durable-write throughput: striped engine vs single-lock
//! baseline.
//!
//! N writer threads issue durable puts (`sync_wal: true`) against
//! `lavastore::Db`. Two arms:
//!
//! - **striped** — the current engine: keys hash across stripes, concurrent
//!   writers append frames into the shared group-commit buffer, and one
//!   fsync covers every writer waiting in the batch. While the sync leader
//!   blocks in `sync_data`, the other writer threads keep appending, so
//!   durable throughput scales with writers even on a single core.
//! - **single-lock** — the seed engine's discipline: one stripe and a global
//!   write lock held across the entire put (WAL append + fsync + memtable
//!   apply), the way the old `RwLock<Inner>` serialized every write. Only
//!   one writer can ever be inside the engine, so every put pays a private
//!   fsync and throughput stays flat no matter how many writers pile up.
//!
//! A full run writes `BENCH_write.json` at the repo root; a smoke run shrinks
//! the op counts. Every run checks the facts `check` names.

use crate::{banner, publish};
use abase_lavastore::{Db, DbConfig};
use abase_util::TestDir;
use std::sync::Arc;
use std::time::Instant;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const VALUE_BYTES: usize = 256;
/// Every put is durable: the bench measures group commit, not buffering.
const SYNC_WAL: bool = true;

/// Every thread count ran, in order; both arms made progress; and the WAL
/// was synced on every put. A row is (threads, striped ops/s, single-lock
/// ops/s).
fn check(rows: &[(usize, f64, f64)], sync_wal: bool) -> Result<(), String> {
    ensure!(sync_wal, "the bench measured writes without sync_wal");
    let threads: Vec<usize> = rows.iter().map(|r| r.0).collect();
    ensure!(
        threads == THREAD_COUNTS,
        "thread counts {threads:?}, not {THREAD_COUNTS:?}"
    );
    for r in rows {
        // Both positive, so the speedup is too.
        ensure!(r.1 > 0.0 && r.2 > 0.0, "an arm stalled: {r:?}");
    }
    Ok(())
}

/// Run both arms at every writer count, check, and publish.
pub fn run(smoke: bool) -> Result<(), String> {
    let (ops, trials) = if smoke { (800, 1) } else { (24_000, 3) };
    banner(
        "WRITE",
        "Durable write throughput: striped group commit vs single lock",
        "one fsync covers the whole writer batch; striping wins at >= 4 writers",
    );

    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        // Arms alternate per trial and the best trial wins per arm: peak
        // throughput is the least noise-contaminated estimate on a shared
        // machine.
        let mut striped = 0f64;
        let mut single = 0f64;
        for _ in 0..trials {
            striped = striped.max(measure(threads, ops, 8, false, "striped"));
            single = single.max(measure(threads, ops, 1, true, "single"));
        }
        println!(
            "{threads} writer(s): striped {striped:>9.0} ops/s  single-lock {single:>9.0} ops/s  speedup {:.2}x",
            striped / single
        );
        rows.push((threads, striped, single));
    }
    check(&rows, SYNC_WAL)?;

    let results = rows
        .iter()
        .map(|(threads, striped, single)| {
            format!(
                "    {{\"threads\": {threads}, \"striped_ops_per_sec\": {striped:.1}, \
                 \"single_lock_ops_per_sec\": {single:.1}, \"speedup\": {:.3}}}",
                striped / single
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"write_throughput\",\n  \"smoke\": {smoke},\n  \
         \"ops_per_config\": {ops},\n  \"value_bytes\": {VALUE_BYTES},\n  \
         \"sync_wal\": {SYNC_WAL},\n  \"results\": [\n{results}\n  ]\n}}\n"
    );
    publish("write", &json, smoke)
}

/// `threads` writers split `ops` durable puts over disjoint key ranges;
/// returns ops/s. With `global_lock` every put runs under one process-wide
/// write lock, reproducing the seed engine's `RwLock<Inner>` serialization.
fn measure(threads: usize, ops: usize, n_stripes: u32, global_lock: bool, tag: &str) -> f64 {
    let dir = TestDir::new(&format!("write-bench-{tag}-{threads}"));
    let config = DbConfig {
        n_stripes,
        sync_wal: SYNC_WAL,
        ..DbConfig::default()
    };
    let db = Arc::new(Db::open(dir.path(), config).unwrap());
    let engine_lock = parking_lot::Mutex::new(());
    let value = vec![b'v'; VALUE_BYTES];
    let per = ops / threads;
    // Warmup outside the timed window (directory creation, first WAL frame).
    db.put(b"warmup", &value, None, 0).unwrap();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            let value = &value;
            let engine_lock = &engine_lock;
            scope.spawn(move || {
                for i in 0..per {
                    let key = format!("w{t:02}-{i:08}");
                    let guard = global_lock.then(|| engine_lock.lock());
                    db.put(key.as_bytes(), value, None, 0).unwrap();
                    drop(guard);
                }
            });
        }
    });
    (per * threads) as f64 / started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        crate::refuses_each(
            (THREAD_COUNTS.map(|threads| (threads, 2.0, 1.0)).to_vec(), true),
            |(rows, sync_wal)| check(rows, *sync_wal),
            &[
                |(_, sync_wal)| *sync_wal = false,
                |(rows, _)| rows.truncate(2),
                |(rows, _)| rows.swap(0, 1),
                |(rows, _)| rows[1].1 = 0.0,
                |(rows, _)| rows[2].2 = 0.0,
            ],
        );
    }
}
