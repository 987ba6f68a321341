//! Ranked lock wrappers: a runtime lock-ordering (deadlock) checker.
//!
//! Every long-lived lock in the workspace is wrapped in a [`RankedMutex`] or
//! [`RankedRwLock`] carrying a declared [`Rank`]. Ranks form a total order
//! over the *acquisition* order the codebase promises: a thread may only
//! acquire a lock whose rank is **strictly greater** than the highest rank it
//! already holds (reads may also re-acquire at the *same* rank, so e.g.
//! `Db::scan_prefix` can hold every stripe's read lock at once). Any
//! acquisition that violates the declared partial order panics immediately
//! with the full held-lock stack and the acquiring call site — turning the
//! entire test suite plus the chaos harness into a deadlock detector that
//! fires on the *first* inversion, not on the unlucky interleaving.
//!
//! The checker runs under `cfg(debug_assertions)` (every `cargo test`) or the
//! `lock-order-check` feature (release CI); otherwise acquisition is a plain
//! lock with zero bookkeeping.
//!
//! # The rank table
//!
//! Declared in [`rank`], lowest (outermost) first. A lock's rank documents
//! where it sits in the layered acquisition order that previously lived only
//! in comments:
//!
//! | rank | lock | layer |
//! |------|------|-------|
//! | 100  | [`rank::EVENT_WAKERS`] | event-loop shutdown waker registry |
//! | 110  | [`rank::EVENT_INJECT`] | event-loop per-worker connection mailbox |
//! | 120  | [`rank::EVENT_OFFLOADED`] | sockets of connections on offload threads |
//! | 200  | [`rank::REPLICA_GROUP`] | `ReplicaGroup` (held across shallow follower pumps, never across a checkpoint copy) |
//! | 250  | [`rank::ENGINE_DB`] | `TableEngine`'s swappable `Arc<Db>` handle |
//! | 290  | [`rank::LAVASTORE_FLUSH`] | per-stripe serializer of flushes and compaction rounds (held from start through install, across the SST build) |
//! | 300  | [`rank::LAVASTORE_STRIPE`] | per-stripe memtable + LSM view |
//! | 310  | [`rank::LAVASTORE_SHARED`] | cross-stripe manifest / WAL bookkeeping |
//! | 320  | [`rank::WAL_STATE`] | group-commit WAL buffer + LSN allocator |
//! | 330  | [`rank::APPLY_PENDING`] | out-of-order apply-tracker park heap |
//! | 400  | [`rank::CACHE_SHARD`] | block-cache SA-LRU shard |
//! | 450  | [`rank::CORE_PIPELINE`] | request-pipeline partitions (quota + RU estimator) |
//! | 500  | [`rank::OBS_FAMILY`] | labelled-metric member interning |
//! | 510  | [`rank::OBS_REGISTRY`] | global metric registration map |
//! | 520  | [`rank::OBS_SLOWLOG`] | slowlog ring |
//! | 600  | [`rank::FAILPOINT_RULES`] | fail-point rule table |
//! | 610  | [`rank::FAILPOINT_FIRED`] | fail-point fired counters |
//!
//! Innermost (highest) ranks belong to locks that may be taken from *any*
//! layer — metrics registration and fail-point checks happen while stripe,
//! shared, and WAL locks are held, so they must outrank all of them.

use parking_lot as pl;
use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Whether acquisitions are checked in this build. `debug_assertions` covers
/// every `cargo test`; the `lock-order-check` feature arms release builds
/// (the CI `lock-order` job and chaos sweeps).
const CHECK_ENABLED: bool = cfg!(any(debug_assertions, feature = "lock-order-check"));

/// A lock's position in the global acquisition order. Lower ranks are
/// outermost: a thread holding rank *r* may only block on ranks `> r`
/// (or re-acquire `== r` for shared reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank {
    value: u16,
    name: &'static str,
}

impl Rank {
    /// Declare a rank. Prefer the constants in [`rank`]; new subsystems add
    /// a constant there (and a row to the table above) rather than inventing
    /// ad-hoc values at call sites.
    pub const fn new(value: u16, name: &'static str) -> Self {
        Self { value, name }
    }

    /// Numeric position in the order.
    pub const fn value(self) -> u16 {
        self.value
    }

    /// Human-readable lock-class name, used in violation reports.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// The workspace rank table (see the module docs for the layer map).
pub mod rank {
    use super::Rank;

    /// Event-loop shutdown waker registry (`Shutdown::wakers`).
    pub const EVENT_WAKERS: Rank = Rank::new(100, "event_loop.wakers");
    /// Event-loop per-worker cross-thread connection mailbox.
    pub const EVENT_INJECT: Rank = Rank::new(110, "event_loop.inject");
    /// Sockets of the connections offload threads hold (`Shutdown::offloaded`).
    pub const EVENT_OFFLOADED: Rank = Rank::new(120, "event_loop.offloaded");
    /// `ReplicaGroup`: held while shallow-pumping followers into their
    /// stores, so it must sit outside every storage-engine lock; never held
    /// across a checkpoint copy (`Binlog::fetch_checkpoint` checks).
    pub const REPLICA_GROUP: Rank = Rank::new(200, "replication.group");
    /// `TableEngine`'s swappable `Arc<Db>` handle.
    pub const ENGINE_DB: Rank = Rank::new(250, "core.engine_db");
    /// Serializes one lavastore stripe's flushes and compaction rounds: held
    /// from a flush's freeze or a round's pick through the install, so it
    /// sits outside the stripe lock they take to freeze, to pick and to
    /// publish, and outside `shared`.
    pub const LAVASTORE_FLUSH: Rank = Rank::new(290, "lavastore.flush");
    /// One lavastore stripe (memtable + levels + readers).
    pub const LAVASTORE_STRIPE: Rank = Rank::new(300, "lavastore.stripe");
    /// Lavastore cross-stripe manifest / rotated-segment bookkeeping
    /// (acquired under the flush lock by flushes and compaction rounds,
    /// never under a stripe lock).
    pub const LAVASTORE_SHARED: Rank = Rank::new(310, "lavastore.shared");
    /// Group-commit WAL state (acquired under `shared` on rotate/cursor).
    pub const WAL_STATE: Rank = Rank::new(320, "lavastore.wal");
    /// `ApplyTracker`'s out-of-order park heap.
    pub const APPLY_PENDING: Rank = Rank::new(330, "lavastore.apply_pending");
    /// A block-cache SA-LRU shard (acquired under stripe locks on reads).
    pub const CACHE_SHARD: Rank = Rank::new(400, "cache.shard");
    /// A node's request-pipeline partitions (quotas and RU estimators): a
    /// leaf, taken around admission and settling with nothing under it.
    pub const CORE_PIPELINE: Rank = Rank::new(450, "core.pipeline");
    /// Labelled-metric family member interning.
    pub const OBS_FAMILY: Rank = Rank::new(500, "obs.family");
    /// The global metric registration map (first touch of a lazy metric can
    /// happen under any storage lock, so this outranks all of them).
    pub const OBS_REGISTRY: Rank = Rank::new(510, "obs.registry");
    /// The slowlog ring.
    pub const OBS_SLOWLOG: Rank = Rank::new(520, "obs.slowlog");
    /// Fail-point rule table (consulted under the WAL lock, among others).
    pub const FAILPOINT_RULES: Rank = Rank::new(600, "failpoint.rules");
    /// Fail-point fired counters.
    pub const FAILPOINT_FIRED: Rank = Rank::new(610, "failpoint.fired");
}

/// How an acquisition interacts with same-rank holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Mutex lock or RwLock write: must be strictly above everything held.
    Exclusive,
    /// RwLock read: may also sit *at* the top-held rank when that holder is
    /// itself a read (index-ordered multi-stripe read sweeps).
    Shared,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Exclusive => "exclusive",
            Mode::Shared => "read",
        }
    }
}

/// One entry on a thread's held-lock stack.
#[derive(Debug, Clone, Copy)]
struct Held {
    rank: Rank,
    mode: Mode,
    acquired_at: &'static Location<'static>,
    id: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

static NEXT_ACQ_ID: AtomicU64 = AtomicU64::new(1);

/// Names of the lock classes the current thread holds, outermost first.
/// Empty when checking is disabled. Intended for tests and diagnostics.
pub fn held_lock_names() -> Vec<&'static str> {
    if !CHECK_ENABLED {
        return Vec::new();
    }
    HELD.with(|held| held.borrow().iter().map(|h| h.rank.name).collect())
}

fn format_held(held: &[Held]) -> String {
    if held.is_empty() {
        return "  (nothing held)".to_string();
    }
    held.iter()
        .map(|h| {
            format!(
                "  {} (rank {}, {}) acquired at {}",
                h.rank.name,
                h.rank.value,
                h.mode.label(),
                h.acquired_at
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Record (and order-check) an acquisition. Returns a token to pass to
/// [`release`], or `None` when checking is disabled or `enforce` is false
/// failed silently — `try_*` acquisitions are recorded but never rejected
/// (a non-blocking probe cannot participate in a deadlock cycle).
#[track_caller]
fn acquire(rank: Rank, mode: Mode, enforce: bool) -> Option<u64> {
    if !CHECK_ENABLED {
        return None;
    }
    let caller = Location::caller();
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(top) = held.last() {
            let ok = rank.value > top.rank.value
                || (rank.value == top.rank.value
                    && mode == Mode::Shared
                    && top.mode == Mode::Shared);
            if !ok && enforce {
                let stacks = format_held(&held);
                // The held stack must unwind before the panic propagates, or
                // every guard drop during unwinding would hit a stale stack.
                drop(held);
                panic!(
                    "lock-order violation: acquiring {} (rank {}, {}) at {} \
                     while holding (outermost first):\n{}\n\
                     acquisition stack:\n{}",
                    rank.name,
                    rank.value,
                    mode.label(),
                    caller,
                    stacks,
                    std::backtrace::Backtrace::force_capture()
                );
            }
        }
        let id = NEXT_ACQ_ID.fetch_add(1, Ordering::Relaxed);
        held.push(Held {
            rank,
            mode,
            acquired_at: caller,
            id,
        });
        Some(id)
    })
}

/// Pop an acquisition off the held stack. Guards may drop out of creation
/// order, so the entry is located by token, scanning from the innermost end.
fn release(token: Option<u64>) {
    let Some(id) = token else { return };
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|h| h.id == id) {
            held.remove(pos);
        }
    });
}

// ---------------------------------------------------------------------------
// RankedMutex
// ---------------------------------------------------------------------------

/// A mutex with a declared position in the global lock order.
#[derive(Debug)]
pub struct RankedMutex<T: ?Sized> {
    rank: Rank,
    inner: pl::Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Create a mutex at `rank` (use a constant from [`rank`]).
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: pl::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RankedMutex<T> {
    /// The declared rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquire, blocking. Panics (when checking is armed) if the calling
    /// thread already holds a lock at this rank or above.
    #[track_caller]
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let token = acquire(self.rank, Mode::Exclusive, true);
        RankedMutexGuard {
            guard: self.inner.lock(),
            token,
        }
    }

    /// Non-blocking acquire. Recorded on the held stack but never rejected:
    /// a `try_lock` cannot block, so it cannot close a deadlock cycle.
    #[track_caller]
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        let token = acquire(self.rank, Mode::Exclusive, false);
        Some(RankedMutexGuard { guard, token })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Guard for [`RankedMutex`]; releases the lock-order entry on drop.
pub struct RankedMutexGuard<'a, T: ?Sized> {
    guard: pl::MutexGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

// ---------------------------------------------------------------------------
// RankedRwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with a declared position in the global lock order.
/// Read acquisitions at the rank of an already-held *read* are permitted
/// (index-ordered multi-stripe sweeps); writes are always strictly ordered.
#[derive(Debug)]
pub struct RankedRwLock<T: ?Sized> {
    rank: Rank,
    inner: pl::RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Create a reader-writer lock at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: pl::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RankedRwLock<T> {
    /// The declared rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquire a shared read guard, blocking.
    #[track_caller]
    pub fn read(&self) -> RankedRwLockReadGuard<'_, T> {
        let token = acquire(self.rank, Mode::Shared, true);
        RankedRwLockReadGuard {
            guard: self.inner.read(),
            token,
        }
    }

    /// Acquire an exclusive write guard, blocking.
    #[track_caller]
    pub fn write(&self) -> RankedRwLockWriteGuard<'_, T> {
        let token = acquire(self.rank, Mode::Exclusive, true);
        RankedRwLockWriteGuard {
            guard: self.inner.write(),
            token,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Shared guard for [`RankedRwLock`].
pub struct RankedRwLockReadGuard<'a, T: ?Sized> {
    guard: pl::RwLockReadGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for RankedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// Exclusive guard for [`RankedRwLock`].
pub struct RankedRwLockWriteGuard<'a, T: ?Sized> {
    guard: pl::RwLockWriteGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for RankedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable compatible with [`RankedMutex`]. The waiter keeps its
/// rank-stack entry while parked: the thread is blocked the whole time, so it
/// can acquire nothing out of order, and on wake it holds the same lock at
/// the same position.
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: pl::Condvar,
}

impl RankedCondvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: pl::Condvar::new(),
        }
    }

    /// Block until notified, releasing (and on wake re-acquiring) the lock.
    pub fn wait<T>(&self, guard: &mut RankedMutexGuard<'_, T>) {
        self.inner.wait(&mut guard.guard);
    }

    /// Block until notified or `timeout` elapses; true if it timed out.
    pub fn wait_for<T>(&self, guard: &mut RankedMutexGuard<'_, T>, timeout: Duration) -> bool {
        self.inner.wait_for(&mut guard.guard, timeout)
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUTER: Rank = Rank::new(10, "test.outer");
    const INNER: Rank = Rank::new(20, "test.inner");

    fn catch<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> Option<String> {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let result = std::panic::catch_unwind(f);
        std::panic::set_hook(prev);
        result.err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    #[test]
    fn in_order_acquisition_is_silent_and_stack_unwinds() {
        let a = RankedMutex::new(OUTER, 1);
        let b = RankedMutex::new(INNER, 2);
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
            if CHECK_ENABLED {
                assert_eq!(held_lock_names(), vec!["test.outer", "test.inner"]);
            }
        }
        assert!(held_lock_names().is_empty(), "guards did not unwind");
        // Out-of-creation-order guard drops unwind by token, not position.
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        if CHECK_ENABLED {
            assert_eq!(held_lock_names(), vec!["test.inner"]);
        }
        drop(gb);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn inversion_panics_with_both_stacks() {
        let a = RankedMutex::new(OUTER, ());
        let b = RankedMutex::new(INNER, ());
        let msg = catch(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // B -> A inverts the declared A -> B order
        });
        if !CHECK_ENABLED {
            assert!(msg.is_none());
            return;
        }
        let msg = msg.expect("inversion must panic");
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.outer"), "{msg}");
        assert!(msg.contains("test.inner"), "{msg}");
        assert!(msg.contains("acquisition stack"), "{msg}");
        assert!(
            held_lock_names().is_empty(),
            "stack leaked across unwind: {:?}",
            held_lock_names()
        );
    }

    #[test]
    fn same_rank_reads_are_permitted_but_writes_are_not() {
        let stripes: Vec<RankedRwLock<u32>> = (0..4).map(|i| RankedRwLock::new(OUTER, i)).collect();
        // Index-ordered read sweep: every stripe held at once, same rank.
        let guards: Vec<_> = stripes.iter().map(|s| s.read()).collect();
        assert_eq!(guards.iter().map(|g| **g).sum::<u32>(), 6);
        drop(guards);
        // A write at a held rank is an inversion even between distinct locks.
        let msg = catch(|| {
            let _g0 = stripes[0].write();
            let _g1 = stripes[1].write();
        });
        if CHECK_ENABLED {
            assert!(msg.is_some(), "same-rank write pair must panic");
        }
        // A write above a held read is fine (read stripe -> write inner).
        let inner = RankedRwLock::new(INNER, 9);
        let _r = stripes[0].read();
        let _w = inner.write();
    }

    #[test]
    fn same_rank_read_after_exclusive_is_rejected() {
        let a = RankedMutex::new(OUTER, ());
        let b = RankedRwLock::new(OUTER, ());
        let msg = catch(|| {
            let _ga = a.lock();
            let _gb = b.read(); // read at the rank of a held *exclusive* lock
        });
        if CHECK_ENABLED {
            assert!(msg.is_some(), "read at held exclusive rank must panic");
        }
    }

    #[test]
    fn try_lock_is_recorded_but_never_rejected() {
        let a = RankedMutex::new(OUTER, ());
        let b = RankedMutex::new(INNER, ());
        let _gb = b.lock();
        // Out of order, but non-blocking: allowed by design.
        let ga = a.try_lock().expect("uncontended");
        if CHECK_ENABLED {
            assert_eq!(held_lock_names(), vec!["test.inner", "test.outer"]);
        }
        drop(ga);
    }

    #[test]
    fn condvar_roundtrip_preserves_rank_stack() {
        use std::sync::Arc;
        let pair = Arc::new((RankedMutex::new(OUTER, false), RankedCondvar::new()));
        let p2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut guard = m.lock();
        while !*guard {
            cv.wait(&mut guard);
        }
        if CHECK_ENABLED {
            assert_eq!(held_lock_names(), vec!["test.outer"]);
        }
        drop(guard);
        waker.join().unwrap();
        // Timed wait returns and keeps the guard usable.
        let mut guard = m.lock();
        let timed_out = cv.wait_for(&mut guard, Duration::from_millis(5));
        assert!(timed_out);
        assert!(*guard);
    }
}
