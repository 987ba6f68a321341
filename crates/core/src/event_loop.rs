//! The event-driven front end: epoll accept loop + worker pool.
//!
//! A [`RespServer`](crate::server::RespServer) serves every client
//! connection from a **small, fixed pool of event-loop workers**: the accept
//! loop shards fresh sockets round-robin across workers, each worker drives
//! its connections' state machines ([`Conn`](crate::conn::Conn)) off one
//! [`Poller`], and an idle connection costs one registered fd — not an OS
//! thread and its stack. 10k mostly-idle clients are served by `workers + 1`
//! threads.
//!
//! Parking commands leave the loop instead of stalling it: a replicated
//! write, fenced `WAIT` or `PSYNC` moves its connection to a short-lived
//! offload thread for the rest of the batch (commands stay in wire order —
//! the connection is off the poller while offloaded). The connection then
//! returns to its worker, except after `PSYNC`, whose offload thread serves
//! the socket as a replica stream until it ends. `serve_replica_stream` and
//! follow-mode pumps keep their dedicated threads: they are few and
//! throughput-bound.
//!
//! Shutdown is deterministic: [`ShutdownHandle::shutdown`] flips the flag,
//! writes every poller's eventfd waker and severs the sockets out on offload
//! threads, so the accept loop and all workers return promptly even if no
//! connection ever arrives again, and so do the offload threads — replica
//! streams included — which `RespServer::run` waits out before it returns.

use crate::conn::{Conn, ConnGuard, Step};
use crate::metrics;
use crate::server::ConnCtx;
use abase_util::lockrank::{rank, RankedCondvar, RankedMutex};
use abase_util::poller::{Events, Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-end sizing and guardrails.
#[derive(Debug, Clone)]
pub(crate) struct FrontEndConfig {
    /// Event-loop worker count (clamped to 1..=16).
    pub(crate) workers: usize,
    /// Connection cap: accepts beyond it are refused with
    /// `-ERR max number of clients reached` (Redis semantics).
    pub(crate) max_clients: usize,
    /// Close connections idle longer than this (`None` disables the
    /// reaper). Each worker sweeps its connections every `timeout / 32`,
    /// floored at 1 ms.
    pub(crate) idle_timeout: Option<Duration>,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8),
            max_clients: 10_000,
            idle_timeout: None,
        }
    }
}

/// Interned per-worker metric labels (bounded cardinality: worker counts are
/// clamped to 16).
const WORKER_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

pub(crate) fn worker_label(i: usize) -> &'static str {
    WORKER_LABELS.get(i).copied().unwrap_or("overflow")
}

/// Shared shutdown signal: a flag, the eventfd wakers of every poller that
/// must notice it, and the sockets of the connections that are off the loop.
#[derive(Debug)]
pub(crate) struct Shutdown {
    flag: AtomicBool,
    wakers: RankedMutex<Vec<Arc<Waker>>>,
    /// A handle on the socket of every connection an offload thread holds,
    /// keyed by the handle's fd: `trigger` severs them, `run_front_end`
    /// waits until the table is empty.
    offloaded: RankedMutex<HashMap<u64, TcpStream>>,
    offload_done: RankedCondvar,
}

impl Default for Shutdown {
    fn default() -> Self {
        Shutdown {
            flag: AtomicBool::new(false),
            wakers: RankedMutex::new(rank::EVENT_WAKERS, Vec::new()),
            offloaded: RankedMutex::new(rank::EVENT_OFFLOADED, HashMap::new()),
            offload_done: RankedCondvar::new(),
        }
    }
}

/// An offload thread's entry in [`Shutdown`]'s socket table, removed when
/// the thread ends, however it ends.
struct Offloaded {
    shutdown: Arc<Shutdown>,
    key: u64,
}

impl Drop for Offloaded {
    fn drop(&mut self) {
        self.shutdown.offloaded.lock().remove(&self.key);
        self.shutdown.offload_done.notify_all();
    }
}

impl Shutdown {
    pub(crate) fn is_set(&self) -> bool {
        // ORDER: Acquire pairs with the Release store in `trigger`; a worker
        // that observes the flag also observes everything the shutdown
        // caller wrote before triggering.
        self.flag.load(Ordering::Acquire)
    }

    fn subscribe(&self, waker: Arc<Waker>) {
        self.wakers.lock().push(waker);
    }

    pub(crate) fn trigger(&self) {
        // ORDER: Release pairs with the Acquire load in `is_set`.
        self.flag.store(true, Ordering::Release);
        for waker in self.wakers.lock().iter() {
            waker.wake();
        }
        // A thread blocked on its socket (a replica stream, a reply to a
        // slow reader) sees it die and returns.
        for stream in self.offloaded.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Enter `stream`'s connection in the offloaded table, or refuse once
    /// shutdown began — the flag is read under the table's lock, so no entry
    /// can appear that `trigger` did not sever.
    fn offload(self: &Arc<Self>, stream: &TcpStream) -> Option<Offloaded> {
        let handle = stream.try_clone().ok()?;
        let key = handle.as_raw_fd() as u64;
        let mut offloaded = self.offloaded.lock();
        if self.is_set() {
            return None;
        }
        offloaded.insert(key, handle);
        Some(Offloaded {
            shutdown: Arc::clone(self),
            key,
        })
    }

    /// Block until every offload thread has ended. After `trigger` none can
    /// start, and those running end when their command does (a parked
    /// `WAIT` at its own timeout at the latest).
    fn wait_for_offloads(&self) {
        let mut offloaded = self.offloaded.lock();
        while !offloaded.is_empty() {
            self.offload_done.wait(&mut offloaded);
        }
    }
}

/// Stops a running [`RespServer`](crate::server::RespServer) deterministically:
/// the accept loop and every event-loop worker are woken through their
/// pollers' eventfds and joined — no "after the next connection attempt"
/// window — and offloaded connections are severed and waited out.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    pub(crate) inner: Arc<Shutdown>,
}

impl ShutdownHandle {
    /// Signal shutdown. `RespServer::run` returns once the accept loop and
    /// workers have exited (open connections are dropped).
    pub fn shutdown(&self) {
        self.inner.trigger();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.inner.is_set()
    }
}

/// One worker's cross-thread mailbox: the accept loop and offload threads
/// push connections here and wake the worker's poller.
pub(crate) struct WorkerShared {
    waker: Arc<Waker>,
    inject: RankedMutex<Vec<Conn>>,
}

impl WorkerShared {
    fn new() -> std::io::Result<Self> {
        Ok(WorkerShared {
            waker: Arc::new(Waker::new()?),
            inject: RankedMutex::new(rank::EVENT_INJECT, Vec::new()),
        })
    }

    fn send(&self, conn: Conn) {
        self.inject.lock().push(conn);
        self.waker.wake();
    }
}

const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_WAKER: u64 = u64::MAX;

/// Run the front end to completion (shutdown): the calling thread becomes
/// the accept loop, workers get their own threads.
pub(crate) fn run_front_end(
    listener: TcpListener,
    ctx: Arc<ConnCtx>,
    config: FrontEndConfig,
) -> std::io::Result<()> {
    let shutdown = &ctx.shutdown;
    let n_workers = ctx.io_threads;
    let mut workers = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let shared = Arc::new(WorkerShared::new()?);
        shutdown.subscribe(Arc::clone(&shared.waker));
        workers.push(shared);
    }
    let mut handles = Vec::with_capacity(n_workers);
    for (idx, shared) in workers.iter().enumerate() {
        let shared = Arc::clone(shared);
        let ctx = Arc::clone(&ctx);
        let all = workers.clone();
        let idle = config.idle_timeout;
        handles.push(
            std::thread::Builder::new()
                .name(format!("abase-io-{idx}"))
                .spawn(move || worker_loop(idx, shared, ctx, idle, all))
                // INVARIANT: spawn fails only on thread-resource exhaustion at
                // startup; the server cannot run without its worker pool.
                .expect("spawn event-loop worker"),
        );
    }
    let result = accept_loop(listener, &ctx, config, workers);
    // The accept loop exits only on shutdown or a fatal poll error; either
    // way the workers must come down with it.
    shutdown.trigger();
    for handle in handles {
        let _ = handle.join();
    }
    shutdown.wait_for_offloads();
    result
}

/// Accept connections until shutdown, sharding sockets round-robin across
/// the workers under the max-clients cap.
fn accept_loop(
    listener: TcpListener,
    ctx: &ConnCtx,
    config: FrontEndConfig,
    workers: Vec<Arc<WorkerShared>>,
) -> std::io::Result<()> {
    let shutdown = &ctx.shutdown;
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    shutdown.subscribe(Arc::clone(&waker));
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(waker.raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
    let mut events = Events::with_capacity(64);
    let mut next_worker = 0usize;
    while !shutdown.is_set() {
        poller.poll(&mut events, Some(Duration::from_millis(400)))?;
        if shutdown.is_set() {
            break;
        }
        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token {
                TOKEN_WAKER => waker.drain(),
                TOKEN_LISTENER => accept_ready = true,
                _ => {}
            }
        }
        if !accept_ready {
            continue;
        }
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE etc: back off instead of spinning on a
                // level-triggered listener that stays "readable".
                Err(_) => {
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            };
            // Request/reply traffic is small-frame; Nagle + delayed-ACK
            // would add tens of ms per exchange.
            stream.set_nodelay(true).ok();
            if ctx.stats.open.load(Ordering::Relaxed) >= config.max_clients as i64 {
                refuse_over_capacity(stream, ctx);
                continue;
            }
            let idx = next_worker;
            next_worker = (next_worker + 1) % workers.len();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let guard = ConnGuard::open(Arc::clone(&ctx.stats), worker_label(idx));
            workers[idx].send(Conn::new(stream, idx, guard));
        }
    }
    Ok(())
}

/// Refuse a connection over the max-clients cap, Redis-style.
fn refuse_over_capacity(mut stream: TcpStream, ctx: &ConnCtx) {
    ctx.stats.evicted.fetch_add(1, Ordering::Relaxed);
    metrics::CONN_EVICTED.inc("accept");
    let _ = stream.write_all(b"-ERR max number of clients reached\r\n");
}

/// One event-loop worker: drives its shard of connections off a single
/// poller until shutdown.
fn worker_loop(
    idx: usize,
    shared: Arc<WorkerShared>,
    ctx: Arc<ConnCtx>,
    idle_timeout: Option<Duration>,
    workers: Vec<Arc<WorkerShared>>,
) {
    let label = worker_label(idx);
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(shared.waker.raw_fd(), TOKEN_WAKER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // The idle reaper's `(timeout, sweep period)`.
    let reaper = idle_timeout.map(|t| (t, (t / 32).max(Duration::from_millis(1))));
    let mut next_sweep = Instant::now();
    let mut events = Events::with_capacity(1024);
    loop {
        let timeout = match reaper {
            Some(_) => next_sweep.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(400),
        };
        if poller.poll(&mut events, Some(timeout)).is_err() {
            break;
        }
        if ctx.shutdown.is_set() {
            break;
        }
        let mut woke = false;
        // epoll reports at most one event per fd per wait, so every token in
        // the batch is distinct and `remove` cannot race a duplicate.
        for ev in events.iter() {
            if ev.token == TOKEN_WAKER {
                woke = true;
                continue;
            }
            let Some(mut conn) = conns.remove(&ev.token) else {
                continue;
            };
            let step = conn.on_event(ev.readable, ev.writable, &ctx);
            settle(step, conn, &poller, &mut conns, &ctx, &workers);
        }
        if woke {
            shared.waker.drain();
            let fresh: Vec<Conn> = std::mem::take(&mut *shared.inject.lock());
            for mut conn in fresh {
                // A reinjected connection may already hold buffered work and
                // unread socket bytes: drive it once before (re-)registering
                // so nothing waits for a readiness edge that already passed.
                let step = conn.on_event(true, true, &ctx);
                settle(step, conn, &poller, &mut conns, &ctx, &workers);
            }
        }
        if let Some((timeout, every)) = reaper {
            let now = Instant::now();
            if now >= next_sweep {
                reap_idle(timeout, now, &mut conns, &poller, &ctx, label);
                next_sweep = now + every;
            }
        }
    }
    // Shutdown: deregister and drop every connection (guards decrement the
    // open-connection accounting).
    for (_, conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
}

/// Apply a state-machine [`Step`]: keep the connection registered with the
/// interest it now wants, close it, or move it off the loop.
fn settle(
    step: Step,
    mut conn: Conn,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    ctx: &Arc<ConnCtx>,
    workers: &[Arc<WorkerShared>],
) {
    let fd = conn.stream.as_raw_fd();
    let token = fd as u64;
    match step {
        Step::Continue => {
            let want = (conn.wants_read(), conn.wants_write());
            let interest = match want {
                (true, false) => Interest::READABLE,
                (false, true) => Interest::WRITABLE,
                _ => Interest::BOTH,
            };
            // Fresh/reinjected connections need ADD; ones just pulled out of
            // the map are still registered and need MOD only on change.
            let failed = if conn.registered {
                conn.installed_interest != want && poller.modify(fd, token, interest).is_err()
            } else {
                poller.register(fd, token, interest).is_err()
            };
            if failed {
                // Unservable without a registration; drop it.
                return;
            }
            conn.registered = true;
            conn.installed_interest = want;
            conns.insert(token, conn);
        }
        Step::Close => {
            if conn.registered {
                let _ = poller.deregister(fd);
            }
        }
        Step::Offload => {
            if conn.registered {
                let _ = poller.deregister(fd);
                conn.registered = false;
            }
            let Some(offloaded) = ctx.shutdown.offload(&conn.stream) else {
                return;
            };
            let ctx = Arc::clone(ctx);
            let home = Arc::clone(&workers[conn.worker]);
            let _ = std::thread::Builder::new()
                .name("abase-offload".into())
                .spawn(move || {
                    offload_batch(conn, ctx, home);
                    // Last: whoever waits on the table may take the store
                    // apart, so everything else this thread held is gone.
                    drop(offloaded);
                });
        }
    }
}

/// Finish a batch whose next command may park, off the event loop: run the
/// connection's drain routine to the end of the batch with the socket in
/// blocking mode, then hand the connection back to its worker. A `PSYNC`
/// in the batch ends with the connection closed, not handed back.
fn offload_batch(mut conn: Conn, ctx: Arc<ConnCtx>, home: Arc<WorkerShared>) {
    if conn.stream.set_nonblocking(false).is_err() {
        return;
    }
    if conn.drain(&ctx, true) == Step::Continue && conn.stream.set_nonblocking(true).is_ok() {
        home.send(conn);
    }
}

/// Close every connection silent for at least `timeout` as of `now`: one
/// pass over the worker's map, so the sweep's cost tracks open connections,
/// never request rate.
fn reap_idle(
    timeout: Duration,
    now: Instant,
    conns: &mut HashMap<u64, Conn>,
    poller: &Poller,
    ctx: &ConnCtx,
    label: &'static str,
) {
    conns.retain(|_, conn| {
        if now.duration_since(conn.last_active) < timeout {
            return true;
        }
        let _ = poller.deregister(conn.stream.as_raw_fd());
        ctx.stats.evicted.fetch_add(1, Ordering::Relaxed);
        metrics::CONN_EVICTED.inc(label);
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_handle_is_idempotent() {
        let shutdown = Arc::new(Shutdown::default());
        let handle = ShutdownHandle {
            inner: Arc::clone(&shutdown),
        };
        assert!(!handle.is_shutdown());
        handle.shutdown();
        handle.shutdown();
        assert!(handle.is_shutdown());
    }
}
