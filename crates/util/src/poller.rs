//! A thin, dependency-free epoll wrapper for the event-driven front end.
//!
//! The container builds offline, so — like the `crates/shims/` precedent —
//! this module binds the handful of libc entry points it needs directly
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`, `eventfd`, `read`/`write`/
//! `close`, `getrlimit`/`setrlimit`) instead of pulling in `mio` or `libc`.
//! std already links libc, so the symbols are always present on the Linux
//! targets ABase runs on.
//!
//! The surface is deliberately small:
//!
//! * [`Poller`] — an epoll instance: `register`/`modify`/`deregister` a raw
//!   fd with an [`Interest`] and a caller-chosen token, then [`Poller::poll`]
//!   into an [`Events`] buffer.
//! * [`Interest`] — readable/writable, level-triggered.
//!   The front end registers connections writable **only while output is
//!   pending**, so an idle connection costs one registered fd and nothing
//!   else.
//! * [`Waker`] — an eventfd that makes `poll` return from another thread:
//!   shutdown signaling and cross-worker connection handoff both ride on it.
//! * [`raise_nofile_limit`] — lift `RLIMIT_NOFILE` toward its hard cap so
//!   connection-scaling runs can actually open 10k+ sockets.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Raw libc bindings (the shims precedent: no external crates).
// ---------------------------------------------------------------------------

/// `struct epoll_event`. The kernel ABI packs it on x86_64 (12 bytes) and
/// aligns it naturally elsewhere; mirroring glibc's `__EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const RLIMIT_NOFILE: i32 = 7;

/// The last OS error as an `io::Error` (errno is thread-local; read it
/// immediately after the failing call).
fn os_error() -> io::Error {
    io::Error::last_os_error()
}

// ---------------------------------------------------------------------------
// Interest
// ---------------------------------------------------------------------------

/// What readiness a registration asks for.
///
/// Level-triggered — the front end's drain loops are written so
/// level semantics cannot starve a socket, and "writable only while output
/// is pending" maps naturally onto level-triggered `EPOLLOUT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Readable readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Writable readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Both readable and writable readiness.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(&self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One readiness notification out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or a peer hang-up, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error condition on the fd (`EPOLLERR`); the next read/write reports
    /// the specific error.
    pub error: bool,
    /// Peer closed its end (`EPOLLHUP`/`EPOLLRDHUP`).
    pub hangup: bool,
}

/// Reusable buffer of readiness notifications.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer holding up to `capacity` notifications per poll.
    pub fn with_capacity(capacity: usize) -> Self {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Notifications from the most recent poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the (possibly packed) struct before field reads.
            let ev = *raw;
            Event {
                token: ev.data,
                readable: ev.events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: ev.events & EPOLLOUT != 0,
                error: ev.events & EPOLLERR != 0,
                hangup: ev.events & (EPOLLHUP | EPOLLRDHUP) != 0,
            }
        })
    }

    /// Number of notifications from the most recent poll.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent poll returned no notifications.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

/// An epoll instance with registration and a bounded wait.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; the flag is a valid
        // constant and the return value is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Option<Interest>) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.map_or(0, |i| i.mask()),
            data: token,
        };
        // SAFETY: `ev` is a live, properly initialised EpollEvent for the
        // duration of the call; the kernel only reads it. `self.epfd` is a
        // valid epoll fd until Drop.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(os_error());
        }
        Ok(())
    }

    /// Start watching `fd` with `interest`; readiness events carry `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, Some(interest))
    }

    /// Change an existing registration's interest (and/or token).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, Some(interest))
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, None)
    }

    /// Wait for readiness on any registered fd, at most `timeout` (`None`
    /// blocks until something is ready). Returns the notification count;
    /// `events` holds the details. A signal-interrupted wait reports zero
    /// events rather than an error.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0 < t < 1ms timeout still sleeps.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(t.subsec_micros() % 1000 != 0)
            }
        };
        // SAFETY: the out-pointer and capacity describe `events.buf`'s
        // allocation exactly; the kernel writes at most `buf.len()` entries
        // and `events.len` is set only from the returned count.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                events.buf.as_mut_ptr(),
                events.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                events.len = 0;
                return Ok(0);
            }
            return Err(err);
        }
        events.len = n as usize;
        Ok(events.len)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by epoll_create1, is owned solely by
        // this Poller, and is closed exactly once (Drop consumes self).
        unsafe { close(self.epfd) };
    }
}

// SAFETY: Poller holds only an owned epoll fd. Registration and polling are
// plain syscalls on that fd, and the kernel serialises concurrent epoll_ctl/
// epoll_wait calls on the same instance — no thread affinity, no shared
// mutable state on the Rust side.
unsafe impl Send for Poller {}
// SAFETY: see Send above — `&Poller` only ever issues thread-safe syscalls.
unsafe impl Sync for Poller {}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// An eventfd that makes a [`Poller::poll`] return from another thread.
///
/// Register [`Waker::raw_fd`] (readable, any token); `wake` from anywhere;
/// the polling thread calls `drain` when it sees the token so the next poll
/// blocks again.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A fresh, non-blocking eventfd.
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd takes no pointers; flags are valid constants and
        // the return value is checked below.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register with a poller (readable interest).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Make the registered poller's current (or next) poll return. Safe from
    /// any thread; coalesces with outstanding wakes.
    pub fn wake(&self) {
        let one: u64 = 1;
        // An EAGAIN here means the counter is already at max — the wake is
        // already pending, which is all the caller wants.
        // SAFETY: the buffer is a live 8-byte u64 on this stack frame, the
        // exact width an eventfd write requires; `fd` is owned until Drop.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consume pending wakes so the next poll blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is a live 8-byte stack array, the exact width an
        // eventfd read produces; `fd` is owned until Drop.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by eventfd, is owned solely by this
        // Waker, and is closed exactly once (Drop consumes self).
        unsafe { close(self.fd) };
    }
}

// SAFETY: Waker holds only an owned eventfd; write/read on an eventfd are
// atomic kernel operations, explicitly safe from any thread.
unsafe impl Send for Waker {}
// SAFETY: see Send above — `&Waker` only ever issues thread-safe syscalls.
unsafe impl Sync for Waker {}

// ---------------------------------------------------------------------------
// RLIMIT_NOFILE
// ---------------------------------------------------------------------------

/// Raise the soft `RLIMIT_NOFILE` toward `want` (capped at the hard limit).
/// Returns the soft limit in effect afterwards. Connection-scaling runs call
/// this before opening tens of thousands of sockets; everything else leaves
/// the inherited limit alone.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut rl = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `rl` is a live, initialised RLimit matching the kernel ABI;
    // the kernel writes both fields.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) } < 0 {
        return Err(os_error());
    }
    if rl.rlim_cur >= want {
        return Ok(rl.rlim_cur);
    }
    let target = want.min(rl.rlim_max);
    let new = RLimit {
        rlim_cur: target,
        rlim_max: rl.rlim_max,
    };
    // SAFETY: `new` is a live, fully initialised RLimit; the kernel only
    // reads it.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } < 0 {
        return Err(os_error());
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller
            .register(waker.raw_fd(), 99, Interest::READABLE)
            .unwrap();
        let w = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Events::with_capacity(8);
        let started = Instant::now();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, 99);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake did not interrupt"
        );
        waker.drain();
        // Drained: the next poll times out instead of spinning on the stale wake.
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        handle.join().unwrap();
    }

    #[test]
    fn socket_readability_and_conditional_writable_interest() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Read-only interest: a freshly writable socket must NOT notify.
        poller
            .register(server.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "idle read-only registration produced an event");

        // Data arrives: readable fires with the right token.
        client.write_all(b"ping").unwrap();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable && !ev.writable);

        // Flip to write interest (output pending): writable fires immediately.
        poller
            .modify(server.as_raw_fd(), 7, Interest::BOTH)
            .unwrap();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);

        // Peer close reads as readable + hangup.
        let mut buf = [0u8; 8];
        let mut srv = &server;
        let _ = srv.read(&mut buf);
        drop(client);
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().readable);
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn nofile_limit_is_monotone() {
        let current = raise_nofile_limit(0).unwrap();
        assert!(current > 0);
        // Asking for less than we have is a no-op that reports the status quo.
        assert_eq!(raise_nofile_limit(1).unwrap(), current);
    }
}
