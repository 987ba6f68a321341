// Fixture: locking through the shim and atomics/channels from std::sync.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

pub struct State {
    inner: Mutex<u64>,
    ticks: AtomicU64,
}

pub(crate) fn bump(s: &Arc<State>) {
    *s.inner.lock() += 1;
    s.ticks.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn channel() -> (mpsc::Sender<u64>, mpsc::Receiver<u64>) {
    mpsc::channel()
}
