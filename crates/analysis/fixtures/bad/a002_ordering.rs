// Fixture: strong atomic orderings with no ORDER pairing comment.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub(crate) fn publish(flag: &AtomicBool, seq: &AtomicU64) {
    seq.fetch_add(1, Ordering::SeqCst);
    flag.store(true, Ordering::Release);
}

pub(crate) fn consume(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Acquire)
}

pub(crate) fn relaxed_is_fine(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::Relaxed)
}
