// Fixture: every strong ordering names its pairing site.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub(crate) fn publish(flag: &AtomicBool, seq: &AtomicU64) {
    // ORDER: SeqCst pairs with the SeqCst load in `drain` (not shown); the
    // counter orders against the flag publication below.
    seq.fetch_add(1, Ordering::SeqCst);
    // ORDER: Release pairs with the Acquire load in `consume`; publishes the
    // counter increment above.
    flag.store(true, Ordering::Release);
}

pub(crate) fn consume(flag: &AtomicBool) -> bool {
    // ORDER: Acquire pairs with the Release store in `publish`.
    flag.load(Ordering::Acquire)
}

pub(crate) fn relaxed_is_fine(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_is_exempt() {
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::SeqCst);
        assert!(flag.load(Ordering::SeqCst));
    }
}
