// Fixture: every unsafe site argues its safety.

pub(crate) fn read_raw(ptr: *const u8) -> u8 {
    // SAFETY: callers pass a pointer into a live, aligned buffer.
    unsafe { *ptr }
}

pub struct Wrapper(*mut u8);

// SAFETY: the pointer is owned exclusively by the wrapper and only
// dereferenced while holding the owning structure by value.
unsafe impl Send for Wrapper {}

/// Doc text mentioning unsafe code and `.unwrap()` must not trip anything.
pub(crate) fn doc_only() {
    let s = "unsafe in a string is not code";
    let _ = s;
}
