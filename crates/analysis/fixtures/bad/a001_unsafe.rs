// Fixture: unsafe block with no SAFETY justification anywhere nearby.

pub(crate) fn read_raw(ptr: *const u8) -> u8 {
    unsafe { *ptr }
}

pub struct Wrapper(*mut u8);

unsafe impl Send for Wrapper {}
