// Fixture: SAFETY-comment rule (`unsafe_undocumented`). The comment
// above the first block is too far away (3+ lines); the second block
// shares a line with its comment and passes. (Both blocks also trip
// the allowlist rule: the allowlist is empty.)
pub fn read(ptr: *const u8) -> u8 {
    // SAFETY: this comment is separated from the unsafe block

    let _padding = 1;
    unsafe { *ptr }
}

pub fn read2(ptr: *const u8) -> u8 {
    unsafe { *ptr } // SAFETY: trailing comments on the same line count
}
