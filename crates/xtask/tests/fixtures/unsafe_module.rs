// Fixture: unsafe allowlist (`unsafe_module`). The allowlist is empty,
// so any path is outside it; the SAFETY comment is present so only the
// allowlist rule fires.
pub fn peek(bytes: &[u8]) -> u8 {
    // SAFETY: caller guarantees bytes is non-empty (it is not; that is
    // the point of the ban).
    unsafe { *bytes.as_ptr() }
}
