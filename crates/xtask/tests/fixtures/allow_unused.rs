// Fixture: a reasoned suppression on a line that raises nothing under
// its code (`allow_unused`) — a slice write is not a panicking call the
// `panic` pass matches, so the marker silences nothing.
pub fn patch(buf: &mut [u8], len: u32) {
    buf[0..4].copy_from_slice(&len.to_le_bytes()); // lint:allow(panic) the slot exists
}
