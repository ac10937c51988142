// Fixture: a reasoned suppression on a line that raises nothing under
// its code (`allow_unused`) — the guard is dropped before the write, so
// the marker silences nothing.
use std::io::Write;
pub fn respond(stream: &mut std::net::TcpStream, lock: &std::sync::Mutex<u32>) {
    let held = lock.lock().unwrap_or_else(|p| p.into_inner());
    let bytes = held.to_le_bytes();
    drop(held);
    stream.write_all(&bytes).ok(); // lint:allow(lock_io) the guard is gone
}
