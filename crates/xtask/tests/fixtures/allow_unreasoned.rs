// Fixture: suppression without a reason (`allow_unreasoned`) — and the
// suppressed diagnostic must still fire.
use std::io::Write;
pub fn respond(stream: &mut std::net::TcpStream, lock: &std::sync::Mutex<u32>) {
    let held = lock.lock().unwrap_or_else(|p| p.into_inner());
    stream.write_all(&held.to_le_bytes()).ok(); // lint:allow(lock_io)
}
