//! Fixture: the false-positive regression file. Everything in here
//! *looks* like a `lock_io` finding to a substring scanner and must
//! produce ZERO diagnostics from the token-level engine. The harness
//! places it in the serve crate, where the lock discipline applies.
//!
//! Doc-comment mention: `let g = m.lock().unwrap(); s.write_all(&g)` — not code.
//! Doc-comment suppression mention: `lint:allow(lock_io)` — not a suppression.
use std::io::Write;

/// Locks and writes, but no guard is live at any write.
pub fn respond(stream: &mut std::net::TcpStream, lock: &std::sync::Mutex<Vec<u8>>) {
    // A comment may say `let g = lock.lock().unwrap(); stream.write_all(&g)`.
    let s = "let g = lock.lock().unwrap(); stream.write_all(&g)";
    // The guard dies with its statement: `len` is a number, not a guard.
    let len = lock.lock().unwrap_or_else(|p| p.into_inner()).len();
    // The guard dies with its block.
    let copy = {
        let held = lock.lock().unwrap_or_else(|p| p.into_inner());
        held.clone()
    };
    stream.write_all(&copy).ok();
    stream.write_all(&s.as_bytes()[..len.min(s.len())]).ok();
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    #[test]
    fn test_code_may_hold_a_guard_across_io() {
        let g = std::sync::Mutex::new(Vec::<u8>::new());
        let mut held = g.lock().unwrap();
        held.write_all(b"x").unwrap();
        held.flush().unwrap();
    }
}
