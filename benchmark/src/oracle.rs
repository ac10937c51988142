//! The correctness oracle: a single-thread, in-process reference per
//! distinct context, and the digest every timed op must reproduce.
//!
//! No golden digests are committed. The check is the repo's own
//! equivalence invariant — parallel ⇔ sequential, cached ⇔ fresh,
//! disk ⇔ memory, wire ⇔ JSON — applied to every op of every run.

use charles_core::{Advice, Advisor};
use charles_sdl::Query;
use charles_serve::json::encode_advice;
use charles_store::Backend;

/// 64-bit digest of a byte string: one multiply per 8-byte word, so
/// hashing every pipelined frame costs the client next to nothing.
/// Not collision-resistant against an adversary; it only has to tell a
/// right answer from a wrong one.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = mix(K, bytes.len() as u64);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    h ^ (h >> 29)
}

/// Digest of an advice as a client sees it: the JSON encoding carries
/// the context, the ranked segmentations, every score (floats in
/// shortest round-trip form, so bit-exact) and the whole trace.
pub fn advice_digest(advice: &Advice) -> u64 {
    digest(encode_advice(advice).as_bytes())
}

/// The advice JSON inside a served `{"session":…,"advice":…}` envelope.
pub fn envelope_advice(body: &str) -> Option<&str> {
    let start = body.find(",\"advice\":")? + ",\"advice\":".len();
    body.get(start..body.len().checked_sub(1)?)
}

/// The session id inside a served envelope.
pub fn envelope_session(body: &str) -> Option<&str> {
    body.strip_prefix("{\"session\":\"")?.split('"').next()
}

/// Run `f` with every `par_map` forced onto the calling thread — the
/// sequential path the references are computed on.
pub fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    charles_parallel::set_num_threads(1);
    let out = f();
    charles_parallel::set_num_threads(0);
    out
}

/// Reference advice for one SDL context, exactly as `advise_str` would
/// answer it. `Err` carries the advisor's message.
pub fn reference(backend: &dyn Backend, sdl: &str) -> Result<Advice, String> {
    Advisor::new(backend)
        .advise_str(sdl)
        .map_err(|e| format!("reference advise failed on {sdl}: {e}"))
}

/// Reference advice for one parsed context (sessions advise on
/// canonicalized queries, not on text).
pub fn reference_query(backend: &dyn Backend, query: Query) -> Result<Advice, String> {
    let shown = query.to_string();
    Advisor::new(backend)
        .advise(query)
        .map_err(|e| format!("reference advise failed on {shown}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let base = b"0123456789abcdefXYZ".to_vec();
        let d = digest(&base);
        assert_eq!(d, digest(&base));
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(d, digest(&flipped), "byte {i}");
        }
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn envelope_fields_are_found() {
        let body = "{\"session\":\"s12\",\"advice\":{\"context\":\"(a: )\"}}";
        assert_eq!(envelope_session(body), Some("s12"));
        assert_eq!(envelope_advice(body), Some("{\"context\":\"(a: )\"}"));
        assert_eq!(envelope_advice("{}"), None);
        assert_eq!(envelope_session("{\"error\":{}}"), None);
    }
}
