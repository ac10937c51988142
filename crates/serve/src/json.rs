//! Hand-rolled JSON encoding of advisor payloads.
//!
//! crates.io (and hence serde) is unreachable in this build environment,
//! so JSON bodies are produced by a small writer. Its functions are
//! pure: [`encode_advice`] formats its argument on every call, through
//! the one JSON advice encoder, [`WireAdvice::to_json`]. The
//! server formats each `Advice` once — the first reply that carries an
//! advice stores [`encode_advice`]'s output in the advice's own text
//! slot ([`charles_core::Encoded`]), and that reply and every later one
//! embed the borrowed slot (`served_advice`, read by `render_ok`). The
//! writer has two hard guarantees the serving layer leans on:
//!
//! * **Determinism** — object keys are emitted in a fixed order with no
//!   whitespace, floats use Rust's shortest round-trip `Display`, and
//!   only the deterministic fields of an [`Advice`] are encoded
//!   (`backend_ops` / `cache` are per-run diagnostics whose counts vary
//!   under threads, so they are deliberately left out). Encoding the
//!   same advice twice — or advice produced by a cache hit versus a
//!   fresh advisor run on the same canonical context — yields identical
//!   bytes.
//! * **Validity** — strings are escaped per RFC 8259 (`"`/`\\`/control
//!   characters), non-finite floats (which the advisor never produces,
//!   but the encoder cannot prove that) become `null` instead of
//!   invalid tokens.

use crate::server::MetricsSnapshot;
use crate::wire::{WireAdvice, WireCacheStats};
use charles_core::hbcuts::StopReason;
use charles_core::Advice;

/// Escape and double-quote a string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number (shortest round-trip form); `null`
/// for non-finite values, which JSON cannot represent.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of strings.
pub(crate) fn json_string_array(items: &[String]) -> String {
    json_array(items, |s| json_string(s))
}

/// A JSON array of `items`, each rendered by `item`.
pub(crate) fn json_array<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let mut out = String::from("[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item(x));
    }
    out.push(']');
    out
}

/// `{"session":…,"advice":…}` — the reply to start, drill and back.
/// `advice` is an already-rendered advice object
/// ([`WireAdvice::to_json`]), as in [`info_body`].
pub(crate) fn session_body(id: &str, advice: &str) -> String {
    format!("{{\"session\":{},\"advice\":{advice}}}", json_string(id))
}

/// `{"session":…,"depth":…,"breadcrumbs":[…],"advice":…}` — the reply
/// to a session inspection.
pub(crate) fn info_body(id: &str, depth: u64, breadcrumbs: &[String], advice: &str) -> String {
    format!(
        "{{\"session\":{},\"depth\":{depth},\"breadcrumbs\":{},\"advice\":{advice}}}",
        json_string(id),
        json_string_array(breadcrumbs)
    )
}

/// The shared advice-cache counters; `capacity` is `null` when the
/// cache is unbounded.
pub(crate) fn cache_stats_body(c: &WireCacheStats) -> String {
    let capacity = match c.capacity {
        Some(cap) => cap.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"hits\":{},\"misses\":{},\"runs\":{},\"evictions\":{},\"entries\":{},\"capacity\":{capacity}}}",
        c.hits, c.misses, c.runs, c.evictions, c.entries
    )
}

/// The serving-layer counters.
pub(crate) fn metrics_body(m: &MetricsSnapshot) -> String {
    format!(
        "{{\"connections\":{},\"requests\":{},\"responses_2xx\":{},\"responses_4xx\":{},\"responses_5xx\":{},\"analysis_rejects\":{},\"analysis_prunes\":{}}}",
        m.connections,
        m.requests,
        m.responses_2xx,
        m.responses_4xx,
        m.responses_5xx,
        m.analysis_rejects,
        m.analysis_prunes
    )
}

/// The liveness reply.
pub(crate) const HEALTH_BODY: &str = "{\"ok\":true}";

/// The error object both listeners answer with: [`encode_error`]'s
/// shape, plus — when `diagnostics` is `Some`, even if empty — a
/// `"diagnostics":[{"code":…,"attr":…,"detail":…},…]` member built from
/// `(code, attr, detail)` triples.
pub(crate) fn error_body(
    code: &str,
    message: &str,
    diagnostics: Option<&[(&str, &str, &str)]>,
) -> String {
    let mut out = format!(
        "{{\"error\":{{\"code\":{},\"message\":{}",
        json_string(code),
        json_string(message)
    );
    if let Some(diagnostics) = diagnostics {
        out.push_str(",\"diagnostics\":");
        out.push_str(&json_array(diagnostics, |(code, attr, detail)| {
            format!(
                "{{\"code\":{},\"attr\":{},\"detail\":{}}}",
                json_string(code),
                json_string(attr),
                json_string(detail)
            )
        }));
    }
    out.push_str("}}");
    out
}

/// `{"error":{"code":"...","message":"..."}}` — the body of every
/// non-2xx response. `code` is a stable snake_case machine-readable
/// identifier (clients branch on it; the set is documented in the
/// README's serving section); `message` is the human-readable detail.
pub(crate) fn encode_error(code: &str, message: &str) -> String {
    debug_assert!(
        code.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
        "error codes are stable snake_case identifiers, got {code:?}"
    );
    error_body(code, message, None)
}

/// [`encode_error`] with the static-analysis findings attached:
/// `{"error":{"code":…,"message":…,"diagnostics":[{"code":…,"attr":…,"detail":…},…]}}`.
/// Each diagnostic's `code` is its stable snake_case
/// [`charles_sdl::DiagnosticCode`] name, so clients can branch per
/// finding, not just per response.
pub(crate) fn encode_error_with_diagnostics(
    code: &str,
    message: &str,
    diagnostics: &[charles_sdl::Diagnostic],
) -> String {
    debug_assert!(
        code.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
        "error codes are stable snake_case identifiers, got {code:?}"
    );
    let triples: Vec<(&str, &str, &str)> = diagnostics
        .iter()
        .map(|d| (d.code.name(), d.attr.as_str(), d.detail.as_str()))
        .collect();
    error_body(code, message, Some(&triples))
}

/// The wire name of a stop reason (snake_case, stable).
pub(crate) fn stop_reason_name(stop: StopReason) -> &'static str {
    match stop {
        StopReason::IndependenceThreshold => "independence_threshold",
        StopReason::DepthLimit => "depth_limit",
        StopReason::ExhaustedCandidates => "exhausted_candidates",
        StopReason::ComposeFailed => "compose_failed",
    }
}

/// Encode a full advice payload (deterministic fields only — see the
/// module docs for why the op/cache diagnostics are excluded): the
/// advice lowered to its wire form and rendered by
/// [`WireAdvice::to_json`], the one JSON advice encoder.
pub fn encode_advice(advice: &Advice) -> String {
    WireAdvice::from(advice).to_json()
}

/// The advice object as both listeners' JSON bodies embed it: the first
/// call on an `Advice` renders it ([`encode_advice`]) into the advice's
/// own text slot, this and every later call borrow the slot.
pub(crate) fn served_advice(advice: &Advice) -> &str {
    advice.encoded.text(|| encode_advice(advice))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::Advisor;
    use charles_store::{DataType, TableBuilder, Value};

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        // Non-ASCII passes through as UTF-8.
        assert_eq!(json_string("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn error_bodies_are_structured() {
        assert_eq!(
            encode_error("no_such_session", "no session \"s9\""),
            "{\"error\":{\"code\":\"no_such_session\",\"message\":\"no session \\\"s9\\\"\"}}"
        );
    }

    #[test]
    fn float_rendering() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(-0.0), "-0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        // Shortest round-trip: re-parsing reproduces the bits.
        let v = std::f64::consts::LN_2;
        let s = json_f64(v);
        assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn advice_encoding_is_deterministic_and_json_shaped() {
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..32i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let advice = Advisor::new(&t).advise_str("(kind: , size: )").unwrap();
        let one = encode_advice(&advice);
        let two = encode_advice(&advice);
        assert_eq!(one, two);
        assert!(one.starts_with("{\"context\":\"(kind: , size: )\""));
        assert!(one.contains("\"context_size\":32"));
        assert!(one.contains("\"ranked\":["));
        assert!(one.contains("\"trace\":{\"seeds\":"));
        // No stray raw control characters or trailing whitespace.
        assert!(!one.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn error_with_diagnostics_shape_is_pinned() {
        use charles_sdl::{Diagnostic, DiagnosticCode};
        let body = encode_error_with_diagnostics(
            "invalid_context",
            "context failed static analysis",
            &[
                Diagnostic::new(DiagnosticCode::UnknownAttribute, "nope", "no such column"),
                Diagnostic::new(DiagnosticCode::TypeMismatch, "size", "got \"str\""),
            ],
        );
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"invalid_context\",\
             \"message\":\"context failed static analysis\",\
             \"diagnostics\":[\
             {\"code\":\"unknown_attribute\",\"attr\":\"nope\",\"detail\":\"no such column\"},\
             {\"code\":\"type_mismatch\",\"attr\":\"size\",\"detail\":\"got \\\"str\\\"\"}]}}"
        );
        // Empty diagnostics still produce a valid (empty) array.
        let body = encode_error_with_diagnostics("invalid_context", "m", &[]);
        assert!(body.ends_with("\"diagnostics\":[]}}"));
    }

    #[test]
    fn stop_reasons_have_stable_names() {
        assert_eq!(
            stop_reason_name(StopReason::IndependenceThreshold),
            "independence_threshold"
        );
        assert_eq!(stop_reason_name(StopReason::DepthLimit), "depth_limit");
        assert_eq!(
            stop_reason_name(StopReason::ExhaustedCandidates),
            "exhausted_candidates"
        );
        assert_eq!(
            stop_reason_name(StopReason::ComposeFailed),
            "compose_failed"
        );
    }
}
